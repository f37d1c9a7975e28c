"""Import guards: an entry point loads only the modules it runs.

The subpackage ``__init__`` files export their names lazily, so importing
one submodule does not load its siblings.  The guards import an entry path
in a fresh interpreter and check that modules it never uses stay unloaded;
the export test checks that every lazily exported name still resolves.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules ``python -m repro run`` needs to build and run a chip.
RUN_PATH = ("repro.chipsim.simulator", "repro.chipsim.scenarios", "repro.system.inference")

#: What a run, or the validation of any document, must not load: the
#: serving runtime, the sweep machinery, the analog transient models, the
#: HTTP server and process pools.
RUN_FORBIDDEN = (
    "repro.serve.runtime",
    "repro.serve.worker",
    "repro.serve.promexp",
    "repro.sweep.runner",
    "repro.sweep.cache",
    "repro.analog",
    "http.server",
    "multiprocessing",
)

#: What a serial sweep must not load (its cache uses ``multiprocessing``
#: for the shared-memory arena).
SWEEP_FORBIDDEN = (
    "repro.analog",
    "repro.serve.runtime",
    "http.server",
    "concurrent.futures.process",
)

PACKAGES = sorted(
    "repro." + path.parent.name for path in (SRC / "repro").glob("*/__init__.py")
)


def loaded_after(*modules):
    """The names in ``sys.modules`` of a fresh interpreter that imported *modules*."""
    code = (
        "import json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    __import__(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "entry, forbidden",
    [
        (RUN_PATH, RUN_FORBIDDEN),
        (("repro.config.documents",), RUN_FORBIDDEN),
        (("repro.sweep.runner",), SWEEP_FORBIDDEN),
        # Rendering /metrics text needs no HTTP server.
        (("repro.serve.promexp",), ("http.server",)),
    ],
    ids=["run_path", "documents", "sweep_runner", "promexp"],
)
def test_entry_path_leaves_unused_modules_unloaded(entry, forbidden):
    loaded = loaded_after(*entry)
    assert set(entry) <= loaded
    assert sorted(loaded.intersection(forbidden)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        getattr(module, name)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


@pytest.fixture
def lazy_package(tmp_path, monkeypatch):
    """A throwaway package whose ``__init__`` exports two names lazily."""
    name = "lazy_exports_probe"
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__all__, __getattr__, __dir__ = lazy_exports(__name__, {\n"
        "    '.things': ('Thing', 'other'),\n"
        "})\n"
    )
    (root / "things.py").write_text("class Thing:\n    pass\n\nother = 3\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield name
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]


def test_first_access_imports_the_submodule_and_caches_the_name(lazy_package):
    package = importlib.import_module(lazy_package)
    submodule = lazy_package + ".things"
    assert package.__all__ == ["Thing", "other"]
    assert {"Thing", "other"} <= set(dir(package))
    assert submodule not in sys.modules
    assert "Thing" not in vars(package)

    thing = package.Thing
    assert thing is sys.modules[submodule].Thing
    # Cached in the namespace: later lookups no longer go through __getattr__.
    assert vars(package)["Thing"] is thing
    assert "other" not in vars(package)


def test_a_name_exported_twice_is_rejected():
    from repro._lazy import lazy_exports

    with pytest.raises(ValueError, match="'Thing' is exported twice"):
        lazy_exports("any_package", {".a": ("Thing",), ".b": ("other", "Thing")})
