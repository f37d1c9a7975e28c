"""Lazy package exports (PEP 562) shared by the subpackage ``__init__`` files.

A subpackage declares its public names once, in a table from submodule to
names.  :func:`lazy_exports` derives ``__all__`` from that table and returns
the package's module-level ``__getattr__``: the first access to a name
imports the submodule that defines it and caches the name in the package
namespace, so later lookups are plain attribute reads.

Importing a submodule (``repro.engine.shm``) runs its package ``__init__``
first; with lazy exports that ``__init__`` imports nothing, so a command
loads only the modules it uses, while ``from repro.engine import
MacroEngine`` keeps working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of *package*, exporting *table*.

    Args:
        package: The package's ``__name__``.
        table: Module path relative to *package* (``".tiling"``,
            ``"..system.activity"``) -> the names re-exported from it.
    """
    owner: Dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(f"{package}: {name!r} is exported twice")
            owner[name] = module
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__
