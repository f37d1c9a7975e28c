"""Content-addressed cache for expensive per-job sweep state.

Three kinds of state dominate a device-detailed sweep job's setup cost, and
all three are deterministic functions of content the job already carries —
so they are cached under SHA-256 keys of that content and shared across
jobs, worker processes, and whole sweep runs:

``model``
    Trained scenario weights, keyed by (scenario, params, seed).  Only
    trained scenarios store here; untrained builds are cheap.
``programming``
    The characterised per-cell array state of every weight layer
    (:class:`~repro.engine.ArrayState` tensors), keyed by the model's
    quantised weights plus the programming-relevant config fields —
    *not* ``adc_bits`` / ``calibration`` / ``device_exec``, none of which
    affect cell characterisation.  This is why the 5-bit and
    nominal variants of a scenario do not recompute programming.
``calibration``
    The workload-calibrated ADC reference levels per layer, keyed by the
    programming key plus the full inference config and the workload digest
    (upstream layers' ADC settings change the activations reaching a layer,
    so calibration cannot be shared across ADC variants — but repeat runs
    of the same job, e.g. a parallel re-run, hit).

Entries are ``.npz`` files written atomically (temp file + ``os.replace``),
so racing worker processes at worst duplicate a computation — they never
read a half-written entry.  An entry damaged on disk (truncated, emptied,
overwritten) reads as a miss: it is moved aside as ``<key>.npz.corrupt``,
counted, and the job recomputes and rewrites it.  Everything here is
best-effort: a cold, deleted or damaged cache only costs time, never
changes results (guarded by the serial-vs-parallel bit-identity tests).
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

from ..cells.curfe_cell import SOLVER_REVISION
from ..core.macro import IMCMacroConfig
from ..devices.variation import NO_VARIATION
from ..engine.array_state import ArrayState
from ..engine.shm import host_shared_arrays, shm_available
from ..obs.metrics import REGISTRY
from ..system.inference import InferenceConfig
from .hashing import digest_arrays, digest_payload

__all__ = [
    "SweepCache",
    "arrays_from_state",
    "restore_state",
    "programming_key",
    "calibration_key",
    "model_key",
    "weights_digest",
]

#: Cache kinds (subdirectories of the cache root).
KINDS = ("model", "programming", "calibration")

#: Cache lookups per (kind, outcome), registered at import so the family
#: appears on every /metrics scrape.  An unreadable entry counts both a
#: ``miss`` and a ``corrupt``.
_CACHE_EVENTS = REGISTRY.counter(
    "repro_sweep_cache_events_total",
    "Sweep cache lookups by entry kind and hit/miss/corrupt outcome",
)

#: What ``np.load`` raises on a damaged ``.npz``: a truncated archive
#: (``BadZipFile``), an empty file (``EOFError``), or bytes that are not an
#: archive at all (``ValueError``, since pickles are refused).
_UNREADABLE = (zipfile.BadZipFile, EOFError, ValueError)

#: Separator between layer name and tensor name inside an ``.npz`` entry
#: (layer names are Python identifiers, so ``"__"`` cannot collide).
_SEP = "__"


# --------------------------------------------------------------------- keys


def model_key(scenario: str, params: Mapping[str, object], seed: int) -> str:
    """Cache key of a trained scenario model's weights."""
    return digest_payload(
        {"scenario": scenario, "params": dict(params), "seed": seed}
    )


def _programming_config_payload(config: InferenceConfig) -> Dict[str, object]:
    """The config fields that influence cell characterisation/programming.

    ``adc_bits``, ``calibration`` and ``device_exec`` are deliberately
    absent: the programmed cell state is identical across them.  The cell
    solver's revision is present: an entry stores solved tables, and a
    solver whose floats differ must not restore them.
    """
    payload = config.to_dict()
    for key in ("adc_bits", "calibration", "calibration_samples",
                "device_exec", "input_bits", "backend"):
        payload.pop(key)
    payload["cell_solver"] = SOLVER_REVISION
    return payload


def programming_key(
    config: InferenceConfig, weights_digest: str
) -> str:
    """Cache key of the characterised + programmed layer states."""
    return digest_payload(
        {
            "kind": "programming",
            "config": _programming_config_payload(config),
            "weights": weights_digest,
        }
    )


def calibration_key(
    config: InferenceConfig, weights_digest: str, workload_digest: str,
    batch_size: int,
) -> str:
    """Cache key of the per-layer calibrated reference levels.

    The full config matters (a layer's calibration batch is shaped by every
    upstream layer's ADC), as does the workload (first batch = calibration
    set, hence ``batch_size``).
    """
    return digest_payload(
        {
            "kind": "calibration",
            "config": config.to_dict(),
            "weights": weights_digest,
            "workload": workload_digest,
            "batch_size": batch_size,
        }
    )


# ----------------------------------------------------- ArrayState round trip


def arrays_from_state(state: ArrayState) -> Dict[str, np.ndarray]:
    """The variation-dependent tensors of a state, as a flat array dict.

    Everything else in an :class:`ArrayState` (readout transfer objects,
    cell parameters, TIA constants) is deterministic given the design and
    dimensions, so :func:`restore_state` rebuilds it from a cheap
    variation-free construction instead of serialising object graphs; the
    dimensions themselves are the shape of the ``{group}_on`` tensors.
    """
    arrays: Dict[str, np.ndarray] = {}
    for key in ("high", "low"):
        group = state.group(key)
        arrays[f"{key}_on"] = np.ascontiguousarray(group.on)
        arrays[f"{key}_off_selected"] = np.ascontiguousarray(group.off_selected)
        arrays[f"{key}_unselected"] = np.ascontiguousarray(group.unselected)
        if group.capacitance is not None:
            arrays[f"{key}_capacitance"] = np.ascontiguousarray(group.capacitance)
    return arrays


def restore_state(design: str, arrays: Mapping[str, np.ndarray]) -> ArrayState:
    """Rebuild a full :class:`ArrayState` from cached tensors.

    The dimensions come from the (banks, num_block_rows, block_rows, 4)
    ``high_on`` tensor.  A variation-free build supplies every deterministic
    piece (readouts, cell parameters, feedback resistance, clamp voltages)
    without consuming any random draws; the cached variation-dependent
    tensors then replace the broadcast placeholders.
    """
    banks, num_block_rows, block_rows, _ = np.shape(arrays["high_on"])
    config = IMCMacroConfig(
        rows=num_block_rows * block_rows,
        banks=banks,
        block_rows=block_rows,
        variation=NO_VARIATION,
    )
    state = ArrayState.build(design, config)
    for key in ("high", "low"):
        group = state.group(key)
        group.on = np.asarray(arrays[f"{key}_on"])
        group.off_selected = np.asarray(arrays[f"{key}_off_selected"])
        group.unselected = np.asarray(arrays[f"{key}_unselected"])
        cap = arrays.get(f"{key}_capacitance")
        if cap is not None:
            group.capacitance = np.asarray(cap)
            group.capacitance_total = group.capacitance.sum(axis=-1)
    return state


# --------------------------------------------------------------------- store


class SweepCache:
    """A content-addressed on-disk store of numpy array bundles.

    Args:
        root: Cache directory (created on demand).  Safe to share between
            concurrently running worker processes: reads see only fully
            written entries, writes are atomic renames.
        events: Optional in-process event sink
            (:class:`~repro.serve.events.EventLog`); every counted lookup
            also emits a ``cache_hit`` / ``cache_miss`` event, and an
            unreadable entry a ``cache_corrupt`` event.  Only wire
            one up for a cache handle that lives in the process owning the
            log — worker processes report through their job records
            instead.
    """

    def __init__(self, root: os.PathLike, *, events=None) -> None:
        self.root = Path(root)
        self.events = events
        self.hits: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.misses: Dict[str, int] = {kind: 0 for kind in KINDS}
        # Shared-memory arenas this handle has mapped (kept alive so the
        # zero-copy views handed to engines stay valid for the process).
        self._arenas: list = []

    def _count(self, kind: str, key: str, hit: bool) -> None:
        """Count one lookup and mirror it to the event sink (if any)."""
        (self.hits if hit else self.misses)[kind] += 1
        _CACHE_EVENTS.inc(kind=kind, outcome="hit" if hit else "miss")
        if self.events is not None:
            self.events.emit(
                "cache_hit" if hit else "cache_miss", kind=kind, key=key
            )

    def _path(self, kind: str, key: str) -> Path:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        return self.root / kind / f"{key}.npz"

    def get(self, kind: str, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Load an entry, counting the hit/miss; None when absent.

        An entry that exists but cannot be read is a miss too: it is moved
        aside as ``<key>.npz.corrupt``, counted with ``outcome="corrupt"``
        and reported as a ``cache_corrupt`` event, so the caller recomputes
        the state and :meth:`put` writes a fresh entry.
        """
        path = self._path(kind, key)
        try:
            # The file is opened here, not by np.load: np.load hands its own
            # handle to the archive reader, which drops it unclosed when a
            # torn archive fails to parse.
            with open(path, "rb") as handle, np.load(handle) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except FileNotFoundError:
            self._count(kind, key, hit=False)
            return None
        except _UNREADABLE as error:
            self._quarantine(kind, key, path, error)
            self._count(kind, key, hit=False)
            return None
        self._count(kind, key, hit=True)
        return arrays

    def _quarantine(
        self, kind: str, key: str, path: Path, error: Exception
    ) -> None:
        """Move an unreadable entry to ``<key>.npz.corrupt`` and report it."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except FileNotFoundError:
            pass  # a racing reader already moved it aside
        _CACHE_EVENTS.inc(kind=kind, outcome="corrupt")
        if self.events is not None:
            self.events.emit(
                "cache_corrupt", kind=kind, key=key,
                error=f"{type(error).__name__}: {error}",
            )

    def put(self, kind: str, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Store an entry atomically (last concurrent writer wins)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **{k: np.asarray(v) for k, v in arrays.items()})
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    # -------------------------------------------------- layered-dict helpers

    def get_layered(
        self, kind: str, key: str
    ) -> Optional[Dict[str, Dict[str, np.ndarray]]]:
        """Load an entry of per-layer array dicts (``layer__tensor`` keys)."""
        flat = self.get(kind, key)
        if flat is None:
            return None
        layered: Dict[str, Dict[str, np.ndarray]] = {}
        for name, array in flat.items():
            layer, _, tensor = name.partition(_SEP)
            layered.setdefault(layer, {})[tensor] = array
        return layered

    def get_layered_shared(
        self, kind: str, key: str
    ) -> Optional[Dict[str, Dict[str, np.ndarray]]]:
        """Like :meth:`get_layered`, but one physical copy per host.

        The first worker process to ask for *(kind, key)* loads the ``.npz``
        from disk and publishes its arrays in a shared-memory arena; every
        later worker on the host maps them zero-copy instead of re-reading
        and re-allocating the bundle (layer states dominate a device sweep
        job's memory).  The returned views are read-only — callers must
        treat them as immutable, which sweep restore paths already do.
        Falls back to the private :meth:`get_layered` when shared memory is
        unavailable; a cache miss publishes nothing and returns None.
        """
        if not shm_available():
            return self.get_layered(kind, key)
        loaded = False

        def _loader() -> Optional[Dict[str, np.ndarray]]:
            nonlocal loaded
            loaded = True
            return self.get(kind, key)

        # The tag is scoped to the cache root: an arena may only stand in
        # for entries of *this* store (a cleared cache directory must look
        # cold, never resurrect content through a stale host arena).
        tag = f"sweep-{self.root.resolve()}-{kind}-{key}"
        flat, arena = host_shared_arrays(tag, _loader)
        if arena is not None:
            self._arenas.append(arena)
            if not loaded:
                # Attached to another worker's arena: the disk store was
                # never touched, but semantically this is a cache hit.
                self._count(kind, key, hit=True)
        if flat is None:
            return None
        layered: Dict[str, Dict[str, np.ndarray]] = {}
        for name, array in flat.items():
            layer, _, tensor = name.partition(_SEP)
            layered.setdefault(layer, {})[tensor] = array
        return layered

    def put_layered(
        self, kind: str, key: str, layers: Mapping[str, Mapping[str, np.ndarray]]
    ) -> None:
        """Store per-layer array dicts flattened to ``layer__tensor`` keys."""
        flat: Dict[str, np.ndarray] = {}
        for layer, arrays in layers.items():
            if _SEP in layer:
                raise ValueError(f"layer name {layer!r} contains {_SEP!r}")
            for tensor, array in arrays.items():
                flat[f"{layer}{_SEP}{tensor}"] = np.asarray(array)
        self.put(kind, key, flat)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters of this cache handle (per kind)."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
        }


def weights_digest(quantized_weights: Mapping[str, np.ndarray]) -> str:
    """Digest of a model's quantised integer weights, layer order included."""
    hasher_parts = []
    for name in sorted(quantized_weights):
        hasher_parts.append(name)
        hasher_parts.append(digest_arrays(quantized_weights[name]))
    return digest_payload(hasher_parts)
