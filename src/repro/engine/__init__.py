"""Vectorised array engine for the device-detailed macro path.

The engine collapses the per-cell object hierarchy of
:mod:`repro.core.macro` into structure-of-arrays storage
(:class:`ArrayState`) and executes matrix-vector and batched matrix-matrix
products fully vectorised across banks, block rows, bit planes, and batch
(:class:`MacroEngine`) — through the *same* variation, readout and ADC maths
as the legacy loop, bit for bit.

:mod:`repro.engine.readout_core` holds the shared 2CM/N2CM/shift-add
arithmetic and is imported eagerly (it has no intra-package dependencies);
the heavier classes are loaded lazily to keep the import graph acyclic
(``circuits`` modules import :mod:`readout_core`, while the engine classes
import ``circuits`` and ``core`` modules).
"""

from . import readout_core
from .readout_core import (
    adc_raw_codes,
    charge_share,
    codes_to_mac,
    combine_nibbles,
    shift_add_planes,
)

__all__ = [
    "readout_core",
    "adc_raw_codes",
    "charge_share",
    "codes_to_mac",
    "combine_nibbles",
    "shift_add_planes",
    "ArrayState",
    "GroupArrays",
    "MacroEngine",
    "KERNEL_TABLES",
    "validate_device_exec",
    "ArenaManifest",
    "SharedArena",
    "host_shared_arrays",
    "shm_available",
]

_SHM_API = (
    "ArenaManifest",
    "SharedArena",
    "host_shared_arrays",
    "shm_available",
)

_KERNEL_API = ("KERNEL_TABLES", "validate_device_exec")


def __getattr__(name):
    if name in ("ArrayState", "GroupArrays"):
        from . import array_state

        return getattr(array_state, name)
    if name == "MacroEngine":
        from .macro_engine import MacroEngine

        return MacroEngine
    if name in _KERNEL_API:
        from . import kernels

        return getattr(kernels, name)
    if name in _SHM_API:
        from . import shm

        return getattr(shm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
