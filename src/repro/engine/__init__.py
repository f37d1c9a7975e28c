"""Vectorised array engine for the device-detailed macro path.

The engine collapses the per-cell object hierarchy of
:mod:`repro.core.macro` into structure-of-arrays storage
(:class:`ArrayState`) and executes matrix-vector and batched matrix-matrix
products fully vectorised across banks, block rows, bit planes, and batch
(:class:`MacroEngine`) — through the *same* variation, readout and ADC maths
as the legacy loop, bit for bit.

Nothing is imported eagerly.  Other modules import engine submodules by
path: ``circuits`` and ``core`` import :mod:`repro.engine.readout_core`
(the shared 2CM/N2CM/shift-add maths), the config dataclasses import
:mod:`repro.engine.kernels` (the kernel names), and each such import runs
this ``__init__`` first.  Had it imported the engine classes, which import
``circuits`` and ``core`` in turn, the ``readout_core`` imports would form
a cycle, and every config would also load the shared-memory arena and its
``multiprocessing`` machinery.  Each name below loads its submodule on
first access.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".readout_core": (
        "adc_raw_codes",
        "charge_share",
        "codes_to_mac",
        "combine_nibbles",
        "shift_add_planes",
    ),
    ".array_state": ("ArrayState", "GroupArrays"),
    ".macro_engine": ("MacroEngine",),
    ".kernels": ("KERNEL_TABLES", "validate_device_exec"),
    ".shm": ("ArenaManifest", "SharedArena", "host_shared_arrays", "shm_available"),
})
