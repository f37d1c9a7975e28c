"""The three device-execution kernels of the macro engine.

Every ``device_exec`` method of the device-detailed path — the value users
pass to :class:`~repro.system.inference.InferenceConfig`,
:class:`~repro.chipsim.ChipSimulator`, the sweep grid, and the serving
stack — names one of three fixed host kernels of the bit-serial MAC
arithmetic over an :class:`~repro.engine.array_state.ArrayState`:
``"exact"``, ``"fast"`` and ``"fused"``.  :data:`KERNEL_TABLES` lists them,
and every config surface checks a name with :func:`validate_device_exec`,
so a typo always raises the same error.  :data:`DEFAULT_DEVICE_EXEC`
(``"fused"``) is the one default of every entry point.

Each kernel computes on its own operand tables per weight group, named in
:data:`KERNEL_TABLES` as exported kernel plans name them
(``{group}_{name}``).  :func:`kernel_tables` builds them once per stored
pattern into the engine's one table cache.

Two kernel granularities exist:

plane kernels, ``"exact"`` and ``"fast"``
    The kernel reduces **one input bit plane** over the array rows and
    returns the per-column analog contributions; the engine then applies
    the shared readout pipeline (TIA / charge sharing, ADC, nibble
    combine, shift-add) per plane.  ``"exact"`` keeps the legacy
    expression per cell; ``"fast"`` reduces against one cached table per
    group, (num_block_rows, block_rows, banks*4) and contiguous, with an
    ``einsum`` whose inner loop runs over the banks*4 axis.

the layer kernel, ``"fused"``
    The kernel consumes the **whole batch of input values** at once and
    returns the per-block digital totals directly, free to reorganise the
    entire pipeline for throughput.  It packs all bit planes into stacked
    GEMM operands and runs one BLAS call per 32-row block and group against
    tables that hold readout volts: the analog readout (CurFe's TIA gain
    and virtual ground, ChgFe's charge-sharing average) is affine in the
    0/1 inputs, so it is folded into the table, and the gemm plus one
    offset add yields the column voltages (form A; CurFe then applies its
    TIA clamp).  A ChgFe group whose bitlines some input can push to a rail
    keeps the per-bitline readout (form B: one gemm, clip and capacitance
    scaling per bitline, then the charge share); the rail rule that decides
    it, from the tables alone, is in :func:`_fused_tables`.  The kernel
    then quantises/combines/shift-adds with in-place array ops over
    cache-resident block slices.

Exactness
---------

``"exact"`` is bit-identical to the per-device legacy loop; ``"fast"``
differs from it only at ULP level in analog voltage (a different
expression structure for the same sums).  ``"fast"`` adds the rows of each
block one at a time in ascending order — bit planes are 0/1, so every
product is exact — which makes it bit-identical across a tile grid and one
padded macro, and to the per-cell row reduction it replaced
(``tests/engine/test_plane_tables.py`` holds that oracle).

``"fused"``'s BLAS reduction reorders the sums, and its folded readout
reorders the readout arithmetic, but every floating-point difference they
introduce lives in the analog voltage *before* ADC quantisation and is a
few float spacings (``tests/engine/test_plane_tables.py`` bounds it by 16),
far below an LSB (or the spacing of calibrated reference levels), so the
quantised codes — and everything digital after them — are identical to
``"fast"`` and ``"exact"`` on both designs, calibrated and uncalibrated,
unless a voltage lies within those spacings of a decision threshold.
``"exact"`` and ``"fast"`` stay as the oracles the tests compare
``"fused"`` against (``tests/chipsim/test_fused_kernel.py`` asserts
``array_equal``, including a ``hypothesis`` property over layer shapes and
precisions).

The plane kernels convert voltages with the quantisers'
``quantize_voltages``; ``"fused"`` converts them into its own buffers, with
results equal to ``quantize_voltages`` bit for bit.  A nominal
(uniform-reference) conversion repeats
:meth:`~repro.circuits.adc.MACQuantizer.quantize_voltages`'s float
operations in place.  A calibrated conversion
(:meth:`~repro.circuits.adc.CalibratedMACQuantizer.quantize_voltages_into`)
is one gather from the quantiser's direct-level table: a uniform voltage
grid whose cells hold the level that every voltage the cell map can place
in them converts to, or NaN where a threshold comes within two cells.  The
voltages that land in a NaN cell (about 1% of them) go through
``quantize_voltages`` itself.
"""

from __future__ import annotations

import numpy as np

from ..circuits.adc import MACQuantizer
from ..obs.tracer import get_tracer
from .array_state import CURFE_DESIGN, NUM_COLUMNS

__all__ = [
    "DEFAULT_DEVICE_EXEC",
    "KERNEL_TABLES",
    "validate_device_exec",
    "kernel_tables",
    "fused_block_totals",
]


#: The kernel every ``device_exec`` default names: config objects and their
#: schemas, the chip simulator, the sweep grid and the layer engine.
DEFAULT_DEVICE_EXEC = "fused"

#: The kernels, each with the names of its operand tables per weight group.
KERNEL_TABLES = {
    "exact": ("selected",),
    "fast": ("difference", "unselected_sum"),
    "fused": ("table", "offsets"),
}


def validate_device_exec(name: str) -> str:
    """Return *name* if it names a kernel; raise ``ValueError`` otherwise.

    The one place every config surface (engine, inference config, chip
    simulator, sweep, serve) funnels through, so a typo always produces the
    same error listing the kernels.
    """
    if not isinstance(name, str) or name not in KERNEL_TABLES:
        raise ValueError(
            f"unknown device_exec {name!r}; kernels: {tuple(KERNEL_TABLES)}"
        )
    return name


def kernel_tables(engine, kernel: str, key: str) -> tuple:
    """The *kernel*'s operand tables of group *key*, in :data:`KERNEL_TABLES` order.

    Built on first use from the programmed pattern and kept in the engine's
    table cache until it is programmed again.
    """
    tables = engine._tables.get((kernel, key))
    if tables is None:
        tables = engine._tables[(kernel, key)] = _BUILD_TABLES[kernel](engine, key)
    return tables


# --------------------------------------------------------------------------
# Plane kernels: exact / fast row reductions.
# --------------------------------------------------------------------------


def _exact_tables(engine, key: str) -> tuple:
    """``stored ? on : off_selected`` per cell, (banks, R, block_rows, 4).

    The selected-row contribution the legacy blocks evaluate per
    conversion, built from (and beside) the engine's cached stored bits.
    """
    stored = engine.stored_bits(key)
    group = engine.state.group(key)
    return (stored * group.on + (1 - stored) * group.off_selected,)


def _exact_reduce(engine, plane, key: str) -> np.ndarray:
    """Legacy expression structure, batched (bit-identical per device)."""
    (selected,) = kernel_tables(engine, "exact", key)
    unselected = engine.state.group(key).unselected
    x = plane[:, None, :, :, None]
    contributions = x * selected + (1 - x) * unselected
    return contributions.sum(axis=3)


def _plan_build(engine, kernel: str, key: str):
    """The ``plan_build`` span around one group's one-time table build."""
    cells = int(engine.state.group(key).on.size)
    return get_tracer().span("plan_build", kernel=kernel, group=key, cells=cells)


def _difference_table(engine, key: str) -> np.ndarray:
    """``selected - unselected`` of one group in block-row-major layout.

    Shape (num_block_rows, block_rows, banks, 4), contiguous: entry
    ``[j, r, b, c]`` is the per-cell difference ``[b, j, r, c]``.  Every
    element is computed with the ``"exact"`` table's expression, so the
    values are identical, but neither the per-cell stored bits nor the
    selected tensor is cached: the tables built from this are the only
    per-pattern state a ``"fast"`` or ``"fused"`` engine keeps.
    """
    state = engine.state
    group = state.group(key)
    # Plan bits are (rows, banks, 4) with rows block-row-major, so this
    # layout is a free reshape; the per-cell tensors are
    # (banks, R, block_rows, 4) and are read through transposed views.
    stored = engine._plan_bits(key).reshape(
        state.num_block_rows, state.block_rows, state.banks, NUM_COLUMNS
    )
    table = np.empty(stored.shape)
    np.multiply(stored, group.on.transpose(1, 2, 0, 3), out=table)
    table += (1 - stored) * group.off_selected.transpose(1, 2, 0, 3)
    table -= group.unselected.transpose(1, 2, 0, 3)
    return table


def _fast_tables(engine, key: str) -> tuple:
    """The ``"fast"`` operands for the stored pattern of one group.

    Returns ``(difference, unselected_sum)``: ``difference`` is one
    contiguous (num_block_rows, block_rows, banks*4) stack of selected-minus-
    unselected contributions — ``difference[j]`` is the right-hand operand
    of block row ``j`` — and ``unselected_sum`` (banks, num_block_rows, 4)
    holds the unselected-row sums.  One array per group keeps the operands
    exportable as a flat kernel plan (and mappable zero-copy from a shared
    arena).
    """
    state = engine.state
    with _plan_build(engine, "fast", key):
        difference = _difference_table(engine, key).reshape(
            state.num_block_rows, state.block_rows, state.banks * NUM_COLUMNS
        )
        return difference, state.group(key).unselected.sum(axis=2)


def _fast_reduce(engine, plane, key: str) -> np.ndarray:
    """Einsum row reduction against the cached plane table.

    Bit planes are 0/1, so every product is exact, and einsum's inner loop
    runs over the table's contiguous banks*4 axis, adding the rows of a
    block one at a time in ascending order — the same sums, bit for bit,
    as a row reduction over the per-cell (banks, R, block_rows, 4) tensor.
    Keep einsum's default ``optimize=False``: the optimised path goes
    through BLAS and reorders the sums.
    """
    state = engine.state
    difference, unselected_sum = kernel_tables(engine, "fast", key)
    reduced = np.einsum("njr,jrk->njk", plane, difference).reshape(
        plane.shape[0], state.num_block_rows, state.banks, NUM_COLUMNS
    )
    return unselected_sum[None] + reduced.transpose(0, 2, 1, 3)


# --------------------------------------------------------------------------
# Layer-level fused kernel.
# --------------------------------------------------------------------------


#: Least distance (V) between every bitline voltage a ChgFe group's 0/1
#: inputs can reach and a rail, for the group's readout to fold into its
#: fused table; far above the ~1e-15 V rounding of the bound sums.
RAIL_MARGIN = 1e-9


def _fused_tables(engine, key: str) -> tuple:
    """The ``"fused"`` operands for the stored pattern of one group, in volts.

    The readout of a block is affine in its 0/1 inputs wherever no bitline
    reaches a rail, so it folds into the table: ``table[j, r, b]``
    is the readout voltage input row ``r`` of block row ``j`` adds to bank
    ``b``, and ``offsets[j, b]`` the voltage at the all-zero input.  Tables
    are (num_block_rows, block_rows, banks), offsets (num_block_rows,
    banks), and one gemm plus one add yields a group's readout voltages
    (form A):

    * CurFe: ``table = Σ_c d_c·R_f``, ``offsets = Σ_c u_c·R_f + V_cm``,
      with ``d_c`` the per-column selected-minus-unselected table, ``u_c``
      the unselected-row sum, ``R_f`` the TIA feedback resistance and
      ``V_cm`` its virtual ground.  The TIA clamp acts on the column sum,
      so the kernel still clips the result.
    * ChgFe: ``table = Σ_c d_c·C_c/C_tot``, ``offsets = Σ_c (u_c +
      V_pre)·C_c/C_tot``: the charge-sharing average of the four bitlines,
      whose per-bitline clip to ``[0, V_sup]`` is the identity when every
      bitline stays inside the rails.

    The rail rule decides that per ChgFe group: each (bank, block row,
    bitline) is bounded over all 0/1 inputs by ``u_c + V_pre`` plus the sum
    of its negative, resp. positive, ``d_c`` entries, and every bound must
    lie inside ``(0, V_sup)`` by :data:`RAIL_MARGIN`.  A group that fails
    it keeps the per-bitline readout (form B): ``table`` is the
    (4, num_block_rows, block_rows, banks) stack of ``d_c`` and
    ``offsets`` the (4, num_block_rows, banks) stack of ``u_c``, and the
    kernel runs one gemm, clip and capacitance scaling per bitline before
    the charge share.  ``table.ndim`` tells the forms apart; the
    ``plan_build`` span records the group's bitline gemm count (1 or 4).

    Exactness: the folded voltages differ from the ``"fast"`` kernel's by
    float rounding only (a few float spacings: at most 4 over the four
    scenarios at the paper's design point; the tests bound it by 16, with
    the spacing taken at no less than ``V_cm`` or ``V_pre``, the reference
    voltage both kernels add into every sum), the same class as
    the BLAS reordering of the row sums that every fused voltage already
    carries.  A code can differ only where a voltage lies within those
    spacings of a decision threshold.
    """
    state = engine.state
    group = state.group(key)
    with _plan_build(engine, "fused", key) as span:
        # (num_block_rows, block_rows, banks, 4), built uncached.
        difference = _difference_table(engine, key)
        unselected_sum = group.unselected.sum(axis=2)  # (banks, R, 4)
        if state.design == CURFE_DESIGN:
            table = difference.sum(axis=3)
            table *= group.feedback_resistance
            offsets = unselected_sum.sum(axis=2).T * group.feedback_resistance
            offsets += state.tia_virtual_ground
        else:
            table, offsets = _chgfe_fused_tables(
                state, group, difference, unselected_sum
            )
        span.set(gemms=1 if table.ndim == 3 else NUM_COLUMNS)
    return table, np.ascontiguousarray(offsets)


def _chgfe_fused_tables(state, group, difference, unselected_sum) -> tuple:
    """A ChgFe group's fused operands: form A if the rail rule holds, else B.

    *difference* is the group's (num_block_rows, block_rows, banks, 4)
    table.
    """
    # Each bitline's voltage at the all-zero input, (R, banks, 4), and its
    # range over every 0/1 input; one full-size temporary.
    base = unselected_sum.transpose(1, 0, 2) + state.precharge_voltage
    extreme = np.minimum(difference, 0.0)
    low = base + extreme.sum(axis=1)
    np.maximum(difference, 0.0, out=extreme)
    high = base + extreme.sum(axis=1)
    del extreme
    if low.min() > RAIL_MARGIN and high.max() < state.sign_supply_voltage - RAIL_MARGIN:
        weights = (
            group.capacitance / group.capacitance_total[..., None]
        ).transpose(1, 0, 2)
        # Σ_c d_c·C_c/C_tot, bitline by bitline in column order: strided
        # column passes cost a third of a product tensor and its reduction.
        table = difference[..., 0] * weights[:, None, :, 0]
        scaled = np.empty_like(table)
        for column in range(1, NUM_COLUMNS):
            np.multiply(
                difference[..., column], weights[:, None, :, column], out=scaled
            )
            table += scaled
        return table, (base * weights).sum(axis=2)
    return (
        np.ascontiguousarray(difference.transpose(3, 0, 1, 2)),
        unselected_sum.transpose(2, 1, 0),
    )


_BUILD_TABLES = {"exact": _exact_tables, "fast": _fast_tables, "fused": _fused_tables}


def _quantize_macs_inplace(quantizer: MACQuantizer, buf: np.ndarray) -> None:
    """Nominal (uniform-reference) ADC conversion of voltages to MAC values, in place.

    The elementwise float operations of :meth:`MACQuantizer.quantize_voltages`
    (``adc_raw_codes`` then ``codes_to_mac``) in the same order, with
    ``out=`` buffers instead of temporaries — bit-identical results, no
    allocation in the hot loop.
    """
    adc = quantizer.adc
    params = adc.params
    top = params.num_levels - 1
    # adc_raw_codes, op for op, in place.
    np.add(buf, adc.offset_voltage, out=buf)
    np.subtract(buf, params.v_min, out=buf)
    np.divide(buf, params.v_max - params.v_min, out=buf)
    np.multiply(buf, top, out=buf)
    np.rint(buf, out=buf)
    np.clip(buf, 0, top, out=buf)
    # codes_to_mac.
    np.multiply(buf, quantizer.mac_per_lsb, out=buf)
    np.add(buf, quantizer.mac_at_v_min, out=buf)


def _fused_voltages(engine, key: str, operand, j: int, out, bitlines=None):
    """Group *key*'s readout voltages of block row *j*, written into *out*.

    *operand* holds one 0/1 input row of the block per row of *out*
    (rows, banks).  A form A group (see :func:`_fused_tables`) is one gemm
    and one add, plus the clamp on CurFe; a form B group reads each bitline
    out into *bitlines* (four buffers shaped like *out*, allocated when not
    given) and charge-shares them.
    """
    state = engine.state
    table, offsets = kernel_tables(engine, "fused", key)
    if table.ndim == 3:
        np.matmul(operand, table[j], out=out)
        np.add(out, offsets[j], out=out)
        if state.design == CURFE_DESIGN:
            np.clip(out, state.tia_clamp_low, state.tia_clamp_high, out=out)
        return out
    if bitlines is None:
        bitlines = [np.empty_like(out) for _ in range(NUM_COLUMNS)]
    group = state.group(key)
    for column, line in enumerate(bitlines):
        np.matmul(operand, table[column, j], out=line)
        np.add(line, offsets[column, j], out=line)
        np.add(line, state.precharge_voltage, out=line)
        np.clip(line, 0.0, state.sign_supply_voltage, out=line)
        np.multiply(line, group.capacitance[:, j, column], out=line)
    # charge_share's length-4 reduction order, then the shared capacitance
    # divide.
    np.add(bitlines[0], bitlines[1], out=out)
    np.add(out, bitlines[2], out=out)
    np.add(out, bitlines[3], out=out)
    np.divide(out, group.capacitance_total[:, j], out=out)
    return out


def fused_block_totals(engine, values: np.ndarray, bits: int) -> np.ndarray:
    """Whole-batch fused pipeline: per-block totals in one pass.

    All ``bits`` input bit planes are packed into one stacked operand whose
    per-block slice is a zero-copy (bits*batch, block_rows) gemm input;
    each 32-row block then runs readout (:func:`_fused_voltages`: one gemm
    against the group's volt table plus its offsets, or the per-bitline
    readout of a form B group) → ADC → nibble combine → shift-add entirely
    on cache-resident (bits*batch, banks) buffers with in-place array ops.
    Output matches ``MacroEngine._block_totals_chunk`` of the ``"fast"``
    and ``"exact"`` kernels bit for bit (see module docstring).

    Args:
        engine: A programmed :class:`~repro.engine.MacroEngine`.
        values: Unsigned input chunk of shape (rows, batch), int64.
        bits: Input precision (1..8).

    Returns:
        Float array of shape (batch, banks, num_block_rows).
    """
    state = engine.state
    batch = values.shape[1]
    num_block_rows, block_rows = state.num_block_rows, state.block_rows
    banks = state.banks
    stacked_rows = bits * batch

    # Bit planes, bit-major over the gemm row axis; planes[:, :, j, :]
    # reshaped to (bits*batch, block_rows) is a strided view BLAS consumes
    # without copying (leading dimension = num_block_rows * block_rows).
    planes = np.empty((bits, batch, num_block_rows, block_rows))
    for bit in range(bits):
        planes[bit] = ((values >> bit) & 1).T.reshape(
            batch, num_block_rows, block_rows
        )
    stacked = planes.reshape(stacked_rows, num_block_rows, block_rows)

    keys = ("high", "low") if engine.weight_bits == 8 else ("high",)
    macs = {key: np.empty((stacked_rows, banks)) for key in keys}
    # Bitline buffers of the form B groups (rail-reachable ChgFe) only.
    bitlines = None
    if any(kernel_tables(engine, "fused", key)[0].ndim == 4 for key in keys):
        bitlines = [np.empty((stacked_rows, banks)) for _ in range(NUM_COLUMNS)]
    # A calibrated group's readout writes its voltages here, where they stay
    # while the table conversion fills its MAC buffer: the voltages of NaN
    # cells are converted from them.  A nominal group converts in place.
    if engine._calibrated:
        voltages = np.empty((stacked_rows, banks))
        cell = np.empty((stacked_rows, banks), dtype=np.int64)
    block_totals = np.empty((num_block_rows, batch, banks))
    plane_scaled = np.empty((batch, banks))

    for j in range(num_block_rows):
        operand = stacked[:, j, :]
        for key in keys:
            calibrated = engine._calibrated.get(key)
            out = macs[key] if calibrated is None else voltages
            _fused_voltages(engine, key, operand, j, out, bitlines)
            if calibrated is None:
                _quantize_macs_inplace(engine._quantizers[key], out)
            else:
                calibrated.quantize_voltages_into(voltages, macs[key], cell)
        combined = macs["high"]
        if engine.weight_bits == 8:
            np.multiply(combined, 16.0, out=combined)
            np.add(combined, macs["low"], out=combined)
        per_bit = combined.reshape(bits, batch, banks)
        # Input shift-add, LSB first (legacy accumulation order).
        accumulator = block_totals[j]
        accumulator[...] = 0.0
        for bit in range(bits):
            np.multiply(per_bit[bit], float(2**bit), out=plane_scaled)
            np.add(accumulator, plane_scaled, out=accumulator)
    return np.ascontiguousarray(block_totals.transpose(1, 2, 0))
