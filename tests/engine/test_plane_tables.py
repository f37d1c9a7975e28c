"""The cached kernel tables against test-side oracles, and what they cache.

``"fast"`` reduces each bit plane against one cached
(num_block_rows, block_rows, banks*4) table per group, and ``"fused"``
builds its tables from the same block-row-major difference.  The oracles
below are the per-cell forms those tables replaced: the difference is
``stored ? on : off_selected`` minus ``unselected`` on the
(banks, R, block_rows, 4) cell tensors, and the row reduction adds
``plane[..., r] * difference[..., r, :]`` for r = 0, 1, ... in order.  Bit
planes are 0/1, so every product is exact and ``"fast"`` must equal the
oracle bit for bit — a guard on einsum's accumulation order, which an
unpinned numpy could change.  A BLAS reduction reorders the sums and
fails it.

``"fused"``'s tables hold readout volts, and its readout of a block is
one gemm plus the offsets (form A) unless a ChgFe bitline can reach a
rail (form B, per bitline).  Its voltages are checked against ``"fast"``'s
within a bound of float spacings, and each form against the kernels on
inputs that saturate the readout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION, VariationModel
from repro.engine import kernels
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.obs.tracer import Tracer, set_tracer


def oracle_difference(engine, key):
    """``selected - unselected`` per cell, shape (banks, R, block_rows, 4)."""
    state = engine.state
    plan = engine.weight_plan
    bits = plan.high_bits if key == "high" else plan.low_bits
    stored = bits.transpose(1, 0, 2).reshape(
        state.banks, state.num_block_rows, state.block_rows, 4
    )
    group = state.group(key)
    selected = stored * group.on + (1 - stored) * group.off_selected
    return selected - group.unselected


def oracle_fast_reduce(engine, plane, key):
    """Rows of each block added one at a time, in ascending order."""
    group = engine.state.group(key)
    difference = oracle_difference(engine, key)
    acc = np.zeros((plane.shape[0],) + difference.shape[:2] + (4,))
    for r in range(engine.state.block_rows):
        acc = acc + plane[:, None, :, r, None] * difference[None, :, :, r, :]
    return group.unselected.sum(axis=2)[None] + acc


def oracle_fused_tables(engine, key):
    """The fused operands as the per-cell difference and the readout define them.

    Form A, the readout folded into volts per input row: CurFe scales the
    column sum by the feedback resistance and adds the virtual ground to
    the offsets; ChgFe weights each bitline by its share of the group
    capacitance, when no 0/1 input can take a bitline within the rail
    margin of a rail.  Otherwise form B: the per-bitline stack.
    """
    state = engine.state
    group = state.group(key)
    difference = oracle_difference(engine, key)  # (banks, R, block_rows, 4)
    unselected_sum = group.unselected.sum(axis=2)  # (banks, R, 4)
    if state.design == "curfe":
        resistance = group.feedback_resistance
        return (
            (difference.sum(axis=3) * resistance).transpose(1, 2, 0),
            (unselected_sum.sum(axis=2) * resistance + state.tia_virtual_ground).T,
        )
    base = unselected_sum + state.precharge_voltage
    low = base + np.minimum(difference, 0.0).sum(axis=2)
    high = base + np.maximum(difference, 0.0).sum(axis=2)
    margin = kernels.RAIL_MARGIN
    if low.min() > margin and high.max() < state.sign_supply_voltage - margin:
        weights = group.capacitance / group.capacitance_total[..., None]
        table = difference[..., 0] * weights[:, :, None, 0]
        for column in range(1, 4):  # bitlines added in column order
            table = table + difference[..., column] * weights[:, :, None, column]
        return table.transpose(1, 2, 0), (base * weights).sum(axis=2).T
    return difference.transpose(3, 1, 2, 0), unselected_sum.transpose(2, 1, 0)


#: Variation wide enough for a ChgFe bitline to reach a rail.
RAIL_VARIATION = VariationModel(vth_sigma=0.2)


@st.composite
def plane_cases(draw):
    """An engine on a whole drawn array state, and a bit plane.

    Weights are uniform or one constant, which drives every bitline of a
    group one way; with :data:`RAIL_VARIATION` that reaches the rails.  The
    plane's first input is all ones, a bitline's extreme.
    """
    design = draw(st.sampled_from(["curfe", "chgfe"]))
    variation = draw(
        st.sampled_from([DEFAULT_VARIATION, NO_VARIATION, RAIL_VARIATION])
    )
    weight_bits = draw(st.sampled_from([8, 4]))
    block_rows = draw(st.sampled_from([32, 8, 3, 1]))
    banks = draw(st.integers(1, 5))
    num_block_rows = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    state = ArrayState.build(
        design,
        IMCMacroConfig(
            rows=num_block_rows * block_rows, banks=banks,
            block_rows=block_rows, adc_bits=5, weight_bits=weight_bits,
            variation=variation, seed=seed,
        ),
    )
    engine = MacroEngine(state, adc_bits=5, weight_bits=weight_bits)
    rng = np.random.default_rng(seed)
    low, high = (-128, 128) if weight_bits == 8 else (-8, 8)
    if draw(st.booleans()):
        weights = rng.integers(low, high, size=(state.rows, banks))
    else:
        constant = draw(st.sampled_from([low, -1, high - 1]))
        weights = np.full((state.rows, banks), constant)
    engine.program_weights(weights)
    plane = rng.integers(0, 2, size=(batch, num_block_rows, block_rows)).astype(float)
    plane[0] = 1.0
    return engine, plane


class TestPlaneTableOracles:
    @settings(max_examples=80, deadline=None)
    @given(plane_cases())
    def test_fast_reduce_equals_row_by_row_oracle(self, case):
        engine, plane = case
        for key in engine._group_keys():
            assert np.array_equal(
                kernels._fast_reduce(engine, plane, key),
                oracle_fast_reduce(engine, plane, key),
            ), key
            table, _ = kernels.kernel_tables(engine, "fast", key)
            assert table.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(plane_cases())
    def test_fused_tables_equal_per_cell_oracle(self, case):
        engine, _ = case
        for key in engine._group_keys():
            table, offsets = kernels.kernel_tables(engine, "fused", key)
            expected_table, expected_offsets = oracle_fused_tables(engine, key)
            assert table.flags.c_contiguous and offsets.flags.c_contiguous
            assert np.array_equal(table, expected_table), key
            assert np.array_equal(offsets, expected_offsets), key


#: Bound on a fused readout voltage's distance from ``"fast"``'s, in float
#: spacings of the ``"fast"`` voltage or of the readout's reference voltage,
#: whichever is larger (4 is the largest seen at the paper's design point,
#: 3 over 6000 drawn engines).
READOUT_SPACINGS = 16


def fused_plane_voltages(engine, plane, key):
    """``"fused"``'s readout voltages of a bit plane, (batch, banks, R)."""
    state = engine.state
    voltages = np.empty((plane.shape[0], state.banks, state.num_block_rows))
    out = np.empty((plane.shape[0], state.banks))
    for j in range(state.num_block_rows):
        kernels._fused_voltages(engine, key, plane[:, j, :], j, out)
        voltages[:, :, j] = out
    return voltages


def fused_form(engine, key):
    """``"A"`` if the group's readout is folded into its table, else ``"B"``."""
    table, _ = kernels.kernel_tables(engine, "fused", key)
    return "A" if table.ndim == 3 else "B"


class TestFusedReadout:
    @settings(max_examples=40, deadline=None)
    @given(plane_cases())
    def test_fused_voltages_within_spacings_of_fast(self, case):
        """Both table forms read out every block within
        :data:`READOUT_SPACINGS` float spacings of the ``"fast"`` kernel's
        voltage: folding the readout into the table only reorders float
        rounding."""
        engine, plane = case
        state = engine.state
        # Both kernels add the readout's reference voltage (the TIA virtual
        # ground, the precharge level) into every sum, so neither resolves
        # a voltage below it more finely than that reference's spacing.
        reference = (
            state.tia_virtual_ground if state.design == "curfe"
            else state.precharge_voltage
        )
        for key in engine._group_keys():
            fast = engine._plane_voltages(plane, key, "fast")
            fused = fused_plane_voltages(engine, plane, key)
            spacing = np.spacing(np.maximum(np.abs(fast), reference))
            spacings = np.abs(fused - fast) / spacing
            assert spacings.max() <= READOUT_SPACINGS, (key, fused_form(engine, key))

    def test_rail_reachable_group_keeps_the_per_bitline_form(self):
        """A ChgFe group whose bitlines an input can push past a rail
        keeps form B, and the kernels still agree bit for bit on inputs
        that push them there."""
        state = ArrayState.build(
            "chgfe",
            IMCMacroConfig(
                rows=64, banks=8, block_rows=32, adc_bits=5, weight_bits=8,
                variation=RAIL_VARIATION, seed=0,
            ),
        )
        engine = MacroEngine(state, adc_bits=5, weight_bits=8)
        engine.program_weights(np.full((64, 8), -1))
        assert (fused_form(engine, "high"), fused_form(engine, "low")) == ("B", "A")
        for key in engine._group_keys():
            table, offsets = kernels.kernel_tables(engine, "fused", key)
            expected_table, expected_offsets = oracle_fused_tables(engine, key)
            assert np.array_equal(table, expected_table), key
            assert np.array_equal(offsets, expected_offsets), key
        ones = np.ones((1, state.num_block_rows, state.block_rows))
        bitlines = state.precharge_voltage + kernels._fast_reduce(engine, ones, "high")
        assert (bitlines > state.sign_supply_voltage).any()
        rng = np.random.default_rng(0)
        inputs = rng.integers(0, 16, size=(64, 6))
        inputs[:, :2] = 15  # every row's bit planes are all ones
        inputs[:32, 2] = 15
        fused = engine.matmat(inputs, bits=4, method="fused")
        for method in ("exact", "fast"):
            assert np.array_equal(engine.matmat(inputs, bits=4, method=method), fused)

    def test_curfe_clamp_still_binds_after_the_fold(self):
        """The TIA clamp acts on the column sum, so form A keeps it.  The
        sized TIA never reaches it, so narrow its swing until the extreme
        inputs do; the kernels then still agree bit for bit."""
        state = ArrayState.build(
            "curfe",
            IMCMacroConfig(
                rows=64, banks=8, block_rows=32, adc_bits=5, weight_bits=8,
                variation=DEFAULT_VARIATION, seed=0,
            ),
        )
        state.tia_clamp_low, state.tia_clamp_high = 0.3, 0.7
        engine = MacroEngine(state, adc_bits=5, weight_bits=8)
        engine.program_weights(np.tile([-128, -40, 40, 127], (64, 2)))
        ones = np.ones((1, state.num_block_rows, state.block_rows))
        fast = engine._plane_voltages(ones, "high", "fast")
        clamped = (fast == 0.3) | (fast == 0.7)
        assert (fast == 0.3).any() and (fast == 0.7).any()
        fused = fused_plane_voltages(engine, ones, "high")
        assert np.array_equal(fused[clamped], fast[clamped])
        rng = np.random.default_rng(1)
        inputs = rng.integers(0, 16, size=(64, 6))
        inputs[:, :2] = 15
        fused = engine.matmat(inputs, bits=4, method="fused")
        for method in ("exact", "fast"):
            assert np.array_equal(engine.matmat(inputs, bits=4, method=method), fused)


def small_engine(design="curfe", seed=0):
    config = IMCMacroConfig(
        rows=64, banks=6, block_rows=32, adc_bits=5, weight_bits=8,
        variation=DEFAULT_VARIATION, seed=seed,
    )
    engine = MacroEngine(ArrayState.build(design, config), adc_bits=5, weight_bits=8)
    rng = np.random.default_rng(seed)
    engine.program_weights(rng.integers(-128, 128, size=(64, 6)))
    return engine, rng.integers(0, 16, size=(64, 3))


class TestTableBuildsKeepNoPerCellTensors:
    """The table kernels hold only their tables, not the per-cell
    ``stored_bits`` / ``selected`` tensors they are built from (nor the
    plan's cached bit expansion)."""

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("device_exec", ["fast", "fused"])
    def test_table_kernels_cache_no_per_cell_tensors(self, design, device_exec):
        engine, inputs = small_engine(design)
        engine.matmat(inputs, bits=4, method=device_exec)
        engine.export_kernel_plan(device_exec)
        assert set(engine._tables) == {(device_exec, "high"), (device_exec, "low")}
        assert not engine._stored
        assert "high_bits" not in engine.weight_plan.__dict__
        assert "low_bits" not in engine.weight_plan.__dict__

    def test_exact_still_caches_them(self):
        engine, inputs = small_engine()
        engine.matmat(inputs, bits=4, method="exact")
        assert set(engine._tables) == {("exact", "high"), ("exact", "low")}
        assert set(engine._stored) == set(engine._group_keys())


class TestPlanBuildSpan:
    @pytest.mark.parametrize("device_exec", ["fast", "fused"])
    def test_one_span_per_group_table_build(self, device_exec):
        engine, inputs = small_engine()
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            engine.matmat(inputs, bits=4, method=device_exec)
            engine.matmat(inputs, bits=4, method=device_exec)
        finally:
            set_tracer(previous)
        builds = [span for span in tracer.spans() if span["name"] == "plan_build"]
        assert sorted(span["attrs"]["group"] for span in builds) == ["high", "low"]
        for span in builds:
            assert span["attrs"]["kernel"] == device_exec
            assert span["attrs"]["cells"] == 6 * 64 * 4
            if device_exec == "fused":
                assert span["attrs"]["gemms"] == 1  # the readout folds
