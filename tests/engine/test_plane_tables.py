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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
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
    """The fused operands as the per-cell difference defines them."""
    difference = oracle_difference(engine, key)
    unselected_sum = engine.state.group(key).unselected.sum(axis=2)
    if engine.state.design == "curfe":
        return (
            difference.sum(axis=3).transpose(1, 2, 0),
            unselected_sum.sum(axis=2).T,
        )
    return difference.transpose(3, 1, 2, 0), unselected_sum.transpose(2, 1, 0)


@st.composite
def plane_cases(draw):
    """An engine on a whole drawn array state, and a bit plane."""
    design = draw(st.sampled_from(["curfe", "chgfe"]))
    variation = draw(st.sampled_from([DEFAULT_VARIATION, NO_VARIATION]))
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
    engine.program_weights(rng.integers(low, high, size=(state.rows, banks)))
    plane = rng.integers(0, 2, size=(batch, num_block_rows, block_rows)).astype(float)
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
