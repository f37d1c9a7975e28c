"""Tests for the shared workload-calibration maths (repro.quant.calibration)."""

import numpy as np
import pytest

from repro.core.functional import FunctionalIMCModel, FunctionalModelConfig
from repro.core.weights import encode_weight_matrix
from repro.devices.variation import NO_VARIATION
from repro.quant.calibration import (
    CALIBRATION_MODES,
    collect_block_partial_sums,
    lloyd_max_levels,
    quantize_to_levels,
    reference_levels_for_plan,
)


class TestLloydMax:
    """Properties of the placement on float-valued samples.

    The bit-identity contract with the per-sample iteration holds for
    integer-valued samples only; ``test_lloyd_oracle.py`` checks it on the
    collector's streams.
    """

    def test_few_distinct_values_reproduced_exactly(self):
        samples = np.array([3.0, -1.0, 3.0, 7.0, -1.0])
        levels = lloyd_max_levels(samples, num_levels=8)
        assert np.array_equal(levels, np.array([-1.0, 3.0, 7.0]))

    def test_levels_sorted_and_bounded(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.0, 30.0, size=5000)
        levels = lloyd_max_levels(samples, num_levels=32)
        assert levels.size <= 32
        assert np.all(np.diff(levels) > 0)
        assert levels[0] >= samples.min() and levels[-1] <= samples.max()

    def test_beats_uniform_grid_mse(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.0, 10.0, size=4000)
        levels = lloyd_max_levels(samples, num_levels=16)
        uniform = np.linspace(samples.min(), samples.max(), 16)
        mse_lloyd = np.mean((quantize_to_levels(samples, levels) - samples) ** 2)
        mse_uniform = np.mean((quantize_to_levels(samples, uniform) - samples) ** 2)
        assert mse_lloyd < mse_uniform

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            lloyd_max_levels(np.array([]), num_levels=4)


class TestQuantizeToLevels:
    def test_maps_to_nearest(self):
        levels = np.array([0.0, 10.0, 30.0])
        values = np.array([-5.0, 4.9, 5.1, 21.0, 99.0])
        out = quantize_to_levels(values, levels)
        assert np.array_equal(out, np.array([0.0, 0.0, 10.0, 30.0, 30.0]))

    def test_single_level(self):
        out = quantize_to_levels(np.array([1.0, -7.0]), np.array([2.5]))
        assert np.array_equal(out, np.array([2.5, 2.5]))


class TestCollector:
    def test_matches_manual_blocking(self):
        rng = np.random.default_rng(2)
        nibbles = rng.integers(-8, 8, size=(8, 3)).astype(float)
        acts = rng.integers(0, 4, size=(5, 8))
        samples = collect_block_partial_sums(
            nibbles, acts, input_bits=2, rows_per_block=4
        )
        expected = []
        for bit in range(2):
            plane = ((acts >> bit) & 1).astype(float)
            for start in (0, 4):
                expected.append((plane[:, start : start + 4] @ nibbles[start : start + 4]).ravel())
        assert np.array_equal(samples, np.concatenate(expected))

    def test_zero_padded_rows_do_not_change_samples(self):
        """Padding rows to whole blocks must not perturb the level placement."""
        rng = np.random.default_rng(3)
        nibbles = rng.integers(-8, 8, size=(10, 2)).astype(float)
        acts = rng.integers(0, 16, size=(6, 10))
        unpadded = collect_block_partial_sums(
            nibbles, acts, input_bits=4, rows_per_block=8
        )
        padded_nibbles = np.zeros((16, 2))
        padded_nibbles[:10] = nibbles
        padded_acts = np.zeros((6, 16), dtype=np.int64)
        padded_acts[:, :10] = acts
        padded = collect_block_partial_sums(
            padded_nibbles, padded_acts, input_bits=4, rows_per_block=8
        )
        assert np.array_equal(unpadded, padded)

    def test_max_samples_truncates(self):
        nibbles = np.ones((8, 4))
        acts = np.ones((100, 8), dtype=np.int64)
        samples = collect_block_partial_sums(
            nibbles, acts, input_bits=4, rows_per_block=4, max_samples=150
        )
        # Breaks after the first overshooting (bit, block) chunk of 400.
        assert samples.size == 400

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            collect_block_partial_sums(
                np.ones((8, 2)), np.ones((3, 9), dtype=int),
                input_bits=4, rows_per_block=4,
            )


class TestPlanLevels:
    def test_matches_functional_model_calibration(self):
        """The hoisted maths must equal the functional model's calibration."""
        rng = np.random.default_rng(4)
        weights = rng.integers(-128, 128, size=(64, 6))
        acts = rng.integers(0, 16, size=(25, 64))
        model = FunctionalIMCModel(
            FunctionalModelConfig(
                design="ideal", input_bits=4, adc_bits=5, variation=NO_VARIATION
            ),
            rng=np.random.default_rng(0),
        )
        model.program(weights)
        model_levels = model.calibrate_adc_ranges(acts)
        plan = encode_weight_matrix(weights, 8)
        levels = reference_levels_for_plan(
            plan.high_nibbles,
            plan.low_nibbles,
            acts,
            adc_bits=5,
            input_bits=4,
            rows_per_block=32,
        )
        assert set(levels) == {"high", "low"}
        for key in levels:
            assert np.array_equal(levels[key], model_levels[key])

    def test_4bit_weights_have_no_low_group(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(-8, 8, size=(32, 4))
        plan = encode_weight_matrix(weights, 4)
        levels = reference_levels_for_plan(
            plan.high_nibbles,
            None,
            rng.integers(0, 16, size=(10, 32)),
            adc_bits=5,
            input_bits=4,
            rows_per_block=32,
        )
        assert set(levels) == {"high"}

    def test_modes_constant(self):
        assert CALIBRATION_MODES == ("nominal", "workload")
