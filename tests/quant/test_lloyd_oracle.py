"""Histogram Lloyd-Max against the per-sample iteration it replaced.

``lloyd_max_levels`` iterates on the ``(value, count)`` histogram of a
calibration stream.  The oracle below is the per-sample iteration it
replaced, kept verbatim: every step assigns each raw sample and sums the
samples of each cell.  The streams ``collect_block_partial_sums`` yields
are integer-valued, so both forms must return bit-identical levels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.weights import encode_weight_matrix
from repro.quant.calibration import collect_block_partial_sums, lloyd_max_levels


def reference_lloyd_max_levels(
    samples: np.ndarray, num_levels: int, iterations: int = 25
) -> np.ndarray:
    """Lloyd-Max over the raw samples, one assignment per sample (oracle)."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("samples must not be empty")
    unique_values = np.unique(samples)
    if unique_values.size <= num_levels:
        return unique_values
    # Initialise at evenly spaced quantiles of the *unique values* so sparse
    # tails still receive levels, then run Lloyd iterations on the samples.
    quantiles = np.linspace(0.0, 1.0, num_levels)
    levels = np.quantile(unique_values, quantiles)
    levels = np.unique(levels)
    for _ in range(iterations):
        boundaries = 0.5 * (levels[:-1] + levels[1:])
        assignment = np.searchsorted(boundaries, samples)
        sums = np.bincount(assignment, weights=samples, minlength=levels.size)
        counts = np.bincount(assignment, minlength=levels.size)
        occupied = counts > 0
        new_levels = levels.copy()
        new_levels[occupied] = sums[occupied] / counts[occupied]
        new_levels = np.unique(new_levels)
        if new_levels.size == levels.size and np.allclose(new_levels, levels):
            levels = new_levels
            break
        levels = new_levels
    return levels


@st.composite
def calibration_streams(draw):
    """A group's nibbles, a calibration batch and the collector settings."""
    rows = draw(st.integers(1, 96))
    cols = draw(st.integers(1, 4))
    signed = draw(st.booleans())
    low, high = (-8, 7) if signed else (0, 15)
    nibbles = draw(arrays(np.int64, (rows, cols), elements=st.integers(low, high)))
    input_bits = draw(st.integers(1, 8))
    batch = draw(st.integers(1, 8))
    activations = draw(
        arrays(
            np.int64, (batch, rows),
            elements=st.integers(0, 2**input_bits - 1),
        )
    )
    rows_per_block = draw(st.integers(1, 40))
    # A full stream holds input_bits * blocks * batch * cols samples; caps
    # below that stop the collector early, caps above it do not.
    blocks = -(-rows // rows_per_block)
    full = input_bits * blocks * batch * cols
    max_samples = draw(st.integers(1, 2 * full))
    return dict(
        nibbles=nibbles,
        activations=activations,
        input_bits=input_bits,
        rows_per_block=rows_per_block,
        max_samples=max_samples,
    )


class TestHistogramMatchesPerSampleOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        case=calibration_streams(),
        num_levels=st.integers(2, 256),
        iterations=st.integers(1, 25),
    )
    def test_levels_are_bit_identical(self, case, num_levels, iterations):
        samples = collect_block_partial_sums(**case)
        levels = lloyd_max_levels(samples, num_levels, iterations)
        expected = reference_lloyd_max_levels(samples, num_levels, iterations)
        assert np.array_equal(levels, expected)

    def test_few_distinct_values_return_early(self):
        # 4-row blocks of unit nibbles: every partial sum lies in 0..4.
        samples = collect_block_partial_sums(
            np.ones((8, 2)),
            np.random.default_rng(0).integers(0, 16, size=(32, 8)),
            input_bits=4,
            rows_per_block=4,
        )
        levels = lloyd_max_levels(samples, 8)
        assert np.array_equal(levels, np.arange(5.0))
        assert np.array_equal(levels, reference_lloyd_max_levels(samples, 8))

    def test_stream_that_runs_out_of_iterations(self):
        """A deep_cnn fc-shaped stream stopped two steps into its iteration."""
        rng = np.random.default_rng(0)
        plan = encode_weight_matrix(rng.integers(-128, 128, size=(768, 96)), 8)
        activations = rng.integers(0, 16, size=(64, 768))
        for nibbles in (plan.high_nibbles, plan.low_nibbles):
            samples = collect_block_partial_sums(
                nibbles, activations, input_bits=4, rows_per_block=32
            )
            stopped = reference_lloyd_max_levels(samples, 32, iterations=2)
            # Not converged: one more step still moves the levels.
            assert not np.array_equal(
                stopped, reference_lloyd_max_levels(samples, 32, iterations=3)
            )
            assert np.array_equal(lloyd_max_levels(samples, 32, 2), stopped)
            assert np.array_equal(
                lloyd_max_levels(samples, 32), reference_lloyd_max_levels(samples, 32)
            )
