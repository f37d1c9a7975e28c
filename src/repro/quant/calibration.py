"""Workload calibration of the programmable ADC reference bank.

The ADC references of both designs come from a *programmable* FeFET
reference bank; following the NeuroSim practice for multi-level-cell
arrays ("modifications have been made to NeuroSim to accommodate our
proposed architectures", Section 4.2), the reference levels are placed at
the quantiles of the partial sums the workload actually produces rather
than uniformly over the worst-case arithmetic range — a 5-bit converter
over the full ±256 range would otherwise waste most of its codes on values
that never occur.

This module is the **single implementation** of that reference placement,
shared by every execution path:

* the functional backend
  (:meth:`repro.core.functional.FunctionalIMCModel.calibrate_adc_ranges`),
* the device-detailed engine
  (:meth:`repro.engine.MacroEngine.calibrate_references`), and
* the tiled chip-simulator path
  (:meth:`repro.chipsim.TiledLayerEngine.calibrate_references`).

All of them run the *ideal* (noise-free) per-block partial sums of a
calibration batch through the same 32-row blocking as inference
(:func:`collect_block_partial_sums`) and place the ``2^adc_bits``
reference levels with a Lloyd-Max (1-D k-means) iteration
(:func:`lloyd_max_levels`; Lloyd, "Least squares quantization in PCM",
IEEE Trans. Inf. Theory, 1982; Max, "Quantizing for minimum distortion",
IRE Trans. Inf. Theory, 1960).  Because the placement maths and the sample
collection are one shared code path, references computed by the
functional model and by the device engine from the same samples are
*identical* — and a tiled layer applying one level set to every row /
column tile stays bit-identical to a single macro holding the padded layer.

The iteration runs on the stream's histogram: a group's partial sums are
0/1 bit planes times integer nibbles, so a stream of 200,000 samples
holds only a few hundred distinct integers.  Each Lloyd step assigns the
distinct values and forms every cell's sum and count from ``(value,
count)`` pairs.  For integer-valued samples whose sums stay below 2^53
every such sum is exact in float64 in any order, so the levels equal
those of the per-sample iteration bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "CALIBRATION_MODES",
    "lloyd_max_levels",
    "quantize_to_levels",
    "collect_block_partial_sums",
    "reference_levels_for_plan",
]

#: Supported calibration modes of the inference configuration: ``"nominal"``
#: converts against the fixed worst-case ``mac_range_for_group`` references,
#: ``"workload"`` programs the reference bank from a calibration batch.
CALIBRATION_MODES = ("nominal", "workload")

#: Default number of partial-sum samples collected per column group.  The
#: collector stops after the (bit plane, row block) chunk that reaches it,
#: so the cap fixes *which* samples calibrate; it stays at this value
#: because changing it would change the levels.
DEFAULT_MAX_SAMPLES = 200_000


def lloyd_max_levels(
    samples: np.ndarray, num_levels: int, iterations: int = 25
) -> np.ndarray:
    """MSE-optimal (Lloyd-Max) reference levels for a sampled distribution.

    This is the nonlinear ADC-reference placement used when calibrating the
    programmable reference bank to a workload: levels are the centroids of a
    1-D k-means over the observed partial sums, which minimises the mean
    squared quantisation error.  When the distribution occupies no more than
    ``num_levels`` distinct values the levels reproduce them exactly (the
    conversion becomes lossless).

    The iteration runs on the histogram ``(value, count)`` of the samples:
    each step assigns only the distinct values to their nearest level and
    forms every cell's centroid from ``value * count`` and ``count`` sums.
    For integer-valued samples (the partial sums
    :func:`collect_block_partial_sums` yields) whose magnitudes and cell
    sums stay below 2^53, every sum is exact in float64, so the levels are
    bit-identical to a Lloyd iteration over the raw samples.  Float-valued
    samples get the same centroids up to rounding.

    Args:
        samples: Observed partial-sum samples.
        num_levels: Number of ADC output levels (2^resolution).
        iterations: Lloyd iterations.

    Returns:
        Sorted array of at most ``num_levels`` reference levels.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("samples must not be empty")
    values, counts = np.unique(samples, return_counts=True)
    if values.size <= num_levels:
        return values
    # Initialise at evenly spaced quantiles of the *unique values* so sparse
    # tails still receive levels, then iterate on the (value, count) pairs.
    quantiles = np.linspace(0.0, 1.0, num_levels)
    levels = np.quantile(values, quantiles)
    levels = np.unique(levels)
    weighted = values * counts
    for _ in range(iterations):
        boundaries = 0.5 * (levels[:-1] + levels[1:])
        assignment = np.searchsorted(boundaries, values)
        sums = np.bincount(assignment, weights=weighted, minlength=levels.size)
        cell_counts = np.bincount(assignment, weights=counts, minlength=levels.size)
        occupied = cell_counts > 0
        new_levels = levels.copy()
        new_levels[occupied] = sums[occupied] / cell_counts[occupied]
        new_levels = np.unique(new_levels)
        if new_levels.size == levels.size and np.allclose(new_levels, levels):
            levels = new_levels
            break
        levels = new_levels
    return levels


def quantize_to_levels(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Map every value to its nearest reference level (vectorised).

    ``levels`` must be sorted ascending (the :func:`lloyd_max_levels`
    output).  Ties between two levels resolve to the lower one.
    """
    if levels.size == 1:
        return np.full_like(values, levels[0], dtype=float)
    indices = np.searchsorted(levels, values)
    indices = np.clip(indices, 1, levels.size - 1)
    lower = levels[indices - 1]
    upper = levels[indices]
    choose_upper = (values - lower) > (upper - values)
    return np.where(choose_upper, upper, lower)


def collect_block_partial_sums(
    nibbles: np.ndarray,
    activations: np.ndarray,
    *,
    input_bits: int,
    rows_per_block: int,
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> np.ndarray:
    """Ideal per-block partial sums a calibration batch produces for one group.

    Runs every input bit plane of ``activations`` against the group's exact
    nibble values with the same row blocking as inference — exactly the
    integer MAC values the group's ADC is asked to convert, before any
    analog error.  This is the sample stream the Lloyd-Max placement is fed
    with, shared verbatim between the functional and the device-detailed
    calibration paths (so both derive identical references from identical
    samples; zero-padded rows contribute zero and do not perturb the
    stream).

    Args:
        nibbles: Exact per-cell nibble values of the group, shape
            (rows, cols) — signed in [-8, 7] for an H4B, unsigned in
            [0, 15] for an L4B.
        activations: Calibration batch, shape (batch, rows), unsigned
            integers within the input precision.
        input_bits: Input precision (1..8).
        rows_per_block: Rows accumulated in the analog domain per
            conversion (32 in the paper).
        max_samples: Sample budget: collection stops after the (bit
            plane, row block) chunk that reaches it, which fixes the
            stream the levels are placed on.

    Returns:
        1-D float array of observed partial sums.
    """
    if not 1 <= input_bits <= 8:
        raise ValueError("input_bits must be between 1 and 8")
    if rows_per_block < 1:
        raise ValueError("rows_per_block must be at least 1")
    nibbles = np.asarray(nibbles, dtype=float)
    activations = np.asarray(activations, dtype=np.int64)
    if activations.ndim == 1:
        activations = activations[None, :]
    rows = nibbles.shape[0]
    if activations.shape[1] != rows:
        raise ValueError(
            f"activations have {activations.shape[1]} rows, nibbles have {rows}"
        )
    samples = []
    total = 0
    for bit in range(input_bits):
        plane = ((activations >> bit) & 1).astype(float)
        for start in range(0, rows, rows_per_block):
            stop = min(start + rows_per_block, rows)
            partial = (plane[:, start:stop] @ nibbles[start:stop]).ravel()
            samples.append(partial)
            total += partial.size
            if total >= max_samples:
                break
        if total >= max_samples:
            break
    return np.concatenate(samples)


def reference_levels_for_plan(
    high_nibbles: np.ndarray,
    low_nibbles: Optional[np.ndarray],
    activations: np.ndarray,
    *,
    adc_bits: int,
    input_bits: int,
    rows_per_block: int,
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> Dict[str, np.ndarray]:
    """Per-group reference levels for an encoded weight plan.

    Collects the observed partial-sum stream of each column group and
    places ``2^adc_bits`` Lloyd-Max levels on it.

    Args:
        high_nibbles: Signed H4B nibble values, shape (rows, cols).
        low_nibbles: Unsigned L4B nibble values, shape (rows, cols), or
            None for 4-bit weights (no low group).
        activations: Calibration batch, shape (batch, rows).
        adc_bits: ADC resolution.
        input_bits: Input precision (1..8).
        rows_per_block: Analog accumulation depth.
        max_samples: Per-group sample budget (see
            :func:`collect_block_partial_sums`).

    Returns:
        Sorted level arrays keyed by ``"high"`` (and ``"low"`` when
        ``low_nibbles`` is given).
    """
    if adc_bits < 1:
        raise ValueError("adc_bits must be at least 1")
    num_levels = 2**adc_bits

    def levels_for(nibbles: np.ndarray) -> np.ndarray:
        samples = collect_block_partial_sums(
            nibbles,
            activations,
            input_bits=input_bits,
            rows_per_block=rows_per_block,
            max_samples=max_samples,
        )
        return lloyd_max_levels(samples, num_levels)

    levels = {"high": levels_for(high_nibbles)}
    if low_nibbles is not None:
        levels["low"] = levels_for(low_nibbles)
    return levels
