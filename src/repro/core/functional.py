"""Fast functional (vectorised) model of the CurFe / ChgFe MAC pipeline.

DNN-scale experiments (Figs. 10-12) need millions of matrix products, which
the per-device macro model of :mod:`repro.core.macro` is too detailed for.
The functional model reproduces the same pipeline — weight nibble split,
per-cell current/ΔV variation, 32-row block partial sums, ADC quantisation
in 2CM/N2CM, nibble combining, input bit-serial shift-add — but with every
step expressed as vectorised numpy arithmetic.

The link back to the device level is the *relative ON-current spread* of
each bit significance, estimated by Monte-Carlo over the actual cell models
(:func:`estimate_relative_current_sigmas`): CurFe's series resistor keeps
the spread well below 1 %, while ChgFe's bare FeFETs show several percent to
tens of percent depending on significance — which is exactly why ChgFe's
inference accuracy trails CurFe's slightly in Fig. 10.

Functional vs device-detailed engine
------------------------------------

Two vectorised paths now exist, sharing the nibble-combine and shift-add
arithmetic of :mod:`repro.engine.readout_core`:

* **This model** folds variation into per-significance statistics and
  quantises in the MAC-value domain — the cheapest statistically faithful
  path, ideal for the largest accuracy sweeps.
* **The device-detailed engine** (:mod:`repro.engine`) keeps each cell's
  individual variation draw and runs the actual voltage-domain readout +
  SAR conversion, vectorised; select it at DNN scale with
  ``InferenceConfig(backend="device")`` when per-device fidelity matters
  more than throughput.

Both paths program their ADC references from the same shared
workload-calibration maths (:mod:`repro.quant.calibration`): this model
quantises directly against the Lloyd-Max levels in the MAC domain, the
engine programs the same levels into its reference bank and converts in
the voltage domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..cells.chgfe_cell import ChgFeCellParameters, ChgFeNCell, ChgFePCell
from ..cells.curfe_cell import CurFeCell, CurFeCellParameters
from ..devices.variation import DEFAULT_VARIATION, NO_VARIATION, VariationModel
from ..engine.readout_core import combine_nibbles, shift_add_planes
from ..geometry import DEFAULT_GEOMETRY
from ..quant.calibration import (
    DEFAULT_MAX_SAMPLES,
    quantize_to_levels,
    reference_levels_for_plan,
)
from ..quant.quantize import signed_range, unsigned_range
from .readout import mac_range_for_group
from .weights import encode_weight_matrix

__all__ = [
    "CURFE_DESIGN",
    "CHGFE_DESIGN",
    "IDEAL_DESIGN",
    "SignificanceSigmas",
    "estimate_relative_current_sigmas",
    "FunctionalModelConfig",
    "FunctionalIMCModel",
]

CURFE_DESIGN = "curfe"
CHGFE_DESIGN = "chgfe"
IDEAL_DESIGN = "ideal"

_SUPPORTED_DESIGNS = (CURFE_DESIGN, CHGFE_DESIGN, IDEAL_DESIGN)


@dataclass(frozen=True)
class SignificanceSigmas:
    """Relative (fractional) ON-current spread per bit significance.

    Attributes:
        data: Sigma of the ordinary cells, significances 0..3.
        sign: Sigma of the sign-bit cell (significance 3, inverted current).
    """

    data: Tuple[float, float, float, float]
    sign: float

    def as_array(self, signed: bool) -> np.ndarray:
        """Per-significance sigmas for a group, shape (4,).

        For a signed group the significance-3 entry is the sign cell's sigma.
        """
        sigmas = np.array(self.data, dtype=float)
        if signed:
            sigmas = sigmas.copy()
            sigmas[3] = self.sign
        return sigmas


@lru_cache(maxsize=32)
def _cached_sigmas(
    design: str, vth_sigma: float, resistor_sigma: float, samples: int, seed: int
) -> SignificanceSigmas:
    variation = VariationModel(
        vth_sigma=vth_sigma, resistor_sigma=resistor_sigma, enabled=True
    )
    rng = np.random.default_rng(seed)
    data_sigmas = []
    if design == CURFE_DESIGN:
        params = CurFeCellParameters()
        for significance in range(4):
            currents = [
                CurFeCell.sample(
                    significance,
                    params=params,
                    stored_bit=1,
                    variation=variation,
                    rng=rng,
                ).on_current()
                for _ in range(samples)
            ]
            data_sigmas.append(float(np.std(currents) / np.mean(currents)))
        sign_currents = [
            CurFeCell.sample(
                3,
                is_sign_cell=True,
                params=params,
                stored_bit=1,
                variation=variation,
                rng=rng,
            ).on_current()
            for _ in range(samples)
        ]
        sign_sigma = float(np.std(sign_currents) / np.mean(sign_currents))
    elif design == CHGFE_DESIGN:
        params = ChgFeCellParameters()
        for significance in range(4):
            currents = [
                ChgFeNCell.sample(
                    significance,
                    params=params,
                    stored_bit=1,
                    variation=variation,
                    rng=rng,
                ).on_current()
                for _ in range(samples)
            ]
            data_sigmas.append(float(np.std(currents) / np.mean(currents)))
        sign_currents = [
            ChgFePCell.sample(
                params=params, stored_bit=1, variation=variation, rng=rng
            ).on_current()
            for _ in range(samples)
        ]
        sign_sigma = float(np.std(sign_currents) / np.mean(sign_currents))
    else:
        data_sigmas = [0.0, 0.0, 0.0, 0.0]
        sign_sigma = 0.0
    return SignificanceSigmas(data=tuple(data_sigmas), sign=sign_sigma)


def estimate_relative_current_sigmas(
    design: str,
    variation: VariationModel = DEFAULT_VARIATION,
    *,
    samples: int = 200,
    seed: int = 7,
) -> SignificanceSigmas:
    """Monte-Carlo estimate of the per-significance relative current spread.

    Results are cached per (design, variation sigmas, samples, seed) because
    the estimate is reused by every functional model instance.
    """
    if design not in _SUPPORTED_DESIGNS:
        raise ValueError(f"design must be one of {_SUPPORTED_DESIGNS}")
    if not variation.enabled or design == IDEAL_DESIGN:
        return SignificanceSigmas(data=(0.0, 0.0, 0.0, 0.0), sign=0.0)
    return _cached_sigmas(
        design, variation.vth_sigma, variation.resistor_sigma, samples, seed
    )


@dataclass(frozen=True)
class FunctionalModelConfig:
    """Configuration of the fast functional MAC model.

    Attributes:
        design: ``"curfe"``, ``"chgfe"``, or ``"ideal"`` (no analog error).
        weight_bits: Weight precision (4 or 8).
        input_bits: Input precision (1..8).
        adc_bits: ADC resolution; ``None`` disables ADC quantisation.
        rows_per_block: Input parallelism — rows accumulated in the analog
            domain before conversion (32 in the paper).
        variation: Device-variation statistics used to derive cell-current
            spread; ignored for the ideal design.
    """

    design: str = CURFE_DESIGN
    weight_bits: int = 8
    input_bits: int = 8
    adc_bits: Optional[int] = 5
    rows_per_block: int = DEFAULT_GEOMETRY.block_rows
    variation: VariationModel = DEFAULT_VARIATION

    def __post_init__(self) -> None:
        if self.design not in _SUPPORTED_DESIGNS:
            raise ValueError(f"design must be one of {_SUPPORTED_DESIGNS}")
        if self.weight_bits not in (4, 8):
            raise ValueError("weight_bits must be 4 or 8")
        if not 1 <= self.input_bits <= 8:
            raise ValueError("input_bits must be between 1 and 8")
        if self.adc_bits is not None and self.adc_bits < 1:
            raise ValueError("adc_bits must be at least 1 (or None)")
        if self.rows_per_block < 1:
            raise ValueError("rows_per_block must be at least 1")


class FunctionalIMCModel:
    """Vectorised end-to-end MAC model (program weights, then multiply).

    Args:
        config: Model configuration.
        rng: Random generator used for the per-cell programming variation.
    """

    def __init__(
        self,
        config: FunctionalModelConfig | None = None,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config or FunctionalModelConfig()
        self._rng = rng or np.random.default_rng(0)
        self._sigmas = estimate_relative_current_sigmas(
            self.config.design, self.config.variation
        )
        self._effective_high: Optional[np.ndarray] = None
        self._effective_low: Optional[np.ndarray] = None
        self._exact_high: Optional[np.ndarray] = None
        self._exact_low: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._adc_ranges: Dict[str, np.ndarray] = {}

    # ---------------------------------------------------------------- weights

    @property
    def sigmas(self) -> SignificanceSigmas:
        """The per-significance relative current spread used by this model."""
        return self._sigmas

    def _effective_nibbles(self, bits: np.ndarray, signed: bool) -> np.ndarray:
        """Effective analog nibble values including per-cell current error.

        ``bits`` has shape (rows, cols, 4); the result has shape (rows, cols)
        and equals the exact nibble value when variation is disabled.
        """
        sigmas = self._sigmas.as_array(signed)
        weights_per_sig = np.array([1.0, 2.0, 4.0, 8.0])
        if signed:
            weights_per_sig = weights_per_sig.copy()
            weights_per_sig[3] = -8.0
        if np.all(sigmas == 0.0):
            scale = bits.astype(float)
        else:
            errors = self._rng.normal(0.0, sigmas, size=bits.shape)
            scale = bits.astype(float) * (1.0 + errors)
        return np.tensordot(scale, weights_per_sig, axes=([2], [0]))

    def program(self, weights: np.ndarray) -> None:
        """Encode and 'program' a signed weight matrix of shape (rows, cols)."""
        weights = np.asarray(weights)
        plan = encode_weight_matrix(weights, self.config.weight_bits)
        self._weights = plan.weights
        self._effective_high = self._effective_nibbles(plan.high_bits, signed=True)
        self._exact_high = plan.high_nibbles.astype(float)
        if self.config.weight_bits == 8:
            self._effective_low = self._effective_nibbles(plan.low_bits, signed=False)
            self._exact_low = plan.low_nibbles.astype(float)
        else:
            self._effective_low = None
            self._exact_low = None
        self._adc_ranges = {}

    # ------------------------------------------------------------ computation

    @property
    def adc_levels(self) -> Dict[str, np.ndarray]:
        """Calibrated ADC reference levels per group ('high' / 'low'), if any."""
        return {key: levels.copy() for key, levels in self._adc_ranges.items()}

    def calibrate_adc_ranges(
        self, activations: np.ndarray, *, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> Dict[str, np.ndarray]:
        """Programme the reference bank to the observed partial-sum distribution.

        Runs the *ideal* (noise-free) partial sums of a calibration batch
        through the same 32-row blocking as :meth:`matmul` and stores, per
        group, the 2^adc_bits Lloyd-Max reference levels of the observed
        distribution — the shared placement maths of
        :mod:`repro.quant.calibration` (see that module for the reference-
        bank rationale), also used by the device-detailed engine's
        :meth:`~repro.engine.MacroEngine.calibrate_references`.

        Args:
            activations: Calibration batch, shape (batch, rows), unsigned
                integers within the configured input precision.
            max_samples: Per-group partial-sum sample budget; it fixes
                which samples calibrate (see
                :func:`~repro.quant.calibration.collect_block_partial_sums`).

        Returns:
            The calibrated level arrays, keyed by ``"high"`` and (for 8-bit
            weights) ``"low"``.
        """
        if self._exact_high is None or self._weights is None:
            raise RuntimeError("program() must be called before calibrate_adc_ranges()")
        if self.config.adc_bits is None:
            self._adc_ranges = {}
            return {}
        self._adc_ranges = reference_levels_for_plan(
            self._exact_high,
            self._exact_low if self.config.weight_bits == 8 else None,
            activations,
            adc_bits=self.config.adc_bits,
            input_bits=self.config.input_bits,
            rows_per_block=self.config.rows_per_block,
            max_samples=max_samples,
        )
        return self.adc_levels

    def _quantize_partial(self, partial: np.ndarray, signed: bool) -> np.ndarray:
        """Apply the ADC transfer to a partial-MAC array (2CM or N2CM group)."""
        if self.config.adc_bits is None:
            return partial
        key = "high" if signed else "low"
        if key in self._adc_ranges:
            return quantize_to_levels(partial, self._adc_ranges[key])
        mac_range = mac_range_for_group(signed, self.config.rows_per_block)
        lower, upper = float(mac_range.minimum), float(mac_range.maximum)
        levels = 2**self.config.adc_bits
        step = (upper - lower) / (levels - 1)
        clipped = np.clip(partial, lower, upper)
        codes = np.round((clipped - lower) / step)
        return lower + codes * step

    def matmul(self, activations: np.ndarray) -> np.ndarray:
        """Multiply a batch of unsigned activation vectors by the stored weights.

        Args:
            activations: Integer array of shape (batch, rows) with values in
                the unsigned ``input_bits`` range.

        Returns:
            Float array of shape (batch, cols) with the macro's digital MAC
            estimates (exactly integer-valued when no error source is active).
        """
        if self._effective_high is None or self._weights is None:
            raise RuntimeError("program() must be called before matmul()")
        activations = np.asarray(activations)
        if activations.ndim == 1:
            activations = activations[None, :]
        if activations.shape[1] != self._weights.shape[0]:
            raise ValueError(
                "activation width does not match the programmed weight rows"
            )
        lo, hi = unsigned_range(self.config.input_bits)
        if np.any(activations < lo) or np.any(activations > hi):
            raise ValueError(
                f"activations outside unsigned {self.config.input_bits}-bit range"
            )
        activations = activations.astype(np.int64)

        rows = self._weights.shape[0]
        cols = self._weights.shape[1]
        batch = activations.shape[0]
        block = self.config.rows_per_block

        plane_totals = []
        for bit in range(self.config.input_bits):
            plane = ((activations >> bit) & 1).astype(float)
            plane_total = np.zeros((batch, cols), dtype=float)
            for start in range(0, rows, block):
                stop = min(start + block, rows)
                chunk = plane[:, start:stop]
                partial_high = chunk @ self._effective_high[start:stop]
                partial_high = self._quantize_partial(partial_high, signed=True)
                if self.config.weight_bits == 8:
                    assert self._effective_low is not None
                    partial_low = chunk @ self._effective_low[start:stop]
                    partial_low = self._quantize_partial(partial_low, signed=False)
                    plane_total += combine_nibbles(partial_high, partial_low, 8)
                else:
                    plane_total += partial_high
            plane_totals.append(plane_total)
        return shift_add_planes(plane_totals, initial=np.zeros((batch, cols)))

    def matmul_weights(
        self, activations: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Convenience: program ``weights`` then multiply ``activations``."""
        self.program(weights)
        return self.matmul(activations)

    def ideal_matmul(self, activations: np.ndarray) -> np.ndarray:
        """Exact integer reference for the programmed weights."""
        if self._weights is None:
            raise RuntimeError("program() must be called before ideal_matmul()")
        activations = np.asarray(activations, dtype=np.int64)
        if activations.ndim == 1:
            activations = activations[None, :]
        return activations @ self._weights

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FunctionalIMCModel(design={self.config.design}, "
            f"w={self.config.weight_bits}b, x={self.config.input_bits}b, "
            f"adc={self.config.adc_bits})"
        )
