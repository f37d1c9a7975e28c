"""Quantised DNN inference through the IMC macro models.

This is the path that turns a trained floating-point classifier into the
accuracy numbers of Fig. 10: every convolution / fully-connected layer is
quantised (signed 4-/8-bit weights, unsigned 1-8-bit activations) and its
matrix products are executed through the CurFe or ChgFe pipeline with
32-row analog partial sums, 2CM/N2CM ADC quantisation at the chosen
resolution, and device-variation induced cell-current error.  Setting the
design to ``"ideal"`` (or the ADC resolution to ``None``) recovers plain
integer quantised inference, which is the baseline the degradation is
measured against.

Two backends execute the layer matmuls:

* ``backend="functional"`` (default) —
  :class:`~repro.core.functional.FunctionalIMCModel`, device variation
  folded into per-significance statistics; fastest.
* ``backend="device"`` — the device-detailed
  :class:`~repro.engine.MacroEngine`, one per layer, run by the
  ``device_exec`` kernel (default ``"fused"``,
  :data:`~repro.engine.kernels.DEFAULT_DEVICE_EXEC`) and holding the
  layer's zero-padded weight matrix on one full-layer array state, inside a
  :class:`~repro.chipsim.TiledLayerEngine` that maps the matrix onto a
  grid of real macro tiles: row tiles accumulate digital partial sums in
  global block order, column tiles own disjoint output channels.  This is
  the same hardware the system performance model prices for the
  :class:`~repro.chipsim.ChipSimulator` co-report.  Adding block totals in
  global block order is also the one engine's own accumulation order, so
  the engine computes exactly what the grid would.

Both backends programme their per-layer ADC references from the workload by
default (``calibration="workload"``): the first batch of each layer acts as
the calibration set and the reference bank is written to the Lloyd-Max
levels of the observed partial sums (one shared implementation,
:mod:`repro.quant.calibration`).  This is what lets the device-detailed
paths reproduce the paper's 5-bit-ADC accuracy; ``calibration="nominal"``
recovers the fixed worst-case references.

Any model following the :class:`~repro.system.nn.SequentialNet` protocol
(ordered ``layers`` + named ``weight_layers()``) can be replayed, not just
:class:`~repro.system.nn.SmallCNN`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional

import numpy as np

from ..config.schema import ConfigSchema, FieldSpec
from ..core.functional import (
    FunctionalIMCModel,
    FunctionalModelConfig,
)
from ..devices.variation import DEFAULT_VARIATION, VariationModel
from ..engine.kernels import DEFAULT_DEVICE_EXEC, validate_device_exec
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from ..obs.tracer import get_tracer
from ..quant.calibration import CALIBRATION_MODES
from ..quant.quantize import signed_range, unsigned_range
from .nn import Conv2D, Linear, SequentialNet, im2col

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..engine.array_state import ArrayState

__all__ = ["InferenceConfig", "QuantizedInferenceEngine", "INFERENCE_SCHEMA"]

_BACKENDS = ("functional", "device")


@dataclass(frozen=True)
class InferenceConfig:
    """Configuration of the quantised IMC inference path.

    Attributes:
        design: ``"curfe"``, ``"chgfe"``, or ``"ideal"``.
        backend: ``"functional"`` (statistical, fastest) or ``"device"``
            (per-cell device-detailed engine; requires a concrete design and
            an ADC resolution).
        device_exec: Execution kernel of the device backend, one of the
            three in :mod:`repro.engine.kernels`: ``"fused"`` (default;
            layer-level batched kernel, fastest), or the plane kernels
            ``"exact"`` and ``"fast"`` (bit-identical to it).
        input_bits: Activation precision (unsigned, 1..8).
        weight_bits: Weight precision (signed, 4 or 8).
        adc_bits: ADC resolution; None disables ADC quantisation
            (functional backend only).
        geometry: Macro geometry shared with the mapper and the performance
            model — the single source of truth for rows / weight columns /
            block rows (the analog accumulation depth).
        variation: Device-variation statistics.
        seed: Seed of the per-layer programming-variation draws.
        calibration: ADC reference placement — ``"workload"`` (default)
            programs each layer's reference bank to the Lloyd-Max levels of
            the partial sums its first batch produces
            (:mod:`repro.quant.calibration`); ``"nominal"`` keeps the fixed
            worst-case ``mac_range_for_group`` references.  Applies to both
            backends; with workload calibration the device path matches the
            paper's 5-bit-ADC accuracy instead of needing 8 bits.
        calibration_samples: Calibration-batch budget — at most this many
            activation vectors of the first batch are used per layer.
    """

    design: str = "curfe"
    backend: str = "functional"
    device_exec: str = DEFAULT_DEVICE_EXEC
    input_bits: int = 4
    weight_bits: int = 8
    adc_bits: Optional[int] = 5
    geometry: MacroGeometry = DEFAULT_GEOMETRY
    variation: VariationModel = DEFAULT_VARIATION
    seed: int = 0
    calibration: str = "workload"
    calibration_samples: int = 4096

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        validate_device_exec(self.device_exec)
        if self.calibration not in CALIBRATION_MODES:
            raise ValueError(f"calibration must be one of {CALIBRATION_MODES}")
        if self.calibration_samples < 1:
            raise ValueError("calibration_samples must be at least 1")
        if self.backend == "device":
            if self.design == "ideal":
                raise ValueError(
                    "the device backend models a concrete design; use the "
                    "functional backend for ideal-quantisation baselines"
                )
            if self.adc_bits is None:
                raise ValueError(
                    "the device backend always converts through the SAR ADC; "
                    "set adc_bits (or use the functional backend)"
                )

    def functional_config(self) -> FunctionalModelConfig:
        """The matching functional-model configuration."""
        return FunctionalModelConfig(
            design=self.design,
            weight_bits=self.weight_bits,
            input_bits=self.input_bits,
            adc_bits=self.adc_bits,
            rows_per_block=self.geometry.block_rows,
            variation=self.variation,
        )

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible snapshot of this configuration.

        The payload is the worker-dispatch / cache-key format of the sweep
        runner (:mod:`repro.sweep`): every field is a plain scalar or dict,
        the nested :class:`~repro.geometry.MacroGeometry` and
        :class:`~repro.devices.variation.VariationModel` are expanded to
        their fields, and :meth:`from_dict` reconstructs an equal config
        (``InferenceConfig.from_dict(c.to_dict()) == c``).  The key set is
        declared by :data:`INFERENCE_SCHEMA`.
        """
        return INFERENCE_SCHEMA.to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "InferenceConfig":
        """Rebuild a config from a :meth:`to_dict` payload.

        Unknown keys raise with a did-you-mean suggestion — a payload
        produced by a newer schema should fail loudly rather than silently
        drop configuration.
        """
        return INFERENCE_SCHEMA.from_dict(payload)


#: The :class:`~repro.config.ConfigSchema` of :class:`InferenceConfig` —
#: the single declaration its ``to_dict`` / ``from_dict`` and the YAML
#: document layer (:mod:`repro.config.documents`) all derive from.
INFERENCE_SCHEMA = ConfigSchema(
    "InferenceConfig",
    InferenceConfig,
    [
        FieldSpec("design", "curfe", choices=("curfe", "chgfe", "ideal"),
                  doc="IMC macro design (ideal = plain integer baseline)"),
        FieldSpec("backend", "functional", choices=_BACKENDS,
                  doc="layer-matmul execution backend"),
        FieldSpec("device_exec", DEFAULT_DEVICE_EXEC,
                  validate=validate_device_exec,
                  doc="device-backend kernel: exact, fast or fused"),
        FieldSpec("input_bits", 4, doc="activation precision (unsigned)"),
        FieldSpec("weight_bits", 8, doc="weight precision (signed)"),
        FieldSpec("adc_bits", 5,
                  doc="SAR ADC resolution; null disables quantisation"),
        FieldSpec("geometry", DEFAULT_GEOMETRY,
                  to_payload=asdict,
                  from_payload=lambda p: (
                      MacroGeometry(**p) if isinstance(p, Mapping) else p),
                  doc="macro geometry (rows / weight_columns / block_rows)"),
        FieldSpec("variation", DEFAULT_VARIATION,
                  to_payload=asdict,
                  from_payload=lambda p: (
                      VariationModel(**p) if isinstance(p, Mapping) else p),
                  doc="device-variation statistics"),
        FieldSpec("seed", 0, doc="programming-variation seed"),
        FieldSpec("calibration", "workload", choices=CALIBRATION_MODES,
                  doc="ADC reference placement mode"),
        FieldSpec("calibration_samples", 4096,
                  doc="per-layer calibration activation budget"),
    ],
)


class _QuantizedLayer:
    """A weight layer quantised and programmed into an IMC execution backend."""

    def __init__(
        self,
        name: str,
        weight: np.ndarray,
        bias: np.ndarray,
        config: InferenceConfig,
        rng: np.random.Generator,
        state: Optional["ArrayState"] = None,
    ) -> None:
        self.name = name
        self.bias = bias
        lo, hi = signed_range(config.weight_bits)
        max_abs = float(np.max(np.abs(weight)))
        self.weight_scale = max_abs / hi if max_abs > 0 else 1.0
        weight_int = np.clip(np.round(weight / self.weight_scale), lo, hi).astype(np.int64)
        self.config = config
        self._adc_calibrated = False
        #: Pinned activation scale (serving mode); None = per-batch percentile.
        self.frozen_scale: Optional[float] = None
        #: Scale used by the most recent matmul (frozen or computed).
        self.last_scale: Optional[float] = None
        if config.backend == "device":
            from ..chipsim.tiling import TiledLayerEngine

            # A prebuilt ``state`` (e.g. restored from the sweep cache)
            # skips characterisation and its generator consumption.
            self.engine = TiledLayerEngine(
                weight_int,
                design=config.design,
                geometry=config.geometry,
                adc_bits=config.adc_bits,
                weight_bits=config.weight_bits,
                variation=config.variation,
                seed=config.seed,
                rng=rng,
                state=state,
            )
        else:
            if state is not None:
                raise ValueError(
                    "prebuilt array states only apply to the device backend"
                )
            self.engine = FunctionalIMCModel(config.functional_config(), rng=rng)
            self.engine.program(weight_int)

    @property
    def array_state(self):
        """The layer's full device :class:`~repro.engine.ArrayState`, or None.

        This is the full-layer state the layer's engine runs on.  Functional
        layers have no per-cell state and return None.  The sweep cache
        (:mod:`repro.sweep.cache`) harvests these arrays after a build and
        injects them back on later runs.
        """
        if self.config.backend != "device":
            return None
        return self.engine.array_state

    def apply_calibration(self, levels: Dict[str, np.ndarray]) -> None:
        """Program explicit reference levels and mark the layer calibrated.

        Pre-applying cached levels (sweep calibration cache) replaces the
        first-batch calibration: the lazily triggered ``matmul`` pass sees
        ``_adc_calibrated`` set and skips the level computation.  Device
        backend only — the functional model keeps its own range logic.
        """
        if self.config.backend != "device":
            raise ValueError("apply_calibration requires the device backend")
        self.engine.apply_reference_levels(levels)
        self._adc_calibrated = True

    def calibration_levels(self) -> Optional[Dict[str, np.ndarray]]:
        """The layer's programmed reference levels, or None (uncalibrated)."""
        levels = getattr(self.engine, "reference_levels", None)
        return levels

    def _calibrate_from_batch(self, codes: np.ndarray) -> None:
        """Programme this layer's reference bank from its first batch.

        The first batch acts as the calibration set (bounded by the
        configured sample budget), mirroring how the FeFET reference bank
        is written to span the useful ADC input range.  Both backends use
        the shared placement maths of :mod:`repro.quant.calibration`; the
        device path derives one layer-wide level set for all its tiles.  The
        placement runs in a ``calibrate`` span (a no-op with tracing off).
        """
        budget = codes[: min(len(codes), self.config.calibration_samples)]
        with get_tracer().span(
            "calibrate",
            layer=self.name,
            backend=self.config.backend,
            calibration_rows=int(budget.shape[0]),
        ) as span:
            if self.config.backend == "device":
                levels = self.engine.calibrate_references(
                    budget.T, bits=self.config.input_bits
                )
            else:
                levels = self.engine.calibrate_adc_ranges(budget)
            span.set(groups=len(levels))

    def matmul(self, activations: np.ndarray, activation_scale: float) -> np.ndarray:
        """Quantise activations, run the IMC matmul, and dequantise the result."""
        _, hi = unsigned_range(self.config.input_bits)
        codes = np.clip(np.round(activations / activation_scale), 0, hi).astype(np.int64)
        if (
            not self._adc_calibrated
            and self.config.calibration == "workload"
            and self.config.adc_bits is not None
        ):
            self._calibrate_from_batch(codes)
            self._adc_calibrated = True
        if self.config.backend == "device":
            raw = self.engine.matmat(
                codes.T, bits=self.config.input_bits,
                method=self.config.device_exec,
            ).T
        else:
            raw = self.engine.matmul(codes)
        return raw * self.weight_scale * activation_scale + self.bias


class QuantizedInferenceEngine:
    """Replays a trained sequential model through the quantised IMC pipeline.

    Works with any model following the :class:`~repro.system.nn.SequentialNet`
    protocol — an ordered ``layers`` list whose weight layers are named by
    ``weight_layers()``.  Conv / linear layers execute on the configured IMC
    backend; ReLU, pooling, and flatten run in the digital periphery
    unchanged.

    Args:
        model: The trained floating-point network.
        config: Quantisation / design configuration.
        layer_states: Optional prebuilt device array states keyed by weight
            layer name (device backend only).  Layers present in the map
            skip their characterisation build — and its generator
            consumption — which is how the sweep cache restores programmed
            state; the map must then cover *every* weight layer, otherwise
            the remaining layers would see a shifted variation stream and
            the run would not be bit-identical to an uncached one.
    """

    def __init__(
        self,
        model: SequentialNet,
        config: InferenceConfig | None = None,
        *,
        layer_states: Optional[Mapping[str, "ArrayState"]] = None,
    ) -> None:
        self.model = model
        self.config = config or InferenceConfig()
        weight_layers = model.weight_layers()
        if layer_states is not None:
            if self.config.backend != "device":
                raise ValueError("layer_states requires the device backend")
            missing = set(weight_layers) - set(layer_states)
            if missing:
                raise ValueError(
                    "layer_states must cover every weight layer; missing "
                    f"{sorted(missing)}"
                )
        rng = np.random.default_rng(self.config.seed)
        self._layers: Dict[str, _QuantizedLayer] = {}
        for name, layer in weight_layers.items():
            self._layers[name] = _QuantizedLayer(
                name,
                layer.weight,
                layer.bias,
                self.config,
                rng,
                state=None if layer_states is None else layer_states[name],
            )
        self._names = {id(layer): name for name, layer in weight_layers.items()}

    # ------------------------------------------------------------- internals

    @staticmethod
    def _activation_scale(activations: np.ndarray, bits: int) -> float:
        """Per-tensor unsigned quantisation scale.

        The 99.7th percentile (rather than the maximum) maps to full scale so
        that a handful of outliers do not compress the useful activation
        range — the usual clipping choice for post-training activation
        quantisation.
        """
        _, hi = unsigned_range(bits)
        if activations.size == 0:
            return 1.0
        reference = float(np.percentile(activations, 99.7))
        if reference <= 0:
            reference = float(np.max(activations))
        if reference <= 0:
            reference = 1.0
        return reference / hi

    def _layer_scale(self, name: str, activations: np.ndarray) -> float:
        """The layer's activation scale: frozen when pinned, else per batch.

        The per-batch percentile makes an image's quantisation depend on the
        other images sharing its batch; a frozen scale (see
        :meth:`freeze_activation_scales`) removes that coupling, which is
        what lets the serving runtime split one workload into arbitrary
        micro-batches without changing any per-image result.
        """
        layer = self._layers[name]
        scale = layer.frozen_scale
        if scale is None:
            scale = self._activation_scale(activations, self.config.input_bits)
        layer.last_scale = scale
        return scale

    def _conv(self, name: str, layer: Conv2D, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        with get_tracer().span("layer", layer=name, op="conv", batch=int(n)):
            cols, out_h, out_w = im2col(x, layer.kernel_size, layer.stride, layer.padding)
            scale = self._layer_scale(name, cols)
            out = self._layers[name].matmul(cols, scale)
        return out.reshape(n, out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)

    def _linear(self, name: str, layer: Linear, x: np.ndarray) -> np.ndarray:
        with get_tracer().span("layer", layer=name, op="linear", batch=int(x.shape[0])):
            scale = self._layer_scale(name, x)
            return self._layers[name].matmul(x, scale)

    # -------------------------------------------------------------- interface

    @property
    def quantized_layers(self) -> Dict[str, _QuantizedLayer]:
        """The programmed IMC layers, keyed by weight-layer name."""
        return dict(self._layers)

    def layer_array_states(self) -> Dict[str, "ArrayState"]:
        """The full device array state of every weight layer.

        Device backend only; the returned states are what
        ``layer_states`` accepts back, closing the sweep-cache round trip.
        """
        if self.config.backend != "device":
            raise ValueError("layer_array_states requires the device backend")
        return {name: layer.array_state for name, layer in self._layers.items()}

    def apply_calibration(
        self, levels: Mapping[str, Mapping[str, np.ndarray]]
    ) -> int:
        """Pre-program cached reference levels, layer by layer.

        Args:
            levels: ``{layer_name: {"high": ..., "low": ...}}`` as returned
                by :meth:`calibration_levels`.  Layers absent from the map
                keep their lazy first-batch calibration.

        Returns:
            The number of layers programmed.
        """
        count = 0
        for name, layer_levels in levels.items():
            if name not in self._layers:
                raise KeyError(f"unknown weight layer {name!r}")
            self._layers[name].apply_calibration(dict(layer_levels))
            count += 1
        return count

    def calibration_levels(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Harvest the programmed reference levels of every calibrated layer.

        Only layers whose reference banks are workload-programmed appear in
        the result (so an uncalibrated or functional-backend engine returns
        an empty dict).
        """
        harvested: Dict[str, Dict[str, np.ndarray]] = {}
        for name, layer in self._layers.items():
            levels = layer.calibration_levels()
            if levels is not None:
                harvested[name] = levels
        return harvested

    def precompile(self) -> int:
        """Eagerly build every kernel table the configured execution needs.

        Device backend: every layer engine materialises the operand tables
        of ``config.device_exec`` and, for ``"fused"``, its calibrated
        quantisers' direct-level tables, so the first request after
        :meth:`precompile` runs the hot path only.  The functional backend
        has no lazy tables — no-op, returns 0.

        Returns:
            The number of layers precompiled.
        """
        if self.config.backend != "device":
            return 0
        for layer in self._layers.values():
            layer.engine.precompile(self.config.device_exec)
        return len(self._layers)

    def export_kernel_plans(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Precompile and export every layer's kernel tables as flat arrays.

        ``{layer_name: {table_name: array}}`` — the ahead-of-time compiled
        form :meth:`apply_kernel_plans` (and the serving
        :class:`~repro.serve.ChipProgram`) re-installs without recompute.
        Empty for the functional backend.
        """
        if self.config.backend != "device":
            return {}
        return {
            name: layer.engine.export_kernel_plan(self.config.device_exec)
            for name, layer in self._layers.items()
        }

    def apply_kernel_plans(
        self, plans: Mapping[str, Mapping[str, np.ndarray]]
    ) -> int:
        """Install exported kernel tables (possibly shared-memory views).

        Layers absent from the map keep their lazy build.  Returns the
        number of layers stamped.
        """
        if self.config.backend != "device":
            raise ValueError("apply_kernel_plans requires the device backend")
        count = 0
        for name, arrays in plans.items():
            if name not in self._layers:
                raise KeyError(f"unknown weight layer {name!r}")
            self._layers[name].engine.apply_kernel_plan(
                self.config.device_exec, dict(arrays)
            )
            count += 1
        return count

    def freeze_activation_scales(
        self, images: Optional[np.ndarray] = None
    ) -> Dict[str, float]:
        """Pin every layer's activation scale to a calibration pass's value.

        Args:
            images: Calibration batch to run first (one forward pass, which
                also triggers the lazy first-batch ADC calibration in
                ``calibration="workload"`` mode).  ``None`` freezes the
                scales recorded by the most recent forward pass instead —
                useful when a calibration pass already ran (e.g. a
                :meth:`predict` over the calibration set).

        Returns:
            The frozen scales keyed by weight-layer name — the payload
            :meth:`apply_activation_scales` accepts, so a warm replica can
            be pinned without rerunning calibration.

        Raises:
            RuntimeError: When no forward pass has recorded a scale yet.
        """
        if images is not None:
            self.forward(images)
        scales: Dict[str, float] = {}
        for name, layer in self._layers.items():
            if layer.last_scale is None:
                raise RuntimeError(
                    f"layer {name!r} has not run a forward pass yet; pass a "
                    "calibration batch to freeze_activation_scales"
                )
            layer.frozen_scale = float(layer.last_scale)
            scales[name] = layer.frozen_scale
        return scales

    def apply_activation_scales(self, scales: Mapping[str, float]) -> None:
        """Pin per-layer activation scales harvested from a warm engine.

        Layers absent from the map keep their per-batch percentile scale.
        """
        for name, scale in scales.items():
            if name not in self._layers:
                raise KeyError(f"unknown weight layer {name!r}")
            if not float(scale) > 0:
                raise ValueError(f"scale for {name!r} must be positive, got {scale}")
            self._layers[name].frozen_scale = float(scale)

    def activation_scales(self) -> Dict[str, float]:
        """The currently frozen per-layer scales (empty when none pinned)."""
        return {
            name: layer.frozen_scale
            for name, layer in self._layers.items()
            if layer.frozen_scale is not None
        }

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Quantised forward pass mirroring the model's own layer order."""
        out = images
        for layer in self.model.layers:
            name = self._names.get(id(layer))
            if name is None:
                out = layer.forward(out)
            elif isinstance(layer, Conv2D):
                out = self._conv(name, layer, out)
            else:
                out = self._linear(name, layer, out)
        return out

    def predict(self, images: np.ndarray, *, batch_size: int = 128) -> np.ndarray:
        """Class predictions under the quantised IMC pipeline."""
        predictions = []
        for start in range(0, len(images), batch_size):
            logits = self.forward(images[start : start + batch_size])
            predictions.append(np.argmax(logits, axis=-1))
        return np.concatenate(predictions) if predictions else np.array([], dtype=int)

    def accuracy(
        self, images: np.ndarray, labels: np.ndarray, *, batch_size: int = 128
    ) -> float:
        """Top-1 accuracy under the quantised IMC pipeline."""
        return float(np.mean(self.predict(images, batch_size=batch_size) == labels))
