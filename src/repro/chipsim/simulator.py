"""Mapping-driven chip simulator: accuracy, energy, and latency in one pass.

:class:`ChipSimulator` is the paper's weight-stationary chip as one
executable object.  It maps every conv / linear layer of a trained model
onto the macro tile grid (:func:`repro.system.mapping.map_layer`), runs
batched quantised inference through the device-detailed layer engines, and
prices each layer's mapping with the NeuroSim-style system model — so the
Fig. 10 accuracy and the Figs. 11-12 energy / latency / TOPS/W describe
the *same* simulated hardware.  The chip's activity per image (block MACs,
block steps, cross-tile partial-sum adds) follows from the mapping alone:
it does not depend on the data.

Typical use::

    model, dataset, _ = reference_model_and_dataset()
    sim = ChipSimulator(model, design="chgfe", input_bits=4, weight_bits=8)
    report = sim.run(dataset.test_images[:100], dataset.test_labels[:100])
    report.accuracy                    # measured on the simulated chip
    report.performance.tops_per_watt   # priced from the layer mapping
    print(report.summary())

Layers run on the default ``"fused"`` kernel; ``device_exec="fast"`` or
``"exact"`` selects a plane kernel with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..devices.variation import DEFAULT_VARIATION, VariationModel
from ..engine.kernels import DEFAULT_DEVICE_EXEC
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from ..obs.tracer import get_tracer, timed
from ..system.activity import LayerActivity
from ..system.chip import ChipParameters
from ..system.htree import HTreeParameters
from ..system.inference import InferenceConfig, QuantizedInferenceEngine
from ..system.layers import ConvLayer, LinearLayer, PoolLayer
from ..system.networks import NetworkSpec
from ..system.nn import Conv2D, Linear, MaxPool2D, SequentialNet
from ..system.performance import SystemPerformanceModel, SystemPerformanceResult

__all__ = ["ChipReport", "ChipSimulator", "network_spec_from_model"]


def network_spec_from_model(
    model: SequentialNet, *, name: Optional[str] = None, dataset: str = "synthetic"
) -> NetworkSpec:
    """Derive the shape-level :class:`NetworkSpec` of a runtime model.

    Walks ``model.layers`` tracking the spatial size, emitting one
    descriptor per conv / pool / linear layer; weight layers keep the names
    of ``model.weight_layers()`` so simulator-side activity can be joined
    back onto the spec.
    """
    names = {id(layer): key for key, layer in model.weight_layers().items()}
    channels, height, width = model.input_shape
    if height != width:
        raise ValueError("network_spec_from_model requires square inputs")
    size = height
    specs: List[object] = []
    pool_count = 0
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            spec = ConvLayer(
                names[id(layer)],
                layer.in_channels,
                layer.out_channels,
                layer.kernel_size,
                size,
                stride=layer.stride,
                padding=layer.padding,
            )
            specs.append(spec)
            size = spec.output_size
            channels = layer.out_channels
        elif isinstance(layer, MaxPool2D):
            pool_count += 1
            specs.append(
                PoolLayer(
                    f"pool{pool_count}", channels, size, kernel_size=layer.kernel_size
                )
            )
            size = size // layer.kernel_size
        elif isinstance(layer, Linear):
            specs.append(
                LinearLayer(names[id(layer)], layer.in_features, layer.out_features)
            )
    return NetworkSpec(
        name=name or type(model).__name__,
        dataset=dataset,
        layers=tuple(specs),
        num_classes=model.num_classes,
        input_shape=model.input_shape,
    )


@dataclass
class ChipReport:
    """Co-report of one simulated pass: accuracy + energy/latency.

    Attributes:
        network: The shape-level network the chip executed.
        images: Images in the evaluated workload.
        accuracy: Measured top-1 accuracy (None when no labels were given).
        predictions: Per-image class predictions.
        performance: Chip-level energy / latency / area result priced from
            the layer mapping's activity.
        activities: The per-layer activity fed to the performance model.
        wall_seconds: Host wall-clock time of the simulated pass.
        tiles_executed: Tile-level matmul invocations during the pass
            (every batch runs every macro of every weight layer once).
    """

    network: NetworkSpec
    images: int
    accuracy: Optional[float]
    predictions: np.ndarray
    performance: SystemPerformanceResult
    activities: List[LayerActivity]
    wall_seconds: float
    tiles_executed: int

    @property
    def simulated_images_per_second(self) -> float:
        """Host-side simulation throughput (images/s of wall time)."""
        return self.images / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def tiles_per_second(self) -> float:
        """Host-side tile matmul throughput (tiles/s of wall time)."""
        return (
            self.tiles_executed / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def summary(self) -> str:
        """Human-readable co-report."""
        perf = self.performance
        lines = [
            f"{self.network.name} on {perf.design} chip "
            f"({perf.input_bits}b-IN / {perf.weight_bits}b-W, "
            f"{perf.total_macros} macros)",
        ]
        if self.accuracy is not None:
            lines.append(f"  accuracy          : {self.accuracy * 100:.1f} %")
        lines.extend(
            [
                f"  energy / image    : {perf.total_energy * 1e6:.3f} uJ",
                f"  latency / image   : {perf.total_latency * 1e3:.3f} ms",
                f"  throughput        : {perf.frames_per_second:.1f} FPS",
                f"  efficiency        : {perf.tops_per_watt:.2f} TOPS/W",
                f"  area              : {perf.area_mm2:.2f} mm^2",
                f"  simulated at      : {self.simulated_images_per_second:.2f} "
                f"images/s ({self.tiles_per_second:.1f} tile matmuls/s)",
            ]
        )
        return "\n".join(lines)


class ChipSimulator:
    """Runs a trained model on the simulated macro-tiled chip.

    Args:
        model: A trained :class:`~repro.system.nn.SequentialNet`-protocol
            model (e.g. :class:`~repro.system.nn.SmallCNN` or the
            :mod:`repro.chipsim.scenarios` networks).
        design: ``"curfe"`` or ``"chgfe"``.
        input_bits: Activation precision (1..8).
        weight_bits: Weight precision (4 or 8).
        adc_bits: SAR ADC resolution.
        geometry: Macro geometry shared by mapper, tiles, and cost model.
        variation: Device-variation statistics of every cell.
        seed: Seed of the programming-variation draws.
        device_exec: Engine kernel, one of the three in
            :mod:`repro.engine.kernels` — ``"fused"`` (default; layer-level
            batched GEMM), or the plane kernels ``"exact"`` and ``"fast"``,
            which give bit-identical results more slowly.
        calibration: ``"workload"`` (default) programs each layer's ADC
            reference bank from its first batch, which is what reaches the
            paper's accuracy at ``adc_bits=5``; ``"nominal"`` keeps the
            fixed worst-case references.
        calibration_samples: Per-layer calibration-batch budget.
        config: A complete device-backend :class:`InferenceConfig`; when
            given it overrides every per-field argument above (the sweep
            runner dispatches jobs this way after a serialisation round
            trip).
        layer_states: Optional prebuilt device array states keyed by weight
            layer name (sweep programming cache); must cover every weight
            layer when given.
        chip: Chip-level cost parameters.
        htree_params: H-tree wire parameters.
        name: Network name for reports (defaults to the model class name).
        dataset: Dataset name for reports.
    """

    def __init__(
        self,
        model: SequentialNet,
        *,
        design: str = "curfe",
        input_bits: int = 4,
        weight_bits: int = 8,
        adc_bits: int = 5,
        geometry: MacroGeometry = DEFAULT_GEOMETRY,
        variation: VariationModel = DEFAULT_VARIATION,
        seed: int = 0,
        device_exec: str = DEFAULT_DEVICE_EXEC,
        calibration: str = "workload",
        calibration_samples: int = 4096,
        config: Optional[InferenceConfig] = None,
        layer_states: Optional[Dict[str, object]] = None,
        chip: Optional[ChipParameters] = None,
        htree_params: Optional[HTreeParameters] = None,
        name: Optional[str] = None,
        dataset: str = "synthetic",
    ) -> None:
        self.model = model
        self.network = network_spec_from_model(model, name=name, dataset=dataset)
        if config is None:
            config = InferenceConfig(
                design=design,
                backend="device",
                device_exec=device_exec,
                input_bits=input_bits,
                weight_bits=weight_bits,
                adc_bits=adc_bits,
                geometry=geometry,
                variation=variation,
                seed=seed,
                calibration=calibration,
                calibration_samples=calibration_samples,
            )
        elif config.backend != "device":
            raise ValueError(
                "ChipSimulator runs the device backend; got "
                f"backend={config.backend!r}"
            )
        self.config = config
        # Cell characterisation happens here, so the cold set-up gets a
        # root span of its own beside the later chipsim.run spans.
        with get_tracer().span(
            "chipsim.build",
            network=self.network.name,
            design=config.design,
            layers=len(model.weight_layers()),
        ):
            self.inference = QuantizedInferenceEngine(
                model, config, layer_states=layer_states
            )
            self.performance_model = SystemPerformanceModel(
                config.design,
                input_bits=config.input_bits,
                weight_bits=config.weight_bits,
                adc_bits=config.adc_bits,
                geometry=config.geometry,
                chip=chip,
                htree_params=htree_params,
            )

    # -------------------------------------------------------------- internals

    def calibrated_layers(self) -> int:
        """Weight layers whose ADC references are workload-programmed.

        Zero until the first batch has run (calibration is derived from
        it), and always zero with ``calibration="nominal"``.
        """
        return sum(
            layer.engine.reference_levels is not None
            for layer in self.inference.quantized_layers.values()
        )

    def layer_activities(self) -> List[LayerActivity]:
        """Per-image activity of the chip, one entry per network layer.

        Weight layers take theirs from their macro mapping, pooling layers
        from their digital data movement; neither depends on the images a
        run feeds the chip.
        """
        return self.performance_model.network_activities(self.network)

    # -------------------------------------------------------------- interface

    def run(
        self,
        images: np.ndarray,
        labels: Optional[np.ndarray] = None,
        *,
        batch_size: int = 128,
    ) -> ChipReport:
        """Execute a workload and co-report accuracy with energy / latency.

        Args:
            images: Input batch of shape (N, C, H, W).
            labels: Optional ground-truth labels; enables the accuracy
                field of the report.
            batch_size: Images per inference batch.

        Returns:
            The :class:`ChipReport` of this pass.
        """
        if len(images) < 1:
            raise ValueError("images must be positive")
        with get_tracer().span(
            "chipsim.run",
            network=self.network.name,
            design=self.config.design,
            images=len(images),
            batch_size=batch_size,
        ):
            # timed() always measures the perf_counter pair (the report's
            # wall_seconds) and doubles as the predict span when tracing.
            with timed("chipsim.predict", images=len(images)) as predict_t:
                predictions = self.inference.predict(
                    images, batch_size=batch_size
                )
            wall_seconds = predict_t.duration_s
            accuracy = (
                float(np.mean(predictions == np.asarray(labels)))
                if labels is not None
                else None
            )
            with timed("chipsim.evaluate"):
                activities = self.layer_activities()
                performance = self.performance_model.evaluate_activities(
                    self.network, activities
                )
        batches = -(-len(images) // batch_size)
        return ChipReport(
            network=self.network,
            images=len(images),
            accuracy=accuracy,
            predictions=predictions,
            performance=performance,
            activities=activities,
            wall_seconds=wall_seconds,
            tiles_executed=batches * performance.total_macros,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ChipSimulator({self.network.name}, design={self.config.design}, "
            f"x={self.config.input_bits}b, "
            f"w={self.config.weight_bits}b)"
        )
