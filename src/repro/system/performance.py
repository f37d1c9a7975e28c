"""System-level performance model (NeuroSim-style roll-up).

This model reproduces the paper's system evaluation (Figs. 11 and 12 and the
system row of Table 1): a weight-stationary chip built from 128×128 CurFe or
ChgFe macros, tiled per layer, fed through SRAM buffers and an H-tree, with
digital partial-sum accumulation and activation logic.  For every layer it
produces dynamic energy, latency, and the macro count; the chip totals give
frames per second, TOPS/W, and area.

Energy terms per layer:

* **macro** — the circuit-level MAC energy of every activated 32-row block
  (from :class:`repro.energy.CircuitEnergyModel`), which already reflects the
  CurFe/ChgFe difference (TIA static power vs. pre-charge);
* **buffer** — SRAM reads of input activations, writes of outputs, and
  read-modify-write of cross-tile partial sums;
* **interconnect** — H-tree transport of activations to the macros and
  outputs/partial sums back;
* **digital** — cross-tile partial-sum additions and activation functions
  (plus pooling for pooling layers);
* **leakage** — chip standby power (idle macros and gated periphery) times
  the total inference latency; because ChgFe's MAC cycle is longer, it pays
  more leakage per image, which is why the system-level gap between the two
  designs is smaller than the circuit-level gap.

Activity-driven architecture
----------------------------

Costing is split into *producing* per-layer
:class:`~repro.system.activity.LayerActivity` counts from layer shapes and
the macro mapping (:meth:`SystemPerformanceModel.network_activities`) and
*converting* them to energy / latency
(:meth:`SystemPerformanceModel.layer_performance`, rolled up to chip level
by :meth:`SystemPerformanceModel.evaluate_activities`).
:meth:`SystemPerformanceModel.evaluate` chains the two; the tiled
:class:`~repro.chipsim.ChipSimulator` prices the same activities for the
network it executes, so accuracy and energy/latency describe one mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..energy.circuit_energy import CircuitEnergyModel
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from .activity import LayerActivity
from .chip import ChipParameters
from .htree import HTree, HTreeParameters
from .layers import ConvLayer, LinearLayer, PoolLayer
from .mapping import map_layer
from .networks import NetworkSpec

__all__ = [
    "LayerActivity",
    "LayerPerformance",
    "SystemPerformanceResult",
    "SystemPerformanceModel",
]

WeightLayer = Union[ConvLayer, LinearLayer]


@dataclass(frozen=True)
class LayerPerformance:
    """Per-layer dynamic energy, latency, and mapping summary.

    Attributes:
        layer_name: Layer name.
        macs: MAC operations in this layer per image.
        num_macros: Macros allocated to the layer.
        macro_energy: IMC macro dynamic energy (J).
        buffer_energy: SRAM buffer energy (J).
        interconnect_energy: H-tree energy (J).
        digital_energy: Digital accumulation / activation / pooling energy (J).
        latency: Layer latency per image (s).
    """

    layer_name: str
    macs: int
    num_macros: int
    macro_energy: float
    buffer_energy: float
    interconnect_energy: float
    digital_energy: float
    latency: float

    @property
    def dynamic_energy(self) -> float:
        """Total dynamic energy of the layer (J), excluding chip leakage."""
        return (
            self.macro_energy
            + self.buffer_energy
            + self.interconnect_energy
            + self.digital_energy
        )


@dataclass(frozen=True)
class SystemPerformanceResult:
    """Chip-level results for one network / design / precision configuration.

    Attributes:
        design: ``"curfe"`` or ``"chgfe"``.
        network: Network name.
        dataset: Dataset name.
        input_bits: Input activation precision.
        weight_bits: Weight precision.
        layers: Per-layer results (weight layers and pooling layers).
        total_macros: Macros instantiated on the chip.
        leakage_energy: Standby energy per image (J).
        area_mm2: Estimated chip area (mm²).
    """

    design: str
    network: str
    dataset: str
    input_bits: int
    weight_bits: int
    layers: List[LayerPerformance]
    total_macros: int
    leakage_energy: float
    area_mm2: float

    @property
    def total_dynamic_energy(self) -> float:
        """Dynamic energy per image (J)."""
        return sum(layer.dynamic_energy for layer in self.layers)

    @property
    def total_energy(self) -> float:
        """Total energy per image including leakage (J)."""
        return self.total_dynamic_energy + self.leakage_energy

    @property
    def total_latency(self) -> float:
        """Inference latency per image (s)."""
        return sum(layer.latency for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """MACs per image."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_ops(self) -> int:
        """Operations per image (2 per MAC)."""
        return 2 * self.total_macs

    @property
    def frames_per_second(self) -> float:
        """Inference throughput (images/s)."""
        return 1.0 / self.total_latency

    @property
    def tops_per_watt(self) -> float:
        """System-level energy efficiency (TOPS/W)."""
        return self.total_ops / self.total_energy / 1e12

    @property
    def average_power(self) -> float:
        """Average power while streaming inferences back to back (W)."""
        return self.total_energy / self.total_latency

    def energy_breakdown(self) -> Dict[str, float]:
        """Chip-level energy breakdown per image (J)."""
        return {
            "macro": sum(l.macro_energy for l in self.layers),
            "buffer": sum(l.buffer_energy for l in self.layers),
            "interconnect": sum(l.interconnect_energy for l in self.layers),
            "digital": sum(l.digital_energy for l in self.layers),
            "leakage": self.leakage_energy,
            "total": self.total_energy,
        }


class SystemPerformanceModel:
    """Evaluates a network on a chip built from CurFe or ChgFe macros.

    Args:
        design: ``"curfe"`` or ``"chgfe"``.
        input_bits: Activation precision (1..8).
        weight_bits: Weight precision (4 or 8).
        adc_bits: ADC resolution used by the macros.
        geometry: Macro geometry seen by the mapper.
        chip: Chip-level cost parameters.
        htree_params: H-tree wire parameters.
        circuit_model: Optional pre-built circuit energy model (overrides
            ``design``/``adc_bits``).
    """

    def __init__(
        self,
        design: str = "curfe",
        *,
        input_bits: int = 8,
        weight_bits: int = 8,
        adc_bits: int = 5,
        geometry: Optional[MacroGeometry] = None,
        chip: Optional[ChipParameters] = None,
        htree_params: Optional[HTreeParameters] = None,
        circuit_model: Optional[CircuitEnergyModel] = None,
    ) -> None:
        if not 1 <= input_bits <= 8:
            raise ValueError("input_bits must be between 1 and 8")
        if weight_bits not in (4, 8):
            raise ValueError("weight_bits must be 4 or 8")
        self.design = design
        self.input_bits = int(input_bits)
        self.weight_bits = int(weight_bits)
        self.geometry = geometry or self._default_geometry()
        # The priced macro follows the shared geometry, so a non-default
        # MacroGeometry changes energy/latency/area consistently with the
        # mapping (an explicit circuit_model takes full responsibility).
        self.circuit = circuit_model or CircuitEnergyModel(
            design,
            adc_bits=adc_bits,
            banks=self.geometry.weight_columns,
            rows=self.geometry.rows,
            rows_per_block=self.geometry.block_rows,
        )
        self.chip = chip or ChipParameters()
        self.htree_params = htree_params or HTreeParameters()

    def _default_geometry(self) -> MacroGeometry:
        """Macro geometry implied by the weight precision.

        With 4-bit weights each weight needs only one 4-bit column group, so
        a 128-bit-column macro holds 16 weight columns in its H4B groups
        (the L4B groups are unused), keeping the mapper geometry identical;
        with 8-bit weights a weight occupies a full H4B+L4B pair.
        """
        return DEFAULT_GEOMETRY

    # ------------------------------------------------------ activity producers

    def weight_layer_activity(self, layer: WeightLayer) -> LayerActivity:
        """Analytic per-image activity of a conv / linear layer (per mapping)."""
        mapping = map_layer(layer, self.geometry)
        pixels = layer.output_pixels
        buffer = self.chip.buffer
        return LayerActivity(
            layer_name=layer.name,
            macs=layer.macs,
            num_macros=mapping.num_macros,
            row_tiles=mapping.row_tiles,
            col_tiles=mapping.col_tiles,
            block_macs=pixels * mapping.total_block_macs_per_pixel,
            block_steps=pixels * mapping.block_activations_per_pixel,
            input_bits_moved=pixels * layer.weight_rows * self.input_bits,
            output_bits_moved=pixels * layer.weight_cols * buffer.output_bits,
            psum_bits_moved=(
                pixels
                * layer.weight_cols
                * max(mapping.row_tiles - 1, 0)
                * buffer.partial_sum_bits
            ),
            psum_adds=pixels * mapping.partial_sum_adds_per_pixel,
            activation_ops=pixels * layer.weight_cols,
        )

    def pool_layer_activity(self, layer: PoolLayer) -> LayerActivity:
        """Analytic per-image activity of a pooling layer (digital periphery)."""
        buffer = self.chip.buffer
        return LayerActivity(
            layer_name=layer.name,
            macs=0,
            num_macros=0,
            input_bits_moved=layer.input_shape.size * buffer.output_bits,
            output_bits_moved=layer.output_shape.size * buffer.output_bits,
            pool_elements=(
                layer.output_shape.size * layer.kernel_size * layer.kernel_size
            ),
            digital_steps=layer.output_shape.size,
        )

    def network_activities(self, network: NetworkSpec) -> List[LayerActivity]:
        """Per-image activities of every layer of a network, in order."""
        return [
            self.pool_layer_activity(layer)
            if isinstance(layer, PoolLayer)
            else self.weight_layer_activity(layer)
            for layer in network.layers
        ]

    # ------------------------------------------------------ activity converter

    def layer_performance(self, activity: LayerActivity) -> LayerPerformance:
        """Price one layer's activity counts into energy and latency.

        The single converter behind :meth:`evaluate` and the chip
        simulator's co-report.
        """
        buffer = self.chip.buffer
        digital = self.chip.digital

        macro_energy = self.circuit.energy_for_block_macs(
            activity.block_macs, self.input_bits, self.weight_bits
        )
        buffer_energy = (
            activity.input_bits_moved * buffer.read_energy_per_bit
            + activity.output_bits_moved * buffer.write_energy_per_bit
            + activity.psum_bits_moved
            * (buffer.read_energy_per_bit + buffer.write_energy_per_bit)
        )
        if activity.num_macros > 0:
            tree = HTree(max(activity.num_macros, 1), self.htree_params)
            interconnect_energy = tree.point_to_point_energy(
                activity.input_bits_moved
            ) + tree.point_to_point_energy(
                activity.output_bits_moved + activity.psum_bits_moved
            )
        else:
            interconnect_energy = 0.0
        digital_energy = (
            activity.psum_adds * digital.add_energy
            + activity.activation_ops * digital.activation_energy
            + activity.pool_elements * digital.pooling_energy_per_element
        )
        latency = self.circuit.latency_for_block_steps(
            activity.block_steps, self.input_bits
        ) + activity.digital_steps * digital.add_latency

        return LayerPerformance(
            layer_name=activity.layer_name,
            macs=int(round(activity.macs)),
            num_macros=activity.num_macros,
            macro_energy=macro_energy,
            buffer_energy=buffer_energy,
            interconnect_energy=interconnect_energy,
            digital_energy=digital_energy,
            latency=latency,
        )

    # ----------------------------------------------------------------- totals

    def evaluate(self, network: NetworkSpec) -> SystemPerformanceResult:
        """Evaluate a full network from its shape-derived activity."""
        return self.evaluate_activities(network, self.network_activities(network))

    def evaluate_activities(
        self, network: NetworkSpec, activities: Sequence[LayerActivity]
    ) -> SystemPerformanceResult:
        """Roll per-layer activities up to chip level."""
        layer_results = [self.layer_performance(activity) for activity in activities]
        total_macros = sum(result.num_macros for result in layer_results)

        total_latency = sum(result.latency for result in layer_results)
        leakage_energy = (
            total_macros * self.chip.standby_power_per_macro * total_latency
        )
        area_um2 = total_macros * (
            self.circuit.macro_area_um2(self.weight_bits)
            + self.chip.buffer_area_per_macro_um2
            + self.chip.htree_area_per_macro_um2
        )

        return SystemPerformanceResult(
            design=self.design,
            network=network.name,
            dataset=network.dataset,
            input_bits=self.input_bits,
            weight_bits=self.weight_bits,
            layers=layer_results,
            total_macros=total_macros,
            leakage_energy=leakage_energy,
            area_mm2=area_um2 / 1e6,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SystemPerformanceModel(design={self.design}, "
            f"x={self.input_bits}b, w={self.weight_bits}b)"
        )
