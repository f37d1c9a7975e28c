"""Circuit-level energy / latency / area model of the CurFe and ChgFe macros.

This is the model behind Fig. 9 (energy efficiency vs. input/weight
precision) and the macro-level rows of Table 1.  Energy is accounted per
bank and per input bit plane from the component models in
:mod:`repro.energy.components`; a full MAC operation (32 accumulations at
the chosen precision) is then ``input_bits`` bit-plane cycles, and the
familiar TOPS/W metric counts a multiply-accumulate as two operations.

The decisive structural difference between the designs is captured
explicitly: CurFe spends static TIA power plus array current during the
conversion window, while ChgFe spends pre-charge energy (and the sign
column's VDDq charge) but has no static analog bias — which is why ChgFe is
the more energy-efficient of the two while CurFe cycles faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .components import (
    CHGFE_AREA,
    CHGFE_ENERGY,
    CHGFE_TIMING,
    CURFE_AREA,
    CURFE_ENERGY,
    CURFE_TIMING,
    MacroAreaParameters,
    MacroEnergyParameters,
    MacroTimingParameters,
)

__all__ = [
    "PRECISION_SWEEP",
    "EnergyBreakdown",
    "EfficiencyPoint",
    "CircuitEnergyModel",
    "efficiency_sweep",
]

#: The five precision corners reported in Fig. 9: (input bits, weight bits).
PRECISION_SWEEP: Tuple[Tuple[int, int], ...] = (
    (1, 4),
    (2, 4),
    (4, 4),
    (4, 8),
    (8, 8),
)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-bank, per-bit-plane energy breakdown (J).

    Attributes mirror the macro's physical blocks; ``total`` is their sum.
    """

    wordline: float
    array: float
    readout: float
    adc: float
    reference: float
    accumulator: float
    switch_matrix: float
    control: float

    @property
    def total(self) -> float:
        """Total per-bank, per-bit-plane energy (J)."""
        return (
            self.wordline
            + self.array
            + self.readout
            + self.adc
            + self.reference
            + self.accumulator
            + self.switch_matrix
            + self.control
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dictionary (including the total)."""
        return {
            "wordline": self.wordline,
            "array": self.array,
            "readout": self.readout,
            "adc": self.adc,
            "reference": self.reference,
            "accumulator": self.accumulator,
            "switch_matrix": self.switch_matrix,
            "control": self.control,
            "total": self.total,
        }


@dataclass(frozen=True)
class EfficiencyPoint:
    """One precision corner of the Fig. 9 sweep.

    Attributes:
        design: ``"curfe"`` or ``"chgfe"``.
        input_bits: Input precision.
        weight_bits: Weight precision.
        tops_per_watt: Circuit-level energy efficiency.
        energy_per_mac: Energy of one 32-row MAC at this precision (J).
        latency: Latency of one 32-row MAC at this precision (s).
    """

    design: str
    input_bits: int
    weight_bits: int
    tops_per_watt: float
    energy_per_mac: float
    latency: float


class CircuitEnergyModel:
    """Energy / latency / area model of one macro design.

    Args:
        design: ``"curfe"`` or ``"chgfe"``.
        energy_params: Component energy parameters; defaults per design.
        timing: Phase timing; defaults per design.
        area_params: Block area parameters; defaults per design.
        banks: Number of banks in the macro (16).
        rows: Total array rows (128).
        adc_bits: Override of the ADC resolution (defaults to the value in
            ``energy_params.adc``).
        rows_per_block: Override of the activated rows per MAC (defaults to
            the value in ``energy_params``); pass the shared
            ``MacroGeometry.block_rows`` so the priced macro matches the
            simulated one.
    """

    def __init__(
        self,
        design: str = "curfe",
        *,
        energy_params: Optional[MacroEnergyParameters] = None,
        timing: Optional[MacroTimingParameters] = None,
        area_params: Optional[MacroAreaParameters] = None,
        banks: int = 16,
        rows: int = 128,
        adc_bits: Optional[int] = None,
        rows_per_block: Optional[int] = None,
    ) -> None:
        if design not in ("curfe", "chgfe"):
            raise ValueError("design must be 'curfe' or 'chgfe'")
        self.design = design
        if energy_params is None:
            energy_params = CURFE_ENERGY if design == "curfe" else CHGFE_ENERGY
        if timing is None:
            timing = CURFE_TIMING if design == "curfe" else CHGFE_TIMING
        if area_params is None:
            area_params = CURFE_AREA if design == "curfe" else CHGFE_AREA
        if energy_params.design != design:
            raise ValueError("energy_params.design does not match design")
        if banks < 1 or rows < 1:
            raise ValueError("banks and rows must be positive")
        self.params = energy_params
        self.timing = timing
        self.area_params = area_params
        self.banks = int(banks)
        self.rows = int(rows)
        if adc_bits is not None or rows_per_block is not None:
            # Rebuild the (frozen) parameters with the requested overrides.
            from dataclasses import replace

            overrides = {}
            if adc_bits is not None:
                overrides["adc"] = replace(
                    self.params.adc, resolution_bits=adc_bits
                )
            if rows_per_block is not None:
                overrides["rows_per_block"] = rows_per_block
            self.params = replace(self.params, **overrides)

    # ------------------------------------------------------- per-plane energy

    def _active_groups(self, weight_bits: int) -> int:
        """Number of 4-bit column groups active per bank (2 for 8-bit weights)."""
        if weight_bits not in (4, 8):
            raise ValueError("weight_bits must be 4 or 8")
        return 2 if weight_bits == 8 else 1

    def bit_plane_breakdown(self, weight_bits: int = 8) -> EnergyBreakdown:
        """Energy breakdown of one bank processing one input bit plane."""
        p = self.params
        groups = self._active_groups(weight_bits)
        active_rows = p.rows_per_block * p.input_activity

        # Wordline driver: the physical wordline spans the whole array, so a
        # bank is billed its 1/banks share of the row toggles.
        driver = p.wordline_driver_instance()
        wordline = active_rows * driver.toggle_energy_per_row() / self.banks

        adc_unit = p.adc_instance()
        adc = groups * adc_unit.conversion_energy()
        reference = groups * p.reference_bank_instance().generation_energy(
            p.adc.resolution_bits
        )
        accumulator = groups * p.accumulator_instance().energy_per_accumulate()
        switch_matrix = p.switch_matrix_energy
        control = p.control_overhead_energy

        if self.design == "curfe":
            conduction_time = self.timing.analog_conduction_time()
            array = (
                groups
                * p.group_average_current()
                * p.supply_voltage
                * conduction_time
            )
            tia = p.tia_instance()
            readout_window = self.timing.mac_phase + self.timing.adc_conversion
            readout = groups * tia.static_power() * readout_window
        else:
            # ChgFe: pre-charge energy of the group bitlines plus the sign
            # column's VDDq charge injection during the MAC phase.
            active_cells = p.expected_active_cells_per_column()
            unit_dv = (
                p.unit_cell_current
                * self.timing.mac_phase
                / p.bitline_capacitance
            )
            # Binary-weighted discharge of the data columns; for an 8-bit
            # weight both groups discharge (sign column excluded: it charges).
            if weight_bits == 8:
                significance_sum = (1 + 2 + 4 + 8) + (1 + 2 + 4)
            else:
                significance_sum = 1 + 2 + 4
            recharge_dv = active_cells * unit_dv * significance_sum
            capacitor = p.bitline_capacitor()
            precharge = (
                capacitor.effective_capacitance
                * p.precharge.precharge_voltage
                * recharge_dv
            )
            sign_current = active_cells * 8.0 * p.unit_cell_current
            array = sign_current * p.sign_supply_voltage * self.timing.mac_phase
            readout = precharge

        return EnergyBreakdown(
            wordline=wordline,
            array=array,
            readout=readout,
            adc=adc,
            reference=reference,
            accumulator=accumulator,
            switch_matrix=switch_matrix,
            control=control,
        )

    def bit_plane_energy(self, weight_bits: int = 8) -> float:
        """Total per-bank, per-bit-plane energy (J)."""
        return self.bit_plane_breakdown(weight_bits).total

    # --------------------------------------------------------- MAC-level view

    def operations_per_mac(self) -> int:
        """Operations counted for one 32-row MAC (multiply + add per row)."""
        return 2 * self.params.rows_per_block

    def mac_energy(self, input_bits: int, weight_bits: int = 8) -> float:
        """Energy of one bank's full MAC at the given precision (J)."""
        if not 1 <= input_bits <= 8:
            raise ValueError("input_bits must be between 1 and 8")
        return input_bits * self.bit_plane_energy(weight_bits)

    def cycle_time(self) -> float:
        """Duration of one bit-plane cycle (s)."""
        return self.timing.cycle_time()

    def mac_latency(self, input_bits: int) -> float:
        """Latency of one full bit-serial MAC (s)."""
        if not 1 <= input_bits <= 8:
            raise ValueError("input_bits must be between 1 and 8")
        return input_bits * self.cycle_time()

    def energy_for_block_macs(
        self, block_macs: float, input_bits: int, weight_bits: int = 8
    ) -> float:
        """Macro energy of a counted number of bank-level block MACs (J).

        ``block_macs`` is the activity unit the system performance model
        derives from a layer's macro mapping: one 32-row analog
        accumulation + conversion per weight column, covering the full
        bit-serial input sweep.
        """
        if block_macs < 0:
            raise ValueError("block_macs must be non-negative")
        return block_macs * self.mac_energy(input_bits, weight_bits)

    def latency_for_block_steps(self, block_steps: float, input_bits: int) -> float:
        """Latency of a counted number of sequential block activations (s)."""
        if block_steps < 0:
            raise ValueError("block_steps must be non-negative")
        return block_steps * self.mac_latency(input_bits)

    def tops_per_watt(self, input_bits: int, weight_bits: int = 8) -> float:
        """Circuit-level energy efficiency at the given precision (TOPS/W)."""
        energy = self.mac_energy(input_bits, weight_bits)
        ops = self.operations_per_mac()
        return ops / energy / 1e12

    def efficiency_point(self, input_bits: int, weight_bits: int = 8) -> EfficiencyPoint:
        """Bundle efficiency, energy, and latency for one precision corner."""
        return EfficiencyPoint(
            design=self.design,
            input_bits=input_bits,
            weight_bits=weight_bits,
            tops_per_watt=self.tops_per_watt(input_bits, weight_bits),
            energy_per_mac=self.mac_energy(input_bits, weight_bits),
            latency=self.mac_latency(input_bits),
        )

    # ----------------------------------------------------- macro-level totals

    def macro_throughput_macs_per_s(self, input_bits: int) -> float:
        """MAC-per-second throughput of the whole macro (all banks in parallel)."""
        return self.banks / self.mac_latency(input_bits)

    def macro_throughput_ops_per_s(self, input_bits: int) -> float:
        """Operations-per-second throughput of the whole macro."""
        return self.macro_throughput_macs_per_s(input_bits) * self.operations_per_mac()

    def macro_power(self, input_bits: int, weight_bits: int = 8) -> float:
        """Average power of the whole macro running back-to-back MACs (W)."""
        return (
            self.banks
            * self.mac_energy(input_bits, weight_bits)
            / self.mac_latency(input_bits)
        )

    def macro_area_um2(self, weight_bits: int = 8) -> float:
        """Estimated macro area (µm²) at 40 nm."""
        a = self.area_params
        p = self.params
        columns = self.banks * 2 * p.columns_per_group
        cells = self.rows * columns * a.cell_area
        bitline_caps = columns * a.bitline_capacitor_area
        readout = self.banks * 2 * (a.tia_area + 4 * a.precharge_area)
        adcs = self.banks * 2 * a.adc_area
        accumulators = self.banks * a.accumulator_area
        drivers = self.rows * a.wordline_driver_area_per_row
        switches = columns * a.switch_matrix_area_per_column
        fixed = a.reference_bank_area + a.control_area
        return (
            cells
            + bitline_caps
            + readout
            + adcs
            + accumulators
            + drivers
            + switches
            + fixed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CircuitEnergyModel(design={self.design}, banks={self.banks})"


def efficiency_sweep(
    designs: Iterable[str] = ("curfe", "chgfe"),
    corners: Iterable[Tuple[int, int]] = PRECISION_SWEEP,
) -> List[EfficiencyPoint]:
    """Evaluate the Fig. 9 precision sweep for the requested designs."""
    points: List[EfficiencyPoint] = []
    for design in designs:
        model = CircuitEnergyModel(design)
        for input_bits, weight_bits in corners:
            points.append(model.efficiency_point(input_bits, weight_bits))
    return points
