"""SAR ADC model with 2's-complement (2CM) and non-2's-complement (N2CM) modes.

The paper adopts the flexible SAR-ADC of Yue et al. [9]: the ADC attached to
an H4B column group interprets the analog partial-MAC voltage as a *signed*
quantity (2CM mode, because the H4B stores the signed high nibble of the
weight), while the ADC attached to an L4B column group interprets it as an
*unsigned* quantity (N2CM mode, for the unsigned low nibble).  Both are
successive-approximation converters whose references are produced by the
reference bank.

Two classes are provided:

* :class:`SARADC` — the raw voltage-in / code-out converter with the usual
  non-idealities (quantisation, input noise, offset, clipping) and an
  energy/latency model (CDAC switching + comparator + logic per bit).
* :class:`MACQuantizer` — a thin wrapper that maps between the *MAC-value
  domain* (integer partial sums) and the voltage domain, so the dataflow can
  ask "what integer MAC does the ADC report for this column voltage?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..engine.readout_core import adc_raw_codes, codes_to_mac
from ..obs.tracer import get_tracer

__all__ = [
    "ADCMode",
    "ADCParameters",
    "SARADC",
    "MACQuantizer",
    "CalibratedMACQuantizer",
    "LevelTable",
]

#: Cells of a calibrated quantiser's direct-level table (its uniform grid).
_LEVEL_TABLE_CELLS = 8192
#: A cell's window: the cell plus this many cells on either side.
_WINDOW_CELLS = 2
#: A cell spans at least this many float spacings of the grid's voltages.
_MIN_CELL_SPACINGS = 16


class ADCMode:
    """Enumeration of the two conversion modes (plain strings for simplicity)."""

    TWOS_COMPLEMENT = "2cm"
    NON_TWOS_COMPLEMENT = "n2cm"

    ALL = (TWOS_COMPLEMENT, NON_TWOS_COMPLEMENT)


@dataclass(frozen=True)
class ADCParameters:
    """Electrical, energy, and timing parameters of the SAR ADC.

    Attributes:
        resolution_bits: Number of output bits (the paper settles on 5).
        v_min: Lower end of the input full-scale range (V).
        v_max: Upper end of the input full-scale range (V).
        mode: ``ADCMode.TWOS_COMPLEMENT`` or ``ADCMode.NON_TWOS_COMPLEMENT``.
        unit_capacitance: Unit capacitor of the capacitive DAC (F).
        supply_voltage: ADC supply (V).
        comparator_energy: Energy of one comparator decision (J).
        logic_energy_per_bit: SAR logic energy per resolved bit (J).
        conversion_time_per_bit: Time per SAR bit cycle (s).
        input_noise_sigma: RMS input-referred noise (V).
        offset_sigma: Standard deviation of the comparator offset (V) used
            for Monte-Carlo instances.
    """

    resolution_bits: int = 5
    v_min: float = 0.05
    v_max: float = 0.95
    mode: str = ADCMode.NON_TWOS_COMPLEMENT
    unit_capacitance: float = 1.0e-15
    supply_voltage: float = 1.0
    comparator_energy: float = 6.0e-15
    logic_energy_per_bit: float = 4.0e-15
    conversion_time_per_bit: float = 0.5e-9
    input_noise_sigma: float = 0.0
    offset_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.resolution_bits < 1:
            raise ValueError("resolution_bits must be at least 1")
        if self.v_max <= self.v_min:
            raise ValueError("v_max must exceed v_min")
        if self.mode not in ADCMode.ALL:
            raise ValueError(f"mode must be one of {ADCMode.ALL}")
        if self.unit_capacitance <= 0:
            raise ValueError("unit_capacitance must be positive")
        if self.conversion_time_per_bit <= 0:
            raise ValueError("conversion_time_per_bit must be positive")

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 2**self.resolution_bits

    @property
    def lsb_voltage(self) -> float:
        """Input-referred voltage of one LSB (V)."""
        return (self.v_max - self.v_min) / (self.num_levels - 1)

    @property
    def code_min(self) -> int:
        """Smallest output code (signed in 2CM mode)."""
        if self.mode == ADCMode.TWOS_COMPLEMENT:
            return -(2 ** (self.resolution_bits - 1))
        return 0

    @property
    def code_max(self) -> int:
        """Largest output code."""
        if self.mode == ADCMode.TWOS_COMPLEMENT:
            return 2 ** (self.resolution_bits - 1) - 1
        return self.num_levels - 1


class SARADC:
    """Behavioural successive-approximation ADC.

    Args:
        params: Converter parameters.
        offset_voltage: Comparator offset of this instance (V).
        rng: Optional random generator used to draw per-conversion input
            noise when ``params.input_noise_sigma`` is non-zero.
    """

    def __init__(
        self,
        params: ADCParameters | None = None,
        *,
        offset_voltage: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.params = params or ADCParameters()
        self.offset_voltage = float(offset_voltage)
        self._rng = rng

    # ------------------------------------------------------------ conversion

    def convert(self, voltage: float) -> int:
        """Convert an input voltage to an output code.

        The code is unsigned (0 .. 2^n - 1) in N2CM mode and signed
        (-2^(n-1) .. 2^(n-1) - 1) in 2CM mode, where the signed zero code
        corresponds to the middle of the input range.
        """
        p = self.params
        effective = voltage + self.offset_voltage
        if p.input_noise_sigma > 0 and self._rng is not None:
            effective += self._rng.normal(0.0, p.input_noise_sigma)
        normalized = (effective - p.v_min) / (p.v_max - p.v_min)
        raw = int(round(normalized * (p.num_levels - 1)))
        raw = min(max(raw, 0), p.num_levels - 1)
        if p.mode == ADCMode.TWOS_COMPLEMENT:
            return raw - 2 ** (p.resolution_bits - 1)
        return raw

    def code_to_voltage(self, code: int) -> float:
        """Center voltage of the given output code (V)."""
        p = self.params
        if p.mode == ADCMode.TWOS_COMPLEMENT:
            raw = code + 2 ** (p.resolution_bits - 1)
        else:
            raw = code
        if not 0 <= raw < p.num_levels:
            raise ValueError(f"code {code} out of range for mode {p.mode}")
        return p.v_min + raw * p.lsb_voltage

    def transfer_curve(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorised conversion of an array of input voltages.

        Elementwise identical to calling :meth:`convert` per voltage: noise
        draws (when configured) consume the generator in the same order as
        sequential scalar conversions.
        """
        p = self.params
        voltages = np.asarray(voltages, dtype=float)
        effective = voltages + self.offset_voltage
        if p.input_noise_sigma > 0 and self._rng is not None:
            effective = effective + self._rng.normal(
                0.0, p.input_noise_sigma, size=voltages.shape
            )
        raw = adc_raw_codes(
            effective,
            v_min=p.v_min,
            v_max=p.v_max,
            num_levels=p.num_levels,
        ).astype(np.int64)
        if p.mode == ADCMode.TWOS_COMPLEMENT:
            raw = raw - 2 ** (p.resolution_bits - 1)
        return raw

    # -------------------------------------------------------- cost modelling

    def conversion_energy(self) -> float:
        """Energy of one full conversion (J).

        The capacitive-DAC switching energy is approximated by the classic
        monotonic-switching bound ``(2^n - 1) * C_unit * Vref^2 / 2`` plus a
        comparator decision and SAR-logic update per bit.
        """
        p = self.params
        cdac = 0.5 * (p.num_levels - 1) * p.unit_capacitance * p.supply_voltage**2
        per_bit = p.resolution_bits * (p.comparator_energy + p.logic_energy_per_bit)
        return cdac + per_bit

    def conversion_time(self) -> float:
        """Latency of one conversion (s): one bit cycle per resolved bit plus sample."""
        p = self.params
        return (p.resolution_bits + 1) * p.conversion_time_per_bit

    def with_offset(self, offset_voltage: float) -> "SARADC":
        """Return a copy of this ADC with the given comparator offset."""
        return SARADC(self.params, offset_voltage=offset_voltage, rng=self._rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SARADC({self.params.resolution_bits}b, mode={self.params.mode}, "
            f"range=[{self.params.v_min}, {self.params.v_max}] V)"
        )


class MACQuantizer:
    """Maps between integer partial-MAC values and ADC codes.

    The macro dataflow produces column voltages that are linear in the
    integer partial-MAC value (Eq. (3)-(6)).  The quantiser knows this linear
    map (the MAC value at ``v_min`` and at ``v_max``) and returns the integer
    MAC estimate that the ADC code corresponds to, which is what the digital
    accumulation module consumes.

    Args:
        adc: The underlying converter.
        mac_at_v_min: Integer MAC value corresponding to the bottom of the
            ADC input range.
        mac_at_v_max: Integer MAC value corresponding to the top of the ADC
            input range.
    """

    def __init__(self, adc: SARADC, *, mac_at_v_min: float, mac_at_v_max: float) -> None:
        if mac_at_v_max == mac_at_v_min:
            raise ValueError("mac_at_v_max must differ from mac_at_v_min")
        self.adc = adc
        self.mac_at_v_min = float(mac_at_v_min)
        self.mac_at_v_max = float(mac_at_v_max)

    @property
    def mac_per_lsb(self) -> float:
        """Change in MAC value represented by one ADC LSB."""
        return (self.mac_at_v_max - self.mac_at_v_min) / (
            self.adc.params.num_levels - 1
        )

    def voltage_for_mac(self, mac_value: float) -> float:
        """Ideal column voltage for a given integer MAC value (V)."""
        p = self.adc.params
        fraction = (mac_value - self.mac_at_v_min) / (
            self.mac_at_v_max - self.mac_at_v_min
        )
        return p.v_min + fraction * (p.v_max - p.v_min)

    def quantize_voltage(self, voltage: float) -> float:
        """Convert a column voltage to the ADC-reported MAC estimate."""
        code = self.adc.convert(voltage)
        p = self.adc.params
        if p.mode == ADCMode.TWOS_COMPLEMENT:
            raw = code + 2 ** (p.resolution_bits - 1)
        else:
            raw = code
        return self.mac_at_v_min + raw * self.mac_per_lsb

    def quantize_voltages(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`quantize_voltage` over an arbitrary-shape array.

        Elementwise bit-identical to the scalar path for a noiseless
        converter (per-conversion input noise, which would consume the ADC's
        generator in data-dependent order, is not applied here; the macro
        readout path never configures it).
        """
        p = self.adc.params
        raw = adc_raw_codes(
            voltages,
            v_min=p.v_min,
            v_max=p.v_max,
            num_levels=p.num_levels,
            offset_voltage=self.adc.offset_voltage,
        )
        return codes_to_mac(
            raw, mac_at_v_min=self.mac_at_v_min, mac_per_lsb=self.mac_per_lsb
        )

    def quantize_mac(self, mac_value: float) -> float:
        """Round-trip an ideal MAC value through the ADC (quantisation only)."""
        return self.quantize_voltage(self.voltage_for_mac(mac_value))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MACQuantizer(mac_range=[{self.mac_at_v_min}, {self.mac_at_v_max}], "
            f"lsb={self.mac_per_lsb:.3f})"
        )


class LevelTable(NamedTuple):
    """A uniform voltage grid that converts most voltages with one gather.

    A voltage ``v`` sits at grid position ``(v - base) * scale``; its cell
    is that position truncated to an integer and clipped to the table, so
    cell 0 takes every position below 1 and the last cell every position
    from ``len(levels) - 1`` up.  ``levels[cell]`` is the level the voltage
    converts to, or NaN where it must go through
    :meth:`CalibratedMACQuantizer.quantize_voltages` instead.
    """

    levels: np.ndarray
    base: float
    scale: float


def _build_level_table(
    thresholds: np.ndarray, levels_by_voltage: np.ndarray
) -> LevelTable:
    """One level set's direct-level table (see ``CalibratedMACQuantizer.level_table``)."""
    if thresholds.size == 0:
        # One level: every voltage converts to it.
        return LevelTable(levels_by_voltage.copy(), 0.0, 0.0)
    first, last = float(thresholds[0]), float(thresholds[-1])
    # Cells between the grid's base and the first threshold (and after the
    # last): the end cells' windows then lie wholly outside the thresholds.
    pad = _WINDOW_CELLS + 2
    # Every grid edge lies within twice the largest threshold magnitude.
    magnitude = max(2.0 * max(abs(first), abs(last)), 1.0)
    width = max(
        (last - first) / (_LEVEL_TABLE_CELLS - 2 * pad),
        _MIN_CELL_SPACINGS * float(np.spacing(magnitude)),
    )
    base = first - pad * width
    cells = np.arange(_LEVEL_TABLE_CELLS, dtype=float)
    low = base + (cells - _WINDOW_CELLS) * width
    high = base + (cells + 1 + _WINDOW_CELLS) * width
    low[0], high[-1] = -np.inf, np.inf
    index = np.searchsorted(thresholds, low)
    uniform = index == np.searchsorted(thresholds, high)
    levels = np.where(uniform, levels_by_voltage[index], np.nan)
    return LevelTable(levels, base, 1.0 / width)


class CalibratedMACQuantizer:
    """SAR conversion against a workload-programmed reference bank.

    The reference bank is *programmable* (FeFET replica cells), so instead
    of the uniform references spanning the worst-case
    :func:`~repro.core.readout.mac_range_for_group` range, the SAR search
    can compare against the voltages of arbitrary MAC-domain levels —
    typically the Lloyd-Max levels of the partial-sum distribution a
    workload actually produces (:mod:`repro.quant.calibration`).  Each
    conversion then reports the calibrated level whose reference voltage is
    nearest to the column voltage — the same nearest-level quantisation the
    functional model applies in the MAC domain, up to the tie direction of
    values landing exactly on a level midpoint (the voltage-domain midpoint
    can differ from the MAC-domain one by ULPs, and a negative-slope
    transfer inverts which neighbour a tie resolves to).

    Args:
        levels: MAC-domain reference levels (any order; deduplicated and
            sorted internally).
        nominal_voltage_for_mac: The group's nominal transfer function
            (MAC value -> readout voltage); its slope may have either sign
            (positive for the CurFe H4B, negative for ChgFe).
    """

    def __init__(self, levels: np.ndarray, *, nominal_voltage_for_mac) -> None:
        levels = np.unique(np.asarray(levels, dtype=float).ravel())
        if levels.size == 0:
            raise ValueError("levels must not be empty")
        self.levels = levels
        voltages = np.asarray(
            [float(nominal_voltage_for_mac(level)) for level in levels]
        )
        order = np.argsort(voltages)
        self._level_voltages = voltages[order]
        self._levels_by_voltage = levels[order]
        self._thresholds = 0.5 * (
            self._level_voltages[:-1] + self._level_voltages[1:]
        )
        self._level_table: Optional[LevelTable] = None

    @property
    def num_levels(self) -> int:
        """Number of programmed reference levels."""
        return int(self.levels.size)

    def quantize_voltages(self, voltages: np.ndarray) -> np.ndarray:
        """MAC estimates for an array of column voltages (nearest reference)."""
        voltages = np.asarray(voltages, dtype=float)
        if self.levels.size == 1:
            return np.full_like(voltages, self.levels[0])
        indices = np.searchsorted(self._thresholds, voltages)
        return self._levels_by_voltage[indices]

    def quantize_voltage(self, voltage: float) -> float:
        """Scalar :meth:`quantize_voltages`."""
        return float(self.quantize_voltages(np.asarray([voltage]))[0])

    def quantize_voltages_into(
        self, voltages: np.ndarray, out: np.ndarray, cell: np.ndarray
    ) -> None:
        """:meth:`quantize_voltages` of *voltages* into *out*, mostly by one gather.

        Four passes into the caller's buffers — subtract the
        :meth:`level_table`'s base and multiply by its scale (in *out*),
        cast to cell indices (in *cell*), gather each cell's level (into
        *out*) — then one ``isnan`` pass finds the NaN cells, and only
        their voltages go through :meth:`quantize_voltages`.  So *out*
        equals ``quantize_voltages(voltages)`` bit for bit, for every
        voltage in the table's domain.  The three arrays are C-contiguous
        and of one shape, *cell* is int64, and *voltages* is left unchanged.
        """
        table = self.level_table()
        np.subtract(voltages, table.base, out=out)
        np.multiply(out, table.scale, out=out)
        cell[...] = out
        np.take(table.levels, cell, mode="clip", out=out)
        # About 1% of conversions hit a NaN cell, so nearly every buffer of
        # a layer has some: find them directly rather than test for them.
        exact = np.flatnonzero(np.isnan(out))
        if exact.size:
            out.ravel()[exact] = self.quantize_voltages(voltages.ravel()[exact])

    def level_table(self) -> LevelTable:
        """The direct-level table of this level set, built on first call.

        A uniform grid of ``_LEVEL_TABLE_CELLS`` cells over the thresholds
        (the midpoints of adjacent level voltages), four cells past them on
        either side.  :meth:`quantize_voltages_into` converts a voltage by
        computing its cell and gathering the cell's level; a NaN cell sends
        the voltage through :meth:`quantize_voltages`.  A cell holds a level
        only if all three of these hold:

        1. ``np.searchsorted(thresholds, ·)`` gives one index at both ends
           of the cell's window — the cell plus ``_WINDOW_CELLS`` cells on
           either side, unbounded outward for the two end cells.  Indices
           are compared, not levels, and the index is monotone in the
           voltage, so every voltage in the window converts to that level.
        2. The window covers the cell map's worst-case rounding.  Inside the
           grid the computed position is off by at most two roundings
           (under 2e-12 cells); each window edge is off by at most two float
           spacings of the grid's largest voltage, which rule 3 keeps under
           1/8 cell.  Both sit far inside the two-cell margin.
        3. The cell is at least ``_MIN_CELL_SPACINGS`` float spacings of the
           grid's largest voltage magnitude, taken as no less than 1 V.  A
           level set clustered tighter gets wider cells, never narrower
           ones, and its cluster lands in NaN cells.

        Rules 2 and 3 hold by construction; rule 1 is checked cell by
        cell, and a cell that fails it holds NaN.  So a table conversion
        equals :meth:`quantize_voltages` bit for bit, for every voltage
        whose position casts exactly to an integer: rule 3's 1 V floor caps
        ``scale`` at 2**48 cells per volt, so that is every voltage within
        2**14 V of ``base``.  Readout voltages are finite and within the
        supply; NaN and infinite voltages are outside this domain.
        """
        if self._level_table is None:
            with get_tracer().span(
                "level_table", levels=self.num_levels, cells=_LEVEL_TABLE_CELLS
            ):
                self._level_table = _build_level_table(
                    self._thresholds, self._levels_by_voltage
                )
        return self._level_table

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CalibratedMACQuantizer({self.num_levels} levels in "
            f"[{self.levels[0]:.1f}, {self.levels[-1]:.1f}])"
        )
