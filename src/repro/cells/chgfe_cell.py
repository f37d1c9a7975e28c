"""ChgFe bit-cells: MLC 1nFeFET data cells and the SLC 1pFeFET sign cell.

The charge-mode design (Section 3.2) removes the series resistor and instead
programs the *threshold voltage itself* so that the ON currents of different
bit significances follow the binary-weighted pattern
``I_ChgFe3 = 2·I_ChgFe2 = 4·I_ChgFe1 = 8·I_ChgFe0`` (Fig. 5(b)).  During the
0.5 ns MAC phase each selected cell discharges its pre-charged 50 fF bitline
capacitor by ``ΔV = I·t/C`` — i.e. −2.5 mV, −5 mV, −10 mV, −20 mV per
activated cell for significances 0..3 (Fig. 6).

The sign bit (cell7) is a single-level 1pFeFET whose source line sits at
``VDDq``; when it stores '1' and its row is selected it *charges* the
bitline by +20 mV, realising the −8·y7 term after the charge-sharing average
(the inversion of sign happens because every other cell discharges).

Because the FeFET current is not resistor-limited, threshold variation
translates almost directly into current variation — which is why ChgFe shows
a wider Monte-Carlo current spread than CurFe (Fig. 7(b)) and slightly lower
inference accuracy (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..devices.fefet import (
    FeFET,
    FeFETParameters,
    calibrate_vth_for_on_current,
    fefet_drain_current,
)
from ..devices.passives import CHGFE_BITLINE_CAPACITANCE
from ..devices.variation import VariationModel

__all__ = [
    "ChgFeCellParameters",
    "ChgFeNCell",
    "ChgFePCell",
    "calibrated_nfefet_vth_states",
    "calibrated_pfefet_on_vth",
    "characterise_chgfe_group",
]

#: Channel parameters of the ChgFe FeFETs.  The small transconductance
#: (narrow, long-channel device) puts the binary-weighted read currents deep
#: in strong inversion with large gate overdrives, so (a) the programmed Vth
#: states are well separated as in Fig. 5(b) and (b) the 40 mV threshold
#: variation translates into only a few-percent current spread — wider than
#: CurFe's resistor-limited cells (Fig. 7) but small enough that the paper's
#: <0.5 % accuracy gap between the designs is preserved.
CHGFE_NFEFET_PARAMS = FeFETParameters(polarity="n", transconductance=1.4e-6)
#: The pFeFET sign cell sees only the small |Vds| between VDDq and the
#: pre-charged bitline, so it needs a wider device to source 8 unit currents.
CHGFE_PFEFET_PARAMS = FeFETParameters(polarity="p", transconductance=3.0e-6)


@dataclass(frozen=True)
class ChgFeCellParameters:
    """Bias, storage, and timing parameters shared by the ChgFe cells.

    Attributes:
        read_voltage: WL voltage for an input bit of '1' on an nFeFET row (V).
        idle_voltage: WL voltage for an input bit of '0' (V).
        sign_read_voltage: WLS voltage for an input bit of '1' on the
            pFeFET sign row (V); chosen so the high-Vth pFeFET conducts.
        sign_idle_voltage: WLS voltage for an input bit of '0' (V); equals
            the sign supply so the pFeFET is off regardless of its state.
        precharge_voltage: Bitline pre-charge level ``Vpre`` (V).
        sign_supply_voltage: Source-line supply of the sign column ``VDDq`` (V).
        unit_current: ON current of the least-significant nFeFET state (A);
            250 nA reproduces the −2.5 mV ΔV of the paper with a 50 fF
            bitline and a 0.5 ns MAC phase.
        mac_time: Duration of the MAC (dis)charge phase (s).
        bitline_capacitance: Bitline capacitor value (F).
        off_vth_n: Threshold of the nFeFET '0' state (V), far above the read
            voltage.
        off_vth_p: Threshold of the pFeFET '0' state (V), far below the
            conduction condition at the sign read voltage.
        nfefet_params: Channel parameters of the data-cell nFeFETs.
        pfefet_params: Channel parameters of the sign-cell pFeFET.
    """

    read_voltage: float = 1.5
    idle_voltage: float = 0.0
    sign_read_voltage: float = 0.9
    sign_idle_voltage: float = 2.2
    precharge_voltage: float = 1.5
    sign_supply_voltage: float = 2.2
    unit_current: float = 250e-9
    mac_time: float = 0.5e-9
    bitline_capacitance: float = CHGFE_BITLINE_CAPACITANCE
    off_vth_n: float = 2.0
    off_vth_p: float = -1.8
    nfefet_params: FeFETParameters = CHGFE_NFEFET_PARAMS
    pfefet_params: FeFETParameters = CHGFE_PFEFET_PARAMS

    def __post_init__(self) -> None:
        if self.unit_current <= 0:
            raise ValueError("unit_current must be positive")
        if self.mac_time <= 0:
            raise ValueError("mac_time must be positive")
        if self.bitline_capacitance <= 0:
            raise ValueError("bitline_capacitance must be positive")
        if self.precharge_voltage >= self.sign_supply_voltage:
            raise ValueError(
                "sign_supply_voltage must exceed precharge_voltage so the sign "
                "cell can charge the bitline"
            )
        if self.off_vth_n <= self.read_voltage:
            raise ValueError("off_vth_n must exceed the read voltage")

    def nominal_delta_v(self, significance: int) -> float:
        """Nominal bitline voltage change of one activated data cell (V, negative)."""
        if not 0 <= significance <= 3:
            raise ValueError("significance must be in 0..3")
        current = self.unit_current * (2**significance)
        return -current * self.mac_time / self.bitline_capacitance

    def nominal_sign_delta_v(self) -> float:
        """Nominal bitline voltage change of one activated sign cell (V, positive)."""
        return -self.nominal_delta_v(3)


@lru_cache(maxsize=None)
def calibrated_nfefet_vth_states(params: ChgFeCellParameters) -> Tuple[float, ...]:
    """Threshold voltages of the '1' state for significances 0..3.

    Calibrated so the drain current at the read bias (gate at
    ``read_voltage``, drain at the pre-charged bitline voltage, grounded
    source) equals ``unit_current * 2**significance``.
    """
    states = []
    for significance in range(4):
        target = params.unit_current * (2**significance)
        vth = calibrate_vth_for_on_current(
            target,
            vg_read=params.read_voltage,
            vd_read=params.precharge_voltage,
            vs=0.0,
            params=params.nfefet_params,
        )
        states.append(vth)
    return tuple(states)


@lru_cache(maxsize=None)
def calibrated_pfefet_on_vth(params: ChgFeCellParameters) -> float:
    """Threshold voltage of the pFeFET '1' (conducting) state.

    Calibrated so the sign cell sources the same current magnitude as the
    most-significant data cell (``8 * unit_current``), giving the +20 mV /
    −20 mV symmetry of Fig. 6.
    """
    target = params.unit_current * 8.0
    return calibrate_vth_for_on_current(
        target,
        vg_read=params.sign_read_voltage,
        vd_read=params.precharge_voltage,
        vs=params.sign_supply_voltage,
        params=params.pfefet_params,
    )


def characterise_chgfe_group(
    vth_offsets,
    *,
    signed: bool,
    params: ChgFeCellParameters,
):
    """The three ΔV tables of a whole H4B/L4B cell tensor (V).

    ``vth_offsets`` has shape (..., 4) with the column significance on the
    last axis (column 3 is the pFeFET sign cell of a signed group).
    Returns ``(on, off_selected, unselected)`` — the single
    characterisation entry point shared by the detailed blocks and
    :meth:`repro.engine.ArrayState.build`.

    Each column runs only its own FeFET model: data columns the MLC
    1nFeFET discharging the pre-charged bitline (negative ΔV), the sign
    column the SLC 1pFeFET charging it from ``VDDq`` (positive ΔV).  The
    model is elementwise and the maths is that of
    :meth:`ChgFeNCell.bitline_delta_v` and :meth:`ChgFePCell.bitline_delta_v`
    per device, so both paths agree bit for bit.
    """
    vth_offsets = np.asarray(vth_offsets, dtype=float)
    data = slice(0, 3 if signed else 4)
    data_offsets = vth_offsets[..., data]
    n_states = np.asarray(calibrated_nfefet_vth_states(params), dtype=float)[data]
    tables = []
    for stored_bit, input_bit in ((1, 1), (0, 1), (1, 0)):
        table = np.empty(vth_offsets.shape)
        # Data (nFeFET) columns: calibrated low-Vth '1' states per significance.
        n_state_vth = n_states if stored_bit == 1 else params.off_vth_n
        n_gate = params.read_voltage if input_bit == 1 else params.idle_voltage
        n_current = fefet_drain_current(
            n_gate,
            params.precharge_voltage,
            0.0,
            n_state_vth + data_offsets,
            params.nfefet_params,
        )
        # -I·t/C, in place: the current is a fresh array.
        np.negative(n_current, out=n_current)
        np.multiply(n_current, params.mac_time, out=n_current)
        np.divide(n_current, params.bitline_capacitance, out=table[..., data])
        if signed:
            # Sign (pFeFET) column: '1' is the calibrated conducting high-Vth state.
            p_state_vth = (
                calibrated_pfefet_on_vth(params) if stored_bit == 1 else params.off_vth_p
            )
            p_gate = (
                params.sign_read_voltage if input_bit == 1 else params.sign_idle_voltage
            )
            p_current = fefet_drain_current(
                p_gate,
                params.precharge_voltage,
                params.sign_supply_voltage,
                p_state_vth + vth_offsets[..., 3],
                params.pfefet_params,
            )
            table[..., 3] = p_current * params.mac_time / params.bitline_capacitance
        tables.append(table)
    return tuple(tables)


class ChgFeNCell:
    """MLC 1nFeFET data cell (cell0-cell6 positions) of the ChgFe array.

    Args:
        significance: Bit significance 0..3; selects which calibrated
            low-Vth state the '1' value uses (and hence the ON current).
        params: Shared cell parameters.
        stored_bit: Initially stored weight bit.
        vth_offset: Device threshold-voltage deviation (V).
    """

    def __init__(
        self,
        significance: int,
        *,
        params: ChgFeCellParameters | None = None,
        stored_bit: int = 0,
        vth_offset: float = 0.0,
    ) -> None:
        self.params = params or ChgFeCellParameters()
        if not 0 <= significance <= 3:
            raise ValueError("significance must be in 0..3")
        self.significance = int(significance)
        on_vth = calibrated_nfefet_vth_states(self.params)[significance]
        self.fefet = FeFET(
            [on_vth, self.params.off_vth_n],
            params=self.params.nfefet_params,
            state=1,
            vth_offset=vth_offset,
        )
        self._stored_bit = 0
        self.program(stored_bit)

    @property
    def stored_bit(self) -> int:
        """Weight bit currently stored in the cell (0 or 1)."""
        return self._stored_bit

    def program(self, bit: int) -> None:
        """Write a weight bit: 1 → calibrated low-Vth state, 0 → high-Vth state."""
        if bit not in (0, 1):
            raise ValueError("stored bit must be 0 or 1")
        self._stored_bit = int(bit)
        self.fefet.program(0 if bit == 1 else 1)

    def cell_current(self, input_bit: int, bitline_voltage: Optional[float] = None) -> float:
        """Discharge current drawn from the bitline (A, non-negative).

        Args:
            input_bit: Input bit applied to the wordline.
            bitline_voltage: Bitline (drain) voltage; defaults to the
                pre-charge level.
        """
        if input_bit not in (0, 1):
            raise ValueError("input_bit must be 0 or 1")
        p = self.params
        gate = p.read_voltage if input_bit == 1 else p.idle_voltage
        v_bl = p.precharge_voltage if bitline_voltage is None else bitline_voltage
        return self.fefet.drain_current(gate, v_bl, 0.0)

    def bitline_delta_v(self, input_bit: int) -> float:
        """Bitline voltage change over the MAC phase (V, negative when discharging)."""
        current = self.cell_current(input_bit)
        p = self.params
        return -current * p.mac_time / p.bitline_capacitance

    def on_current(self) -> float:
        """ON current of the '1' state at the nominal read bias (A)."""
        saved = self._stored_bit
        try:
            self.program(1)
            return self.cell_current(1)
        finally:
            self.program(saved)

    def nominal_current(self) -> float:
        """Ideal binary-weighted ON current of this significance (A)."""
        return self.params.unit_current * (2**self.significance)

    @classmethod
    def sample(
        cls,
        significance: int,
        *,
        params: ChgFeCellParameters | None = None,
        stored_bit: int = 0,
        variation: VariationModel | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "ChgFeNCell":
        """Create a cell with threshold variation drawn from ``variation``."""
        vth_offset = 0.0
        if variation is not None and rng is not None:
            vth_offset = float(variation.draw_vth_offset(rng))
        return cls(
            significance,
            params=params,
            stored_bit=stored_bit,
            vth_offset=vth_offset,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ChgFeNCell(sig={self.significance}, bit={self._stored_bit}, "
            f"vth={self.fefet.vth:+.3f} V)"
        )


class ChgFePCell:
    """SLC 1pFeFET sign cell (cell7 position) of the ChgFe array.

    The cell charges the bitline toward ``VDDq`` when it stores '1' and its
    row is selected, producing a positive ΔV equal in magnitude to the
    most-significant data cell's negative ΔV.
    """

    def __init__(
        self,
        *,
        params: ChgFeCellParameters | None = None,
        stored_bit: int = 0,
        vth_offset: float = 0.0,
    ) -> None:
        self.params = params or ChgFeCellParameters()
        on_vth = calibrated_pfefet_on_vth(self.params)
        # State index 0 = '0' (blocking, deeply negative Vth), 1 = '1' (conducting).
        self.fefet = FeFET(
            [self.params.off_vth_p, on_vth],
            params=self.params.pfefet_params,
            state=0,
            vth_offset=vth_offset,
        )
        self.significance = 3
        self._stored_bit = 0
        self.program(stored_bit)

    @property
    def stored_bit(self) -> int:
        """Weight (sign) bit currently stored in the cell (0 or 1)."""
        return self._stored_bit

    def program(self, bit: int) -> None:
        """Write the sign bit: 1 → conducting (high-Vth pFeFET state), 0 → blocking."""
        if bit not in (0, 1):
            raise ValueError("stored bit must be 0 or 1")
        self._stored_bit = int(bit)
        self.fefet.program(1 if bit == 1 else 0)

    def cell_current(self, input_bit: int, bitline_voltage: Optional[float] = None) -> float:
        """Charging current pushed into the bitline (A, non-negative)."""
        if input_bit not in (0, 1):
            raise ValueError("input_bit must be 0 or 1")
        p = self.params
        gate = p.sign_read_voltage if input_bit == 1 else p.sign_idle_voltage
        v_bl = p.precharge_voltage if bitline_voltage is None else bitline_voltage
        return self.fefet.drain_current(gate, v_bl, p.sign_supply_voltage)

    def bitline_delta_v(self, input_bit: int) -> float:
        """Bitline voltage change over the MAC phase (V, positive when charging)."""
        current = self.cell_current(input_bit)
        p = self.params
        return current * p.mac_time / p.bitline_capacitance

    def on_current(self) -> float:
        """ON current of the '1' state at the nominal read bias (A)."""
        saved = self._stored_bit
        try:
            self.program(1)
            return self.cell_current(1)
        finally:
            self.program(saved)

    def nominal_current(self) -> float:
        """Ideal ON current of the sign cell (A): eight unit currents."""
        return self.params.unit_current * 8.0

    @classmethod
    def sample(
        cls,
        *,
        params: ChgFeCellParameters | None = None,
        stored_bit: int = 0,
        variation: VariationModel | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "ChgFePCell":
        """Create a sign cell with threshold variation drawn from ``variation``."""
        vth_offset = 0.0
        if variation is not None and rng is not None:
            vth_offset = float(variation.draw_vth_offset(rng))
        return cls(params=params, stored_bit=stored_bit, vth_offset=vth_offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ChgFePCell(bit={self._stored_bit}, vth={self.fefet.vth:+.3f} V)"
