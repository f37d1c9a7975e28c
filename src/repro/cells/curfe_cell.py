"""CurFe bit-cell: 1nFeFET1R with a binary-weighted drain resistor.

Each CurFe cell stores one weight bit in an SLC nFeFET (low Vth = '1',
high Vth = '0') and conducts, when selected by its wordline and storing '1',
an ON current set almost entirely by its series drain resistor — 5 MΩ / 2^i
for bit significance ``i`` giving the binary-weighted currents 100 nA,
200 nA, 400 nA, 800 nA of Fig. 2(f).  The resistor is the reason CurFe is so
robust to FeFET threshold variation (Fig. 7(a)): the FeFET merely acts as a
low-impedance switch in series with a much larger resistance.

Bias conventions (Fig. 2(d)/(e) and Section 3.1):

* ordinary cells (cell0-cell6): source line grounded, bitline held at the
  TIA virtual ground ``Vcm`` = 0.5 V → current flows from the bitline into
  the cell (positive "bitline current" here),
* the sign-bit cell (cell7): source line at ``VDDi`` = 1 V → current flows
  from the source line into the bitline (negative bitline current), which is
  what realises the −8·y7 term of the 2's-complement weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..devices.fefet import (
    DEFAULT_NFEFET_PARAMS,
    FeFET,
    FeFETParameters,
    fefet_bias_factor,
    fefet_current_from_factor,
)
from ..devices.passives import CURFE_BASE_RESISTANCE, Resistor
from ..devices.variation import VariationModel

__all__ = [
    "CurFeCellParameters",
    "CurFeCell",
    "curfe_series_currents",
    "characterise_curfe_group",
]


@dataclass(frozen=True)
class CurFeCellParameters:
    """Bias and device parameters shared by every CurFe cell.

    Attributes:
        read_voltage: Wordline voltage applied for an input bit of '1' (V).
        idle_voltage: Wordline voltage for an input bit of '0' (V).
        common_mode_voltage: Bitline voltage enforced by the TIA (V).
        sign_supply_voltage: Source-line supply of the sign-bit column
            ``VDDi`` (V).
        low_vth: Threshold voltage of the '1' (conducting) state (V).
        high_vth: Threshold voltage of the '0' (blocking) state (V).
        base_resistance: Drain resistance of the least-significant cell (Ω).
        fefet_params: Channel parameters of the SLC nFeFET.
    """

    read_voltage: float = 1.2
    idle_voltage: float = 0.0
    common_mode_voltage: float = 0.5
    sign_supply_voltage: float = 1.0
    low_vth: float = 0.3
    high_vth: float = 2.0
    base_resistance: float = CURFE_BASE_RESISTANCE
    fefet_params: FeFETParameters = DEFAULT_NFEFET_PARAMS

    def __post_init__(self) -> None:
        if self.low_vth >= self.high_vth:
            raise ValueError("low_vth must be below high_vth")
        if self.read_voltage <= self.low_vth:
            raise ValueError("read_voltage must exceed low_vth to turn the cell on")
        if self.read_voltage >= self.high_vth:
            raise ValueError("read_voltage must stay below high_vth to keep '0' cells off")
        if self.base_resistance <= 0:
            raise ValueError("base_resistance must be positive")
        if not 0 < self.common_mode_voltage < self.sign_supply_voltage:
            raise ValueError("common_mode_voltage must lie below the sign supply")

    def resistance_for_significance(self, significance: int) -> float:
        """Drain resistance of a cell with the given bit significance (Ω)."""
        if not 0 <= significance <= 3:
            raise ValueError("significance must be in 0..3")
        return self.base_resistance / (2**significance)

    def nominal_unit_current(self) -> float:
        """Nominal ON current of the least-significant cell (A): Vcm / R_base."""
        return self.common_mode_voltage / self.base_resistance


#: Cap on the Newton steps of the series operating-point solve.  Cells
#: converge in a handful; the cap only bounds a pathological input.
SOLVE_STEPS = 60

#: Cells solved together.  A chunk keeps the dozen buffers of a solver step
#: in cache; whole-layer arrays (~3e5 cells) stream each one through
#: memory.  16384 characterised ~10-15% faster than 8192 or 32768 on a 2-vCPU
#: Xeon with a 2 MiB L2 per core.
SOLVE_CHUNK = 16384

#: A cell is converged, and stops moving, once its step is at most this
#: many machine epsilons of its drop (or of its source voltage, if larger).
_STOP_EPS = 4 * np.finfo(float).eps

#: Names the series solver where solved tables are stored (the sweep
#: cache's ``programming`` keys).  Change it with any solver change that can
#: move a table's last bits, so stored tables of the old solver miss.
SOLVER_REVISION = "safeguarded-newton"


def curfe_series_currents(
    total_drop,
    gate_voltage,
    source_voltage,
    resistance,
    vth,
    params: FeFETParameters,
) -> np.ndarray:
    """Vectorised FeFET + series-resistor operating point (A).

    Solves, for every element of the broadcast inputs, the current at which
    the drain resistor and the FeFET channel agree when ``total_drop`` volts
    sit across the series pair (the FeFET source at ``source_voltage``).
    This is the evaluation kernel shared by :meth:`CurFeCell._series_current`
    (scalar, per device) and the array engine's batched characterisation, so
    both paths produce bit-identical currents.

    When the FeFET cannot conduct even the smallest resistor current the
    cell is effectively off (FeFET current with the full drop across it);
    when the FeFET acts as a perfect switch the resistor limits entirely;
    a non-positive drop gives zero.  Every other cell is solved for the
    FeFET's drain-source voltage ``v`` by Newton's method, safeguarded by
    bisection (``rtsafe``, Press et al., *Numerical Recipes*, 3rd ed.,
    §9.4).  The mismatch ``(drop - v) / R - I(v)`` is convex and decreasing,
    so from ``v = 0`` the iterates rise to the root without overshoot, in
    3-5 steps for the CurFe tables; each mismatch sign narrows a
    ``[lo, hi]`` bracket, and a step that would leave it bisects instead.

    A cell stops moving once its step is at most ``4 * eps`` times the
    larger of its drop and its source voltage (the drain bias
    ``(source + v) - source`` resolves ``v`` no finer than the source's
    spacing), or after :data:`SOLVE_STEPS` steps.  So its current depends on
    its own inputs only: solving the inputs in buffered chunks of at most
    :data:`SOLVE_CHUNK` cells, in any order or one by one, gives each cell
    the same floats.  The result sits within the mismatch's rounding noise
    of the root, as a long bisection's does, but not bit-equal to it.
    """
    inputs = [
        np.asarray(value, dtype=float)
        for value in (total_drop, gate_voltage, source_voltage, resistance, vth)
    ]
    currents = np.empty(np.broadcast_shapes(*(array.shape for array in inputs)))
    solved = currents.reshape(-1)
    # The buffered iterator hands out C-order chunks of the broadcast
    # inputs, copying a broadcast input's chunk into a contiguous buffer, so
    # no input is expanded to a whole-array copy.
    start = 0
    for chunk in np.nditer(
        inputs,
        flags=["external_loop", "buffered", "zerosize_ok"],
        order="C",
        buffersize=SOLVE_CHUNK,
    ):
        stop = start + chunk[0].size
        solved[start:stop] = _solve_series_chunk(*chunk, params)
        start = stop
    return currents


def _solve_series_chunk(total_drop, gate_voltage, source_voltage, resistance, vth, params):
    """:func:`curfe_series_currents` on one chunk of 1-d inputs."""
    # The gate bias is fixed during the solve: only the drain side of the
    # FeFET model depends on the iterate.
    factor = fefet_bias_factor(gate_voltage, source_voltage, vth, params)
    i_fefet, work, slope = (np.empty_like(total_drop) for _ in range(3))

    def mismatch(v_fefet: np.ndarray, out: np.ndarray, slope_out=None) -> np.ndarray:
        """Resistor minus FeFET current at node voltage ``v_fefet``, into ``out``.

        ``slope_out``, when given, receives the FeFET's ``dI/dv`` there.
        """
        fefet_current_from_factor(
            factor,
            np.add(source_voltage, v_fefet, out=work),
            source_voltage,
            params,
            out=i_fefet,
            work=work,
            slope=slope_out,
        )
        i_resistor = np.divide(np.subtract(total_drop, v_fefet, out=out), resistance, out=out)
        return np.subtract(i_resistor, i_fefet, out=out)

    # The full drop across the FeFET: f_hi >= 0 means the resistor limits,
    # and the FeFET current there is an off cell's current.
    f_hi = mismatch(total_drop, np.empty_like(total_drop))
    off_current = i_fefet.copy()
    v_fefet = np.zeros_like(total_drop)
    f = mismatch(v_fefet, np.empty_like(total_drop), slope)
    off = f <= 0
    active = ~off & (f_hi < 0)
    if active.any():
        lo, hi = np.zeros_like(total_drop), total_drop.copy()
        scale = np.maximum(np.abs(total_drop), np.abs(source_voltage))
        tolerance = np.multiply(scale, _STOP_EPS, out=scale)
        conductance = np.reciprocal(resistance)
        step, inside = np.empty_like(total_drop), np.empty_like(total_drop, dtype=bool)
        for _ in range(SOLVE_STEPS):
            # The root lies above v where the mismatch is positive.
            positive = f > 0
            np.copyto(lo, v_fefet, where=positive)
            np.copyto(hi, v_fefet, where=~positive)
            # Newton's step; the mismatch slope is -(1/R + dI/dv) < 0.
            np.divide(f, np.add(conductance, slope, out=step), out=step)
            candidate = np.add(v_fefet, step, out=f)
            np.logical_and(candidate >= lo, candidate <= hi, out=inside)
            midpoint = np.multiply(np.add(lo, hi, out=step), 0.5, out=step)
            np.copyto(candidate, midpoint, where=~inside)
            # Move the active cells; freeze those whose step was below the
            # tolerance.
            np.abs(np.subtract(candidate, v_fefet, out=step), out=step)
            np.copyto(v_fefet, candidate, where=active)
            np.logical_and(active, step > tolerance, out=active)
            if not active.any():
                break
            mismatch(v_fefet, f, slope)
    solved = (total_drop - v_fefet) / resistance
    resistor_limited = total_drop / resistance
    result = np.where(off, off_current, np.where(f_hi >= 0, resistor_limited, solved))
    return np.where(total_drop <= 0, 0.0, result)


def characterise_curfe_group(
    vth_offsets,
    resistor_tolerances,
    *,
    signed: bool,
    params: CurFeCellParameters,
):
    """The three current tables of a whole H4B/L4B cell tensor (A).

    ``vth_offsets`` / ``resistor_tolerances`` have shape (..., 4) with the
    column significance on the last axis (column 3 is the sign cell of a
    signed group): column ``i``'s drain resistance is the binary-weighted
    5 MΩ / 2^i, and the sign cell's bias (source at ``VDDi``) and current
    sign are flipped, exactly like :meth:`CurFeCell.bitline_current` does
    per device.  Returns the signed bitline currents ``(on, off_selected,
    unselected)`` — the single characterisation entry point shared by the
    detailed blocks and :meth:`repro.engine.ArrayState.build`.  The
    resistances, the bias columns and the stored-'1' thresholds are built
    once and serve every table they enter.
    """
    vth_offsets = np.asarray(vth_offsets, dtype=float)
    is_sign = np.array([False, False, False, signed])
    resistance = (
        params.base_resistance / (2 ** np.arange(4)).astype(float)
    ) * (1.0 + np.asarray(resistor_tolerances, dtype=float))
    drop = np.where(
        is_sign,
        params.sign_supply_voltage - params.common_mode_voltage,
        params.common_mode_voltage,
    )
    source = np.where(is_sign, params.common_mode_voltage, 0.0)
    low_vth = params.low_vth + vth_offsets

    def table(vth, gate: float) -> np.ndarray:
        current = curfe_series_currents(
            drop, gate, source, resistance, vth, params.fefet_params
        )
        return np.negative(current, out=current, where=is_sign)

    on = table(low_vth, params.read_voltage)
    off_selected = table(params.high_vth + vth_offsets, params.read_voltage)
    return on, off_selected, table(low_vth, params.idle_voltage)


class CurFeCell:
    """One 1nFeFET1R cell of the CurFe array.

    Args:
        significance: Bit significance 0..3 inside its 4-bit block; sets the
            drain resistance (5 MΩ / 2^significance).
        is_sign_cell: True for the ``cell7`` position (sign bit of the H4B),
            whose source line sits at ``VDDi`` and whose current direction is
            therefore inverted.
        params: Shared bias/device parameters.
        stored_bit: Initially stored weight bit (0 or 1).
        vth_offset: Threshold-voltage deviation of this device instance (V).
        resistor_tolerance: Fractional mismatch of this cell's drain resistor.
    """

    def __init__(
        self,
        significance: int,
        *,
        is_sign_cell: bool = False,
        params: CurFeCellParameters | None = None,
        stored_bit: int = 0,
        vth_offset: float = 0.0,
        resistor_tolerance: float = 0.0,
    ) -> None:
        self.params = params or CurFeCellParameters()
        if not 0 <= significance <= 3:
            raise ValueError("significance must be in 0..3")
        self.significance = int(significance)
        self.is_sign_cell = bool(is_sign_cell)
        self.resistor = Resistor(
            self.params.resistance_for_significance(significance),
            tolerance=resistor_tolerance,
        )
        self.fefet = FeFET(
            [self.params.low_vth, self.params.high_vth],
            params=self.params.fefet_params,
            state=0,
            vth_offset=vth_offset,
        )
        self._stored_bit = 0
        self.program(stored_bit)

    # ---------------------------------------------------------------- storage

    @property
    def stored_bit(self) -> int:
        """Weight bit currently stored in the cell (0 or 1)."""
        return self._stored_bit

    def program(self, bit: int) -> None:
        """Write a weight bit: 1 → low-Vth (conducting), 0 → high-Vth."""
        if bit not in (0, 1):
            raise ValueError("stored bit must be 0 or 1")
        self._stored_bit = int(bit)
        # State index 0 is the low-Vth state.
        self.fefet.program(0 if bit == 1 else 1)

    # -------------------------------------------------------------- behaviour

    def _series_current(self, total_drop: float, gate_voltage: float, source_voltage: float) -> float:
        """Solve the series FeFET + resistor operating point.

        The cell is a resistor in series with the FeFET channel; the total
        voltage across the series pair is ``total_drop`` (>= 0) and the FeFET
        source sits at ``source_voltage``.  Delegates to the shared
        vectorised solver :func:`curfe_series_currents` so that per-cell and
        array-engine evaluation agree bit for bit.
        """
        return float(
            curfe_series_currents(
                total_drop,
                gate_voltage,
                source_voltage,
                self.resistor.effective_resistance,
                self.fefet.vth,
                self.fefet.params,
            )
        )

    def bitline_current(self, input_bit: int) -> float:
        """Signed current drawn *out of* the bitline (TIA summing node), in A.

        Ordinary cells pull current from the bitline toward their grounded
        source line (positive sign); the sign-bit cell pushes current into
        the bitline from ``VDDi`` (negative sign).  An input bit of '0'
        leaves only leakage.
        """
        if input_bit not in (0, 1):
            raise ValueError("input_bit must be 0 or 1")
        p = self.params
        gate = p.read_voltage if input_bit == 1 else p.idle_voltage
        if self.is_sign_cell:
            drop = p.sign_supply_voltage - p.common_mode_voltage
            current = self._series_current(drop, gate, p.common_mode_voltage)
            return -current
        drop = p.common_mode_voltage
        current = self._series_current(drop, gate, 0.0)
        return current

    def on_current(self) -> float:
        """Magnitude of the cell current when storing '1' and selected (A)."""
        saved = self._stored_bit
        try:
            self.program(1)
            return abs(self.bitline_current(1))
        finally:
            self.program(saved)

    def nominal_current(self) -> float:
        """Ideal binary-weighted current of this significance (A), no device effects."""
        return self.params.nominal_unit_current() * (2**self.significance)

    # -------------------------------------------------------------- variation

    @classmethod
    def sample(
        cls,
        significance: int,
        *,
        is_sign_cell: bool = False,
        params: CurFeCellParameters | None = None,
        stored_bit: int = 0,
        variation: VariationModel | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "CurFeCell":
        """Create a cell with variation drawn from ``variation`` using ``rng``."""
        vth_offset = 0.0
        resistor_tolerance = 0.0
        if variation is not None and rng is not None:
            vth_offset = float(variation.draw_vth_offset(rng))
            resistor_tolerance = float(variation.draw_resistor_tolerance(rng))
        return cls(
            significance,
            is_sign_cell=is_sign_cell,
            params=params,
            stored_bit=stored_bit,
            vth_offset=vth_offset,
            resistor_tolerance=resistor_tolerance,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        role = "sign" if self.is_sign_cell else "data"
        return (
            f"CurFeCell(sig={self.significance}, {role}, bit={self._stored_bit}, "
            f"R={self.resistor.effective_resistance:.3g} Ω)"
        )
