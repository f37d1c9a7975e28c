"""Behavioural FeFET compact model (nFeFET and pFeFET).

A ferroelectric FET is modelled as a MOSFET whose threshold voltage is set
by the polarization state of the ferroelectric gate layer.  This module
provides:

* :class:`FeFETParameters` — the electrical parameters of the underlying
  transistor (transconductance, subthreshold slope, leakage floor, ...),
* :class:`FeFET` — a programmable device with one or more threshold-voltage
  states (single-level cell or multi-level cell), a smooth Id(Vg, Vd)
  characteristic covering subthreshold, triode and saturation regions, and
  an optional per-device threshold-voltage variation offset,
* calibration helpers that solve for the threshold voltage which produces a
  requested ON current at a given read bias — this is how the binary-weighted
  currents of the ChgFe design (I, 2I, 4I, 8I) are programmed,
* write helpers that map gate write-pulse amplitudes to threshold states via
  the Preisach model, reproducing the measured MLC Id-Vg family of Fig. 1(c).

The characteristic is a standard interpolated-MOS model::

    I_ch = k * (n*vt)^2 * ln(1 + exp((Vgs - Vth) / (n*vt)))^2
           * (1 - exp(-Vds / vt)) * (1 + lambda * Vds)
    I_d  = I_ch + I_leak

which reduces to exponential subthreshold conduction for ``Vgs << Vth`` and
to a square-law saturation current for ``Vgs >> Vth``, with a smooth
triode-to-saturation transition in ``Vds``.  The same expression models the
pFeFET with the overdrive mirrored (``Vth - Vgs``); the device is
symmetric, so ``Vds`` enters as ``|Vd - Vs|`` for either polarity.  The
drain part (:func:`fefet_current_from_factor`) can evaluate into buffers
the caller owns and also return ``dI/d|Vds|``, which is how the CurFe
series solver takes its Newton steps on the drain voltage without a
second model implementation or a float temporary per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .preisach import PreisachFerroelectric, PreisachParameters

__all__ = [
    "FeFETParameters",
    "FeFET",
    "DEFAULT_NFEFET_PARAMS",
    "DEFAULT_PFEFET_PARAMS",
    "fefet_drain_current",
    "fefet_bias_factor",
    "fefet_current_from_factor",
    "calibrate_vth_for_on_current",
    "make_slc_nfefet",
    "make_mlc_nfefet",
    "make_slc_pfefet",
    "mlc_states_from_write_voltages",
]

_THERMAL_VOLTAGE = 0.02585  # kT/q at 300 K, volts


@dataclass(frozen=True)
class FeFETParameters:
    """Electrical parameters of the FeFET channel.

    Attributes:
        polarity: ``"n"`` for an nFeFET (conducts for Vgs above Vth) or
            ``"p"`` for a pFeFET (conducts for Vgs below Vth).
        transconductance: Device transconductance factor ``k = mu * Cox * W/L``
            in A/V^2 (already includes geometry).
        subthreshold_ideality: Subthreshold ideality factor ``n`` (the slope
            is ``n * vt * ln(10)`` V/decade; n ≈ 1.5 gives ~90 mV/dec).
        channel_length_modulation: Channel-length modulation coefficient
            ``lambda`` in 1/V.
        leakage_current: Gate-independent leakage floor in A; sets the OFF
            current and hence the ON/OFF ratio (paper assumes ~1e5).
        max_on_current: Soft compliance limit in A.  Real FeFET read paths
            saturate; this keeps behavioural sweeps physical.
    """

    polarity: str = "n"
    transconductance: float = 120e-6
    subthreshold_ideality: float = 1.45
    channel_length_modulation: float = 0.05
    leakage_current: float = 5e-11
    max_on_current: float = 200e-6

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError("polarity must be 'n' or 'p'")
        if self.transconductance <= 0:
            raise ValueError("transconductance must be positive")
        if self.subthreshold_ideality < 1.0:
            raise ValueError("subthreshold_ideality must be >= 1")
        if self.leakage_current < 0:
            raise ValueError("leakage_current must be non-negative")
        if self.max_on_current <= 0:
            raise ValueError("max_on_current must be positive")

    @property
    def subthreshold_swing_mv_per_decade(self) -> float:
        """Subthreshold swing in mV/decade implied by the ideality factor."""
        return self.subthreshold_ideality * _THERMAL_VOLTAGE * math.log(10.0) * 1e3


#: Default nFeFET parameters, calibrated so that a low-Vth (0.2 V) device at
#: Vg = 1 V, Vd = 0.1 V conducts a few microamps with an ON/OFF ratio of ~1e5,
#: matching the measured Id-Vg family in Fig. 1(c) of the paper.
DEFAULT_NFEFET_PARAMS = FeFETParameters(polarity="n")

#: Default pFeFET parameters (mirror of the nFeFET).
DEFAULT_PFEFET_PARAMS = FeFETParameters(polarity="p")


def fefet_drain_current(vg, vd, vs, vth, params: FeFETParameters) -> np.ndarray:
    """Vectorised FeFET drain current (A) for broadcastable bias/Vth arrays.

    This is the single evaluation kernel of the compact model:
    :meth:`FeFET.drain_current` calls it with scalars, and the array engine
    calls it with whole-array Vth tensors, so the per-device and vectorised
    paths produce bit-identical currents.  It is the composition of
    :func:`fefet_bias_factor` (the gate-bias part) and
    :func:`fefet_current_from_factor` (the drain-voltage part); solvers that
    sweep only the drain voltage call the two halves directly and compute
    the factor once.

    Args:
        vg: Gate voltage(s) relative to the bulk/ground reference (V).
        vd: Drain voltage(s) (V).
        vs: Source voltage(s) (V).
        vth: Effective threshold voltage(s) including variation offsets (V).
        params: Channel parameters shared by every evaluated device.

    Returns:
        Drain current magnitudes (A), broadcast over the inputs.
    """
    factor = fefet_bias_factor(vg, vs, vth, params)
    return fefet_current_from_factor(factor, vd, vs, params)


def fefet_bias_factor(vg, vs, vth, params: FeFETParameters) -> np.ndarray:
    """The drain-independent factor ``k * (n*vt)^2 * softplus^2`` (A).

    Depends on the gate and source voltages and the threshold only, so a
    solver that varies the drain voltage at fixed gate bias evaluates it
    once (``exp`` + ``log1p`` per device) instead of at every iterate.
    """
    p = params
    vt = _THERMAL_VOLTAGE
    n = p.subthreshold_ideality
    vgs = np.asarray(vg, dtype=float) - np.asarray(vs, dtype=float)
    vth = np.asarray(vth, dtype=float)
    if p.polarity == "n":
        overdrive = vgs - vth
    else:
        # pFeFET: conduction for Vgs below Vth (i.e. Vsg above |Vth|).
        overdrive = vth - vgs
    # Smooth subthreshold-to-strong-inversion interpolation with a
    # numerically safe softplus.
    x = overdrive / (n * vt)
    softplus = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
    return p.transconductance * (n * vt) ** 2 * softplus * softplus


def fefet_current_from_factor(
    factor, vd, vs, params: FeFETParameters, *, out=None, work=None, slope=None
) -> np.ndarray:
    """Drain current (A) from a :func:`fefet_bias_factor` and the drain bias.

    Applies the drain-voltage part of the model: source/drain folding, the
    triode-to-saturation term, channel-length modulation, the leakage floor
    and the compliance clamp.

    A solver that evaluates the model at every iterate passes its own
    buffers: ``out`` (the broadcast shape of all inputs) receives the
    current and ``work`` (the shape of ``vd - vs``; ``vd`` may be ``work``
    itself) is overwritten, so the call allocates no float temporary (a
    ``slope`` request adds one boolean mask).  Without them
    every step allocates its result, as a plain expression would; both ways
    run the same operations and give the same floats.

    ``slope`` (the shape of ``out``), when given, receives ``dI/d|Vds|``,
    the derivative of the returned current with respect to the folded
    drain-source voltage (the right-hand derivative at ``Vds = 0``), and 0
    where the compliance clamp binds.  It is what a Newton step on the
    drain voltage needs; the current itself is unchanged by asking for it.
    """
    p = params
    vt = _THERMAL_VOLTAGE
    lam = p.channel_length_modulation
    vds = np.subtract(
        np.asarray(vd, dtype=float), np.asarray(vs, dtype=float), out=work
    )
    # Symmetric device: swap source and drain, for either polarity (a zero
    # of either sign gives the same current, as exp(±0) = 1).
    vds = np.abs(vds, out=work)
    # Channel-length modulation and the triode-to-saturation transition;
    # ``vds / -vt`` is exactly ``-vds / vt``.
    modulation = np.add(1.0, np.multiply(lam, vds, out=out), out=out)
    decay = np.exp(np.divide(vds, -vt, out=work), out=work)
    if slope is not None:
        # d/d|Vds| of factor * (1 - decay) * modulation, with decay' =
        # -decay / vt: factor * (decay * (modulation / vt - lam) + lam).
        np.subtract(np.divide(modulation, vt, out=slope), lam, out=slope)
        np.add(np.multiply(slope, decay, out=slope), lam, out=slope)
        np.multiply(factor, slope, out=slope)
    triode = np.subtract(1.0, decay, out=work)
    channel = np.multiply(factor, np.multiply(triode, modulation, out=out), out=out)
    current = np.add(channel, p.leakage_current, out=out)
    if slope is not None:
        # The clamped current is flat: zero slope where it binds.
        np.copyto(slope, 0.0, where=current > p.max_on_current)
    # Compliance clamp: real FeFET read paths saturate.
    return np.minimum(current, p.max_on_current, out=out)


class FeFET:
    """A programmable single- or multi-level-cell FeFET.

    Args:
        vth_states: The programmable threshold-voltage states in volts.  For
            an nFeFET the *lowest* state is the most conductive ("ON" / logic
            '1' in the paper's SLC convention) and the *highest* state is the
            least conductive.  For a pFeFET the convention is mirrored: the
            highest (least negative) state is the most conductive.
        params: Channel parameters; defaults to :data:`DEFAULT_NFEFET_PARAMS`
            or :data:`DEFAULT_PFEFET_PARAMS` depending on ``polarity``.
        state: Initially programmed state index into ``vth_states``.
        vth_offset: Additive threshold-voltage deviation of this particular
            device instance (used for Monte-Carlo variation, sigma = 40 mV in
            the paper).
    """

    def __init__(
        self,
        vth_states: Sequence[float],
        *,
        params: FeFETParameters | None = None,
        state: int = 0,
        vth_offset: float = 0.0,
    ) -> None:
        if len(vth_states) == 0:
            raise ValueError("vth_states must contain at least one state")
        self._vth_states: Tuple[float, ...] = tuple(float(v) for v in vth_states)
        if params is None:
            params = DEFAULT_NFEFET_PARAMS
        self.params = params
        self._state = 0
        self.program(state)
        self.vth_offset = float(vth_offset)

    # ------------------------------------------------------------------ state

    @property
    def vth_states(self) -> Tuple[float, ...]:
        """Programmable threshold-voltage states (V)."""
        return self._vth_states

    @property
    def num_states(self) -> int:
        """Number of programmable states (2 for SLC, >2 for MLC)."""
        return len(self._vth_states)

    @property
    def state(self) -> int:
        """Currently programmed state index."""
        return self._state

    @property
    def vth(self) -> float:
        """Effective threshold voltage including the variation offset (V)."""
        return self._vth_states[self._state] + self.vth_offset

    @property
    def polarity(self) -> str:
        """Device polarity, ``"n"`` or ``"p"``."""
        return self.params.polarity

    def program(self, state: int) -> None:
        """Program the device to the given threshold-voltage state index."""
        if not 0 <= state < len(self._vth_states):
            raise ValueError(
                f"state {state} out of range for {len(self._vth_states)} states"
            )
        self._state = int(state)

    def with_variation(self, vth_offset: float) -> "FeFET":
        """Return a copy of this device with a different variation offset."""
        return FeFET(
            self._vth_states,
            params=self.params,
            state=self._state,
            vth_offset=vth_offset,
        )

    def copy(self) -> "FeFET":
        """Return an independent copy of this device."""
        return self.with_variation(self.vth_offset)

    # ------------------------------------------------------------------- I(V)

    def drain_current(self, vg: float, vd: float, vs: float = 0.0) -> float:
        """Drain current of the device (A), positive into the drain for nFeFET.

        Args:
            vg: Gate voltage relative to the bulk/ground reference (V).
            vd: Drain voltage (V).
            vs: Source voltage (V).

        Returns:
            The drain current magnitude in amperes (always >= leakage floor
            contribution, and soft-clamped at ``max_on_current``).
        """
        return float(fefet_drain_current(vg, vd, vs, self.vth, self.params))

    def id_vg_curve(
        self,
        vg_values: Iterable[float],
        vd: float,
        vs: float = 0.0,
    ) -> np.ndarray:
        """Return the Id-Vg characteristic over ``vg_values`` (A)."""
        return np.asarray(
            fefet_drain_current(
                np.asarray(list(vg_values), dtype=float), vd, vs, self.vth, self.params
            ),
            dtype=float,
        )

    def on_current(self, vg_read: float, vd_read: float, vs: float = 0.0) -> float:
        """Drain current at the given read bias for the current state (A)."""
        return self.drain_current(vg_read, vd_read, vs)

    def off_current(self, vd_read: float, vs: float = 0.0) -> float:
        """Drain current with the gate at the source potential (OFF state, A)."""
        return self.drain_current(vs, vd_read, vs)

    def on_off_ratio(self, vg_read: float, vd_read: float, vs: float = 0.0) -> float:
        """ON/OFF current ratio at the given read bias."""
        off = self.off_current(vd_read, vs)
        if off == 0:
            return math.inf
        return self.on_current(vg_read, vd_read, vs) / off

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FeFET(polarity={self.params.polarity!r}, state={self._state}, "
            f"vth={self.vth:+.3f} V, states={self.num_states})"
        )


# --------------------------------------------------------------------------
# Calibration helpers
# --------------------------------------------------------------------------


def calibrate_vth_for_on_current(
    target_current: float,
    *,
    vg_read: float,
    vd_read: float,
    vs: float = 0.0,
    params: FeFETParameters | None = None,
    vth_bounds: Tuple[float, float] = (-3.0, 3.0),
    tolerance: float = 1e-4,
) -> float:
    """Solve for the threshold voltage that yields ``target_current`` at read bias.

    The ChgFe design programs binary-weighted ON currents (I, 2I, 4I, 8I)
    into the MLC 1nFeFET cells of different bit significance.  This helper
    inverts the Id(Vth) relation by bisection.

    Args:
        target_current: Desired drain current at the read bias (A).
        vg_read: Gate read voltage (V).
        vd_read: Drain read voltage (V).
        vs: Source voltage (V).
        params: Channel parameters (defaults to the nFeFET defaults).
        vth_bounds: Search interval for the threshold voltage (V).
        tolerance: Relative current tolerance for convergence.

    Returns:
        The calibrated threshold voltage (V).

    Raises:
        ValueError: If the target current is not achievable inside the
            search interval.
    """
    if target_current <= 0:
        raise ValueError("target_current must be positive")
    params = params or DEFAULT_NFEFET_PARAMS

    def current_at(vth: float) -> float:
        device = FeFET([vth], params=params)
        return device.drain_current(vg_read, vd_read, vs)

    lo, hi = vth_bounds
    if params.polarity == "n":
        # Current decreases with Vth.
        current_lo, current_hi = current_at(lo), current_at(hi)
        if not (current_hi <= target_current <= current_lo):
            raise ValueError(
                "target_current outside achievable range "
                f"[{current_hi:.3e}, {current_lo:.3e}] A"
            )
    else:
        # pFeFET current increases with Vth (less negative => more current
        # for a fixed negative read Vg... conduction when vth > vgs).
        current_lo, current_hi = current_at(lo), current_at(hi)
        if not (current_lo <= target_current <= current_hi):
            raise ValueError(
                "target_current outside achievable range "
                f"[{current_lo:.3e}, {current_hi:.3e}] A"
            )

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        current = current_at(mid)
        if abs(current - target_current) <= tolerance * target_current:
            return mid
        too_high = current > target_current
        if params.polarity == "n":
            if too_high:
                lo = mid
            else:
                hi = mid
        else:
            if too_high:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def make_slc_nfefet(
    *,
    low_vth: float = 0.2,
    high_vth: float = 1.7,
    params: FeFETParameters | None = None,
    state: int = 1,
) -> FeFET:
    """Create a single-level-cell nFeFET (states: 0 = low Vth '1', 1 = high Vth '0')."""
    params = params or DEFAULT_NFEFET_PARAMS
    if params.polarity != "n":
        raise ValueError("make_slc_nfefet requires n-type parameters")
    if low_vth >= high_vth:
        raise ValueError("low_vth must be below high_vth")
    return FeFET([low_vth, high_vth], params=params, state=state)


def make_mlc_nfefet(
    vth_states: Sequence[float],
    *,
    params: FeFETParameters | None = None,
    state: int = 0,
) -> FeFET:
    """Create a multi-level-cell nFeFET from an explicit list of Vth states."""
    params = params or DEFAULT_NFEFET_PARAMS
    if params.polarity != "n":
        raise ValueError("make_mlc_nfefet requires n-type parameters")
    ordered = tuple(sorted(float(v) for v in vth_states))
    if ordered != tuple(float(v) for v in vth_states):
        raise ValueError("vth_states must be provided in ascending order")
    return FeFET(vth_states, params=params, state=state)


def make_slc_pfefet(
    *,
    on_vth: float = 0.3,
    off_vth: float = -1.2,
    params: FeFETParameters | None = None,
    state: int = 1,
) -> FeFET:
    """Create a single-level-cell pFeFET.

    The paper's ChgFe design uses the *high* Vth state of the pFeFET as the
    conductive state representing a sign-bit value of '1' (Fig. 5(a)).  We
    therefore order the states as ``[off_vth, on_vth]`` so that state index 0
    is non-conducting ('0') and state index 1 is conducting ('1'), mirroring
    the SLC nFeFET convention where index encodes the stored bit after the
    caller's mapping.
    """
    params = params or DEFAULT_PFEFET_PARAMS
    if params.polarity != "p":
        raise ValueError("make_slc_pfefet requires p-type parameters")
    if off_vth >= on_vth:
        raise ValueError("off_vth must be below on_vth for a pFeFET")
    return FeFET([off_vth, on_vth], params=params, state=state)


def mlc_states_from_write_voltages(
    write_voltages: Sequence[float],
    *,
    vth_midpoint: float = 0.95,
    preisach_params: PreisachParameters | None = None,
) -> Tuple[float, ...]:
    """Map gate write-pulse amplitudes to MLC threshold-voltage states.

    Reproduces the measurement of Fig. 1(c): sweeping the write amplitude
    from 2 V to 4 V moves the nFeFET threshold from its highest state to its
    lowest state.  The mapping runs each write amplitude through the
    Preisach model (full erase followed by a single program pulse) and
    converts the resulting polarization to a threshold shift around
    ``vth_midpoint``.

    Args:
        write_voltages: Program-pulse amplitudes in volts (e.g. 2.0 ... 4.0).
        vth_midpoint: Threshold voltage for zero net polarization (V).
        preisach_params: Optional Preisach model parameters.

    Returns:
        Threshold voltages, one per write amplitude, in the same order.
    """
    if len(write_voltages) == 0:
        raise ValueError("write_voltages must not be empty")
    ferro = PreisachFerroelectric(preisach_params or PreisachParameters())
    states = []
    for amplitude in write_voltages:
        if amplitude <= 0:
            raise ValueError("write amplitudes must be positive")
        ferro.reset(-1.0)
        ferro.apply_pulse(amplitude)
        states.append(vth_midpoint + 0.5 * ferro.vth_shift)
    return tuple(states)
