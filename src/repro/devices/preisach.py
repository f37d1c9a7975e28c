"""Preisach-style ferroelectric polarization model.

The paper's SPICE evaluation uses the experimentally calibrated Preisach
FeFET compact model of Ni et al. [34].  The essential behaviour that the
rest of the IMC stack depends on is:

* the ferroelectric (FE) layer holds a remanent polarization ``P_r`` whose
  value is set by the history of gate write pulses (amplitude and width),
* the polarization shifts the effective threshold voltage of the underlying
  MOSFET: ``Vth = Vth0 - P * t_fe / eps_fe`` (a linear charge-sheet shift),
* sweeping the write amplitude between the coercive voltages traces a
  saturating hysteresis loop, which is what enables multi-level-cell (MLC)
  programming with intermediate write amplitudes (Fig. 1(c) of the paper).

This module implements a behavioural Preisach model: the FE layer is
described by a distribution of elementary square hysteresis operators
("hysterons") with coercive voltages spread around ``v_coercive`` with width
``sigma_coercive``.  Applying a write pulse of amplitude ``V`` switches every
hysteron whose positive (negative) coercive voltage is below ``V`` (above
``-V``).  The net polarization is the average hysteron state scaled by the
saturation polarization.

The model is deliberately quasi-static (pulse-width effects are folded into
an effective coercive-voltage shift) because the IMC designs only ever use a
fixed write-pulse width; what matters downstream is the *mapping from write
amplitude to threshold voltage*, which this model reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "PreisachParameters",
    "PreisachFerroelectric",
]


@dataclass(frozen=True)
class PreisachParameters:
    """Parameters of the behavioural Preisach ferroelectric model.

    Attributes:
        saturation_polarization: Remanent polarization at full saturation
            (C/m^2).  Typical doped-HfO2 values are ~0.2-0.3 C/m^2; the
            default is chosen so that the full polarization swing maps to the
            paper's ~1.5 V memory window.
        v_coercive: Mean coercive voltage of the hysteron distribution (V).
        sigma_coercive: Spread of the hysteron coercive voltages (V).  A
            larger spread produces a more gradual (more "analog") switching
            characteristic, which is what enables MLC programming.
        fe_thickness: Ferroelectric layer thickness (m).
        fe_permittivity: Ferroelectric layer permittivity (F/m).
        num_hysterons: Number of elementary hysterons used by the discrete
            model.  More hysterons give a smoother minor-loop behaviour.
    """

    saturation_polarization: float = 0.12
    v_coercive: float = 2.9
    sigma_coercive: float = 0.55
    fe_thickness: float = 10e-9
    fe_permittivity: float = 3.1e-10
    num_hysterons: int = 512

    def __post_init__(self) -> None:
        if self.saturation_polarization <= 0:
            raise ValueError("saturation_polarization must be positive")
        if self.sigma_coercive <= 0:
            raise ValueError("sigma_coercive must be positive")
        if self.fe_thickness <= 0:
            raise ValueError("fe_thickness must be positive")
        if self.fe_permittivity <= 0:
            raise ValueError("fe_permittivity must be positive")
        if self.num_hysterons < 2:
            raise ValueError("num_hysterons must be at least 2")

    @property
    def full_vth_window(self) -> float:
        """Threshold-voltage window between fully-up and fully-down states (V)."""
        return (
            2.0
            * self.saturation_polarization
            * self.fe_thickness
            / self.fe_permittivity
        )


class PreisachFerroelectric:
    """Discrete Preisach hysteresis model of a ferroelectric capacitor.

    The model keeps an array of hysteron states in ``{-1, +1}``.  Each
    hysteron ``i`` has a positive switching threshold ``+vc_i`` and a negative
    switching threshold ``-vc_i`` where the ``vc_i`` sample a normal
    distribution (clipped to be positive).  Applying a gate write pulse of
    amplitude ``v`` flips to ``+1`` every hysteron with ``vc_i <= v`` and to
    ``-1`` every hysteron with ``vc_i <= -v`` (i.e. for negative pulses).

    The normalized polarization is the mean hysteron state; the physical
    polarization is that mean times the saturation polarization.
    """

    def __init__(
        self,
        params: PreisachParameters | None = None,
        *,
        initial_state: float = -1.0,
    ) -> None:
        self.params = params or PreisachParameters()
        if not -1.0 <= initial_state <= 1.0:
            raise ValueError("initial_state must lie in [-1, 1]")
        # Deterministic, evenly spaced quantiles of the coercive-voltage
        # distribution: reproducible without a RNG and smooth for any
        # num_hysterons.
        n = self.params.num_hysterons
        quantiles = (np.arange(n) + 0.5) / n
        # Inverse normal CDF via scipy-free approximation: use numpy's
        # erfinv through the identity ppf(q) = sqrt(2) * erfinv(2q - 1).
        coercive = self.params.v_coercive + self.params.sigma_coercive * (
            np.sqrt(2.0) * _erfinv(2.0 * quantiles - 1.0)
        )
        self._coercive_voltages = np.clip(coercive, 1e-3, None)
        self._states = np.full(n, float(initial_state))
        self._history: List[float] = []

    # ------------------------------------------------------------------ state

    @property
    def coercive_voltages(self) -> np.ndarray:
        """Per-hysteron coercive voltages (V), ascending order not guaranteed."""
        return self._coercive_voltages.copy()

    @property
    def history(self) -> Sequence[float]:
        """Sequence of applied write-pulse amplitudes, oldest first."""
        return tuple(self._history)

    @property
    def normalized_polarization(self) -> float:
        """Mean hysteron state in [-1, +1]."""
        return float(np.mean(self._states))

    @property
    def polarization(self) -> float:
        """Physical remanent polarization (C/m^2)."""
        return self.normalized_polarization * self.params.saturation_polarization

    @property
    def vth_shift(self) -> float:
        """Threshold-voltage shift induced by the current polarization (V).

        Positive polarization (pointing toward the channel) lowers the
        threshold voltage of an nFeFET, hence the negative sign.
        """
        return (
            -self.polarization
            * self.params.fe_thickness
            / self.params.fe_permittivity
        )

    # ------------------------------------------------------------ programming

    def reset(self, state: float = -1.0) -> None:
        """Reset every hysteron to ``state`` (default: fully erased)."""
        if not -1.0 <= state <= 1.0:
            raise ValueError("state must lie in [-1, 1]")
        self._states[:] = float(state)
        self._history.clear()

    def apply_pulse(self, amplitude: float) -> float:
        """Apply a single gate write pulse and return the new polarization.

        Args:
            amplitude: Write-pulse amplitude (V).  Positive pulses program
                (switch hysterons up), negative pulses erase.

        Returns:
            The normalized polarization after the pulse.
        """
        if amplitude >= 0:
            switch = self._coercive_voltages <= amplitude
            self._states[switch] = 1.0
        else:
            switch = self._coercive_voltages <= -amplitude
            self._states[switch] = -1.0
        self._history.append(float(amplitude))
        return self.normalized_polarization

    def apply_pulse_train(self, amplitudes: Iterable[float]) -> float:
        """Apply a sequence of write pulses; return the final polarization."""
        result = self.normalized_polarization
        for amplitude in amplitudes:
            result = self.apply_pulse(amplitude)
        return result

    def program_fraction(self, fraction: float) -> float:
        """Program the FE layer so that ``fraction`` of hysterons point up.

        This finds the single positive write amplitude (after a full erase)
        whose resulting up-fraction is closest to the request, mirroring the
        erase-then-partial-program write scheme of Reis et al. [35] used in
        the paper.

        Args:
            fraction: Target up-fraction in [0, 1].

        Returns:
            The write amplitude that was applied (V).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        self.reset(-1.0)
        if fraction == 0.0:
            return 0.0
        sorted_vc = np.sort(self._coercive_voltages)
        index = min(
            len(sorted_vc) - 1,
            max(0, int(round(fraction * len(sorted_vc))) - 1),
        )
        amplitude = float(sorted_vc[index]) + 1e-6
        self.apply_pulse(amplitude)
        return amplitude

    # ------------------------------------------------------------- inspection

    def minor_loop(self, amplitudes: Sequence[float]) -> np.ndarray:
        """Trace polarization along a sequence of write amplitudes.

        The model state is saved and restored, so this is a pure query.

        Returns:
            Array of normalized polarizations, one per amplitude.
        """
        saved_states = self._states.copy()
        saved_history = list(self._history)
        try:
            trace = np.array(
                [self.apply_pulse(a) for a in amplitudes], dtype=float
            )
        finally:
            self._states = saved_states
            self._history = saved_history
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PreisachFerroelectric(P={self.normalized_polarization:+.3f}, "
            f"vth_shift={self.vth_shift:+.3f} V, "
            f"pulses={len(self._history)})"
        )


def _erfinv(y: np.ndarray) -> np.ndarray:
    """Inverse error function (vectorised), via Newton refinement.

    numpy does not expose ``erfinv`` without scipy; scipy is available in the
    environment but we keep the device layer dependency-light.  The initial
    guess uses the Winitzki approximation, refined with two Newton steps on
    ``erf`` which is available through ``math.erf`` (vectorised here).
    """
    y = np.clip(np.asarray(y, dtype=float), -0.999999, 0.999999)
    a = 0.147
    ln_term = np.log(1.0 - y * y)
    first = 2.0 / (np.pi * a) + ln_term / 2.0
    initial = np.sign(y) * np.sqrt(np.sqrt(first * first - ln_term / a) - first)

    erf_vec = np.vectorize(math.erf)
    x = initial
    sqrt_pi = math.sqrt(math.pi)
    for _ in range(2):
        err = erf_vec(x) - y
        derivative = 2.0 / sqrt_pi * np.exp(-x * x)
        x = x - err / derivative
    return x
