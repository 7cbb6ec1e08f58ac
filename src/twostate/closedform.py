"""Exact finite-sum solution of the unconditionally solvable crossing model.

For the two-parameter model the series solution terminates after three terms.
The resulting amplitude is elementary: with ``R = sqrt(4 u0^2 + delta1^2)``
and ``z = sqrt(a) exp(i theta)`` tracing the circle of radius ``sqrt(a)``,

    a2(t) = C0 * z^((delta1+R)/2) * ((R-1)(delta1-1) + 2 (R+delta1) / (1-z)),

and replacing ``R -> -R`` gives the second independent solution.  The
``z``-power is a pure Floquet factor: its modulus ``sqrt(a)^lambda`` is
constant on the circle, so the fundamental pair drops it and keeps the
unit-modulus ``exp(i lambda theta)`` (the matching weights absorb any constant
per solution, and ``sqrt(a)^lambda`` would overflow for large couplings).  The
quasi-energies can be read off directly: ``lambda_{1,2} = (delta1 -+ R)/2``,
defined modulo the drive frequency.

The phase modulation ``int delta_t dt`` that links the two amplitudes is
elementary as well (:func:`phase_n2`), so nothing here integrates numerically.

Powers of ``z`` off the physical trajectory route through
:class:`UnwoundPoint`; snapping to the principal branch mid-trajectory would
silently destroy the Floquet structure, which is the single most error-prone
spot of the whole build.

For ``delta1 < -1`` the two-parameter detuning form fixes the opposite sign of
the cosine relative to the general family, which amounts to starting the
circle map half a turn later; the amplitudes below include that offset so they
solve the equation driven by :func:`twostate.fields.detuning_n2` on both
branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularSystemError
from .fields import N2Config, StateVector  # StateVector re-exported for callers
from .heun import generalized_rabi
from .specfun import UnwoundPoint, as_complex, fold_beta_sum, power


@dataclass(frozen=True)
class FloquetReport:
    """Analytic quasi-energies ``lambda_{1,2} = (delta1 -+ R)/2``, scaled time."""

    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class HarmonicLadder:
    """One-sided Fourier ladder of the periodic bracket of the amplitude.

    ``coeffs[k]`` multiplies ``exp(1j * direction * k * theta)`` where theta
    is the scaled drive phase; ``direction`` is -1 when the circle radius
    exceeds 1 (delta1 > 1) and +1 otherwise.
    """

    direction: int
    coeffs: np.ndarray


def _angle_offset(cfg: N2Config) -> float:
    return math.pi if cfg.delta1 < -1.0 else 0.0


def circle_point(cfg: N2Config, t: float) -> UnwoundPoint:
    """The unwound point z(t) on the circle of radius sqrt(a)."""
    theta = cfg.delta * (t - cfg.t0) + _angle_offset(cfg)
    return UnwoundPoint(math.sqrt(cfg.a), theta)


def _bracket_weights(rs: float, delta1: float) -> tuple[float, float]:
    """Weights ``(dc, w)`` of the amplitude's bracket ``dc + w / (1 - z)``; ``rs = +-R``."""
    return (rs - 1.0) * (delta1 - 1.0), 2.0 * (rs + delta1)


def hg_quasipoly(delta1: float, u0: float, z) -> complex:
    """Terminated series ``z^R (dc + w/(1-z)) / (R (R+1) (delta1+1))``: the plus bracket, z != 1."""
    zc = as_complex(z)
    if zc == 1.0:
        raise ParameterError("hg_quasipoly: singular at z = 1")
    if delta1 == -1.0:
        raise ParameterError("hg_quasipoly: singular at delta1 = -1")
    big_r = generalized_rabi(u0, delta1)
    dc, w = _bracket_weights(big_r, delta1)
    return power(z, big_r) * (dc + w / (1.0 - zc)) / (big_r * (big_r + 1.0) * (delta1 + 1.0))


def three_beta_coeffs(delta1: float, u0: float) -> tuple[float, float, float]:
    """Constant weights of the three-Beta combination (first weight normalized to 1)."""
    if not abs(delta1) > 1.0:
        raise ParameterError(f"three_beta_coeffs: need |delta1| > 1, got {delta1}")
    big_r = generalized_rabi(u0, delta1)
    c1 = 2.0 * delta1 * (1.0 - big_r) / ((delta1 + 1.0) * big_r)
    c2 = (delta1 - 1.0) * (big_r - 1.0) / ((delta1 + 1.0) * (big_r + 1.0))
    return 1.0, c1, c2


def hg_three_beta(delta1: float, u0: float, z) -> complex:
    """Three-Beta combination evaluated by folding the neighbour recurrence.

    Each fold peels off an elementary head and pushes the Beta weight one
    index up; for these weights the final Beta coefficient cancels, so the
    sum is elementary for any ``z != 1`` (the ``z``-power honours an
    :class:`UnwoundPoint` argument).
    """
    zc = as_complex(z)
    if zc == 1.0:
        raise ParameterError("hg_three_beta: singular at z = 1")
    return fold_beta_sum(three_beta_coeffs(delta1, u0), generalized_rabi(u0, delta1), -1.0, z)


def phase_n2(cfg: N2Config, t):
    """Accumulated phase modulation ``int_{t0}^{t} delta_t ds`` (scalar or array).

    With ``theta = delta (t - t0)``, ``s = sign(delta1)`` and
    ``rho = sqrt((|delta1| - 1)/(|delta1| + 1)) < 1`` the detuning is
    ``delta (delta1 - 2 s P(theta))`` with the Poisson kernel
    ``P = (1 - rho^2)/|1 - s rho exp(i theta)|^2``, whose integral is
    ``theta - 2 arg(1 - s rho exp(i theta))``.  The argument stays in the
    right half-plane, so its principal value is continuous in ``t``.
    """
    theta = cfg.delta * (np.asarray(t, dtype=float) - cfg.t0)
    d1 = cfg.delta1
    s = math.copysign(1.0, d1)
    rho = math.sqrt((abs(d1) - 1.0) / (abs(d1) + 1.0))
    wind = np.angle(1.0 - s * rho * np.exp(1j * theta))
    out = d1 * theta - 2.0 * s * (theta - 2.0 * wind)
    return float(out) if np.isscalar(t) else out


def recover_a1(cfg: N2Config, a2_derivative, phase):
    """Companion amplitude: a1 = i * (da2/dt) * exp(-i phase) / U (scalar or array)."""
    u_phys = cfg.u0 * cfg.delta
    # the factor has the shape of ``phase``: form it before it meets both solutions
    return a2_derivative * (1j / u_phys * np.exp(-1j * phase))


def _fundamental_pair(cfg: N2Config, times) -> tuple[np.ndarray, np.ndarray]:
    """``(a1, a2)`` of the plus and minus fundamental solutions; axis 0 is the sign."""
    t = np.asarray(times, dtype=float)
    theta = cfg.delta * (t - cfg.t0) + _angle_offset(cfg)
    rs = np.reshape((1.0, -1.0), (2,) + (1,) * t.ndim) * generalized_rabi(cfg.u0, cfg.delta1)
    lam = 0.5 * (cfg.delta1 + rs)
    zp = np.exp(1j * lam * theta)                        # z^lambda / sqrt(a)^lambda
    z = math.sqrt(cfg.a) * np.exp(1j * theta)
    dc, w = _bracket_weights(rs, cfg.delta1)
    bracket = dc + w / (1.0 - z)
    dbracket = w / (1.0 - z) ** 2                        # d/dz
    da2 = 1j * cfg.delta * zp * (lam * bracket + z * dbracket)
    return recover_a1(cfg, da2, phase_n2(cfg, times)), zp * bracket


def match_initial(cfg: N2Config, state0: StateVector, t_start: float) -> tuple[complex, complex]:
    """Weights (C+, C-) of the fundamental pair matching ``state0`` at ``t_start``."""
    if not abs(state0.norm - 1.0) <= 1e-6:     # NaN fails the checks written this way
        raise ParameterError(f"match_initial: state must be normalized, |state|^2 = {state0.norm}")
    if not math.isfinite(t_start):
        raise ParameterError(f"match_initial: t_start must be finite, got {t_start}")
    (a1p, a1m), (vp, vm) = np.array(_fundamental_pair(cfg, t_start)).tolist()
    det = a1p * vm - a1m * vp
    scale = abs(a1p * vm) + abs(a1m * vp)
    if not abs(det) > 1e-12 * max(scale, 1e-300):
        raise SingularSystemError("match_initial: fundamental solutions are numerically dependent")
    c_plus = (state0.a1 * vm - state0.a2 * a1m) / det
    c_minus = (state0.a2 * a1p - state0.a1 * vp) / det
    return c_plus, c_minus


def closed_form_states(cfg: N2Config, state0: StateVector, t_start: float, times
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Matched analytic trajectory ``(a1(t), a2(t))`` on an array of times."""
    c_plus, c_minus = match_initial(cfg, state0, t_start)
    a1, a2 = _fundamental_pair(cfg, times)
    return c_plus * a1[0] + c_minus * a1[1], c_plus * a2[0] + c_minus * a2[1]


def floquet_analytic(cfg: N2Config) -> FloquetReport:
    """Quasi-energies (drive-scaled units): lambda_{1,2} = (delta1 -+ R)/2."""
    big_r = generalized_rabi(cfg.u0, cfg.delta1)
    return FloquetReport(lambda1=0.5 * (cfg.delta1 - big_r),
                         lambda2=0.5 * (cfg.delta1 + big_r))


def harmonic_content(cfg: N2Config, n_harmonics: int) -> HarmonicLadder:
    """Fourier ladder of the periodic bracket of the plus-sign fundamental solution.

    The geometric structure of ``1/(1 - z)`` on a circle of radius != 1 makes
    the ladder one-sided: descending harmonics for radius > 1 (the expansion
    proceeds in ``1/z``), ascending ones for radius < 1.  All ladder weights
    carry the factor ``R + delta1 != 0``, so no harmonic is absent.
    """
    if n_harmonics < 1:
        raise ParameterError(f"harmonic_content: n_harmonics must be >= 1, got {n_harmonics}")
    base = math.sqrt(cfg.a) * math.cos(_angle_offset(cfg))  # -sqrt(a) on the shifted branch
    dc, w = _bracket_weights(generalized_rabi(cfg.u0, cfg.delta1), cfg.delta1)
    k = np.arange(1, n_harmonics + 1)   # integer exponents: base may be negative
    if abs(base) > 1.0:
        coeffs = np.concatenate(([dc + 0j], -w * base**(-k)))
        return HarmonicLadder(direction=-1, coeffs=coeffs)
    coeffs = np.concatenate(([dc + w + 0j], w * base**k))
    return HarmonicLadder(direction=+1, coeffs=coeffs)
