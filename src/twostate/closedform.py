"""Exact finite-sum solution of the unconditionally solvable crossing model.

For the two-parameter model the series solution terminates after three terms.
The resulting amplitude is elementary: with ``R = sqrt(4 u0^2 + delta1^2)``
and ``z`` tracing the circle of radius ``sqrt(a)``,

    a2(t) = C0 * z^((delta1+R)/2) * ((R-1)(delta1-1) + 2 (R+delta1) / (1-z)),

and replacing ``R -> -R`` gives the second independent solution.  The
``z``-power is a pure Floquet factor (its modulus is constant on the circle),
so the quasi-energies can be read off directly:
``lambda_{1,2} = (delta1 -+ R)/2``, defined modulo the drive frequency.

Everything here routes powers of ``z`` through :class:`UnwoundPoint`; snapping
to the principal branch mid-trajectory would silently destroy the Floquet
structure, which is the single most error-prone spot of the whole build.

For ``delta1 < -1`` the two-parameter detuning form fixes the opposite sign of
the cosine relative to the general family, which amounts to starting the
circle map half a turn later; the amplitudes below include that offset so they
solve the equation driven by :func:`twostate.fields.detuning_n2` on both
branches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError, SingularSystemError
from .fields import N2Config, detuning_n2
from .heun import _fold_to_elementary, generalized_rabi
from .specfun import UnwoundPoint, as_complex, power

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
_FOLD_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Amplitude pair plus the accumulated phase-modulation value."""

    a1: complex
    a2: complex
    phase: float = 0.0

    @property
    def norm(self) -> float:
        return abs(self.a1) ** 2 + abs(self.a2) ** 2


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
    base: float
    coeffs: np.ndarray


def _angle_offset(cfg: N2Config) -> float:
    return math.pi if cfg.delta1 < -1.0 else 0.0


def circle_point(cfg: N2Config, t: float) -> UnwoundPoint:
    """The unwound point z(t) on the circle of radius sqrt(a)."""
    theta = cfg.delta * (t - cfg.t0) + _angle_offset(cfg)
    return UnwoundPoint(math.sqrt(cfg.a), theta)


def hg_quasipoly(delta1: float, u0: float, z) -> complex:
    """Quasi-polynomial form of the terminated series (elementary, any z != 1)."""
    zc = as_complex(z)
    if zc == 1.0:
        raise ParameterError("hg_quasipoly: singular at z = 1")
    if delta1 == -1.0:
        raise ParameterError("hg_quasipoly: singular at delta1 = -1")
    big_r = generalized_rabi(u0, delta1)
    num = (zc - 1.0) * (1.0 + big_r * delta1) - (zc + 1.0) * (big_r + delta1)
    den = big_r * (big_r + 1.0) * (delta1 + 1.0) * (zc - 1.0)
    return power(z, big_r) * num / den


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
    big_r = generalized_rabi(u0, delta1)
    coeffs = np.array(three_beta_coeffs(delta1, u0), dtype=complex)
    elem, leftover, _ = _fold_to_elementary(coeffs, big_r, -1.0, z)
    if abs(leftover) > _FOLD_TOL * float(np.max(np.abs(coeffs))):
        raise SingularSystemError(f"hg_three_beta: fold left a Beta weight {abs(leftover):.3e}")
    return elem


def _amplitude_arrays(cfg: N2Config, sign: int, times) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental solution and its physical-time derivative on an array of times."""
    if sign not in (+1, -1):
        raise ParameterError(f"amplitude: sign must be +1 or -1, got {sign}")
    t = np.asarray(times, dtype=float)
    theta = cfg.delta * (t - cfg.t0) + _angle_offset(cfg)
    sqa = math.sqrt(cfg.a)
    rs = sign * generalized_rabi(cfg.u0, cfg.delta1)
    lam = 0.5 * (cfg.delta1 + rs)
    zp = sqa**lam * np.exp(1j * lam * theta)            # unwound z^lambda
    z = sqa * np.exp(1j * theta)
    bracket = (rs - 1.0) * (cfg.delta1 - 1.0) + 2.0 * (rs + cfg.delta1) / (1.0 - z)
    dbracket = 2.0 * (rs + cfg.delta1) / (1.0 - z) ** 2  # d/dz
    val = zp * bracket
    dval = 1j * cfg.delta * zp * (lam * bracket + z * dbracket)
    return val, dval


def amplitude_n2(cfg: N2Config, sign: int, t: float) -> complex:
    """Un-normalized fundamental solution for the chosen sign of R at time ``t``."""
    val, _ = _amplitude_arrays(cfg, sign, np.array([t]))
    return complex(val[0])


def amplitude_n2_deriv(cfg: N2Config, sign: int, t: float) -> complex:
    """Analytic time derivative of :func:`amplitude_n2`."""
    _, dval = _amplitude_arrays(cfg, sign, np.array([t]))
    return complex(dval[0])


def phase_n2(cfg: N2Config, t: float) -> float:
    """Accumulated phase modulation ``int_{t0}^{t} delta_t ds`` (adaptive quadrature)."""
    if t == cfg.t0:
        return 0.0
    val, _err = quad(lambda s: detuning_n2(cfg, s), cfg.t0, t, **_QUAD_KW)
    return val


def accumulated_phases(cfg: N2Config, times) -> np.ndarray:
    """Phase modulation at each time, accumulated piecewise from ``t0``."""
    t = np.asarray(times, dtype=float)
    order = np.argsort(t)
    sorted_t = t[order]
    phases = np.empty_like(sorted_t)
    prev_t, prev_phase = cfg.t0, 0.0
    for i, ti in enumerate(sorted_t):
        if ti != prev_t:
            seg, _ = quad(lambda s: detuning_n2(cfg, s), prev_t, ti, **_QUAD_KW)
            prev_phase += seg
            prev_t = ti
        phases[i] = prev_phase
    out = np.empty_like(phases)
    out[order] = phases
    return out


def recover_a1(cfg: N2Config, a2_value: complex, a2_derivative: complex, phase: float) -> complex:
    """Companion amplitude: a1 = i * (da2/dt) * exp(-i phase) / U."""
    u_phys = cfg.u0 * cfg.delta
    return 1j * a2_derivative * cmath.exp(-1j * phase) / u_phys


def match_initial(cfg: N2Config, state0: StateVector, t_start: float) -> tuple[complex, complex]:
    """Weights (C+, C-) of the fundamental pair matching ``state0`` at ``t_start``."""
    if abs(state0.norm - 1.0) > 1e-6:
        raise ParameterError(f"match_initial: state must be normalized, |state|^2 = {state0.norm}")
    phi0 = phase_n2(cfg, t_start)
    cols = []
    for sign in (+1, -1):
        v = amplitude_n2(cfg, sign, t_start)
        d = amplitude_n2_deriv(cfg, sign, t_start)
        cols.append((recover_a1(cfg, v, d, phi0), v))
    (a1p, vp), (a1m, vm) = cols
    det = a1p * vm - a1m * vp
    scale = abs(a1p * vm) + abs(a1m * vp)
    if abs(det) <= 1e-12 * max(scale, 1e-300):
        raise SingularSystemError("match_initial: fundamental solutions are numerically dependent")
    c_plus = (state0.a1 * vm - state0.a2 * a1m) / det
    c_minus = (state0.a2 * a1p - state0.a1 * vp) / det
    return c_plus, c_minus


def closed_form_states(cfg: N2Config, state0: StateVector, t_start: float, times
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Matched analytic trajectory ``(a1(t), a2(t))`` on an array of times."""
    c_plus, c_minus = match_initial(cfg, state0, t_start)
    vp, dp = _amplitude_arrays(cfg, +1, times)
    vm, dm = _amplitude_arrays(cfg, -1, times)
    a2 = c_plus * vp + c_minus * vm
    da2 = c_plus * dp + c_minus * dm
    phases = accumulated_phases(cfg, times)
    u_phys = cfg.u0 * cfg.delta
    a1 = 1j * da2 * np.exp(-1j * phases) / u_phys
    return a1, a2


def floquet_analytic(cfg: N2Config) -> FloquetReport:
    """Quasi-energies (drive-scaled units): lambda_{1,2} = (delta1 -+ R)/2."""
    big_r = generalized_rabi(cfg.u0, cfg.delta1)
    return FloquetReport(lambda1=0.5 * (cfg.delta1 - big_r),
                         lambda2=0.5 * (cfg.delta1 + big_r))


def harmonic_content(cfg: N2Config, n_harmonics: int, sign: int = +1) -> HarmonicLadder:
    """Fourier ladder of the periodic bracket of the fundamental solution.

    The geometric structure of ``1/(1 - z)`` on a circle of radius != 1 makes
    the ladder one-sided: descending harmonics for radius > 1 (the expansion
    proceeds in ``1/z``), ascending ones for radius < 1.  All ladder weights
    carry the factor ``R + delta1 != 0``, so no harmonic is absent.
    """
    if n_harmonics < 1:
        raise ParameterError(f"harmonic_content: n_harmonics must be >= 1, got {n_harmonics}")
    if sign not in (+1, -1):
        raise ParameterError(f"harmonic_content: sign must be +1 or -1, got {sign}")
    rs = sign * generalized_rabi(cfg.u0, cfg.delta1)
    base = math.sqrt(cfg.a) * math.cos(_angle_offset(cfg))  # -sqrt(a) on the shifted branch
    w = 2.0 * (rs + cfg.delta1)
    dc = (rs - 1.0) * (cfg.delta1 - 1.0)
    k = np.arange(1, n_harmonics + 1)   # integer exponents: base may be negative
    if abs(base) > 1.0:
        coeffs = np.concatenate(([dc + 0j], -w * base**(-k)))
        return HarmonicLadder(direction=-1, base=base, coeffs=coeffs)
    coeffs = np.concatenate(([dc + w + 0j], w * base**k))
    return HarmonicLadder(direction=+1, base=base, coeffs=coeffs)
