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

The module's only state is one memo of ``_MEMO_SIZE`` entries, keyed on
``(delta1, u0)`` (:func:`_constants`): ``R``, the plus bracket's weights
``c, w``, its norm ``R (R+1) (delta1+1)`` and the three-Beta weights.  Every
reader of ``R`` takes it from there, and the memo owns the model's domain
rule ``|delta1| > 1``.  It holds tuples of floats, so the points of one orbit
pay for them once, and a value read from the memo has the bits of one
computed afresh.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularSystemError
from .fields import N2Config, StateVector, drive_lattice  # StateVector re-exported for callers
from .heun import generalized_rabi
from .specfun import UnwoundPoint, as_complex, fold_beta_sum, power

_MEMO_SIZE = 8      # (delta1, u0) pairs whose constants the memo keeps


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
    """Weights ``(c, w)`` of the amplitude's bracket ``c + w z^j / (1 - z)``; ``rs = +-R``.

    ``w = 2 (rs + delta1)``.  Outside the unit circle (``delta1 > 1``) ``j = 0``
    and ``c = dc = (rs - 1)(delta1 - 1)``; inside it (``delta1 < -1``) ``j = 1``
    and ``c = (rs + 1)(delta1 + 1) = dc + w``, so both forms are the one
    bracket ``dc + w / (1 - z)``.  Either way ``c`` is the constant of the
    bracket's one-sided Fourier ladder.  Summed as ``dc + w``, the inner one
    would cancel as ``delta1 -> -1``, where the whole bracket shrinks like
    ``sqrt(a)``: at ``delta1 = -1 - 2^-52`` a matched trajectory's norm drifted
    by 4.5e-8.
    """
    if delta1 < -1.0:
        return (rs + 1.0) * (delta1 + 1.0), 2.0 * (rs + delta1)
    return (rs - 1.0) * (delta1 - 1.0), 2.0 * (rs + delta1)


def _bracket_at(c, w, delta1: float, z):
    """The bracket ``c + w z^j / (1 - z)`` of :func:`_bracket_weights` at ``z``."""
    return c + (w * z if delta1 < -1.0 else w) / (1.0 - z)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _constants(delta1: float, u0: float) -> tuple[float, float, float, float, float, float]:
    """``(R, c, w, norm, c1, c2)`` of the model at ``(delta1, u0)`` (memoised).

    ``c, w`` are the plus bracket's :func:`_bracket_weights`, ``norm`` is
    ``R (R+1) (delta1+1)`` and ``(1, c1, c2)`` are :func:`three_beta_coeffs`.
    :class:`ParameterError` unless ``|delta1| > 1``, where the detuning is real.
    """
    if not abs(delta1) > 1.0:
        raise ParameterError(f"the solvable model needs |delta1| > 1, got delta1 = {delta1}")
    big_r = generalized_rabi(u0, delta1)
    c1 = 2.0 * delta1 * (1.0 - big_r) / ((delta1 + 1.0) * big_r)
    c2 = (delta1 - 1.0) * (big_r - 1.0) / ((delta1 + 1.0) * (big_r + 1.0))
    return (big_r, *_bracket_weights(big_r, delta1), big_r * (big_r + 1.0) * (delta1 + 1.0),
            c1, c2)


def hg_quasipoly(delta1: float, u0: float, z) -> complex:
    """Terminated series ``z^R (dc + w/(1-z)) / (R (R+1) (delta1+1))``: the plus bracket, z != 1."""
    zc = as_complex(z)
    if zc == 1.0:
        raise ParameterError("hg_quasipoly: singular at z = 1")
    big_r, c, w, norm, _, _ = _constants(delta1, u0)
    return power(z, big_r) * _bracket_at(c, w, delta1, zc) / norm


def three_beta_coeffs(delta1: float, u0: float) -> tuple[float, float, float]:
    """Constant weights of the three-Beta combination (first weight normalized to 1)."""
    return (1.0, *_constants(delta1, u0)[4:])


def hg_three_beta(delta1: float, u0: float, z) -> complex:
    """Three-Beta combination evaluated by folding the neighbour recurrence.

    Each fold peels off an elementary head and pushes the Beta weight one
    index up; for these weights the final Beta coefficient cancels, so the
    sum is elementary for any finite ``z != 1``, ``0j`` at ``z = 0`` (the
    ``z``-power honours an :class:`UnwoundPoint` argument).
    """
    big_r, _, _, _, c1, c2 = _constants(delta1, u0)
    return fold_beta_sum((1.0, c1, c2), big_r, -1.0, z)


def _lattice_phase(cfg: N2Config, j, s):
    """:func:`phase_n2` at ``t0 + j T + s``; linear in ``j``, so a difference is origin-free."""
    d1, theta = cfg.delta1, cfg.delta * s
    sg = math.copysign(1.0, d1)
    rho = math.sqrt((abs(d1) - 1.0) / (abs(d1) + 1.0))
    wind = np.angle(1.0 - sg * rho * np.exp(1j * theta))
    return (d1 - 2.0 * sg) * (theta + 2.0 * math.pi * j) + 4.0 * sg * wind


def phase_n2(cfg: N2Config, t):
    """Accumulated phase modulation ``int_{t0}^{t} delta_t ds`` (scalar or array).

    With ``theta = delta (t - t0)``, ``s = sign(delta1)`` and
    ``rho = sqrt((|delta1| - 1)/(|delta1| + 1)) < 1`` the detuning is
    ``delta (delta1 - 2 s P(theta))`` with the Poisson kernel
    ``P = (1 - rho^2)/|1 - s rho exp(i theta)|^2``, whose integral is
    ``(delta1 - 2 s) theta + 4 s arg(1 - s rho exp(i theta))``.  The argument
    stays in the right half-plane, so its principal value is continuous and
    ``2 pi``-periodic in ``theta``; on the drive lattice ``t = t0 + k T + s``
    it is read at ``delta s``, and ``theta`` is ``delta s + 2 pi k``.
    """
    out = _lattice_phase(cfg, *drive_lattice("phase_n2", t, cfg.t0, cfg.period))
    return float(out) if np.isscalar(t) else out


def recover_a1(cfg: N2Config, a2_derivative, phase):
    """Companion amplitude: a1 = i * (da2/dt) * exp(-i phase) / U (scalar or array)."""
    # the factor has the shape of ``phase``: form it before it meets both solutions
    return a2_derivative * (1j / (cfg.u0 * cfg.delta) * np.exp(-1j * phase))


def _fundamental_pair(cfg: N2Config, j, s, phase) -> tuple[np.ndarray, np.ndarray]:
    """``(a1, a2)`` of the plus and minus fundamental solutions; axis 0 is the sign.

    A time ``t0 + k T + s`` enters by its offset ``s`` and its period count
    ``j = k - k_start`` from the window's start, as
    :func:`twostate.oracle.integrate` composes it: ``z`` and the bracket read
    ``theta = delta s`` (plus ``pi`` for ``delta1 < -1``), the Floquet factor
    is ``exp(i lambda (theta + 2 pi j))``, and ``a1`` reads ``phase``.
    """
    theta = cfg.delta * s + _angle_offset(cfg)
    rs = np.reshape((1.0, -1.0), (2,) + (1,) * np.ndim(s)) * _constants(cfg.delta1, cfg.u0)[0]
    lam = 0.5 * (cfg.delta1 + rs)
    zp = np.exp(1j * lam * (theta + 2.0 * math.pi * j))  # z^lambda / sqrt(a)^lambda
    z = math.sqrt(cfg.a) * np.exp(1j * theta)
    c, w = _bracket_weights(rs, cfg.delta1)      # the bracket's z-derivative is w / (1 - z)^2
    bracket = _bracket_at(c, w, cfg.delta1, z)
    da2 = 1j * cfg.delta * zp * (lam * bracket + z * (w / (1.0 - z) ** 2))
    return recover_a1(cfg, da2, phase), zp * bracket


def _matched_pair(owner: str, cfg: N2Config, state0: StateVector, t_start: float, times=()):
    """Weights ``(C+, C-)`` matching ``state0`` at ``t_start``, and the pair at ``times``.

    One drive-lattice split serves the times and ``t_start`` (last); the
    phase is ``state0.phase`` plus its increment from ``t_start``.
    """
    if not abs(state0.norm - 1.0) <= 1e-6:     # NaN fails the checks written this way
        raise ParameterError(f"{owner}: state must be normalized, |state|^2 = {state0.norm}")
    k, s = drive_lattice(owner, np.append(times, t_start), cfg.t0, cfg.period)
    j = k - k[-1]
    phase = _lattice_phase(cfg, j, s)
    a1, a2 = _fundamental_pair(cfg, j, s, state0.phase + (phase - phase[-1]))
    (a1p, a1m), (vp, vm) = a1[:, -1].tolist(), a2[:, -1].tolist()
    det = a1p * vm - a1m * vp
    if not abs(det) > 1e-12 * max(abs(a1p * vm) + abs(a1m * vp), 1e-300):
        raise SingularSystemError(f"{owner}: fundamental solutions are numerically dependent")
    weights = (state0.a1 * vm - state0.a2 * a1m) / det, (state0.a2 * a1p - state0.a1 * vp) / det
    return weights, a1[:, :-1], a2[:, :-1]


def match_initial(cfg: N2Config, state0: StateVector, t_start: float) -> tuple[complex, complex]:
    """Weights (C+, C-) of the fundamental pair matching ``state0`` at ``t_start``.

    ``state0.phase`` is the accumulated phase modulation at ``t_start``, as
    :func:`twostate.oracle.integrate` reads it; the pair is the one of
    :func:`closed_form_states`, whose Floquet factor counts periods from
    ``t_start``.
    """
    return _matched_pair("match_initial", cfg, state0, t_start)[0]


def closed_form_states(cfg: N2Config, state0: StateVector, t_start: float, times
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Matched analytic trajectory ``(a1(t), a2(t))`` on a 1-D array of times.

    ``state0`` is the state at ``t_start`` and ``state0.phase`` the
    accumulated phase modulation there, as :func:`twostate.oracle.integrate`
    reads them, so both sources give one trajectory for one ``state0``.
    """
    (c_plus, c_minus), a1, a2 = _matched_pair("closed_form_states", cfg, state0, t_start, times)
    return c_plus * a1[0] + c_minus * a1[1], c_plus * a2[0] + c_minus * a2[1]


def floquet_analytic(cfg: N2Config) -> FloquetReport:
    """Quasi-energies (drive-scaled units): lambda_{1,2} = (delta1 -+ R)/2.

    The one nearer zero, lambda1 for delta1 > 0 and lambda2 for delta1 < 0, is
    -+2 u0^2 / (R + |delta1|), the same number without the cancellation of
    delta1 -+ R, so it keeps its relative accuracy at large |delta1|.

    The same pair holds for every terminated member of the hierarchy
    (:func:`twostate.heun.termination_search`), not only this model.  A
    member's a2 is ``z^alpha1`` times a folded finite Beta sum, and each head
    of the fold, ``z^(gamma0+k) (1-z)^(1-N)`` with ``k`` and ``1 - N``
    integers, winds once per period as ``z = sqrt(a) exp(i theta)`` does.  So
    over one period a2 gains ``exp(2 pi i (alpha1 + gamma0))``, and
    ``alpha1 + gamma0 = (delta1 -+ R)/2`` in scaled units, at every order and
    every root.  The oracle's monodromy of the 93 members up to N = 7 that
    the search reports at delta1 = 2, -2.5 and 3.5 agrees to 3.5e-12 mod 1.
    """
    d1 = cfg.delta1
    big_r = _constants(d1, cfg.u0)[0]
    small = 2.0 * cfg.u0 * cfg.u0 / (big_r + abs(d1))
    if d1 > 0:
        return FloquetReport(lambda1=-small, lambda2=0.5 * (d1 + big_r))
    return FloquetReport(lambda1=0.5 * (d1 - big_r), lambda2=small)


def harmonic_content(cfg: N2Config, n_harmonics: int) -> HarmonicLadder:
    """Fourier ladder of the periodic bracket of the plus-sign fundamental solution.

    The geometric structure of ``1/(1 - z)`` on a circle of radius != 1 makes
    the ladder one-sided: descending harmonics for radius > 1 (the expansion
    proceeds in ``1/z``), ascending ones for radius < 1.  All ladder weights
    carry the factor ``R + delta1 != 0``, so no harmonic is absent.
    """
    if not (isinstance(n_harmonics, numbers.Integral) and n_harmonics >= 1):
        raise ParameterError(f"harmonic_content: n_harmonics must be an integer >= 1, "
                             f"got {n_harmonics!r}")
    base = math.sqrt(cfg.a) * math.cos(_angle_offset(cfg))  # -sqrt(a) on the shifted branch
    _, c, w, _, _, _ = _constants(cfg.delta1, cfg.u0)
    k = np.arange(1, n_harmonics + 1)   # integer exponents: base may be negative
    if abs(base) > 1.0:
        coeffs = np.concatenate(([c + 0j], -w * base**(-k)))
        return HarmonicLadder(direction=-1, coeffs=coeffs)
    coeffs = np.concatenate(([c + 0j], w * base**k))
    return HarmonicLadder(direction=+1, coeffs=coeffs)
