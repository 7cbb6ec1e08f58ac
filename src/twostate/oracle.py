"""Independent numerical ground truth for the driven two-state system.

Solves the raw coupled amplitude equations

    i da1/dt = U(t) exp(-i delta(t)) a2,
    i da2/dt = U(t) exp(+i delta(t)) a1,

with the phase modulation ``delta(t)``, ``delta' = delta_t``, co-integrated.
In the co-rotating variable ``c1 = a1 exp(+i delta(t))`` they read
``c' = A(t) c`` with ``A = [[i delta_t, -i U], [-i U, 0]]``, whose
coefficients are ``period``-periodic (the :class:`~twostate.fields.DriveField`
contract).  By Floquet's theorem the fundamental matrix ``Y`` (``Y(t0) = I``)
and the phase then satisfy

    Y(t0 + s + k T) = Y(t0 + s) M^k,    delta(t0 + s + k T) = delta(t0 + s) + k Phi,

with the monodromy matrix ``M = Y(t0 + T)`` and ``Phi`` the phase gained over
one period.  So one adaptive solve of ``[Y, delta]`` over a single period gives
every sample of any window through 2x2 products, and its end point is the
monodromy matrix, which is unitary and whose eigenvalue arguments are the
quasi-energies of the amplitude equation modulo the drive frequency.  The
composition adds no truncation error of its own: the one-period error
``eps_M`` is carried coherently, so a sample ``k`` periods out is off by about
``k eps_M``.  Nothing here shares code with the analytic modules: agreement
between the two is the package's core correctness check.

``scipy.integrate`` is imported inside :func:`_period_solve` and
:func:`mean_detuning`, the two functions that call it, not at module level:
importing scipy takes several times longer than the closed-form commands
themselves, and ``twostate.cli`` imports this module for every command.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError
from .fields import DriveField, StateVector

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_MIN_RTOL = 1e-13


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution plus a norm-conservation figure of merit."""

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    phase: np.ndarray
    norm_drift: float
    nfev: int                              # right-hand-side evaluations

    @property
    def pop2(self) -> np.ndarray:
        return np.abs(self.a2) ** 2

    @property
    def norm(self) -> np.ndarray:
        return np.abs(self.a1) ** 2 + np.abs(self.a2) ** 2

    def state_at(self, i: int) -> StateVector:
        return StateVector(a1=complex(self.a1[i]), a2=complex(self.a2[i]),
                           phase=float(self.phase[i]))


@dataclass(frozen=True)
class MonodromyResult:
    """One-period transfer matrix in co-rotating variables and its spectrum."""

    matrix: np.ndarray                     # 2x2 complex
    eigenvalues: tuple[complex, complex]
    exponents: tuple[float, float]         # in [-Delta/2, Delta/2)
    unitarity_error: float                 # max entry of |M^H M - I|
    nfev: int                              # right-hand-side evaluations

    @property
    def det_modulus(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))


def _period_solve(owner: str, field: DriveField, t0: float, h: float, rtol: float,
                  atol: float, dense: bool = False):
    """One DOP853 solve of ``[Y (row-major), delta]`` from ``[I, 0]`` over ``[t0, t0 + h]``.

    ``h`` is at most one period long, so ``Y(t0 + h)`` is the monodromy matrix
    when ``|h| = T``; ``dense`` asks ``solve_ivp`` for dense output.
    """
    # a non-finite time or tolerance makes solve_ivp step forever instead of failing
    if not (math.isfinite(t0) and math.isfinite(h) and h != 0.0):
        raise ParameterError(f"{owner}: need a finite start time and a finite, nonzero "
                             f"window, got t0={t0}, h={h}")
    if not (_MIN_RTOL <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise ParameterError(f"{owner}: need {_MIN_RTOL} <= rtol < inf and 0 <= atol < inf, "
                             f"got rtol={rtol}, atol={atol}")

    def rhs(t, y):
        # A(t) @ Y with A = [[i delta_t, -i U], [-i U, 0]], then delta' = delta_t
        y11, y12, y21, y22, _ = y.tolist()
        iu = 1j * field.u(t)
        dt = field.delta_t(t)
        idt = 1j * dt
        return [idt * y11 - iu * y21, idt * y12 - iu * y22, -iu * y11, -iu * y12, dt]

    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (t0, t0 + h), np.array([1, 0, 0, 1, 0], dtype=complex),
                    method="DOP853", dense_output=dense, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"{owner}: solver failed: {sol.message}")
    return sol


def integrate(field: DriveField, state0: StateVector, t_span: tuple[float, float],
              t_eval=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
              ) -> Trajectory:
    """Amplitude-equation samples composed from one one-period solve (DOP853 8(5,3)).

    ``Y`` and ``delta`` are integrated from ``t_span[0]`` over
    ``h = sign(span) min(|span|, T)`` only, with dense output.  A sample ``k``
    whole periods from ``t_span[0]``, at offset ``s`` into its period, is
    ``c = Y(s) M^k c0`` with ``c0 = (a1 exp(i delta0), a2)``,
    ``delta = delta0 + delta(s) + k Phi`` and ``a1 = c1 exp(-i delta)``, with
    ``Y(s)`` and ``delta(s)`` read from the dense solution.  The cost therefore
    does not grow with the number of periods, while the error grows like
    ``k eps_M``, ``eps_M`` being the error of the one-period matrix.  ``nfev``
    counts the calls of the one solve, dense-output stages included; neither it
    nor any sample's value depends on ``t_eval``.

    ``state0.phase`` seeds the accumulated phase modulation at ``t_span[0]``;
    pass 0 when starting at the drive's time origin.  Backward integration
    (``t_span[1] < t_span[0]``) composes the backward one-period matrix.
    ``t_span`` must be finite and of nonzero length, and ``t_eval`` strictly
    monotone within it; without ``t_eval`` the samples are the solver's steps
    over one period, tiled over the span and cut at ``t_span[1]``, with both
    end points included.
    """
    T = field.period
    t_start, t_end = float(t_span[0]), float(t_span[1])
    span = t_end - t_start
    if not math.isfinite(span):
        raise ParameterError(f"integrate: t_span must be finite, got {t_span}")
    sign = -1.0 if span < 0 else 1.0
    h = sign * min(abs(span), T)
    if t_eval is not None:
        times = np.array(t_eval, dtype=float)
        x = sign * (times - t_start)
        # written so that a NaN sample fails every comparison
        if not (x.size and np.all(x >= 0) and np.all(x <= abs(span)) and np.all(np.diff(x) > 0)):
            raise ParameterError("integrate: t_eval must be non-empty, finite and strictly "
                                 "monotone within t_span")
    sol = _period_solve("integrate", field, t_start, h, rtol, atol, dense=True)
    if t_eval is None:
        x = sign * (sol.t[:-1] - t_start)
        x = (np.arange(math.ceil(abs(span) / T))[:, None] * T + x).ravel()
        x = np.append(x[x < abs(span)], abs(span))
        times = np.append(t_start + sign * x[:-1], t_end)
    # whole periods before each sample, then Y and delta at its offset into the period
    k = np.floor(x / T).astype(int)
    y = sol.sol(t_start + sign * np.clip(x - k * T, 0.0, abs(h)))
    m, phase_period = sol.y[:4, -1].reshape(2, 2), sol.y[4, -1].real
    powers = [np.array([state0.a1 * cmath.exp(1j * state0.phase), state0.a2], dtype=complex)]
    for _ in range(int(k.max())):
        powers.append(m @ powers[-1])
    v = np.array(powers)[k].T                                  # M^k c0 per sample
    c1 = y[0] * v[0] + y[1] * v[1]
    a2 = y[2] * v[0] + y[3] * v[1]
    phase = state0.phase + y[4].real + k * phase_period
    a1 = c1 * np.exp(-1j * phase)
    norm0 = abs(state0.a1) ** 2 + abs(state0.a2) ** 2
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - norm0)))
    return Trajectory(times=times, a1=a1, a2=a2, phase=phase, norm_drift=drift, nfev=sol.nfev)


def monodromy(field: DriveField, t_ref: float = 0.0,
              rtol: float = 1e-11, atol: float = 1e-13) -> MonodromyResult:
    """One-period transfer matrix and Floquet exponents of the drive.

    The matrix is ``Y(t_ref + T)``, the end point of the one-period solve that
    :func:`integrate` composes its samples from; eigenvalue arguments divided by
    the period give the exponents, folded into ``[-Delta/2, Delta/2)`` with
    ``Delta = 2 pi / T``.
    """
    T = field.period
    sol = _period_solve("monodromy", field, t_ref, T, rtol, atol)
    m = sol.y[:4, -1].reshape(2, 2)
    eig = np.linalg.eigvals(m)
    delta = 2.0 * math.pi / T
    exps = tuple(wrap_mod(float(np.angle(ev)) / T, delta) for ev in eig)
    unitarity = float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
    return MonodromyResult(matrix=m, eigenvalues=(complex(eig[0]), complex(eig[1])),
                           exponents=exps, unitarity_error=unitarity, nfev=sol.nfev)


def wrap_mod(x: float, delta: float) -> float:
    """Fold ``x`` into the fundamental interval [-delta/2, delta/2)."""
    return (x + 0.5 * delta) % delta - 0.5 * delta


def mod_distance(x: float, y: float, delta: float) -> float:
    """Distance between ``x`` and ``y`` modulo ``delta``."""
    return abs(wrap_mod(x - y, delta))


def exponent_pair_residual(analytic: tuple[float, float], measured: tuple[float, float],
                           delta: float) -> float:
    """Best-pairing mod-delta residual between two exponent pairs."""
    a, b = analytic
    u, v = measured
    direct = max(mod_distance(a, u, delta), mod_distance(b, v, delta))
    swapped = max(mod_distance(a, v, delta), mod_distance(b, u, delta))
    return min(direct, swapped)


def mean_detuning(field: DriveField) -> float:
    """Period average of the detuning by adaptive quadrature."""
    from scipy.integrate import quad

    val, _err = quad(field.delta_t, 0.0, field.period, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val / field.period


def rabi_population(u0: float, delta1: float, t) -> np.ndarray:
    """Excited-state population of the constant-detuning flopping model.

    Reference formula ``(4 u0^2 / R^2) sin^2(R t / 2)`` with
    ``R = sqrt(4 u0^2 + delta1^2)``, for a system started in the ground
    state; used to validate the integrator against a known solution.
    """
    big_r = math.sqrt(4.0 * u0 * u0 + delta1 * delta1)
    return (4.0 * u0 * u0 / big_r**2) * np.sin(0.5 * big_r * np.asarray(t)) ** 2
