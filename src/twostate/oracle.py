"""Independent numerical ground truth for the driven two-state system.

Integrates the raw coupled amplitude equations

    i da1/dt = U(t) exp(-i delta(t)) a2,
    i da2/dt = U(t) exp(+i delta(t)) a1,

as one complex state ``[a1, a2, phase]``: the phase modulation ``delta(t)`` is
co-integrated as a third component whose imaginary part stays zero, so the
oscillating factors stay consistent with the detuning callable to integrator
accuracy.  Nothing here shares code with the analytic modules: agreement
between the two is the package's core correctness check.

Floquet data comes from the monodromy matrix, the fundamental matrix after one
period, of the equivalent periodic system in the co-rotating variable
``c1 = a1 exp(+i delta(t))``; in these variables the coefficients are periodic
in time, the one-period transfer matrix is unitary, and the eigenvalue
arguments are the quasi-energies of the amplitude equation modulo the drive
frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

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


def _solve(owner: str, rhs, t_span, y0, rtol: float, atol: float, t_eval=None):
    # a non-finite tolerance makes solve_ivp step forever instead of failing
    if not (_MIN_RTOL <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise ParameterError(f"{owner}: need {_MIN_RTOL} <= rtol < inf and 0 <= atol < inf, "
                             f"got rtol={rtol}, atol={atol}")
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"{owner}: solver failed: {sol.message}")
    return sol


def integrate(field: DriveField, state0: StateVector, t_span: tuple[float, float],
              t_eval=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
              ) -> Trajectory:
    """Adaptive Runge-Kutta integration of the amplitude equations (DOP853 8(5,3)).

    ``state0.phase`` seeds the accumulated phase modulation at ``t_span[0]``;
    pass 0 when starting at the drive's time origin.  Backward integration
    (``t_span[1] < t_span[0]``) is supported.
    """
    def rhs(t, y):
        a1, a2, phase = y.tolist()
        iu = 1j * field.u(t)
        rot = cmath.exp(-1j * phase.real)
        return [-iu * rot * a2, -iu * rot.conjugate() * a1, field.delta_t(t)]

    y0 = [complex(state0.a1), complex(state0.a2), complex(state0.phase)]
    sol = _solve("integrate", rhs, t_span, y0, rtol, atol, t_eval)
    a1, a2 = sol.y[0], sol.y[1]
    norm0 = abs(state0.a1) ** 2 + abs(state0.a2) ** 2
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - norm0)))
    return Trajectory(times=sol.t, a1=a1, a2=a2, phase=sol.y[2].real, norm_drift=drift,
                      nfev=sol.nfev)


def monodromy(field: DriveField, t_ref: float = 0.0,
              rtol: float = 1e-11, atol: float = 1e-13) -> MonodromyResult:
    """One-period transfer matrix and Floquet exponents of the drive.

    The fundamental matrix ``Y`` of the co-rotating system
    ``c1' = i delta_t c1 - i U a2``, ``a2' = -i U c1`` (periodic coefficients)
    is propagated from the identity over ``[t_ref, t_ref + T]`` in one solve;
    eigenvalue arguments divided by the period give the exponents, folded into
    ``[-Delta/2, Delta/2)`` with ``Delta = 2 pi / T``.
    """
    def rhs(t, y):
        # A(t) @ Y with A = [[i delta_t, -i U], [-i U, 0]], Y row-major
        y11, y12, y21, y22 = y.tolist()
        iu = 1j * field.u(t)
        idt = 1j * field.delta_t(t)
        return [idt * y11 - iu * y21, idt * y12 - iu * y22, -iu * y11, -iu * y12]

    T = field.period
    sol = _solve("monodromy", rhs, (t_ref, t_ref + T), np.eye(2, dtype=complex).ravel(),
                 rtol, atol)
    m = sol.y[:, -1].reshape(2, 2)
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


def mean_detuning(field: DriveField, period: float | None = None) -> float:
    """Period average of the detuning by adaptive quadrature."""
    T = field.period if period is None else period
    val, _err = quad(field.delta_t, 0.0, T, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val / T


def rabi_population(u0: float, delta1: float, t) -> np.ndarray:
    """Excited-state population of the constant-detuning flopping model.

    Reference formula ``(4 u0^2 / R^2) sin^2(R t / 2)`` with
    ``R = sqrt(4 u0^2 + delta1^2)``, for a system started in the ground
    state; used to validate the integrator against a known solution.
    """
    big_r = math.sqrt(4.0 * u0 * u0 + delta1 * delta1)
    return (4.0 * u0 * u0 / big_r**2) * np.sin(0.5 * big_r * np.asarray(t)) ** 2
