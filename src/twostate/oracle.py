"""Independent numerical ground truth for the driven two-state system.

Integrates the raw coupled amplitude equations

    i da1/dt = U(t) exp(-i delta(t)) a2,
    i da2/dt = U(t) exp(+i delta(t)) a1,

with the phase modulation ``delta(t)`` co-integrated as an extra real state
component, so the oscillating factors stay consistent with the detuning
callable to integrator accuracy.  Nothing here shares code with the analytic
modules: agreement between the two is the package's core correctness check.

Floquet data comes from the monodromy matrix of the equivalent periodic
system in the co-rotating variable ``c1 = a1 exp(+i delta(t))``; in these
variables the coefficients are periodic in time, the one-period transfer
matrix is unitary, and the eigenvalue arguments are the quasi-energies of the
amplitude equation modulo the drive frequency.
"""

from __future__ import annotations

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
    """Dense sampled solution plus a norm-conservation figure of merit."""

    times: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    phase: np.ndarray
    norm_drift: float

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

    @property
    def det_modulus(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))


def _rhs(field: DriveField):
    def rhs(t, y):
        a1 = y[0] + 1j * y[1]
        a2 = y[2] + 1j * y[3]
        u = field.u(t)
        dt = field.delta_t(t)
        rot = np.exp(-1j * y[4])
        da1 = -1j * u * rot * a2
        da2 = -1j * u * np.conj(rot) * a1
        return [da1.real, da1.imag, da2.real, da2.imag, dt]
    return rhs


def _check_tolerances(owner: str, rtol: float, atol: float) -> None:
    # a non-finite tolerance makes solve_ivp step forever instead of failing
    if not (_MIN_RTOL <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise ParameterError(f"{owner}: need {_MIN_RTOL} <= rtol < inf and 0 <= atol < inf, "
                             f"got rtol={rtol}, atol={atol}")


def integrate(field: DriveField, state0: StateVector, t_span: tuple[float, float],
              t_eval=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
              ) -> Trajectory:
    """Adaptive 5(4) Runge-Kutta integration of the amplitude equations.

    ``state0.phase`` seeds the accumulated phase modulation at ``t_span[0]``;
    pass 0 when starting at the drive's time origin.  Backward integration
    (``t_span[1] < t_span[0]``) is supported.
    """
    _check_tolerances("integrate", rtol, atol)
    y0 = [state0.a1.real, state0.a1.imag, state0.a2.real, state0.a2.imag, state0.phase]
    sol = solve_ivp(_rhs(field), t_span, y0, method="RK45", dense_output=True,
                    t_eval=t_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"integrate: solver failed: {sol.message}")
    a1 = sol.y[0] + 1j * sol.y[1]
    a2 = sol.y[2] + 1j * sol.y[3]
    norm0 = abs(state0.a1) ** 2 + abs(state0.a2) ** 2
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - norm0)))
    return Trajectory(times=sol.t, a1=a1, a2=a2, phase=sol.y[4], norm_drift=drift)


def _corotating_rhs(field: DriveField):
    # c1' = i delta_t c1 - i U a2 ; a2' = -i U c1  (periodic coefficients)
    def rhs(t, y):
        c1 = y[0] + 1j * y[1]
        a2 = y[2] + 1j * y[3]
        u = field.u(t)
        dc1 = 1j * field.delta_t(t) * c1 - 1j * u * a2
        da2 = -1j * u * c1
        return [dc1.real, dc1.imag, da2.real, da2.imag]
    return rhs


def monodromy(field: DriveField, t_ref: float = 0.0,
              rtol: float = 1e-11, atol: float = 1e-13) -> MonodromyResult:
    """One-period transfer matrix and Floquet exponents of the drive.

    The two canonical basis states are propagated over ``[t_ref, t_ref + T]``
    in the co-rotating variables; eigenvalue arguments divided by the period
    give the exponents, folded into ``[-Delta/2, Delta/2)`` with
    ``Delta = 2 pi / T``.
    """
    _check_tolerances("monodromy", rtol, atol)
    T = field.period
    cols = []
    rhs = _corotating_rhs(field)
    for e in ((1.0, 0.0), (0.0, 1.0)):
        sol = solve_ivp(rhs, (t_ref, t_ref + T), [e[0], 0.0, e[1], 0.0],
                        method="RK45", rtol=rtol, atol=atol)
        if not sol.success:
            raise IntegrationError(f"monodromy: solver failed: {sol.message}")
        yf = sol.y[:, -1]
        cols.append([yf[0] + 1j * yf[1], yf[2] + 1j * yf[3]])
    m = np.array(cols, dtype=complex).T
    eig = np.linalg.eigvals(m)
    delta = 2.0 * math.pi / T
    exps = tuple(wrap_mod(float(np.angle(ev)) / T, delta) for ev in eig)
    return MonodromyResult(matrix=m, eigenvalues=(complex(eig[0]), complex(eig[1])),
                           exponents=exps)


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
