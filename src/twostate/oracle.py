"""Independent numerical ground truth for the driven two-state system.

Solves the raw coupled amplitude equations

    i da1/dt = U(t) exp(-i delta(t)) a2,
    i da2/dt = U(t) exp(+i delta(t)) a1,

with the phase modulation ``delta(t)``, ``delta' = delta_t``, co-integrated.
In the co-rotating variable ``c1 = a1 exp(+i delta(t))`` they read
``c' = A(t) c`` with ``A = [[i delta_t, -i U], [-i U, 0]]``.  The
:class:`~twostate.fields.DriveField` contract makes ``A`` ``period``-periodic
and even about the drive's symmetry centre ``c``, and ``A`` is complex
symmetric (``A^T = A``).  The fundamental matrix ``Y`` (``Y(c) = I``) and the
phase then satisfy

    Y(c - s) = Y(c + s)^{-T},           delta(c - s) = -delta(c + s),
    Y(c + s + k T) = Y(c + s) M^k,      delta(c + s + k T) = delta(c + s) + k Phi,

the first line by reflection (``Y(c - s)`` and ``Y(c + s)^{-T}`` solve the
same equation in ``s`` from ``I``), the second by Floquet's theorem.  With
``Y_h = Y(c + T/2)`` the monodromy matrix is ``M = Y(c - T/2)^{-1} Y_h =
Y_h^T Y_h``, exactly complex symmetric, and ``Phi = 2 delta(c + T/2)``.  So
one adaptive solve of ``[Y, delta]`` over half a period, ``[c, c + T/2]``,
gives every sample of any window through 2x2 products, and its end point
gives the monodromy matrix, which is unitary and whose eigenvalue arguments
are the quasi-energies of the amplitude equation modulo the drive frequency.
The composition adds no truncation error of its own: the one-period error
``eps_M`` is carried coherently, so a sample ``k`` periods out is off by about
``k eps_M``.  Nothing here shares code with the analytic modules: agreement
between the two is the package's core correctness check.

The half-period solve is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, Sec. II.10) in the oracle's own step loop: a
step-for-step port of ``scipy.integrate.DOP853`` specialised to the five
components ``[Y, delta]``, with scipy's tableau, error norm and step
controller, so the same steps and right-hand-side calls, run on Python
complex scalars instead of scipy's per-step array machinery.  The tableau is
read once from ``scipy.integrate.DOP853`` and :func:`mean_detuning` calls
``scipy.integrate.quad``; both import scipy inside the function, not at
module level: importing scipy takes several times longer than the
closed-form commands themselves, and ``twostate.cli`` imports this module
for every command.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError
from .fields import DriveField, StateVector

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_MIN_RTOL = 1e-13
# work bound of one half-period solve: a dense solve at rtol 1e-11 makes about
# 180 |delta1| right-hand-side calls, so this admits |delta1| up to ~1,100
_MAX_RHS_CALLS = 200_000


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


@functools.cache
def _dop853():
    """The tableau of ``scipy.integrate.DOP853`` as Python floats, each zero dropped.

    Returns ``(nodes, a, b, e5, e3, nodes_extra, a_extra, d)``.  ``a``
    (stages 1..11) and ``a_extra`` (the three dense-output stages) hold one
    tuple of ``(j, a_sj)`` pairs per stage and ``nodes`` and ``nodes_extra``
    their times as fractions of the step; ``b``, ``e5`` and ``e3`` are the
    ``(j, w_j)`` pairs of the solution and of the two error estimators, and
    ``d`` maps the 16 stages to the four higher interpolant rows.
    """
    from scipy.integrate import DOP853 as rk

    def nonzero(row):
        return tuple((j, float(x)) for j, x in enumerate(row) if x != 0.0)

    n = rk.n_stages
    d = np.array(rk.D, dtype=float)
    d.flags.writeable = False              # shared by every caller of the cache
    return (tuple(map(float, rk.C[1:])),
            tuple(nonzero(row[:s]) for s, row in enumerate(rk.A) if s > 0),
            nonzero(rk.B), nonzero(rk.E5), nonzero(rk.E3),
            tuple(map(float, rk.C_EXTRA)),
            tuple(nonzero(row[:n + 1 + i]) for i, row in enumerate(rk.A_EXTRA)), d)


def _stage_state(y, h, terms, ks):
    """``Y + h sum_j a_j k_j`` over the four ``Y`` components: the right-hand side
    never reads the phase, so a stage's argument skips it."""
    s0 = s1 = s2 = s3 = 0.0
    for j, a in terms:
        k0, k1, k2, k3, _ = ks[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return y[0] + h * s0, y[1] + h * s1, y[2] + h * s2, y[3] + h * s3


def _weighted(terms, ks):
    """``sum_j w_j k_j`` over all five components."""
    s0 = s1 = s2 = s3 = s4 = 0.0
    for j, w in terms:
        k0, k1, k2, k3, k4 = ks[j]
        s0 += w * k0
        s1 += w * k1
        s2 += w * k2
        s3 += w * k3
        s4 += w * k4
    return s0, s1, s2, s3, s4


def _rms(x, scale) -> float:
    return math.sqrt(sum(abs(xi / si) ** 2 for xi, si in zip(x, scale)) / len(x))


@dataclass(frozen=True)
class _HalfPeriod:
    """The accepted steps of one half-period solve and, if dense, their interpolants."""

    t: np.ndarray                          # step times, c .. c + T/2
    y: np.ndarray                          # (5, steps + 1): [Y (row-major), delta] at each
    nfev: int                              # right-hand-side evaluations
    rows: np.ndarray | None                # (steps, 7, 5) DOP853 interpolant rows, if dense

    def __call__(self, t) -> np.ndarray:
        """Dense ``[Y, delta]`` at the times ``t``, one column each.

        The step is chosen as scipy's ``OdeSolution`` chooses it: a time on a
        step boundary belongs to the step that ends there.
        """
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, len(self.rows) - 1)
        t_old = self.t[seg]
        x = ((t - t_old) / (self.t[seg + 1] - t_old))[:, None]
        rows = self.rows[seg]
        y = np.zeros((len(t), 5), dtype=complex)
        for i in range(6, -1, -1):
            y += rows[:, i]
            y *= x if i % 2 == 0 else 1.0 - x
        return y.T + self.y[:, seg]


def _half_period_solve(owner: str, field: DriveField, rtol: float, atol: float,
                       dense: bool) -> _HalfPeriod:
    """One DOP853 solve of ``[Y (row-major), delta]`` from ``[I, 0]`` over ``[c, c + T/2]``.

    ``c`` is the drive's symmetry centre.  A step-for-step port of scipy's
    ``DOP853`` over the same span (module docstring), as
    :func:`twostate.heun._brent` is of ``brentq``: scipy's initial-step
    selection for an error estimator of order 7, its RMS error norm over all
    five components, its controller (safety 0.9, step factor in [0.2, 10],
    exponent -1/8, no growth right after a rejection) and its failure below
    ten spacings of floating-point numbers at the current time.  ``nfev``
    counts as scipy counts: two calls to start, 12 per attempted step and,
    with ``dense``, 3 per accepted step for the interpolant, whose rows are
    built for all steps at once after the loop.  A solve that needs more than
    ``_MAX_RHS_CALLS`` calls raises :class:`IntegrationError`.
    """
    # a non-finite tolerance would make the solver step forever
    if not (_MIN_RTOL <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise ParameterError(f"{owner}: need {_MIN_RTOL} <= rtol < inf and 0 <= atol < inf, "
                             f"got rtol={rtol}, atol={atol}")
    nodes, a, b, e5, e3, nodes_extra, a_extra, d = _dop853()
    u, delta_t = field.u, field.delta_t

    def rhs(t, y):
        # A(t) @ Y with A = [[i delta_t, -i U], [-i U, 0]], then delta' = delta_t
        y11, y12, y21, y22 = y
        iu = 1j * u(t)
        dt = delta_t(t)
        idt = 1j * dt
        return idt * y11 - iu * y21, idt * y12 - iu * y22, -iu * y11, -iu * y12, dt

    too_small = (f"{owner}: solver failed: Required step size is less than spacing "
                 f"between numbers.")
    t = c = field.center
    t_end = c + 0.5 * field.period
    if not t_end > c:                      # half a period rounds away at the centre
        raise IntegrationError(too_small)
    y = (1.0 + 0j, 0j, 0j, 1.0 + 0j, 0.0)
    f = rhs(t, y[:4])

    # the initial step, as scipy's select_initial_step
    length = t_end - t
    scale0 = [atol + abs(yi) * rtol for yi in y]
    d0, d1 = _rms(y, scale0), _rms(f, scale0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1 = rhs(t + h0, [yi + h0 * fi for yi, fi in zip(y[:4], f)])
    d2 = _rms([p - q for p, q in zip(f1, f)], scale0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, length)
    nfev = 2

    ts, ys, stages = [t], [y], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(too_small)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            ks = [f]
            for c_s, a_s in zip(nodes, a):
                ks.append(rhs(t + c_s * h, _stage_state(y, h, a_s, ks)))
            y_new = tuple(yi + h * si for yi, si in zip(y, _weighted(b, ks)))
            f_new = rhs(t_new, y_new[:4])
            ks.append(f_new)
            nfev += 12
            if nfev > _MAX_RHS_CALLS:
                raise IntegrationError(f"{owner}: more than {_MAX_RHS_CALLS} right-hand-side "
                                       f"calls over half a period; the drive varies too fast "
                                       f"for the oracle")
            err5 = err3 = 0.0
            for p, q, r5, r3 in zip(y, y_new, _weighted(e5, ks), _weighted(e3, ks)):
                scale = atol + max(abs(p), abs(q)) * rtol
                err5 += abs(r5 / scale) ** 2
                err3 += abs(r3 / scale) ** 2
            error_norm = 0.0 if err5 == 0 and err3 == 0 else (
                h * err5 / math.sqrt((err5 + 0.01 * err3) * 5))
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm ** (-1 / 8))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            rejected = True
        if dense:
            for c_s, a_s in zip(nodes_extra, a_extra):
                ks.append(rhs(t + c_s * h, _stage_state(y, h, a_s, ks)))
            nfev += 3
            stages.append(ks)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)

    t_arr, y_arr = np.array(ts), np.array(ys, dtype=complex)
    rows = None
    if dense:
        k = np.array(stages, dtype=complex)                    # (steps, 16, 5)
        h = np.diff(t_arr)[:, None]
        dy = y_arr[1:] - y_arr[:-1]
        # scipy's Dop853DenseOutput rows; stage 12 is the derivative at the step's end
        rows = np.empty((len(k), 7, 5), dtype=complex)
        rows[:, 0] = dy
        rows[:, 1] = h * k[:, 0] - dy
        rows[:, 2] = 2 * dy - h * (k[:, 12] + k[:, 0])
        rows[:, 3:] = h[:, None] * np.einsum("ij,sjc->sic", d, k)
    return _HalfPeriod(t=t_arr, y=y_arr.T, nfev=nfev, rows=rows)


def _reflect(sol, s) -> np.ndarray:
    """``[Y (row-major), delta]`` at ``c + s`` for ``|s| <= T/2``, one column per offset.

    Read from the dense half-period solution at ``c + |s|``; for ``s < 0``
    ``Y(c - |s|) = Y(c + |s|)^{-T}`` and ``delta(c - |s|) = -delta(c + |s|)``.
    """
    y = sol(sol.t[0] + np.abs(s))
    det = y[0] * y[3] - y[1] * y[2]
    inv_t = np.array([y[3], -y[2], -y[1], y[0]]) / det
    return np.where(s < 0, np.vstack((inv_t, -y[4])), y)


def _lattice(field: DriveField, t) -> tuple[np.ndarray, np.ndarray]:
    """Periods ``k`` and offsets ``s`` in ``[-T/2, T/2]`` with ``t = c + k T + s``."""
    T, x = field.period, np.asarray(t, dtype=float) - field.center
    k = np.round(x / T)
    return k.astype(int), np.clip(x - k * T, -0.5 * T, 0.5 * T)


def _monodromy_at_centre(sol) -> tuple[np.ndarray, float]:
    """``M(c) = Y_h^T Y_h`` with ``Y_h = Y(c + T/2)``, and the phase gained over one period."""
    y_h = sol.y[:4, -1].reshape(2, 2)
    return y_h.T @ y_h, 2.0 * sol.y[4, -1].real


def integrate(field: DriveField, state0: StateVector, t_span: tuple[float, float],
              t_eval=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
              ) -> Trajectory:
    """Amplitude-equation samples composed from one half-period solve (DOP853 8(5,3)).

    ``Y`` and ``delta`` are integrated with dense output over ``[c, c + T/2]``
    only, ``c`` being the drive's symmetry centre.  A time ``t = c + k T + s``
    with ``|s| <= T/2`` has ``Y(t) = Y(c + s) M^k`` and
    ``delta(t) = delta(c + s) + k Phi``, ``Y(c + s)`` for ``s < 0`` coming from
    reflection (module docstring).  The transfer matrix of any window, forward
    or backward, is ``U(t, t_start) = Y(t) Y(t_start)^{-1}``, applied to
    ``c0 = (a1 exp(i delta0), a2)``; then
    ``delta = delta0 + delta(t) - delta(t_start)`` and ``a1 = c1 exp(-i delta)``.
    The cost therefore does not grow with the number of periods, while the
    error grows like ``k eps_M``, ``eps_M`` being the error of the one-period
    matrix.  ``nfev`` counts the calls of the one solve, dense-output stages
    included; neither it nor any sample's value depends on ``t_eval``.

    ``state0.phase`` seeds the accumulated phase modulation at ``t_span[0]``;
    pass 0 when starting at the drive's time origin.  ``t_span`` may run
    backward (``t_span[1] < t_span[0]``); it must be finite and of nonzero
    length, and ``t_eval`` strictly monotone within it.  Without ``t_eval`` the
    samples are the solver's half-period steps, reflected about ``c`` and tiled
    over the span, cut at its ends, with both end points included.
    """
    T, c = field.period, field.center
    t_start, t_end = float(t_span[0]), float(t_span[1])
    span = t_end - t_start
    if not (math.isfinite(span) and span != 0.0):
        raise ParameterError(f"integrate: t_span must be finite and of nonzero length, "
                             f"got {t_span}")
    sign = -1.0 if span < 0 else 1.0
    if t_eval is not None:
        times = np.array(t_eval, dtype=float)
        x = sign * (times - t_start)
        # written so that a NaN sample fails every comparison
        if not (x.size and np.all(x >= 0) and np.all(x <= abs(span)) and np.all(np.diff(x) > 0)):
            raise ParameterError("integrate: t_eval must be non-empty, finite and strictly "
                                 "monotone within t_span")
    sol = _half_period_solve("integrate", field, rtol, atol, dense=True)
    if t_eval is None:
        steps = sol.t - c                                        # [0, T/2]
        cell = np.concatenate((-steps[:0:-1], steps[:-1]))       # [-T/2, T/2)
        lo, hi = min(t_start, t_end), max(t_start, t_end)
        ks = np.arange(math.floor((lo - c) / T) - 1, math.ceil((hi - c) / T) + 2)
        grid = (c + ks[:, None] * T + cell).ravel()
        inner = grid[(grid > lo) & (grid < hi)][::int(sign)]
        times = np.concatenate(([t_start], inner, [t_end]))
    m, phase_period = _monodromy_at_centre(sol)
    k, s = _lattice(field, times)
    k0, s0 = _lattice(field, t_start)
    y = _reflect(sol, s)
    y0 = _reflect(sol, np.array([s0]))[:, 0]
    # M^j v0 for the whole periods j = k - k0 from t_start, v0 = Y(t_start)^-1 c0
    c0 = np.array([state0.a1 * cmath.exp(1j * state0.phase), state0.a2], dtype=complex)
    j = k - k0
    j_lo, j_hi = min(int(j.min()), 0), max(int(j.max()), 0)
    forward = [np.linalg.solve(y0[:4].reshape(2, 2), c0)]
    backward = forward[:]
    for _ in range(j_hi):
        forward.append(m @ forward[-1])
    m_inv = np.linalg.inv(m)
    for _ in range(-j_lo):
        backward.append(m_inv @ backward[-1])
    v = np.array(backward[:0:-1] + forward)[j - j_lo].T
    c1 = y[0] * v[0] + y[1] * v[1]
    a2 = y[2] * v[0] + y[3] * v[1]
    phase = state0.phase + (y[4].real - y0[4].real) + j * phase_period
    a1 = c1 * np.exp(-1j * phase)
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - state0.norm)))
    return Trajectory(times=times, a1=a1, a2=a2, phase=phase, norm_drift=drift, nfev=sol.nfev)


def monodromy(field: DriveField, t_ref: float = 0.0,
              rtol: float = 1e-11, atol: float = 1e-13) -> MonodromyResult:
    """One-period transfer matrix and Floquet exponents of the drive.

    At the symmetry centre the matrix is ``M(c) = Y_h^T Y_h``, from the end
    point ``Y_h = Y(c + T/2)`` of the half-period solve that :func:`integrate`
    composes its samples from, and so exactly complex symmetric.  At any other
    reference time it is ``M(t_ref) = Y(t_ref) M(c) Y(t_ref)^{-1}``; only a
    ``t_ref`` off the lattice ``c + k T`` needs the solve's dense output.
    Eigenvalue arguments divided by the period give the exponents, folded into
    ``[-Delta/2, Delta/2)`` with ``Delta = 2 pi / T``.
    """
    if not math.isfinite(t_ref):
        raise ParameterError(f"monodromy: t_ref must be finite, got {t_ref}")
    T = field.period
    _, s = _lattice(field, t_ref)
    off_lattice = bool(s != 0.0)
    sol = _half_period_solve("monodromy", field, rtol, atol, dense=off_lattice)
    m, _ = _monodromy_at_centre(sol)
    if off_lattice:
        y = _reflect(sol, np.array([s]))[:4, 0].reshape(2, 2)
        m = y @ m @ np.linalg.inv(y)
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
