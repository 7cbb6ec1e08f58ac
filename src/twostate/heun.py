"""Series analytics for the driven two-state amplitude.

The excited-state amplitude of the general drive family satisfies, after the
variable change ``z(t) = sqrt(a) exp(i (t - t0))`` (scaled time, drive
frequency 1), a second-order Fuchsian ODE with regular singular points
``{0, 1, a, inf}``:

    u'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) u'
        + (alpha*beta*z - q) / (z (z-1) (z-a)) u = 0.

For this family the exponent ``alpha`` at infinity vanishes, which makes the
solution expandable in incomplete Beta functions,

    u(z) = sum_n c_n B_z(gamma0 + n, delta_n),   gamma0 = 1 - gamma,
    delta_n = 1 - delta  (independent of n),

with coefficients obeying a three-term recurrence.  The recurrence supports
right-hand termination: when ``epsilon = -N`` (equivalently delta2 = N) and
the accessory parameter ``q`` is a root of a degree-(N+1) polynomial, two
consecutive coefficients vanish and the series collapses to a finite sum.
This module builds the parameter map, runs the recurrence, assembles the
accessory-parameter polynomial, evaluates the (finite or truncated) series,
and classifies the termination hierarchy over N.

The termination search refines its constraint roots with Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4),
written out here as :func:`_brent` rather than imported from
``scipy.optimize``: loading that package costs a ``terminate`` run about
0.7 s and 40 MB, many times the search itself, and this module is otherwise
numpy only.  The port repeats scipy's ``brentq`` step for step
(same tolerances, same interpolate, extrapolate and bisect choices), so every
root is the float ``brentq`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConvergenceError, DomainError, ParameterError
from .fields import FieldConfig
from .specfun import UnwoundPoint, as_complex, fold_beta_sum, inc_beta, power

TERMINATION_RTOL = 1e-12   # two consecutive coefficients below this (rel.) terminate

# termination_search settings
_U0_PROBES = (0.5, 1.0, 2.0)   # couplings at which the constraint roots are compared
_A_GRID = 2001             # shape-parameter grid points bracketing the roots
_A_MIN = 1e-3              # bottom of the a-grid
_A_STEP_MAX = 0.025        # coarsest a-grid step searched (a_max <= ~50 from _A_MIN)
_ROOT_MATCH_ATOL = 1e-6    # constraint roots agreeing across couplings
_ROOT_XTOL = 1e-15         # Brent absolute tolerance on a constraint root
_BRENT_RTOL = 4.0 * np.finfo(float).eps   # Brent relative tolerance (scipy's brentq floor)
_BRENT_MAXITER = 100       # Brent iterations before ConvergenceError (scipy's default)


@dataclass(frozen=True)
class HeunParams:
    """The seven constants of the second-order Fuchsian ODE above."""

    a: float
    q: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    epsilon: complex

    def fuchs_residual(self) -> float:
        """|gamma + delta + epsilon - (alpha + beta + 1)|, zero for a valid set."""
        return abs(self.gamma + self.delta + self.epsilon - (self.alpha + self.beta + 1.0))


@dataclass(frozen=True)
class BetaSeries:
    """Expansion coefficients plus the common Beta-function parameters."""

    gamma0: complex
    delta_n: complex
    coeffs: np.ndarray          # c_0 .. c_M, c_0 = 1
    n_term: Optional[int]       # index N past which the coefficients vanish, if terminated

    @property
    def terminated(self) -> bool:
        return self.n_term is not None

    def active_coeffs(self) -> np.ndarray:
        """Coefficients that actually contribute (c_0..c_N if terminated)."""
        if self.terminated:
            return self.coeffs[: self.n_term + 1]
        return self.coeffs


def generalized_rabi(u0: float, delta1: float) -> float:
    """Constant-field flopping frequency sqrt(4 u0^2 + delta1^2)."""
    big_r = math.sqrt(4.0 * u0 * u0 + delta1 * delta1)
    if not math.isfinite(big_r):
        raise DomainError(f"generalized_rabi: sqrt(4 u0^2 + delta1^2) overflows or is NaN at "
                          f"u0 = {u0}, delta1 = {delta1}")
    return big_r


def map_to_heun(cfg: FieldConfig, sign: int) -> tuple[HeunParams, float]:
    """Map a drive configuration (scaled time, delta = 1) to ODE constants.

    ``sign`` (+1 or -1) selects the fundamental-solution branch; ``alpha1`` is the
    exponent of the series solution's prefactor ``z**alpha1``.  The exponent at
    infinity is zero for every member of the family, which licenses the Beta expansion.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"map_to_heun: sign must be +1 or -1, got {sign}")
    if cfg.delta != 1.0:
        raise ParameterError("map_to_heun: scaled configuration required (delta = 1); "
                             "use FieldConfig.scaled()")
    big_r = generalized_rabi(cfg.u0, cfg.delta1)
    gamma, alpha1 = _branch_constants(big_r, cfg.delta1, sign)
    return HeunParams(a=cfg.a, q=_accessory_q(cfg.a, cfg.delta2, alpha1), alpha=0.0,
                      beta=sign * big_r, gamma=gamma, delta=cfg.delta2,
                      epsilon=-cfg.delta2), alpha1


def _branch_constants(big_r, delta1: float, sign: int) -> tuple:
    """``(gamma, alpha1)`` of branch ``sign``; elementwise over an array ``big_r``."""
    return 1.0 + sign * big_r, 0.5 * (delta1 + sign * big_r)


def _accessory_q(a, delta2: float, alpha1):
    """The physical accessory parameter ``q = (a - 1) delta2 alpha1``; elementwise."""
    return (a - 1.0) * delta2 * alpha1


def _recurrence_terms(a, g, d, e, q, n: int) -> tuple:
    """``(R_n, Q_n, P_n)`` from the constants ``a, gamma, delta, epsilon, q`` as plain values."""
    rn = a * n * (n - g)
    qn = -a * n * (n + 1 - g - d) - (n + e) * (n + 1 - g) - q
    pn = (n + 2 - g - d) * (n + e)
    return rn, qn, pn


def expand(hp: HeunParams, max_terms: int = 40) -> BetaSeries:
    """Run the forward recurrence ``R_n c_n + Q_{n-1} c_{n-1} + P_{n-2} c_{n-2} = 0``.

    Right-hand termination at ``N = n - 2`` is flagged when two consecutive
    coefficients ``c_{n-1}, c_n`` drop below ``TERMINATION_RTOL`` relative to
    the largest coefficient seen, mirroring the analytic condition that two
    successive coefficients vanish.  Where ``P_{n-2} = 0`` (``epsilon = -N``),
    ``c_n = -Q_{n-1} c_{n-1} / R_n`` vanishes with ``c_{n-1}``, so ``c_{n-1}``
    alone decides, against the largest coefficient before ``c_n``: ``c_n``
    only amplifies the rounding of ``c_{n-1}``.
    """
    if hp.alpha != 0:
        raise ParameterError("expand: the Beta expansion requires alpha = 0")
    if max_terms < 2:
        raise ParameterError("expand: max_terms must be >= 2")

    rn, qn, pn = zip(*(_recurrence_terms(hp.a, hp.gamma, hp.delta, hp.epsilon, hp.q, n)
                       for n in range(max_terms + 1)))
    coeffs = [1.0 + 0j]
    cmax = 1.0
    n_term = None
    for n in range(1, max_terms + 1):
        num = qn[n - 1] * coeffs[n - 1]
        if n >= 2:
            num += pn[n - 2] * coeffs[n - 2]
        if rn[n] == 0:
            if abs(num) <= TERMINATION_RTOL * cmax:
                coeffs.append(0.0 + 0j)
                continue
            raise DomainError(f"expand: recurrence pivot vanishes at n={n} "
                              f"(gamma = {hp.gamma}) with nonzero numerator")
        c = -num / rn[n]
        coeffs.append(c)
        prev_small = abs(coeffs[n - 1]) <= TERMINATION_RTOL * cmax
        cmax = max(cmax, abs(c))
        if n >= 2 and (prev_small if pn[n - 2] == 0 else
                       abs(c) <= TERMINATION_RTOL * cmax
                       and abs(coeffs[n - 1]) <= TERMINATION_RTOL * cmax):
            n_term = n - 2
            break
    return BetaSeries(gamma0=1.0 - hp.gamma, delta_n=1.0 - hp.delta,
                      coeffs=np.array(coeffs, dtype=complex), n_term=n_term)


def _continuant(a, g, d, e, q, n_stop: int):
    """``d_{N+1}`` of the division-free tridiagonal-determinant recursion.

    ``d_n = Q_{n-1} d_{n-1} - P_{n-2} R_{n-1} d_{n-2}`` from ``d_0 = 1``, every
    coefficient taken from :func:`_recurrence_terms` at the constants ``a,
    gamma, delta, epsilon, q``; ``d_{N+1} = 0`` is equivalent to the vanishing
    of coefficient ``c_{N+1}``.  The constants may be numbers, arrays that
    broadcast together, or (``q`` only) the polynomial variable (a
    :class:`numpy.polynomial.Polynomial`), and the result has the same kind.
    """
    rn, qn, pn = zip(*(_recurrence_terms(a, g, d, e, q, n) for n in range(n_stop + 1)))
    d_prev, d_cur = 1.0, qn[0]
    for n in range(2, n_stop + 2):
        d_prev, d_cur = d_cur, qn[n - 1] * d_cur - pn[n - 2] * rn[n - 1] * d_prev
    return d_cur


def q_polynomial(hp: HeunParams, n_stop: int) -> np.ndarray:
    """Accessory-parameter polynomial whose roots terminate the series at N = n_stop.

    :func:`_continuant` with ``q`` the polynomial variable; ``hp.q`` itself
    is ignored.  The variable has complex dtype: with a real one the
    coefficients move by up to ~2e-12 of the largest.  Returns the ascending
    coefficient array of a degree-(N+1) polynomial.
    """
    if n_stop < 0:
        raise ParameterError(f"q_polynomial: N must be >= 0, got {n_stop}")
    eps_ok = abs(hp.epsilon + n_stop) <= 1e-9
    gd_ok = abs(hp.gamma + hp.delta - 2.0 - n_stop) <= 1e-9
    if not (eps_ok or gd_ok):
        raise ParameterError("q_polynomial: termination precondition fails "
                             f"(epsilon = {hp.epsilon}, gamma+delta-2 = {hp.gamma + hp.delta - 2})")
    return _continuant(hp.a, hp.gamma, hp.delta, hp.epsilon, Polynomial([0j, 1.0]), n_stop).coef


def eval_series(bs: BetaSeries, z) -> complex:
    """Value of the expansion at ``z`` (plain complex or :class:`UnwoundPoint`).

    A terminated series is folded to elementary functions at any ``z``,
    which succeeds exactly when the top Beta weight cancels (as it does for
    genuine terminated solutions); inside the unit disc the fold also avoids
    the cancellation among large Beta terms of the direct sum.  Any other
    series is summed through the incomplete Beta kernel, which converges
    inside the unit disc only.
    """
    zc = as_complex(z)
    if zc == 1.0:
        raise DomainError("eval_series: z = 1 is a singular point")
    if zc == 0.0:
        return 0j                   # every B_0(p, q) is 0, as in inc_beta
    if bs.terminated:
        return fold_beta_sum(bs.active_coeffs(), bs.gamma0, bs.delta_n, z)
    if abs(zc) >= 1.0:
        raise DomainError("eval_series: |z| >= 1 requires a terminated series")
    return sum((c * inc_beta(bs.gamma0 + n, bs.delta_n, z)
                for n, c in enumerate(bs.coeffs) if c != 0), 0j)


def series_solution(cfg: FieldConfig, sign: int
                    ) -> tuple[Callable[[float], complex], Callable[[float], complex]]:
    """Amplitude callables ``(a2(t), da2/dt(t))`` built from prefactor x series.

    Scaled time (cfg.delta must be 1).  The derivative uses the elementary
    closed form of ``dB_z/dz`` so no numerical differentiation is involved.
    ``z`` stays an :class:`UnwoundPoint`: its powers must not branch-snap.
    """
    hp, alpha1 = map_to_heun(cfg, sign)
    bs = expand(hp)
    sqa = math.sqrt(cfg.a)
    active = bs.active_coeffs()

    def a2(t: float) -> complex:
        pt = UnwoundPoint(sqa, t - cfg.t0)
        return power(pt, alpha1) * eval_series(bs, pt)

    def da2_dt(t: float) -> complex:
        pt = UnwoundPoint(sqa, t - cfg.t0)
        u = eval_series(bs, pt)
        zc = pt.value
        du = sum((c * power(pt, bs.gamma0 + n - 1) * (1.0 - zc) ** (bs.delta_n - 1.0)
                  for n, c in enumerate(active) if c != 0), 0j)
        return 1j * (alpha1 * power(pt, alpha1) * u + power(pt, alpha1 + 1.0) * du)

    return a2, da2_dt


@dataclass(frozen=True)
class TerminationRecord:
    """Outcome of the termination test at one series order N."""

    n: int
    status: str                 # "trivial" | "unconditional" | "conditional"
    roots_by_u0: dict           # probe coupling -> tuple of admissible shape-parameter roots
    drift: float                # max movement of matched roots across couplings


def _constraint_determinant(u0, delta1: float, delta2: float, a, n_stop: int):
    """:func:`_continuant` at the physical ``q`` of the sign -1 branch.

    Elementwise over an array ``a``; it vanishes where the termination
    constraint holds.  A tuple ``u0`` of couplings gives one row per coupling,
    bit for bit its value alone: their constants broadcast as (k, 1) columns.
    """
    big_r = (np.array([[generalized_rabi(u, delta1)] for u in u0]) if isinstance(u0, tuple)
             else generalized_rabi(u0, delta1))
    gamma, alpha1 = _branch_constants(big_r, delta1, -1)
    return _continuant(a, gamma, delta2, -delta2, _accessory_q(a, delta2, alpha1), n_stop)


def grid_roots(f, xs: np.ndarray, fx: np.ndarray, xtol: float, merge_tol: float) -> list[float]:
    """Sorted roots of the scalar function ``f`` on a grid ``xs`` with values ``fx = f(xs)``.

    Exact zeros on the grid are kept as they are; each sign change between
    nonzero neighbours is refined by :func:`_brent` to ``xtol``, starting from
    the grid values, so ``f`` must reproduce ``fx`` at the grid points.  A
    root within ``merge_tol`` of the previous one is dropped.  A non-finite
    ``f`` inside a bracket raises :class:`DomainError`; a refinement that has
    not converged raises :class:`ConvergenceError`.
    """
    neg = fx < 0
    roots = [float(x) for x in xs[fx == 0.0]]
    for i in np.flatnonzero((neg[:-1] != neg[1:]) & (fx[:-1] != 0.0) & (fx[1:] != 0.0)):
        roots.append(_brent(f, float(xs[i]), float(xs[i + 1]), float(fx[i]), float(fx[i + 1]),
                            xtol))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > merge_tol:
            merged.append(r)
    return merged


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _brent(f, xa: float, xb: float, fa: float, fb: float, xtol: float) -> float:
    """Root of ``f`` in ``[xa, xb]``, where ``fa = f(xa)`` and ``fb = f(xb)`` differ in sign.

    Brent's method as scipy's ``brentq`` runs it, step for step: the same
    interpolate, extrapolate and bisect choices, tolerance ``xtol +
    _BRENT_RTOL |x|`` and ``_BRENT_MAXITER`` iterations, so it returns the
    same float.  The bracket ends are not re-evaluated.  The iterates are
    numpy scalars, so a trial step that overflows or divides by zero is inf
    or nan without a warning, fails the acceptance test and bisects, as in
    scipy's C code.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):   # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if not math.isfinite(fcur):
            raise DomainError(f"grid_roots: the function is {fcur} at x = {xcur!r}, "
                              f"inside the bracket [{xa!r}, {xb!r}]")
    raise ConvergenceError(f"grid_roots: Brent's method did not converge in {_BRENT_MAXITER} "
                           f"iterations on [{xa!r}, {xb!r}]; last estimate {xcur!r}")


def termination_search(cfg: FieldConfig, n_max: int,
                       a_max: float = 8.0) -> list[TerminationRecord]:
    """Classify the termination hierarchy for N = 0..n_max with delta2 = N imposed.

    For each N the constraint "series terminates after N+1 terms" is solved
    for the shape parameter ``a`` at several couplings ``u0``.  A root set
    that does not move with ``u0`` means the coupling and the detuning are
    independent (unconditional); a drifting root set couples them
    (conditional).  Only ``cfg.delta1`` enters: the couplings probed are
    ``_U0_PROBES`` = (0.5, 1, 2), whatever ``cfg.u0`` is.  An order with no
    admissible root is trivial: its only solution is the degenerate constant
    detuning (delta2 = 0, or a = 1).  Every order terminates at a = 1, where
    q = 0 and delta = -epsilon = N reduce the ODE to ``u'' + (gamma/z) u' = 0``;
    its solution ``z^(1-gamma)/(1-gamma)`` is the (N+1)-term sum
    ``sum_k C(N,k) (-1)^k B_z(1-gamma+k, 1-N)``.

    Roots are bracketed on a fixed grid of ``_A_GRID`` points from ``_A_MIN``
    = 1e-3 to ``a_max``, so two roots within one step of it are missed.
    Against a 20 times finer grid (560 random inputs, u0 in [0.05, 20],
    |delta1| in [1.02, 12]) a step of 0.025 lost no root up to ``n_max`` 6,
    while roots were lost from a step of 0.125 at ``n_max`` 3, 0.1 at 6 and
    0.05 at 10.  A range whose step exceeds
    ``_A_STEP_MAX`` = 0.025 raises :class:`DomainError`.  That bound holds up
    to order 6 only: at ``n_max`` 10 even the default step of 0.004 lost a
    root within 0.035 of a = 1, at order 9 or 10, in 9 of 180 random inputs
    from the same ranges, so orders above 6 can miss roots near a = 1 at any
    step.
    """
    if n_max < 0:
        raise ParameterError(f"termination_search: n_max must be >= 0, got {n_max}")
    if not _A_MIN < a_max < math.inf:
        raise ParameterError(f"termination_search: need {_A_MIN} < a_max < inf, got {a_max}")
    avals, h = np.linspace(_A_MIN, a_max, _A_GRID, retstep=True)
    # a = 1 is excluded from the family: bracket on either side of it only
    sides = (avals < 1.0 - 0.5 * h, avals > 1.0 + 0.5 * h)
    # delta2 = 0 removes the modulation entirely; the constraint is vacuous
    # and the field is the constant-detuning flopping model
    records = [TerminationRecord(0, "trivial", {}, 0.0)]
    for n_stop in range(1, n_max + 1):
        delta2 = float(n_stop)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _constraint_determinant(_U0_PROBES, cfg.delta1, delta2, avals, n_stop)
        if not np.isfinite(grid).all():
            raise DomainError(f"termination_search: the order-{n_stop} constraint overflows on "
                              f"the a-grid up to {a_max!r} at delta1 = {cfg.delta1!r}")
        if h > _A_STEP_MAX:         # checked after the overflow, the more specific fault
            raise DomainError(f"termination_search: the a-grid step {h:.3g} up to {a_max!r} "
                              f"exceeds {_A_STEP_MAX} and would lose constraint roots")
        roots_by_u0 = {}
        for u0, fvals in zip(_U0_PROBES, grid):
            f = lambda a: _constraint_determinant(u0, cfg.delta1, delta2, a, n_stop)
            roots_by_u0[u0] = tuple(r for side in sides for r in grid_roots(
                f, avals[side], fvals[side], _ROOT_XTOL, 1e-8))
        sets = list(roots_by_u0.values())
        counts = {len(s) for s in sets}
        if counts == {0}:
            status, drift = "trivial", 0.0
        elif len(counts) > 1:
            status, drift = "conditional", float("inf")
        else:
            stacked = np.array([sorted(s) for s in sets])
            drift = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
            status = "unconditional" if drift < _ROOT_MATCH_ATOL else "conditional"
        records.append(TerminationRecord(n_stop, status, roots_by_u0, drift))
    return records
