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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError
from .fields import FieldConfig, grid_roots
from .specfun import UnwoundPoint, _is_nonpositive_integer, as_complex, hyp2f1, power

TERMINATION_RTOL = 1e-12   # two consecutive coefficients below this (rel.) terminate
_FOLD_LEFTOVER_RTOL = 1e-10

# termination_search thresholds
_ROOT_MATCH_ATOL = 1e-6    # constraint roots agreeing across couplings
_TRIVIAL_ATOL = 1e-8
_ROOT_XTOL = 1e-15         # brentq absolute tolerance on a constraint root


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
class PrefactorExponents:
    """Exponents of the elementary prefactor multiplying the series solution.

    The prefactor is ``z**alpha1``: its powers of ``z - 1`` and ``z - a`` vanish
    for this drive family.  The plus and minus signs give the two independent
    fundamental solutions.
    """

    alpha1: float
    sign: int


@dataclass(frozen=True)
class RecurrenceCoeffs:
    rn: complex
    qn: complex
    pn: complex


@dataclass(frozen=True)
class BetaSeries:
    """Expansion coefficients plus the common Beta-function parameters."""

    gamma0: complex
    delta_n: complex
    coeffs: np.ndarray          # c_0 .. c_M, c_0 = 1
    terminated: bool
    n_term: Optional[int]       # index N with c_{N+1}, c_{N+2} ~ 0, if terminated

    def active_coeffs(self) -> np.ndarray:
        """Coefficients that actually contribute (c_0..c_N if terminated)."""
        if self.terminated and self.n_term is not None:
            return self.coeffs[: self.n_term + 1]
        return self.coeffs


def generalized_rabi(u0: float, delta1: float) -> float:
    """Constant-field flopping frequency sqrt(4 u0^2 + delta1^2)."""
    return math.sqrt(4.0 * u0 * u0 + delta1 * delta1)


def map_to_heun(cfg: FieldConfig, sign: int) -> tuple[HeunParams, PrefactorExponents]:
    """Map a drive configuration (scaled time, delta = 1) to ODE constants.

    ``sign`` (+1 or -1) selects the fundamental-solution branch.  The exponent
    at infinity is zero for every member of the family, which is what licenses
    the incomplete-Beta expansion.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"map_to_heun: sign must be +1 or -1, got {sign}")
    if cfg.delta != 1.0:
        raise ParameterError("map_to_heun: scaled configuration required (delta = 1); "
                             "use FieldConfig.scaled()")
    return _heun_constants(cfg.u0, cfg.a, cfg.delta1, cfg.delta2, sign)


def _heun_constants(u0: float, a, delta1: float, delta2: float, sign: int
                    ) -> tuple[HeunParams, PrefactorExponents]:
    """:func:`map_to_heun` without its checks; an array ``a`` gives array ``a`` and ``q``."""
    big_r = generalized_rabi(u0, delta1)
    gamma = 1.0 + sign * big_r
    beta = sign * big_r
    alpha1 = 0.5 * (delta1 + sign * big_r)
    q = (a - 1.0) * delta2 * alpha1
    hp = HeunParams(a=a, q=q, alpha=0.0, beta=beta, gamma=gamma,
                    delta=delta2, epsilon=-delta2)
    return hp, PrefactorExponents(alpha1=alpha1, sign=sign)


def recurrence_coeffs(hp: HeunParams, n: int) -> RecurrenceCoeffs:
    """Three-term recurrence coefficients at index ``n`` (gamma0 = 1 - gamma form)."""
    if n < 0:
        raise ParameterError(f"recurrence_coeffs: n must be >= 0, got {n}")
    a, g, d, e, q = hp.a, hp.gamma, hp.delta, hp.epsilon, hp.q
    rn = a * n * (n - g)
    qn = -a * n * (n + 1 - g - d) - (n + e) * (n + 1 - g) - q
    pn = (n + 2 - g - d) * (n + e)
    return RecurrenceCoeffs(rn=rn, qn=qn, pn=pn)


def expand(hp: HeunParams, max_terms: int = 40) -> BetaSeries:
    """Run the forward recurrence and detect right-hand termination.

    Termination is flagged when two consecutive coefficients drop below
    ``TERMINATION_RTOL`` relative to the largest coefficient seen, mirroring
    the analytic condition that two successive coefficients vanish.
    """
    if hp.alpha != 0:
        raise ParameterError("expand: the Beta expansion requires alpha = 0")
    if max_terms < 2:
        raise ParameterError("expand: max_terms must be >= 2")

    coeffs = [1.0 + 0j]
    cmax = 1.0
    terminated = False
    n_term = None
    for n in range(1, max_terms + 1):
        rn = recurrence_coeffs(hp, n).rn
        num = recurrence_coeffs(hp, n - 1).qn * coeffs[n - 1]
        if n >= 2:
            num += recurrence_coeffs(hp, n - 2).pn * coeffs[n - 2]
        if rn == 0:
            if abs(num) <= TERMINATION_RTOL * cmax:
                coeffs.append(0.0 + 0j)
                continue
            raise DomainError(f"expand: recurrence pivot vanishes at n={n} "
                              f"(gamma = {hp.gamma}) with nonzero numerator")
        c = -num / rn
        coeffs.append(c)
        cmax = max(cmax, abs(c))
        if n >= 2 and abs(coeffs[n]) <= TERMINATION_RTOL * cmax \
                and abs(coeffs[n - 1]) <= TERMINATION_RTOL * cmax:
            terminated = True
            n_term = n - 2
            break
    return BetaSeries(gamma0=1.0 - hp.gamma, delta_n=1.0 - hp.delta,
                      coeffs=np.array(coeffs, dtype=complex),
                      terminated=terminated, n_term=n_term)


def q_polynomial(hp: HeunParams, n_stop: int) -> np.ndarray:
    """Accessory-parameter polynomial whose roots terminate the series at N = n_stop.

    Uses the division-free tridiagonal-determinant recursion
    ``d_n = Q_{n-1} d_{n-1} - P_{n-2} R_{n-1} d_{n-2}`` with ``q`` kept
    symbolic (dense complex polynomial arithmetic); ``d_{N+1}(q) = 0`` is
    equivalent to the vanishing of coefficient ``c_{N+1}``.  Returns the
    ascending coefficient array of a degree-(N+1) polynomial.
    """
    if n_stop < 0:
        raise ParameterError(f"q_polynomial: N must be >= 0, got {n_stop}")
    eps_ok = abs(hp.epsilon + n_stop) <= 1e-9
    gd_ok = abs(hp.gamma + hp.delta - 2.0 - n_stop) <= 1e-9
    if not (eps_ok or gd_ok):
        raise ParameterError("q_polynomial: termination precondition fails "
                             f"(epsilon = {hp.epsilon}, gamma+delta-2 = {hp.gamma + hp.delta - 2})")

    def q_free(n: int) -> complex:
        # recurrence Q_n with the accessory parameter removed
        a, g, d, e = hp.a, hp.gamma, hp.delta, hp.epsilon
        return -a * n * (n + 1 - g - d) - (n + e) * (n + 1 - g)

    d_prev = np.array([1.0 + 0j])                      # d_0
    d_cur = np.array([q_free(0), -1.0], dtype=complex)  # d_1 = Q_0
    for n in range(2, n_stop + 2):
        lin = np.array([q_free(n - 1), -1.0], dtype=complex)
        d_new = np.convolve(lin, d_cur)
        tail = recurrence_coeffs(hp, n - 2).pn * recurrence_coeffs(hp, n - 1).rn * d_prev
        d_new[: len(tail)] -= tail
        d_prev, d_cur = d_cur, d_new
    return d_cur


def q_polynomial_roots(poly: np.ndarray) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial via companion-matrix eigenvalues.

    Each root is polished with a couple of Newton steps.
    """
    roots = np.roots(poly[::-1]).astype(complex)
    dpoly = np.polyder(np.poly1d(poly[::-1]))
    p1d = np.poly1d(poly[::-1])
    for _ in range(2):
        dv = dpoly(roots)
        mask = np.abs(dv) > 0
        roots[mask] = roots[mask] - p1d(roots[mask]) / dv[mask]
    return roots


def _fold_to_elementary(coeffs: np.ndarray, gamma0: complex, b: complex, z):
    """Collapse ``sum_n coeffs[n] B_z(gamma0+n, b)`` to elementary terms.

    Repeatedly rewrites the lowest Beta function through its upper neighbour;
    the elementary heads accumulate and the Beta weight migrates to the top
    index.  Returns ``(elementary_sum, leftover_coeff, top_index)``; the
    caller decides whether the leftover Beta weight is negligible.
    """
    zc = as_complex(z)
    work = list(np.asarray(coeffs, dtype=complex))
    elem = 0.0 + 0j
    for n in range(len(work) - 1):
        cn = gamma0 + n
        if cn == 0:
            raise ParameterError("fold: Beta parameter hits 0 while folding")
        elem += work[n] * power(z, cn) / cn * (1.0 - zc) ** b
        work[n + 1] += work[n] * (b + cn) / cn
    return elem, work[-1], gamma0 + len(work) - 1


def eval_series(bs: BetaSeries, hp: HeunParams, z) -> complex:
    """Value of the expansion at ``z`` (plain complex or :class:`UnwoundPoint`).

    Inside the unit disc every term is summed through the incomplete Beta
    kernel.  Outside, only a terminated series can be evaluated: it is folded
    to elementary functions, which succeeds exactly when the top Beta weight
    cancels (as it does for genuine terminated solutions).
    """
    zc = as_complex(z)
    if zc == 1.0:
        raise DomainError("eval_series: z = 1 is a singular point")
    active = bs.active_coeffs()
    if abs(zc) < 1.0:
        # inline the Beta representation so the z^p factor can stay on the
        # universal cover when an UnwoundPoint is supplied (the 2F1 factor is
        # single-valued inside the unit disc)
        total = 0.0 + 0j
        for n, c in enumerate(active):
            if c == 0:
                continue
            p = bs.gamma0 + n
            if p == 0 or _is_nonpositive_integer(p):
                raise ParameterError(f"eval_series: Beta parameter {p} is a non-positive integer")
            total += c * power(z, p) / p * hyp2f1(p, 1.0 - bs.delta_n, p + 1.0, zc)
        return total
    if not bs.terminated:
        raise DomainError("eval_series: |z| >= 1 requires a terminated series")
    elem, leftover, _top = _fold_to_elementary(active, bs.gamma0, bs.delta_n, z)
    scale = max(1.0, float(np.max(np.abs(active))))
    if abs(leftover) > _FOLD_LEFTOVER_RTOL * scale:
        raise DomainError("eval_series: terminated series does not fold to elementary form "
                          f"(leftover Beta weight {abs(leftover):.3e})")
    return elem


def series_solution(cfg: FieldConfig, sign: int, max_terms: int = 40
                    ) -> tuple[Callable[[float], complex], Callable[[float], complex]]:
    """Amplitude callables ``(a2(t), da2/dt(t))`` built from prefactor x series.

    Scaled time (cfg.delta must be 1).  The derivative uses the elementary
    closed form of ``dB_z/dz`` so no numerical differentiation is involved.
    """
    hp, pre = map_to_heun(cfg, sign)
    bs = expand(hp, max_terms)
    sqa = math.sqrt(cfg.a)
    active = bs.active_coeffs()

    def _u_and_du(pt: UnwoundPoint) -> tuple[complex, complex]:
        zc = pt.value
        if not bs.terminated and abs(zc) >= 1.0:
            raise DomainError("series_solution: non-terminated series off the unit disc")
        u = eval_series(bs, hp, pt)   # keep the unwound phase: z^p must not branch-snap
        du = 0.0 + 0j
        for n, c in enumerate(active):
            if c == 0:
                continue
            du += c * power(pt, bs.gamma0 + n - 1) * (1.0 - zc) ** (bs.delta_n - 1.0)
        return u, du

    def a2(t: float) -> complex:
        pt = UnwoundPoint(sqa, t - cfg.t0)
        u, _ = _u_and_du(pt)
        return power(pt, pre.alpha1) * u

    def da2_dt(t: float) -> complex:
        pt = UnwoundPoint(sqa, t - cfg.t0)
        u, du = _u_and_du(pt)
        return 1j * (pre.alpha1 * power(pt, pre.alpha1) * u
                     + power(pt, pre.alpha1 + 1.0) * du)

    return a2, da2_dt


@dataclass(frozen=True)
class TerminationRecord:
    """Outcome of the termination test at one series order N."""

    n: int
    status: str                 # "trivial" | "unconditional" | "conditional" | "none"
    roots_by_u0: dict           # probe coupling -> tuple of admissible shape-parameter roots
    drift: float                # max movement of matched roots across couplings


def _constraint_residual(u0: float, delta1: float, delta2: float, a: float, n_stop: int) -> float:
    """Scale-free residual of the termination constraint at shape parameter ``a``."""
    cfg = FieldConfig(u0=u0, a=a, delta1=delta1, delta2=delta2)
    hp, _ = map_to_heun(cfg, -1)
    poly = q_polynomial(hp, n_stop)
    val = np.polyval(poly[::-1], hp.q)
    scale = float(np.max(np.abs(poly)))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
        raise DomainError("termination constraint residual is not real for real inputs")
    return float(val.real) / scale


def _constraint_determinant(u0: float, delta1: float, delta2: float, a, n_stop: int):
    """``d_{N+1}`` of :func:`q_polynomial` at the physical ``q``, as a number.

    The same tridiagonal recurrence run numerically on the sign -1 branch,
    elementwise over an array ``a``; it vanishes where the termination
    constraint holds and shares its sign with :func:`_constraint_residual`.
    """
    hp, _ = _heun_constants(u0, a, delta1, delta2, -1)
    rc = [recurrence_coeffs(hp, n) for n in range(n_stop + 1)]
    d_prev, d_cur = 1.0, rc[0].qn
    for n in range(2, n_stop + 2):
        d_prev, d_cur = d_cur, rc[n - 1].qn * d_cur - rc[n - 2].pn * rc[n - 1].rn * d_prev
    return d_cur


def _constraint_roots(u0: float, delta1: float, delta2: float, n_stop: int,
                      a_range: tuple[float, float], grid: int) -> tuple[float, ...]:
    avals, h = np.linspace(*a_range, grid, retstep=True)
    f = lambda a: _constraint_determinant(u0, delta1, delta2, a, n_stop)
    fvals = f(avals)
    roots = []
    # a = 1 is excluded from the family: bracket on either side of it only
    for side in (avals < 1.0 - 0.5 * h, avals > 1.0 + 0.5 * h):
        roots += grid_roots(f, avals[side], fvals[side], _ROOT_XTOL, 1e-8)
    return tuple(roots)


def termination_search(cfg: FieldConfig, n_max: int,
                       u0_probes: tuple[float, ...] = (0.5, 1.0, 2.0),
                       a_range: tuple[float, float] = (1e-3, 8.0),
                       grid: int = 2001) -> list[TerminationRecord]:
    """Classify the termination hierarchy for N = 0..n_max with delta2 = N imposed.

    For each N the constraint "series terminates after N+1 terms" is solved
    for the shape parameter ``a`` at several couplings ``u0``.  A root set
    that does not move with ``u0`` means the coupling and the detuning are
    independent (unconditional); a drifting root set couples them
    (conditional).  Orders whose only solution is the degenerate constant
    detuning (delta2 = 0 or a -> 1) are reported as trivial.
    """
    if n_max < 0:
        raise ParameterError(f"termination_search: n_max must be >= 0, got {n_max}")
    if not 0.0 < a_range[0] < a_range[1] < math.inf:
        raise ParameterError(f"termination_search: need 0 < a_min < a_max < inf, got {a_range}")
    records = []
    for n_stop in range(n_max + 1):
        if n_stop == 0:
            # delta2 = 0 removes the modulation entirely; the constraint is
            # vacuous and the field is the constant-detuning flopping model
            records.append(TerminationRecord(0, "trivial", {}, 0.0))
            continue
        delta2 = float(n_stop)
        roots_by_u0 = {u0: _constraint_roots(u0, cfg.delta1, delta2, n_stop, a_range, grid)
                       for u0 in u0_probes}
        sets = list(roots_by_u0.values())
        counts = {len(s) for s in sets}
        if counts == {0}:
            # no admissible root: trivial if the constraint closes at the
            # degenerate point a = 1, otherwise there is simply no model
            near_one = max(abs(_constraint_residual(u0, cfg.delta1, delta2, 1.0 + 1e-7, n_stop))
                           for u0 in u0_probes)
            status = "trivial" if near_one < _TRIVIAL_ATOL else "none"
            records.append(TerminationRecord(n_stop, status, roots_by_u0, 0.0))
            continue
        if len(counts) > 1:
            records.append(TerminationRecord(n_stop, "conditional", roots_by_u0, float("inf")))
            continue
        stacked = np.array([sorted(s) for s in sets])
        drift = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
        status = "unconditional" if drift < _ROOT_MATCH_ATOL else "conditional"
        records.append(TerminationRecord(n_stop, status, roots_by_u0, drift))
    return records
