"""Complex special-function kernels.

Everything downstream (the series expansion of the driven two-state amplitude
and its finite-sum reductions) is built on three primitives:

* the Gauss hypergeometric series ``2F1`` for complex parameters and |z| < 1,
* the incomplete Beta function ``B_z(p, q)`` evaluated through its ``2F1``
  representation, its neighbour recurrence, and the fold of a terminating
  Beta sum ``sum_n c_n B_z(p0+n, q)`` into elementary terms,
* branch-tracked complex powers of points that wind around the origin
  (:class:`UnwoundPoint`), which must never be snapped back to the principal
  branch.

Branch conventions: logarithms and non-integer powers of ``1 - z`` use the
principal branch; powers of ``z`` itself go through :class:`UnwoundPoint`
wherever ``z`` traces the periodic orbit in the complex plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

# Tolerances shared between implementation, tests and docs.
EPS_SERIES = 1e-16   # series term cutoff, relative to the partial sum
EPS_CHECK = 1e-11    # identity / oracle agreement tolerance
MAX_TERMS = 10_000   # hard cap on hypergeometric series length

_INT_TOL = 1e-12
_FOLD_LEFTOVER_RTOL = 1e-10

_LOG_EPS_SERIES = math.log(EPS_SERIES)
# Index n of each term ratio, read-only and shared by every call
_N = np.arange(float(MAX_TERMS))
_N_PLUS_1 = _N + 1.0
_N.flags.writeable = _N_PLUS_1.flags.writeable = False
_running_product = np.multiply.accumulate   # np.cumprod minus its Python wrapper
_running_sum = np.add.accumulate


def _is_nonpositive_integer(w: complex) -> bool:
    w = complex(w)
    if abs(w.imag) > _INT_TOL:
        return False
    r = round(w.real)
    return r <= 0 and abs(w.real - r) <= _INT_TOL


def _require_finite(name: str, z: complex, *params: complex) -> None:
    """:class:`ParameterError` for a non-finite parameter, :class:`DomainError` for a non-finite ``z``."""
    for w in params:
        if not cmath.isfinite(w):
            raise ParameterError(f"{name}: parameters must be finite, got {w}")
    if not cmath.isfinite(z):
        raise DomainError(f"{name}: z must be finite, got {z}")


def _first_block_length(az: float) -> int:
    """Terms in the first series block at ``|z| = az``: ``1.25 ln EPS_SERIES / ln|z| + 4``.

    The incomplete-Beta series with ``p2 = 2`` stops within 1.11 times
    ``ln EPS_SERIES / ln|z|`` terms on the solvable model's orbits, so one
    block covers it.
    """
    return min(int(1.25 * _LOG_EPS_SERIES / math.log(az)) + 4, MAX_TERMS)


def _hyp2f1_series(p1: complex, p2: complex, p3: complex, z: complex) -> tuple[complex, int]:
    """Sum of the ``2F1`` power series and the number of terms after the leading 1.

    Arguments are checked by the caller: finite, ``p3`` not a non-positive
    integer, ``|z| < 1``.  Terms come in blocks: the ratio vector
    ``(p1+n)(p2+n) z / ((p3+n)(n+1))`` over a run of ``n`` (real until the
    factor ``z`` when the parameters are), its running product (the terms,
    multiplied in the order a term-by-term loop would) and its running sum
    (the partial sums).  The series stops at the first term that is exactly
    zero, or at the second of two consecutive terms below ``EPS_SERIES`` times
    the partial sum.  The first block holds :func:`_first_block_length` terms;
    a series longer than its block is summed again from term 0 with a block
    twice as long, which yields the same terms and partial sums.  When ``p1``
    or ``p2`` is a non-positive integer ``-m``, term ``m + 1`` is the first
    zero and a block ends there, so no term past it is computed (their ratios
    could overflow).
    """
    az = abs(z)
    if az == 0:
        return 1.0 + 0j, 1
    last = MAX_TERMS
    for p in (p1, p2):
        if p.real <= 0 and not p.imag and p.real.is_integer():
            last = min(last, 1 - int(p.real))
    if not (p1.imag or p2.imag or p3.imag):
        p1, p2, p3 = p1.real, p2.real, p3.real
    length = _first_block_length(az)
    while True:
        stop = min(length, last)
        n = _N[:stop]
        r = p1 + n
        r *= p2 + n
        den = p3 + n
        den *= _N_PLUS_1[:stop]
        r /= den
        t = np.empty(stop + 1, dtype=complex)
        t[0] = 1.0
        np.multiply(r, z, out=t[1:])
        _running_product(t, out=t)      # t[k]: term number k
        s = _running_sum(t)             # s[k]: partial sum through that term
        tol = abs(s)
        tol *= EPS_SERIES
        tiny = abs(t) < tol
        # two consecutive tiny terms, so an accidentally small factor
        # (p1+n or p2+n near zero) cannot fake convergence
        pair = tiny[1:] & tiny[:-1]
        j = pair.argmax() + 1
        if not pair[j - 1]:
            j = len(t)
        if t[-1] == 0:                  # a zero term ends the series: every later term is zero
            j = min(j, (t == 0).argmax())
        if j < len(t):
            return complex(s[j]), int(j)
        if stop == last:
            raise ConvergenceError(f"hyp2f1: no convergence after {stop} terms at z={z}")
        length *= 2


def hyp2f1(p1: complex, p2: complex, p3: complex, z: complex) -> complex:
    """Gauss hypergeometric series sum for |z| < 1.

    Uses the defining power series with the term-ratio recurrence
    ``t_{n+1} = t_n (p1+n)(p2+n) z / ((p3+n)(n+1))``; terminates naturally
    when ``p1`` or ``p2`` is a non-positive integer.  The recurrence runs in
    numpy blocks of terms (a vector of ratios, its running product and its
    running sum), sized from ``|z|`` so that one block usually holds the whole
    series; a longer series is summed again from its first term in a block
    twice as long.  The stopping rule is the term-by-term one: the first zero term,
    or two consecutive terms below ``EPS_SERIES`` times the partial sum.

    Verified domain: within ``EPS_CHECK * (1 + |F|)`` of a 30-digit reference
    for ``|z| <= 0.9`` in the incomplete-Beta shape ``p3 = p1 + 1`` (the only
    shape the package uses) with ``-10 <= Re p1 <= 50``, ``|Im p1| <= 10`` and
    ``|p2| <= 5``.  The orbit radius ``sqrt(a)`` of the solvable model with
    ``-6 <= delta1 < -1`` is at most 0.85, inside it.  Elsewhere the plain series
    can lose digits to cancellation among large terms (general ``p3``, or
    larger ``|p2|``).

    Raises
    ------
    ParameterError
        If a parameter is not finite, or ``p3`` is zero or a negative integer.
    DomainError
        If ``z`` is not finite or ``|z| >= 1`` (no analytic continuation is
        attempted).
    ConvergenceError
        If the series has not settled after ``MAX_TERMS`` terms.
    """
    p1, p2, p3, z = complex(p1), complex(p2), complex(p3), complex(z)
    _require_finite("hyp2f1", z, p1, p2, p3)
    if _is_nonpositive_integer(p3):
        raise ParameterError(f"hyp2f1: p3={p3} is a non-positive integer")
    if abs(z) >= 1.0:
        raise DomainError(f"hyp2f1: series requires |z| < 1, got |z|={abs(z)}")
    return _hyp2f1_series(p1, p2, p3, z)[0]


def inc_beta(p: complex, q: complex, z) -> complex:
    """Incomplete Beta function ``B_z(p, q) = int_0^z t^(p-1) (1-t)^(q-1) dt``.

    Evaluated as ``(z^p / p) * 2F1(p, 1-q; p+1; z)``, which is valid for
    |z| < 1 and any finite complex ``p, q`` with ``p`` not a non-positive
    integer (``B_z(0, q)`` and its negative-integer neighbours do not exist).
    ``z^p`` is taken on the universal cover for an :class:`UnwoundPoint` and on
    the principal branch otherwise; the ``2F1`` factor is single-valued in the
    disc.
    """
    p, q, zc = complex(p), complex(q), as_complex(z)
    _require_finite("inc_beta", zc, p, q)
    if p == 0 or _is_nonpositive_integer(p):
        raise ParameterError(f"inc_beta: p={p} is a non-positive integer")
    if abs(zc) >= 1.0:
        raise DomainError(f"inc_beta: series path requires |z| < 1, got |z|={abs(zc)}")
    if zc == 0:
        return 0.0 + 0j
    # p + 1 is no non-positive integer because p is none
    return power(z, p) / p * _hyp2f1_series(p, 1 - q, p + 1, zc)[0]


def _beta_head(p: complex, q: complex, z, zc: complex) -> complex:
    """Head ``(z^p / p)(1-z)^q`` of the neighbour recurrence; ``zc`` is the value of ``z``."""
    return power(z, p) / p * (1 - zc) ** q


def beta_step(p: complex, q: complex, z) -> complex:
    """``B_z(p, q)`` computed from its upper neighbour ``B_z(p+1, q)``.

    Implements the neighbour recurrence
    ``B_z(p, q) = (z^p / p)(1-z)^q + ((q+p)/p) B_z(p+1, q)``, with ``z``
    plain or an :class:`UnwoundPoint` as in :func:`inc_beta`.  When the
    coupling coefficient ``q + p`` vanishes the recursive term is dropped
    without being evaluated, so the elementary head alone is exact.
    """
    p, q, zc = complex(p), complex(q), as_complex(z)
    _require_finite("beta_step", zc, p, q)
    if p == 0:
        raise ParameterError("beta_step: p must be nonzero")
    if zc == 0:
        return 0.0 + 0j                  # as inc_beta; log(0) is undefined
    head = _beta_head(p, q, z, zc)
    coeff = (q + p) / p
    if coeff == 0:
        return head
    return head + coeff * inc_beta(p + 1, q, z)


def fold_beta_sum(coeffs, p0: complex, q: complex, z) -> complex:
    """Elementary value of ``sum_n coeffs[n] B_z(p0+n, q)``, for any ``z != 0, 1``.

    Applies :func:`beta_step`'s neighbour recurrence to the lowest Beta
    function again and again: the elementary heads accumulate and the Beta
    weight migrates to the top index.  The sum is elementary only if that
    leftover weight cancels, as it does for a terminated series:
    :class:`DomainError` if it exceeds ``1e-10 max(1, max|coeffs|)``, and
    :class:`ParameterError` if ``coeffs`` is empty.
    """
    zc = as_complex(z)
    work = [complex(c) for c in coeffs]
    if not work:
        raise ParameterError("fold_beta_sum: coeffs must not be empty")
    total = 0.0 + 0j
    for n in range(len(work) - 1):
        p = p0 + n
        if p == 0:
            raise ParameterError("fold_beta_sum: Beta parameter hits 0 while folding")
        total += work[n] * _beta_head(p, q, z, zc)
        work[n + 1] += work[n] * (q + p) / p
    leftover = abs(work[-1])
    if leftover > _FOLD_LEFTOVER_RTOL * max(1.0, max(abs(c) for c in coeffs)):
        raise DomainError("fold_beta_sum: the series does not fold to elementary form "
                          f"(leftover Beta weight {leftover:.3e})")
    return total


@dataclass(frozen=True)
class UnwoundPoint:
    """A nonzero complex point with continuously accumulated (unwrapped) phase.

    ``angle`` is the total phase along the path, not reduced mod 2*pi, so
    ``UnwoundPoint(1.0, 2*pi)`` and ``UnwoundPoint(1.0, 0.0)`` are the same
    complex number but different points of the universal cover.
    """

    modulus: float
    angle: float

    def __post_init__(self):
        if not self.modulus > 0:
            raise ParameterError(f"UnwoundPoint: modulus must be > 0, got {self.modulus}")

    @property
    def value(self) -> complex:
        return self.modulus * cmath.exp(1j * self.angle)


def unwound_power(pt: UnwoundPoint, mu: complex) -> complex:
    """``pt ** mu`` evaluated on the universal cover: exp(mu (ln|pt| + i angle))."""
    mu = complex(mu)
    return cmath.exp(mu * (math.log(pt.modulus) + 1j * pt.angle))


def power(z, mu: complex) -> complex:
    """Uniform power helper: unwound for :class:`UnwoundPoint`, principal otherwise.

    The principal power is ``exp(mu log z)``: ``cmath.log`` rescales subnormal
    parts of ``z``, where Python's ``complex ** complex`` loses their bits.
    Raises :class:`DomainError` when the result overflows a float.
    """
    try:
        if isinstance(z, UnwoundPoint):
            return unwound_power(z, mu)
        return cmath.exp(complex(mu) * cmath.log(complex(z)))
    except OverflowError:
        modulus = z.modulus if isinstance(z, UnwoundPoint) else abs(complex(z))
        raise DomainError(f"power: |z|^mu overflows at |z| = {modulus}, mu = {mu}") from None


def as_complex(z) -> complex:
    """Plain complex value of ``z`` (collapses an :class:`UnwoundPoint`)."""
    if isinstance(z, UnwoundPoint):
        return z.value
    return complex(z)
