"""Complex special-function kernels.

Everything downstream (the series expansion of the driven two-state amplitude
and its finite-sum reductions) is built on three primitives:

* the Gauss hypergeometric series ``2F1`` for complex parameters and |z| < 1,
* the incomplete Beta function ``B_z(p, q)`` evaluated through its ``2F1``
  representation,
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

from .errors import ConvergenceError, DomainError, ParameterError

# Tolerances shared between implementation, tests and docs.
EPS_SERIES = 1e-16   # series term cutoff, relative to the partial sum
EPS_CHECK = 1e-11    # identity / oracle agreement tolerance
MAX_TERMS = 10_000   # hard cap on hypergeometric series length

_INT_TOL = 1e-12


def _is_nonpositive_integer(w: complex) -> bool:
    w = complex(w)
    if abs(w.imag) > _INT_TOL:
        return False
    r = round(w.real)
    return r <= 0 and abs(w.real - r) <= _INT_TOL


def hyp2f1(p1: complex, p2: complex, p3: complex, z: complex) -> complex:
    """Gauss hypergeometric series sum for |z| < 1.

    Uses the defining power series with the term-ratio recurrence
    ``t_{n+1} = t_n (p1+n)(p2+n) z / ((p3+n)(n+1))``; terminates naturally
    when ``p1`` or ``p2`` is a non-positive integer.

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
        If ``p3`` is zero or a negative integer.
    DomainError
        If ``|z| >= 1`` (no analytic continuation is attempted).
    ConvergenceError
        If the series has not settled after ``MAX_TERMS`` terms.
    """
    p1, p2, p3, z = complex(p1), complex(p2), complex(p3), complex(z)
    if _is_nonpositive_integer(p3):
        raise ParameterError(f"hyp2f1: p3={p3} is a non-positive integer")
    if abs(z) >= 1.0:
        raise DomainError(f"hyp2f1: series requires |z| < 1, got |z|={abs(z)}")

    total = 1.0 + 0j
    term = 1.0 + 0j
    small_streak = 0
    for n in range(MAX_TERMS):
        term *= (p1 + n) * (p2 + n) / ((p3 + n) * (n + 1)) * z
        total += term
        if term == 0:
            return total
        # two consecutive tiny terms, so an accidentally small factor
        # (p1+n or p2+n near zero) cannot fake convergence
        if abs(term) < EPS_SERIES * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(f"hyp2f1: no convergence after {MAX_TERMS} terms at z={z}")


def inc_beta(p: complex, q: complex, z: complex) -> complex:
    """Incomplete Beta function ``B_z(p, q) = int_0^z t^(p-1) (1-t)^(q-1) dt``.

    Evaluated as ``(z^p / p) * 2F1(p, 1-q; p+1; z)`` on the principal branch,
    which is valid for |z| < 1 and any complex ``p, q`` with ``p`` not a
    non-positive integer (``B_z(0, q)`` and its negative-integer neighbours
    do not exist).
    """
    p, q, z = complex(p), complex(q), complex(z)
    if p == 0 or _is_nonpositive_integer(p):
        raise ParameterError(f"inc_beta: p={p} is a non-positive integer")
    if abs(z) >= 1.0:
        raise DomainError(f"inc_beta: series path requires |z| < 1, got |z|={abs(z)}")
    if z == 0:
        return 0.0 + 0j
    return power(z, p) / p * hyp2f1(p, 1 - q, p + 1, z)


def beta_step(p: complex, q: complex, z: complex) -> complex:
    """``B_z(p, q)`` computed from its upper neighbour ``B_z(p+1, q)``.

    Implements the neighbour recurrence
    ``B_z(p, q) = (z^p / p)(1-z)^q + ((q+p)/p) B_z(p+1, q)``.
    When the coupling coefficient ``q + p`` vanishes the recursive term is
    dropped without being evaluated, so the elementary head alone is exact.
    """
    p, q, z = complex(p), complex(q), complex(z)
    if p == 0:
        raise ParameterError("beta_step: p must be nonzero")
    if z == 0:
        return 0.0 + 0j                  # as inc_beta; log(0) is undefined
    head = power(z, p) / p * (1 - z) ** q
    coeff = (q + p) / p
    if coeff == 0:
        return head
    return head + coeff * inc_beta(p + 1, q, z)


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
    """
    if isinstance(z, UnwoundPoint):
        return unwound_power(z, mu)
    return cmath.exp(complex(mu) * cmath.log(complex(z)))


def as_complex(z) -> complex:
    """Plain complex value of ``z`` (collapses an :class:`UnwoundPoint`)."""
    if isinstance(z, UnwoundPoint):
        return z.value
    return complex(z)
