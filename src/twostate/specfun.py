"""Complex special-function kernels.

Everything downstream (the series expansion of the driven two-state amplitude
and its finite-sum reductions) is built on three primitives:

* the Gauss hypergeometric series ``2F1`` for complex parameters and |z| < 1,
* the incomplete Beta function ``B_z(p, q)`` evaluated through its ``2F1``
  representation, its neighbour recurrence, and the fold of a terminating
  Beta sum ``sum_n c_n B_z(p0+n, q)`` into elementary terms,
* branch-tracked complex powers of points that wind around the origin
  (:func:`power` of an :class:`UnwoundPoint`), which must never be snapped
  back to the principal branch.

The kernels are pure functions.  The module's only state is two bounded
caches of ``_CACHE_SIZE`` entries that the points of one orbit share:
the block schedule of a series (:func:`_schedule`, a tuple of block ends per
parameter triple and first-block length) and each block's term ratios
(:func:`_ratios`, a read-only complex vector per triple and block, its
leading slot 0 for the block's first term).  A series call makes one lookup
for its schedule and one per block for its ratios, so it pays its fixed
costs once; :func:`inc_beta` checks its arguments in one pass when they hold,
and :func:`_fold` takes ``log z`` once for all its heads.

Branch conventions: logarithms and non-integer powers of ``1 - z`` use the
principal branch; powers of ``z`` itself go through :class:`UnwoundPoint`
wherever ``z`` traces the periodic orbit in the complex plane.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

# Tolerances shared between implementation, tests and docs.
EPS_SERIES = 1e-16   # series stop: a block's last two terms below this times its partial sum
EPS_CHECK = 1e-11    # identity / oracle agreement tolerance
MAX_TERMS = 10_000   # hard cap on hypergeometric series length

_INT_TOL = 1e-12
_FOLD_LEFTOVER_RTOL = 1e-10

_LOG_EPS_SERIES = math.log(EPS_SERIES)
_CACHE_SIZE = 32                            # entries of the schedule cache and of the ratio cache
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

    On the solvable model's orbits the incomplete-Beta series with ``p2 = 2``
    has two consecutive terms below ``EPS_SERIES`` times the partial sum
    within 1.12 times ``ln EPS_SERIES / ln|z|`` terms, and its terms keep
    falling, so the first block's end passes the block rule of
    :func:`_hyp2f1_series`: one block sums it.
    """
    return min(int(1.25 * _LOG_EPS_SERIES / math.log(az)) + 4, MAX_TERMS)


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _ratios(p1: complex, p2: complex, p3: complex, start: int, stop: int) -> np.ndarray:
    """Read-only complex factors of the block of terms ``start + 1 .. stop``.

    Entry ``k >= 1`` is the term ratio ``(p1+n)(p2+n) / ((p3+n)(n+1))`` at
    ``n = start + k - 1``; entry 0 is 0, the slot that takes the block's first
    term.  So ``_ratios(...) * z`` is the block before its running product,
    with nothing to cast (the ratios are complex already) and no view to cut.
    They do not depend on ``z``, so the points of one orbit (one ``|z|``, one
    block length) share them.  Cached for the last ``_CACHE_SIZE``
    parameter triples and blocks: enough for the calls within one evaluation,
    not for a long run of configurations.
    """
    n = np.arange(float(start), float(stop))
    r = np.zeros(stop - start + 1, dtype=complex)
    r[1:] = (p1 + n) * (p2 + n) / ((p3 + n) * (n + 1.0))
    r.flags.writeable = False
    return r


def _block_ends(p1: complex, p2: complex, p3: complex, az: float) -> tuple[int, ...]:
    """Where the blocks of :func:`_hyp2f1_series` end at ``|z| = az``: each block's last term number.

    The first block holds :func:`_first_block_length` terms; :func:`_schedule`
    owns the rest of the rule.
    """
    return _schedule(p1, p2, p3, _first_block_length(az))


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _schedule(p1: complex, p2: complex, p3: complex, first: int) -> tuple[int, ...]:
    """The block ends of :func:`_block_ends` for a first block of ``first`` terms (cached, a tuple).

    When the non-positive integer ``-m`` nearest ``p3`` (``Re p3 < 0``) lies
    at or past the first block's end, that block reaches term ``m + 2``: a
    ratio ``1/(p3 + m)`` near a pole lifts every later term, so the two terms
    tested lie past it.  Each later block reaches twice as far.  The last ends
    at ``MAX_TERMS``, or at the first zero term ``m + 1`` when ``p1`` or ``p2``
    is a non-positive integer ``-m``, so no term past it is computed (its
    ratio could overflow).
    """
    if first < 1:
        raise DomainError(f"hyp2f1: no series block fits a first block of {first} terms (|z| >= 1)")
    last = MAX_TERMS
    for p in (p1, p2):
        if p.real <= 0 and not p.imag and p.real.is_integer():
            last = min(last, 1 - int(p.real))
    end = first
    if p3.real < 0 and (m := round(-p3.real)) >= end:
        end = m + 2
    ends = []
    while end < last:
        ends.append(end)
        end *= 2
    ends.append(last)
    return tuple(ends)


def _hyp2f1_series(p1: complex, p2: complex, p3: complex, z: complex) -> tuple[complex, int]:
    """Sum of the ``2F1`` power series and the number of terms after the leading 1.

    Arguments are checked by the caller: finite, ``p3`` not a non-positive
    integer, ``|z| < 1``.  Terms come in blocks ending where
    :func:`_block_ends` says (one cached schedule per call): the factors
    ``(p1+n)(p2+n) z / ((p3+n)(n+1))`` over a run of ``n`` (the part before
    ``z`` is one cached :func:`_ratios` vector per triple and block), their
    running product (the terms, multiplied in the order a term-by-term loop
    would) and its running sum (the partial sums).  One test at each block's
    end stops the series: a block whose last two terms are both below
    ``EPS_SERIES`` times its last partial sum is accepted whole, and a block
    that holds a term exactly zero ends at the first such term.  So the sum
    takes at least the terms that a term-by-term stop (the first of two
    consecutive small terms) would, and every later one up to the block's
    end.  A rejected block continues from its last term and partial sum: the
    same sequential operations.
    """
    if z == 0:
        return 1.0 + 0j, 1
    if not (p1.imag or p2.imag or p3.imag):
        p1, p2, p3 = p1.real, p2.real, p3.real
    start, term, total = 0, 1.0 + 0j, 1.0 + 0j
    for stop in _block_ends(p1, p2, p3, abs(z)):
        t = _ratios(p1, p2, p3, start, stop) * z
        t[0] = term
        _running_product(t, out=t)      # t[k]: term number start + k
        before, last = t.item(-2), t.item(-1)
        t[0] = total                    # the running sum starts from the partial sum
        s = _running_sum(t)             # s[k]: partial sum through term number start + k
        if last == 0:                   # a zero term ends the series: every later term is zero
            j = 1 + int((t[1:] == 0).argmax())  # t[0] holds the partial sum now
            return s.item(j), start + j
        # the last two terms both small, so an accidentally small factor
        # (p1+n or p2+n near zero) cannot fake convergence
        end = s.item(-1)
        tol = EPS_SERIES * abs(end)
        if abs(last) < tol and abs(before) < tol:
            return end, stop
        start, term, total = stop, last, end
    raise ConvergenceError(f"hyp2f1: no convergence after {start} terms at z={z}")


def hyp2f1(p1: complex, p2: complex, p3: complex, z: complex) -> complex:
    """Gauss hypergeometric series sum for |z| < 1.

    Uses the defining power series with the term-ratio recurrence
    ``t_{n+1} = t_n (p1+n)(p2+n) z / ((p3+n)(n+1))``; terminates naturally
    when ``p1`` or ``p2`` is a non-positive integer.  The recurrence runs in
    numpy blocks of terms ending where :func:`_block_ends` says, so one block
    usually holds the whole series.  The series stops in the first block whose
    last two terms are both below ``EPS_SERIES`` times its partial sum, summing
    that whole block, or at the first zero term.

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
    # one pass when every check holds (a NaN or infinite z fails abs(zc) < 1);
    # otherwise the checks in their order, for the message
    if not (abs(zc) < 1.0 and cmath.isfinite(p) and cmath.isfinite(q)) or _is_nonpositive_integer(p):
        _require_finite("inc_beta", zc, p, q)
        if _is_nonpositive_integer(p):
            raise ParameterError(f"inc_beta: p={p} is a non-positive integer")
        raise DomainError(f"inc_beta: series path requires |z| < 1, got |z|={abs(zc)}")
    if zc == 0:
        return 0.0 + 0j
    # p + 1 is no non-positive integer because p is none
    return power(z, p) / p * _hyp2f1_series(p, 1 - q, p + 1, zc)[0]


def _fold(name: str, coeffs, p0: complex, q: complex, z) -> tuple[complex, complex]:
    """Summed heads of ``sum_n c_n B_z(p0+n, q)`` by the neighbour recurrence, and the top weight.

    Owns the domain checks of every Beta kernel that folds; errors name ``name``.
    """
    zc = as_complex(z)
    work = [complex(c) for c in coeffs]
    if not work:
        raise ParameterError(f"{name}: coeffs must not be empty")
    _require_finite(name, zc, p0, q, *work)
    if -p0 in range(len(work) - 1):     # p0 + n = 0 for an n below the top
        raise ParameterError(f"{name}: Beta parameter hits 0 while folding from p = {p0}")
    if zc == 1:
        raise DomainError(f"{name}: z = 1 is a singular point")
    if zc == 0:
        return 0j, 0j                   # every B_0(p, q) is 0, as in inc_beta
    z = z if isinstance(z, UnwoundPoint) else zc
    log_z = _cover_log(z)               # one log: each head's z^p is power(z, p)
    try:
        total, tail = 0j, (1 - zc) ** q
    except (OverflowError, ZeroDivisionError):      # complex ** raises either when it overflows
        raise DomainError(f"{name}: (1 - z)^q overflows at |1 - z| = {abs(1 - zc)}, "
                          f"q = {q}") from None
    try:
        for n in range(len(work) - 1):
            p = p0 + n
            total += work[n] * (cmath.exp(complex(p) * log_z) / p * tail)
            work[n + 1] += work[n] * (q + p) / p
    except OverflowError:
        raise _overflow(z, p) from None
    return total, work[-1]


def beta_step(p: complex, q: complex, z) -> complex:
    """``B_z(p, q)`` from its upper neighbour ``B_z(p+1, q)``: one step of :func:`fold_beta_sum`.

    The neighbour recurrence ``B_z(p, q) = (z^p / p)(1-z)^q + ((q+p)/p) B_z(p+1, q)``,
    with ``z`` plain or an :class:`UnwoundPoint` as in :func:`inc_beta`, on the
    fold's domain (``p != 0``, ``z != 1``).  When the coupling coefficient ``q + p``
    vanishes the recursive term is dropped without being evaluated, so the
    elementary head alone is exact.
    """
    head, weight = _fold("beta_step", (1.0, 0.0), complex(p), complex(q), z)
    return head if weight == 0 else head + weight * inc_beta(p + 1, q, z)


def fold_beta_sum(coeffs, p0: complex, q: complex, z) -> complex:
    """Elementary value of ``sum_n coeffs[n] B_z(p0+n, q)``, for any finite ``z != 1``.

    Applies :func:`beta_step`'s neighbour recurrence to the lowest Beta
    function again and again: the elementary heads accumulate and the Beta
    weight migrates to the top index.  The sum is elementary only if that
    leftover weight cancels, as it does for a terminated series:
    :class:`DomainError` if it exceeds ``1e-10 max(1, max|coeffs|)``, and
    :class:`ParameterError` if ``coeffs`` is empty.  ``z = 0`` gives ``0j``.
    """
    total, weight = _fold("fold_beta_sum", coeffs, p0, q, z)
    leftover = abs(weight)
    if not leftover <= _FOLD_LEFTOVER_RTOL * max(1.0, max(abs(c) for c in coeffs)):
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


def _cover_log(z) -> complex:
    """``log z`` as every power here takes it: ``ln|pt| + i angle`` on the cover, principal otherwise."""
    if isinstance(z, UnwoundPoint):
        return math.log(z.modulus) + 1j * z.angle
    return cmath.log(z)


def _overflow(z, mu) -> DomainError:
    """:func:`power`'s error for a ``z^mu`` that overflows a float."""
    modulus = z.modulus if isinstance(z, UnwoundPoint) else abs(z)
    return DomainError(f"power: |z|^mu overflows at |z| = {modulus}, mu = {mu}")


def power(z, mu: complex) -> complex:
    """Uniform power helper: unwound for :class:`UnwoundPoint`, principal otherwise.

    Either way it is ``exp(mu log z)`` with :func:`_cover_log`'s ``log z``;
    the principal ``cmath.log`` rescales subnormal parts of ``z``, where
    Python's ``complex ** complex`` loses their bits.  ``z = 0`` gives ``0j``
    for ``Re mu > 0``.  Raises :class:`DomainError` there otherwise, for a
    non-finite ``z`` and when the result overflows a float.
    """
    try:
        if isinstance(z, UnwoundPoint):
            usable = math.isfinite(z.modulus) and math.isfinite(z.angle)
        else:
            z = complex(z)
            usable = z and cmath.isfinite(z)
        if usable:
            return cmath.exp(complex(mu) * _cover_log(z))
        if z == 0 and complex(mu).real > 0:
            return 0j
    except OverflowError:
        raise _overflow(z, mu) from None
    raise DomainError(f"power: z must be finite, and nonzero unless Re mu > 0; "
                      f"got z = {z}, mu = {mu}")


def as_complex(z) -> complex:
    """Plain complex value of ``z`` (collapses an :class:`UnwoundPoint`)."""
    if isinstance(z, UnwoundPoint):
        return z.value
    return complex(z)
