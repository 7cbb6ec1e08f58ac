"""Special-function kernels against independent oracles.

Oracles used here: elementary closed forms (logarithm, rational functions),
adaptive quadrature of the defining integral, finite differences of the
integral's derivative, 30-digit mpmath values at hypothesis-drawn points, and
a term-by-term loop for the block-summed series.  Frozen constants are
recorded next to the expression that produced them.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

import twostate
from twostate.closedform import circle_point, hg_quasipoly, hg_three_beta
from twostate.errors import ConvergenceError, DomainError, ParameterError
from twostate.fields import N2Config
from twostate.heun import generalized_rabi
from twostate.specfun import (EPS_CHECK, EPS_SERIES, MAX_TERMS, UnwoundPoint, _block_ends,
                              _first_block_length, _hyp2f1_series, _ratios, as_complex,
                              beta_step, fold_beta_sum, hyp2f1, inc_beta, power)


def quad_inc_beta(p, q, z):
    """Adaptive-quadrature oracle for B_z(p, q) on a real path 0..z, complex p, q."""
    f = lambda t: t ** (p - 1) * (1 - t) ** (q - 1)
    re, _ = quad(lambda t: f(t).real, 0.0, z, epsabs=1e-13, epsrel=1e-13, limit=300)
    im, _ = quad(lambda t: f(t).imag, 0.0, z, epsabs=1e-13, epsrel=1e-13, limit=300)
    return re + 1j * im


# ---------------------------------------------------------------- hyp2f1

def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(0.3 + 0.2j, -1.7, 2.4 - 1j, 0.0) == 1.0


def test_hyp2f1_zero_numerator_parameter():
    for z in (0.5, -0.3 + 0.4j, 0.8j):
        assert hyp2f1(1.7 - 0.3j, 0.0, 3.2, z) == 1.0


def test_hyp2f1_log_case():
    # 2F1(1,1;2;z) = -log(1-z)/z; at z=0.3 the oracle gives 1.1889164797957748
    z = 0.3
    oracle = -math.log(1.0 - z) / z
    assert abs(hyp2f1(1.0, 1.0, 2.0, z) - oracle) < 1e-13
    zc = 0.25 + 0.35j
    oracle_c = -cmath.log(1.0 - zc) / zc
    assert abs(hyp2f1(1.0, 1.0, 2.0, zc) - oracle_c) < 1e-13 * abs(oracle_c)


def test_hyp2f1_rejects_bad_arguments():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, -1.2)
    for p3 in (0.0, -1.0, -2.0 + 0j):
        with pytest.raises(ParameterError):
            hyp2f1(1.0, 1.0, p3, 0.5)


NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.0))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_inputs_fail_before_the_series(bad):
    # rejected before any series work: a nan term never passes the stopping rule
    for args in ((bad, 2.0, 3.0), (1.0, bad, 3.0), (1.0, 2.0, bad)):
        with pytest.raises(ParameterError):
            hyp2f1(*args, 0.5)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, bad)
    fold = lambda p0, q, z: fold_beta_sum([1.0, -1.0], p0, q, z)
    for name, kernel in (("inc_beta", inc_beta), ("beta_step", beta_step),
                         ("fold_beta_sum", fold)):
        for args in ((bad, 2.0), (2.0, bad)):
            with pytest.raises(ParameterError, match=name):
                kernel(*args, 0.5)
        with pytest.raises(DomainError, match=name):
            kernel(2.0, 2.0, bad)
    with pytest.raises(ParameterError, match="fold_beta_sum"):
        fold_beta_sum([1.0, bad], 2.0, -1.0, 0.5)   # a coefficient once folded into a number
    # the closed-form kernels take the fold's and the power's check on z
    with pytest.raises(DomainError, match="fold_beta_sum"):
        hg_three_beta(2.0, 1.0, bad)
    with pytest.raises(DomainError, match="power"):
        hg_quasipoly(2.0, 1.0, bad)


@pytest.mark.parametrize("bad", [UnwoundPoint(math.inf, 0.3), UnwoundPoint(0.5, math.nan),
                                 UnwoundPoint(0.5, -math.inf)])
def test_non_finite_unwound_point_is_a_domain_error(bad):
    for kernel in (inc_beta, beta_step, lambda p, q, z: fold_beta_sum([1.0, -1.0], p, q, z),
                   lambda p, q, z: power(z, p)):
        with pytest.raises(DomainError):
            kernel(2.0, 2.0, bad)
    for kernel in (hg_three_beta, hg_quasipoly):
        with pytest.raises(DomainError):
            kernel(2.0, 1.0, bad)


def test_beta_kernels_at_z_zero_and_one():
    # every B_0(p, q) is 0; z = 1 is the singular point of the fold's heads
    for z in (0.0, 0j, complex(-0.0, 0.0)):
        assert beta_step(1.3 - 0.2j, -1.0, z) == 0
        assert fold_beta_sum([1.0, 0.5, 0.25], -1.5, 2.0, z) == 0
        assert inc_beta(-1.5, 2.0, z) == 0
    for z in (1.0, 1 + 0j, UnwoundPoint(1.0, 0.0)):
        for kernel in (beta_step, lambda p, q, z: fold_beta_sum([1.0, -2.0], p, q, z)):
            with pytest.raises(DomainError, match="z = 1"):
                kernel(1.0, 1.0, z)
    # p = 0 is refused at every z, as inc_beta refuses it
    for z in (0.0, 0.5, 1.0):
        with pytest.raises(ParameterError):
            beta_step(0.0, 1.0, z)
        with pytest.raises(ParameterError):
            fold_beta_sum([1.0, 0.5, 0.25], -1.0, 2.0, z)


def test_power_at_zero_and_non_finite_z():
    assert power(0.0, 2.5) == 0 and power(0j, 0.5 - 3j) == 0
    for mu in (0.0, -1.0, 1j, -0.5 + 2j):
        with pytest.raises(DomainError, match="power"):
            power(0.0, mu)
    for z in NON_FINITE:
        with pytest.raises(DomainError, match="power"):
            power(z, 1.5)
    # an overflowing power on the cover is the same DomainError as on the principal branch
    for z in (UnwoundPoint(1e300, 0.0), 1e300):
        with pytest.raises(DomainError, match="overflows"):
            power(z, 2.0)


# ---------------------------------------------------------------- hyp2f1 stopping rule
# hyp2f1 sums its series in numpy blocks and tests for a stop once per block,
# at its end.  These tests hold it to a term-by-term loop of the same
# recurrence, with stops and zero terms at block edges.

def loop_terms(p1, p2, p3, z):
    """The terms t_1, t_2, ... of the recurrence, one at a time, each with its partial sum."""
    p1, p2, p3, z = complex(p1), complex(p2), complex(p3), complex(z)
    total = term = 1.0 + 0j
    for n in range(MAX_TERMS):
        term *= (p1 + n) * (p2 + n) / ((p3 + n) * (n + 1)) * z
        total += term
        yield term, total


def loop_hyp2f1(p1, p2, p3, z):
    """Term-by-term reference: the sum, the terms after the leading 1, and sum |t_n|."""
    scale = 1.0
    small_streak = 0
    for n, (term, total) in enumerate(loop_terms(p1, p2, p3, z), 1):
        scale += abs(term)
        if term == 0:
            return total, n, scale
        if abs(term) < EPS_SERIES * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total, n, scale
        else:
            small_streak = 0
    raise ConvergenceError("loop_hyp2f1: no convergence")


def loop_block_hyp2f1(p1, p2, p3, z):
    """The block rule on the loop's own terms: the sum, the terms after the leading 1, and sum |t_n|.

    The series stops at the first zero term, or at the first block end (:func:`_block_ends`)
    whose last two terms are both below ``EPS_SERIES`` times the partial sum there.
    """
    p1, p2, p3, z = map(complex, (p1, p2, p3, z))
    ends = set(_block_ends(p1, p2, p3, abs(z))) if z else set()     # at z = 0 term 1 is zero
    scale = 1.0
    before = 1.0 + 0j
    for n, (term, total) in enumerate(loop_terms(p1, p2, p3, z), 1):
        scale += abs(term)
        if term == 0:
            return total, n, scale
        tol = EPS_SERIES * abs(total)
        if n in ends and abs(term) < tol and abs(before) < tol:
            return total, n, scale
        before = term
    raise ConvergenceError("loop_block_hyp2f1: no convergence")


def assert_matches_loop(p1, p2, p3, z):
    """The loop's sum and count under the block rule, a count no lower than the term-by-term stop's.

    Returns the term count.  The sums agree to 1e-14 of sum |t_n|: numpy may
    round a complex product or quotient differently from Python (a fused
    multiply-add), so they agree to the rounding of the largest terms, 1e-14
    relative wherever the terms do not cancel.
    """
    terms = loop_hyp2f1(p1, p2, p3, z)[1]
    ref, count, scale = loop_block_hyp2f1(p1, p2, p3, z)
    assert count >= terms
    assert _hyp2f1_series(complex(p1), complex(p2), complex(p3), complex(z))[1] == count
    got = hyp2f1(p1, p2, p3, z)
    assert abs(got - ref) <= 1e-14 * scale, (p1, p2, p3, z, got, ref)
    return count


@pytest.mark.parametrize("radius", [1e-300, 1e-3, 0.22, 0.85, 0.99])
def test_hyp2f1_blocks_match_loop_across_radii(radius):
    terms = [assert_matches_loop(p1, p2, p1 + 1.0, cmath.rect(radius, theta))
             for p1, p2 in ((3.3, 2.0), (3.3, 5.0), (1.7 - 0.4j, 0.5 + 1.2j))
             for theta in (0.4, 2.0, -2.9)]
    if radius == 0.99:
        assert max(terms) > _first_block_length(radius)     # a sum ran over several blocks


def test_hyp2f1_blocks_match_loop_at_domain_corners():
    # corners of the mpmath property domain: Re p1 = 50, |Im p1| = 10, |p2| = 5
    for p1 in (50.0 + 10.0j, 50.0 - 10.0j):
        for p2 in (5.0, -5.0, 5.0j, -5.0j):
            for z in (cmath.rect(0.5, 1.1), cmath.rect(0.9, -2.3)):
                assert_matches_loop(p1, p2, p1 + 1.0, z)


def test_hyp2f1_zero_term_inside_and_on_block_edges():
    # p1 = -k makes term k + 1 the first zero: mid-block, last of the first
    # block, first of the second.  Large p2 keeps every earlier term above the
    # two-small-terms cutoff, so the zero term is what stops the series.
    z = -0.22
    edge = _first_block_length(abs(z))
    for k in (edge // 2, edge - 1, edge):
        assert assert_matches_loop(-k, 40.0, 0.5, z) == k + 1


def test_hyp2f1_stop_straddling_a_block_edge():
    # the first of the two small terms ends the first block, the second lies
    # past it: the first block fails the rule at its end, and the series
    # continues into the second block, accepted at its end
    z = cmath.rect(0.22, 0.3)
    edge = _first_block_length(abs(z))
    p2 = next(p2 for p2 in np.arange(2.0, 20.0, 0.05)
              if loop_hyp2f1(3.3, p2, 4.3, z)[1] == edge + 1)
    assert assert_matches_loop(3.3, p2, 4.3, z) == 2 * edge


def test_hyp2f1_terminating_sum_is_exactly_zero():
    # 1 + (-1)(2)/(1*1) * 0.5 = 0, then a zero term; the partial sum 0 is
    # never "small" against itself, so only the zero term can stop it
    assert hyp2f1(-1.0, 2.0, 1.0, 0.5) == 0


def test_hyp2f1_computes_no_term_past_a_zero_term():
    # past the zero term the ratios (n - 1)(1e307 + n) overflow; the block
    # ends at the zero term, so none is computed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _hyp2f1_series(-1 + 0j, 1e307 + 0j, 0.5 + 0j, 0.5 + 0j) == (-1e307, 2)
        assert hyp2f1(-1.0, 1e307, 0.5, 0.5) == -1e307


def test_hyp2f1_ratio_cache_is_bounded_read_only_and_changes_no_bit():
    # the term ratios do not depend on z: the points of one orbit (one |z|,
    # one block length) share one read-only vector, and each sum is the one a
    # fresh vector gives
    zs = [cmath.rect(0.85, 0.4 * k) for k in range(8)]
    _ratios.cache_clear()
    shared = [_hyp2f1_series(3.5 - 1j, 2.0 + 0j, 4.5 - 1j, z) for z in zs]
    assert _ratios.cache_info().hits == len(zs) - 1
    for z, got in zip(zs, shared):
        _ratios.cache_clear()
        assert _hyp2f1_series(3.5 - 1j, 2.0 + 0j, 4.5 - 1j, z) == got
    assert not _ratios(3.5, 2.0, 4.5, 0, 10).flags.writeable
    assert _ratios.cache_info().maxsize <= 64


def test_hyp2f1_still_raises_convergence_error():
    with pytest.raises(ConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.9999)
    # a terminating series whose first term overflows: the zero term is NaN
    with warnings.catch_warnings(), pytest.raises(ConvergenceError):
        warnings.simplefilter("ignore")
        hyp2f1(-1.0, 1e308, 0.5, 0.9)


def test_hyp2f1_no_warning_from_terms_past_the_stop():
    # a block computes terms beyond a two-small-terms stop: here they
    # underflow, end at a zero term, or pass a near-pole ratio (p3 + n ~ 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((2.5, 3.0, 3.5, 1e-300), (1.0, 1.0, 2.0, 1e-200 + 1e-200j),
                     (-3.0, 2.0, 0.5, 0.9), (1.5, 2.0, -30.0 + 1e-9, 0.22)):
            assert_matches_loop(*args)


@pytest.mark.parametrize("p3, short, rtol", [
    (-30.0 + 1e-9, 1e-4, 1e-15),
    (-40.0 + 1e-9, 5e-10, 1e-15),
    (-40.0 - 1e-9, 5e-10, 1e-15),
    (-50.0 + 1e-9, None, 4e-15),    # the terms it lifts stay below the rounding error
], ids=["-30+1e-9", "-40+1e-9", "-40-1e-9", "-50+1e-9"])
def test_hyp2f1_sums_past_a_false_stop_before_a_near_pole_against_mpmath(p3, short, rtol):
    # p3 + m = +-1e-9: the terms fall below EPS_SERIES before term m, then the
    # ratio 1/(p3 + m) lifts them by 1e9.  A term-by-term stop ends before the
    # pole, 1.1e-4 short of the series at m = 30.  The first block ends past
    # the pole at m = 30 (34 terms at |z| = 0.22); from m = 40 on, past that
    # end, it reaches term m + 2.  The block rule, tested at block ends only,
    # sums through the pole; at m = 40 the first block's end once accepted
    # the series 6.9e-10 short
    args = (1.5, 2.0, p3, 0.22)
    m = round(-p3)
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp2f1(*args))
    loop_sum, loop_count, _ = loop_hyp2f1(*args)
    assert loop_count < m < _hyp2f1_series(*map(complex, args))[1]
    if short is not None:
        assert abs(loop_sum - ref) > short * abs(ref)
    assert abs(hyp2f1(*args) - ref) <= rtol * abs(ref)


@pytest.mark.parametrize("u0", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("delta1", [-1.1, -2.5, -6.0])
def test_beta_series_on_the_solvable_orbits_is_one_block(delta1, u0):
    # the solvable model's Beta series sum_n c_n B_z(R + n, -1), n = 0, 1, 2,
    # on its orbit |z| = sqrt(a) < 1: each 2F1(R + n, 2; R + n + 1; z) is
    # accepted at the end of its first block, so it costs one block of passes
    cfg = N2Config(u0=u0, delta1=delta1)
    big_r = generalized_rabi(u0, delta1)
    for k in range(16):
        z = circle_point(cfg, cfg.period * k / 16).value
        assert math.isclose(abs(z), math.sqrt(cfg.a), rel_tol=1e-15)
        for p in (big_r, big_r + 1.0, big_r + 2.0):
            got = _hyp2f1_series(complex(p), 2.0 + 0j, complex(p) + 1.0, z)[1]
            assert got == _first_block_length(abs(z)), (delta1, u0, k, p)


# ---------------------------------------------------------------- inc_beta

def test_inc_beta_unit_parameters_elementary():
    for z in (0.1, 0.5, 0.3 - 0.55j, 0.9j):
        assert abs(inc_beta(1.0, 1.0, z) - z) < 1e-13          # integrand == 1
        assert abs(inc_beta(1.0, -1.0, z) - z / (1.0 - z)) < 1e-13


def test_inc_beta_frozen_quadrature_value():
    # int_0^0.5 t (1-t)^(-2) dt; antiderivative 1/(1-t) + log(1-t) gives
    # 1 - log 2 = 0.30685281944005469; the live quadrature oracle must agree
    got = inc_beta(2.0, -1.0, 0.5)
    frozen = 0.30685281944005469
    assert abs(got - frozen) < 1e-12
    assert abs(got - quad_inc_beta(2.0, -1.0, 0.5)) < 1e-12


def test_inc_beta_matches_quadrature_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = rng.uniform(0.2, 4.0) + 1j * rng.uniform(-1.0, 1.0)
        q = rng.uniform(0.2, 4.0) + 1j * rng.uniform(-1.0, 1.0)
        z = rng.uniform(0.05, 0.9)
        got = inc_beta(p, q, z)
        ref = quad_inc_beta(p, q, z)
        assert abs(got - ref) < 1e-11 * (1.0 + abs(ref)), (p, q, z)


def test_inc_beta_derivative_is_integrand():
    # d/dz B_z(p,q) = z^(p-1) (1-z)^(q-1), finite-difference check
    h = 1e-6
    for (p, q) in [(1.7, 2.3), (2.5, -1.2), (0.8 + 0.3j, 1.1 - 0.7j)]:
        for z in (0.2, 0.45, 0.7):
            fd = (inc_beta(p, q, z + h) - inc_beta(p, q, z - h)) / (2 * h)
            exact = z ** (p - 1) * (1 - z) ** (q - 1)
            assert abs(fd - exact) < 1e-7 * (1.0 + abs(exact)), (p, q, z)


def test_inc_beta_rejects_nonpositive_integer_p():
    for p in (0.0, -1.0, -3.0):
        with pytest.raises(ParameterError):
            inc_beta(p, 2.0, 0.5)
    with pytest.raises(DomainError):
        inc_beta(1.5, 1.0, 1.3)


# ---------------------------------------------------------------- beta_step

def test_beta_step_zero_coupling_is_exact():
    # at (p, q) = (1, -1) the recursive weight q+p vanishes; the head alone
    # must reproduce z/(1-z) without touching the upper neighbour
    for z in (0.3, 0.7, 0.2 + 0.5j):
        assert abs(beta_step(1.0, -1.0, z) - z / (1.0 - z)) < 1e-13


def test_beta_step_against_inc_beta():
    assert abs(beta_step(2.0, -1.0, 0.4) - inc_beta(2.0, -1.0, 0.4)) < 1e-12
    # positive parameters against the quadrature oracle
    got = beta_step(1.3, 0.8, 0.5)
    assert abs(got - quad_inc_beta(1.3, 0.8, 0.5)) < 1e-12


def test_beta_step_identity_randomized():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        c = rng.uniform(-2.0, 3.0) + 1j * rng.uniform(-1.0, 1.0)
        b = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        if abs(c) < 0.1 or abs(c - round(c.real)) < 0.05:
            continue  # keep away from the excluded non-positive integers
        r = rng.uniform(0.05, 0.8)
        z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        ref = inc_beta(c, b, z)
        got = beta_step(c, b, z)
        assert abs(got - ref) <= EPS_CHECK * (1.0 + abs(ref)), (c, b, z)
        checked += 1


def test_beta_step_rejects_zero_p():
    with pytest.raises(ParameterError):
        beta_step(0.0, 1.0, 0.5)


def test_fold_beta_sum_rejects_empty_coeffs():
    for fold in (fold_beta_sum, twostate.fold_beta_sum):
        for coeffs in ([], ()):
            with pytest.raises(ParameterError):
                fold(coeffs, 1.5, -1.0, 0.5)


def test_inc_beta_and_beta_step_on_the_cover():
    # k turns up the cover change only the factor z^p, by exp(2 pi i k p)
    p, q, r, theta = 1.3 + 0.4j, 0.7 - 0.2j, 0.6, 0.9
    for kernel in (inc_beta, beta_step):
        principal = kernel(p, q, cmath.rect(r, theta))
        for k in (-2, -1, 1, 2):
            got = kernel(p, q, UnwoundPoint(r, theta + 2 * math.pi * k))
            ref = cmath.exp(2j * math.pi * k * p) * principal
            assert abs(got - ref) <= 1e-13 * abs(ref), (kernel.__name__, k)


# ---------------------------------------------------------------- powers on the cover

def test_power_unwound_identity_point():
    pt = UnwoundPoint(1.0, 0.0)
    for mu in (0.5, -1.3, 2.0 + 1.0j):
        assert power(pt, mu) == 1.0


def test_power_unwound_distinguishes_full_turn():
    pt = UnwoundPoint(1.0, 2.0 * math.pi)
    val = power(pt, 0.5)
    assert abs(val - (-1.0)) < 1e-15          # e^{i pi}, not +1
    assert abs(power(UnwoundPoint(1.0, 0.0), 0.5) - 1.0) < 1e-15


def test_power_unwound_constant_modulus_on_circle():
    # exponent (delta1 + R)/2 with delta1=2, u0=1: modulus sqrt(3)^(1+sqrt(2))
    mu = 0.5 * (2.0 + math.sqrt(4.0 + 4.0))
    expected_mod = math.sqrt(3.0) ** (1.0 + math.sqrt(2.0))
    for t in np.linspace(-7.0, 7.0, 9):
        val = power(UnwoundPoint(math.sqrt(3.0), t), mu)
        assert abs(abs(val) - expected_mod) < 1e-12 * expected_mod
        assert abs(cmath.phase(val) - ((mu * t + math.pi) % (2 * math.pi) - math.pi)) < 1e-10


def test_power_unwound_multiplicative_in_exponent():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pt = UnwoundPoint(rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0))
        m1 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        m2 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        lhs = power(pt, m1 + m2)
        rhs = power(pt, m1) * power(pt, m2)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_unwound_point_requires_positive_modulus():
    with pytest.raises(ParameterError):
        UnwoundPoint(0.0, 1.0)
    with pytest.raises(ParameterError):
        UnwoundPoint(-2.0, 0.0)


# ---------------------------------------------------------------- mpmath properties
# The domain documented in hyp2f1: |z| <= 0.9 and the incomplete-Beta shape
# p3 = p1 + 1 with -10 <= Re p1 <= 50, |Im p1| <= 10 and |p2| <= 5.

def _complex(re_lo, re_hi, im_bound):
    return st.builds(complex, st.floats(re_lo, re_hi), st.floats(-im_bound, im_bound))


def _disc(radius):
    return st.builds(cmath.rect, st.floats(0.0, radius), st.floats(-math.pi, math.pi))


BETA_P = _complex(-10.0, 50.0, 10.0)
ONE_MINUS_Q = _disc(5.0)        # p2 = 1 - q of the 2F1 representation
DISC_Z = _disc(0.9)
# example counts and seeding come from the loaded hypothesis profile (tests/conftest.py)


def _off_poles(p):
    # p = 0, -1, -2, ... are rejected by design (B_z(p, q) does not exist there)
    return abs(p - round(p.real)) > 1e-6 or round(p.real) > 0


def _in_range(p, z):
    # B_z(p, q) ~ z^p / p exceeds the double range for Re p < 0 and tiny |z|
    return z == 0 or p.real * math.log(abs(z)) < 700.0


@given(BETA_P, ONE_MINUS_Q, DISC_Z)
def test_hyp2f1_matches_mpmath(p, p2, z):
    assume(_off_poles(p + 1.0))
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(p, p2, p + 1.0, z))
    got = hyp2f1(p, p2, p + 1.0, z)
    assert abs(got - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, p2, z)


@given(BETA_P, ONE_MINUS_Q, DISC_Z)
@example(1j, 0.0, 5e-324 + 5e-324j)     # subnormal z: power(z, 1j) inside inc_beta(1j, 1, z)
@example(1j, 2.0, -5e-324 + 5e-324j)
@example(1j, 0.0, complex(-5e-324, -0.0))   # below the cut: rect(5e-324, -pi)
def test_inc_beta_and_beta_step_match_mpmath(p, p2, z):
    q = 1.0 - p2
    assume(_off_poles(p) and _off_poles(p + 1.0) and _in_range(p, z))
    with mpmath.workdps(30):
        if z.real < 0 and z.imag == 0 and math.copysign(1.0, z.imag) < 0:
            # cmath puts imaginary part -0.0 below the cut of z^p; mpmath has
            # no signed zero, so reflect: B(conj z; conj p, conj q) = conj B(z; p, q)
            ref = complex(mpmath.betainc(p.conjugate(), q.conjugate(), 0, z.real)).conjugate()
        else:
            ref = complex(mpmath.betainc(p, q, 0, z))
    assert abs(inc_beta(p, q, z) - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, q, z)
    assert abs(beta_step(p, q, z) - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, q, z)


@given(BETA_P, ONE_MINUS_Q, DISC_Z)
@example(-6.5, 1.0, 1e-13)              # p3 = -5.5: m = 6 past a first block of 5, to term 8
@example(-4.5, 1.0, 4.146384930621045e-42)  # p3 = -3.5: m = 4 at a first block of 4, to term 6
def test_hyp2f1_block_rule_against_the_loop_over_the_mpmath_domain(p, p2, z):
    # the block series against the term-by-term loop over the domain the
    # mpmath tests verify: the loop's sum under the block rule, to 1e-14 of
    # sum |t_n|, and no fewer terms than the term-by-term stop takes
    assume(_off_poles(p + 1.0))
    assert_matches_loop(p, p2, p + 1.0, z)


@pytest.mark.xfail(strict=True, reason="known defect: near Re p = 45, q = -4, |z| = 0.89 the "
                   "series misses EPS_CHECK inside the verified domain")
@pytest.mark.parametrize("kernel, p", [(inc_beta, 45 + 6j), (beta_step, 44 + 6j)],
                         ids=["inc_beta", "beta_step"])
def test_inc_beta_corner_the_mpmath_sweep_can_draw(kernel, p):
    # the random-seed sweep of test_inc_beta_and_beta_step_match_mpmath
    # fails when it lands here (1.5e-11 and 1.2e-11 against the 1e-11
    # bound); an a-posteriori series bound with a transformation should mend
    # it, and then this test fails as an unexpected pass
    z = cmath.rect(0.890625, -3.0)
    with mpmath.workdps(30):
        ref = complex(mpmath.betainc(p, -4, 0, z))
    assert abs(kernel(p, -4.0, z) - ref) <= EPS_CHECK * (1.0 + abs(ref))


@given(st.floats(0.05, 20.0), st.floats(-8 * math.pi, 8 * math.pi), _complex(-10.0, 50.0, 10.0))
def test_power_unwound_matches_mpmath(modulus, angle, mu):
    with mpmath.workdps(30):
        ref = complex(mpmath.power(modulus, mu) * mpmath.exp(1j * mu * angle))
    got = power(UnwoundPoint(modulus, angle), mu)
    assert abs(got - ref) <= EPS_CHECK * abs(ref), (modulus, angle, mu)


# ---------------------------------------------------------------- one fold loop
# fold_beta_sum and beta_step share one neighbour-recurrence loop.  These
# tests hold them to a term-by-term reference: the fold and the step written
# as two separate loops.

def two_loop_fold(coeffs, p0, q, z):
    """The separate fold loop: ``(sum of heads, top weight)``, head by head."""
    zc = as_complex(z)
    work = [complex(c) for c in coeffs]
    total = 0.0 + 0j
    for n in range(len(work) - 1):
        p = p0 + n
        try:
            total += work[n] * (power(z, p) / p * (1 - zc) ** q)
        except (OverflowError, ZeroDivisionError):      # (1 - z)^q left the float range
            raise DomainError("two_loop_fold: (1 - z)^q overflows") from None
        work[n + 1] += work[n] * (q + p) / p
    return total, work[-1]


def two_loop_beta_step(p, q, z):
    """The separate neighbour step: head plus weight times the upper neighbour.

    The head enters as a fold's first head does, weight 1 added to ``0j``:
    exact, but it turns a negative zero part of a head positive, and a real
    ``B_z`` then ends with imaginary part +0.0, not -0.0.
    """
    p, q, zc = complex(p), complex(q), as_complex(z)
    head = 0j + complex(1.0) * (power(z, p) / p * (1 - zc) ** q)
    coeff = (q + p) / p
    if coeff == 0:
        return head
    return head + coeff * inc_beta(p + 1, q, z)


def _bits(w):
    """The bits of a complex result, NaN and signed zeros included."""
    return w.real.hex(), w.imag.hex()


def _plain_or_unwound(radius):
    return st.one_of(st.builds(cmath.rect, st.floats(0.01, radius), st.floats(-math.pi, math.pi)),
                     st.builds(UnwoundPoint, st.floats(0.01, radius),
                               st.floats(-4 * math.pi, 4 * math.pi)))


@given(BETA_P, ONE_MINUS_Q, _plain_or_unwound(0.95))
@example(1.0, 2.0, 0.5)                 # q + p = 0: the head alone
@example(2.5, 0.0, UnwoundPoint(0.7, 7.0))
@example(-0.5, 0.0, 0.5)                # a real B_z: its imaginary part is +0.0
def test_beta_step_is_the_separate_step_bit_for_bit(p, p2, z):
    assume(_off_poles(p) and _off_poles(p + 1.0))
    q = 1.0 - p2
    try:
        ref = two_loop_beta_step(p, q, z)
    except DomainError:         # |z|^p overflows, or the upper neighbour has no series
        with pytest.raises(DomainError):
            beta_step(p, q, z)
        return
    assert _bits(beta_step(p, q, z)) == _bits(ref), (p, q, z)


@given(_complex(-6.0, 20.0, 5.0), _complex(-6.0, 3.0, 3.0),
       st.lists(_complex(-2.0, 2.0, 2.0), min_size=1, max_size=5), _plain_or_unwound(3.0),
       st.booleans())
@example(1.5, -1.0, [1.0, 0.5], 2.0 + 0.5j, False)
@example(2.2250738585e-313j, 0j, [0j], cmath.rect(3.0, -1.77), False)
@example(1j, -2.0 + 0j, [0j], 1 + 2.5015747239086904e-166j, False)  # (1 - z)^q overflows:
@example(1j, -2.0 + 1j, [0j], 1 + 2.5015747239086904e-166j, False)  # a bare error once
def test_fold_beta_sum_is_the_separate_loop_bit_for_bit(p0, q, head_coeffs, z, real):
    if real:
        p0, q = p0.real, q.real
    assume(all(p0 + n != 0 for n in range(len(head_coeffs))) and as_complex(z) != 1)
    carried = 0j                        # the top coefficient cancels the weight folded up to it
    for n, c in enumerate(head_coeffs):
        carried = (carried + c) * (q + p0 + n) / (p0 + n)
    coeffs = [*head_coeffs, -carried]
    assume(cmath.isfinite(carried))
    try:
        total, weight = two_loop_fold(coeffs, p0, q, z)
    except DomainError:
        with pytest.raises(DomainError):
            fold_beta_sum(coeffs, p0, q, z)
        return
    if abs(weight) <= 1e-10 * max(1.0, max(abs(c) for c in coeffs)):
        # a head that overflows (|p0| near 1e-308) makes both sides NaN
        assert _bits(fold_beta_sum(coeffs, p0, q, z)) == _bits(total)
    else:
        with pytest.raises(DomainError, match="does not fold"):
            fold_beta_sum(coeffs, p0, q, z)


# ---------------------------------------------------------------- pinned values
# The models above check the kernels' arithmetic against models of the same
# arithmetic.  These rows hold the values themselves: the bits the kernels
# gave on the solvable model's orbits before their fixed per-call costs were
# reworked.  z = circle_point(N2Config(u0, delta1), t), unwound or plain.
# inc_beta(R + n, -1, z) has a series only inside the disc, for delta1 < -1.

PINNED_ORBIT_VALUES = [
    # u0, delta1, t, unwound, kernel, real part, imaginary part
    (0.25, -1.106, 0.9, True, "inc_beta0", "0x1.733517b583b30p-9", "-0x1.d673b52cc701cp-4"),
    (0.25, -1.106, 0.9, True, "inc_beta1", "-0x1.56e0f112da659p-7", "0x1.1ba591938f4d6p-7"),
    (0.25, -1.106, 0.9, True, "inc_beta2", "0x1.08bd9beda77f4p-9", "0x1.8db15b2637998p-12"),
    (0.25, -1.106, 0.9, True, "three_beta", "0x1.71fcb81725cf8p-5", "-0x1.2ae3fd503197cp-3"),
    (0.25, -1.106, 0.9, True, "quasipoly", "0x1.71fcb81725cf5p-5", "-0x1.2ae3fd503197bp-3"),
    (0.25, -1.106, 0.9, False, "inc_beta0", "-0x1.c7b25ce9a300cp-4", "-0x1.d5e54d9cce446p-6"),
    (0.25, -1.106, 0.9, False, "inc_beta1", "0x1.8de4e21897230p-8", "0x1.8e0c02780527ep-7"),
    (0.25, -1.106, 0.9, False, "inc_beta2", "0x1.b0b4c2d08de3cp-11", "-0x1.ed620d50e1572p-10"),
    (0.25, -1.106, 0.9, False, "three_beta", "-0x1.0e4df3ecb59e5p-3", "-0x1.3b21415922a34p-4"),
    (0.25, -1.106, 0.9, False, "quasipoly", "-0x1.0e4df3ecb59e3p-3", "-0x1.3b21415922a35p-4"),
    (0.25, -1.106, -17.3, True, "inc_beta0", "0x1.3917ea074e929p-6", "0x1.07b651b67a9ffp-3"),
    (0.25, -1.106, -17.3, True, "inc_beta1", "0x1.fbb5162b07428p-7", "-0x1.dd65a8c3aba8ep-9"),
    (0.25, -1.106, -17.3, True, "inc_beta2", "-0x1.6900133e6bdaap-11", "-0x1.344f0b7348639p-9"),
    (0.25, -1.106, -17.3, True, "three_beta", "-0x1.40c3b96cdb346p-5", "0x1.19e2940d8a58cp-3"),
    (0.25, -1.106, -17.3, True, "quasipoly", "-0x1.40c3b96cdb343p-5", "0x1.19e2940d8a58cp-3"),
    (0.25, -1.106, -17.3, False, "inc_beta0", "-0x1.2e3833f167174p-4", "-0x1.b7479127e66b6p-4"),
    (0.25, -1.106, -17.3, False, "inc_beta1", "-0x1.93825446eb2f6p-7", "0x1.4a70f6d071cd4p-7"),
    (0.25, -1.106, -17.3, False, "inc_beta2", "0x1.b140c8022734ap-10", "0x1.da6f8d7372a6cp-10"),
    (0.25, -1.106, -17.3, False, "three_beta", "-0x1.9f6d432dc7a70p-6", "-0x1.206eb2cbebddap-3"),
    (0.25, -1.106, -17.3, False, "quasipoly", "-0x1.9f6d432dc7a71p-6", "-0x1.206eb2cbebdd9p-3"),
    (0.7, -4.0, 0.9, True, "inc_beta0", "-0x1.b7a7aea27f7e3p-6", "-0x1.a3c868dddd5bep-6"),
    (0.7, -4.0, 0.9, True, "inc_beta1", "-0x1.95dea06e821d8p-10", "0x1.713bbbde0e1b8p-6"),
    (0.7, -4.0, 0.9, True, "inc_beta2", "0x1.8055bd9f72403p-7", "-0x1.1135cbb0b2c00p-7"),
    (0.7, -4.0, 0.9, True, "three_beta", "-0x1.7bf866a54466cp-7", "-0x1.4833e55c63eb7p-4"),
    (0.7, -4.0, 0.9, True, "quasipoly", "-0x1.7bf866a544696p-7", "-0x1.4833e55c63eb8p-4"),
    (0.7, -4.0, 0.9, False, "inc_beta0", "-0x1.c3e6f3dc6d0d6p-6", "0x1.9691be8b457e1p-6"),
    (0.7, -4.0, 0.9, False, "inc_beta1", "0x1.6e3f83f83dbb0p-6", "0x1.aa432d71376dcp-9"),
    (0.7, -4.0, 0.9, False, "inc_beta2", "-0x1.e694add503bf8p-8", "-0x1.93f0715b9548bp-7"),
    (0.7, -4.0, 0.9, False, "three_beta", "-0x1.4adbd8b855c7fp-4", "0x1.67b1eb72415acp-8"),
    (0.7, -4.0, 0.9, False, "quasipoly", "-0x1.4adbd8b855c7ep-4", "0x1.67b1eb72415bap-8"),
    (0.7, -4.0, -17.3, True, "inc_beta0", "-0x1.428ad12837625p-7", "0x1.bdd45f8542d66p-5"),
    (0.7, -4.0, -17.3, True, "inc_beta1", "0x1.1575dad898248p-5", "0x1.070b7e4aece3cp-8"),
    (0.7, -4.0, -17.3, True, "inc_beta2", "0x1.89faa5c84987cp-10", "-0x1.661c0983bde51p-6"),
    (0.7, -4.0, -17.3, True, "three_beta", "-0x1.3ca0d008b5434p-4", "0x1.84b8b74f4f23ep-6"),
    (0.7, -4.0, -17.3, True, "quasipoly", "-0x1.3ca0d008b5434p-4", "0x1.84b8b74f4f241p-6"),
    (0.7, -4.0, -17.3, False, "inc_beta0", "0x1.8a049da5fb5f0p-10", "-0x1.c4e54b72be70ep-5"),
    (0.7, -4.0, -17.3, False, "inc_beta1", "-0x1.173e078200578p-5", "0x1.2e1affaf2b850p-10"),
    (0.7, -4.0, -17.3, False, "inc_beta2", "0x1.dcb654e9bc9b8p-10", "0x1.65b767b619776p-6"),
    (0.7, -4.0, -17.3, False, "three_beta", "0x1.2a4c799ec4e0ap-4", "-0x1.1fdb2ed5d59fap-5"),
    (0.7, -4.0, -17.3, False, "quasipoly", "0x1.2a4c799ec4e09p-4", "-0x1.1fdb2ed5d59f9p-5"),
    (1.0, 2.0, 0.9, True, "three_beta", "-0x1.80e23fb9a9c9dp-1", "-0x1.79e45c1c2c1fap-1"),
    (1.0, 2.0, 0.9, True, "quasipoly", "-0x1.80e23fb9a9c9dp-1", "-0x1.79e45c1c2c1f9p-1"),
    (1.0, 2.0, 0.9, False, "three_beta", "-0x1.80e23fb9a9c9bp-1", "-0x1.79e45c1c2c1fcp-1"),
    (1.0, 2.0, 0.9, False, "quasipoly", "-0x1.80e23fb9a9c9ap-1", "-0x1.79e45c1c2c1fcp-1"),
    (1.0, 2.0, -17.3, True, "three_beta", "-0x1.d61e4669b3c8fp-2", "0x1.7aa41688f3932p-1"),
    (1.0, 2.0, -17.3, True, "quasipoly", "-0x1.d61e4669b3c82p-2", "0x1.7aa41688f392dp-1"),
    (1.0, 2.0, -17.3, False, "three_beta", "0x1.8e2d01b8803d8p-2", "-0x1.8ebaef6abd3c4p-1"),
    (1.0, 2.0, -17.3, False, "quasipoly", "0x1.8e2d01b8803d5p-2", "-0x1.8ebaef6abd3c3p-1"),
    (0.4, 5.5, 0.9, True, "three_beta", "0x1.56b6ad3795f2cp-2", "-0x1.c940e14178ed9p-3"),
    (0.4, 5.5, 0.9, True, "quasipoly", "0x1.56b6ad3795f2cp-2", "-0x1.c940e14178ed8p-3"),
    (0.4, 5.5, 0.9, False, "three_beta", "0x1.56b6ad3795f2cp-2", "-0x1.c940e14178ed9p-3"),
    (0.4, 5.5, 0.9, False, "quasipoly", "0x1.56b6ad3795f2cp-2", "-0x1.c940e14178ed8p-3"),
    (0.4, 5.5, -17.3, True, "three_beta", "0x1.48705e03acbb0p-7", "-0x1.7a8f93ff25df2p-2"),
    (0.4, 5.5, -17.3, True, "quasipoly", "0x1.48705e03acadcp-7", "-0x1.7a8f93ff25de7p-2"),
    (0.4, 5.5, -17.3, False, "three_beta", "-0x1.548c674a192d3p-2", "0x1.4b4d8fa78eff5p-3"),
    (0.4, 5.5, -17.3, False, "quasipoly", "-0x1.548c674a192cfp-2", "0x1.4b4d8fa78eff3p-3"),
]


@pytest.mark.parametrize("u0, delta1, t, unwound, kernel, re, im", PINNED_ORBIT_VALUES)
def test_kernel_values_on_the_solvable_orbits_are_pinned(u0, delta1, t, unwound, kernel, re, im):
    pt = circle_point(N2Config(u0=u0, delta1=delta1), t)
    z = pt if unwound else pt.value
    if kernel == "three_beta":
        got = hg_three_beta(delta1, u0, z)
    elif kernel == "quasipoly":
        got = hg_quasipoly(delta1, u0, z)
    else:
        got = inc_beta(generalized_rabi(u0, delta1) + int(kernel[-1]), -1.0, z)
    assert _bits(got) == (re, im)


# ---------------------------------------------------------------- continued series blocks
# A series longer than its first block continues from its last term and
# partial sum.  This holds it to the block series as it was before: each
# longer block summed again from term 0, the same sequential operations.

def restart_hyp2f1_series(p1, p2, p3, z):
    """The block series as it was before blocks continued: each block end sums again from term 0."""
    if not (p1.imag or p2.imag or p3.imag):
        p1, p2, p3 = p1.real, p2.real, p3.real
    for stop in _block_ends(p1, p2, p3, abs(z)):
        n = np.arange(float(stop))
        t = np.empty(stop + 1, dtype=complex)
        t[0] = 1.0
        np.multiply((p1 + n) * (p2 + n) / ((p3 + n) * (n + 1.0)), z, out=t[1:])
        np.multiply.accumulate(t, out=t)
        s = np.add.accumulate(t)
        if t[-1] == 0:
            j = (t == 0).argmax()
            return complex(s[j]), int(j)
        if abs(t[-1]) < abs(s[-1]) * EPS_SERIES and abs(t[-2]) < abs(s[-1]) * EPS_SERIES:
            return complex(s[-1]), stop
    raise ConvergenceError("restart_hyp2f1_series: no convergence")


@given(BETA_P, ONE_MINUS_Q, st.builds(cmath.rect, st.floats(0.5, 0.99), st.floats(-math.pi, math.pi)))
@example(3.3, 5.0, 0.99j)               # 6,211 terms, past a first block of 4,586
def test_hyp2f1_continued_blocks_equal_the_restart(p, p2, z):
    p, p2, z = complex(p), complex(p2), complex(z)
    assume(_off_poles(p + 1.0))
    try:
        ref = restart_hyp2f1_series(p, p2, p + 1.0, z)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            _hyp2f1_series(p, p2, p + 1.0, z)
        return
    assert _hyp2f1_series(p, p2, p + 1.0, z) == ref, (p, p2, z)
