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
from twostate.errors import ConvergenceError, DomainError, ParameterError
from twostate.specfun import (EPS_CHECK, EPS_SERIES, MAX_TERMS, UnwoundPoint,
                              _first_block_length, _hyp2f1_series, beta_step, fold_beta_sum,
                              hyp2f1, inc_beta, unwound_power)


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
    for kernel in (inc_beta, beta_step):
        for args in ((bad, 2.0), (2.0, bad)):
            with pytest.raises(ParameterError, match=kernel.__name__):
                kernel(*args, 0.5)
        with pytest.raises(DomainError, match=kernel.__name__):
            kernel(2.0, 2.0, bad)


# ---------------------------------------------------------------- hyp2f1 stopping rule
# hyp2f1 sums its series in numpy blocks.  These tests hold it to a
# term-by-term loop of the same recurrence, with stops and zero terms at
# block edges.

def loop_hyp2f1(p1, p2, p3, z):
    """Term-by-term reference: the sum, the terms after the leading 1, and sum |t_n|."""
    p1, p2, p3, z = complex(p1), complex(p2), complex(p3), complex(z)
    total = term = 1.0 + 0j
    scale = 1.0
    small_streak = 0
    for n in range(MAX_TERMS):
        term *= (p1 + n) * (p2 + n) / ((p3 + n) * (n + 1)) * z
        total += term
        scale += abs(term)
        if term == 0:
            return total, n + 1, scale
        if abs(term) < EPS_SERIES * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total, n + 1, scale
        else:
            small_streak = 0
    raise ConvergenceError("loop_hyp2f1: no convergence")


def assert_matches_loop(p1, p2, p3, z):
    """Same stop as the loop, and the same sum to 1e-14 of sum |t_n|; returns the term count.

    numpy may round a complex product or quotient differently from Python
    (a fused multiply-add), so the sums agree to the rounding of the largest
    terms: 1e-14 relative wherever the terms do not cancel.
    """
    ref, terms, scale = loop_hyp2f1(p1, p2, p3, z)
    assert _hyp2f1_series(complex(p1), complex(p2), complex(p3), complex(z))[1] == terms
    got = hyp2f1(p1, p2, p3, z)
    assert abs(got - ref) <= 1e-14 * scale, (p1, p2, p3, z, got, ref)
    return terms


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
    # past it: the longer block summed again from term 0 must find the pair
    z = cmath.rect(0.22, 0.3)
    edge = _first_block_length(abs(z))
    p2 = next(p2 for p2 in np.arange(2.0, 20.0, 0.05)
              if loop_hyp2f1(3.3, p2, 4.3, z)[1] == edge + 1)
    assert assert_matches_loop(3.3, p2, 4.3, z) == edge + 1


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


def test_hyp2f1_still_raises_convergence_error():
    with pytest.raises(ConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.9999)
    # a terminating series whose first term overflows: the zero term is NaN
    with warnings.catch_warnings(), pytest.raises(ConvergenceError):
        warnings.simplefilter("ignore")
        hyp2f1(-1.0, 1e308, 0.5, 0.9)


def test_hyp2f1_no_warning_from_terms_past_the_stop():
    # a block computes terms beyond a two-small-terms stop: here they
    # underflow or pass a near-pole ratio (p3 + n ~ 1e-9); it ends at a zero term
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((2.5, 3.0, 3.5, 1e-300), (1.0, 1.0, 2.0, 1e-200 + 1e-200j),
                     (-3.0, 2.0, 0.5, 0.9), (1.5, 2.0, -30.0 + 1e-9, 0.22)):
            assert_matches_loop(*args)


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


# ---------------------------------------------------------------- unwound powers

def test_unwound_power_identity_point():
    pt = UnwoundPoint(1.0, 0.0)
    for mu in (0.5, -1.3, 2.0 + 1.0j):
        assert unwound_power(pt, mu) == 1.0


def test_unwound_power_distinguishes_full_turn():
    pt = UnwoundPoint(1.0, 2.0 * math.pi)
    val = unwound_power(pt, 0.5)
    assert abs(val - (-1.0)) < 1e-15          # e^{i pi}, not +1
    assert abs(unwound_power(UnwoundPoint(1.0, 0.0), 0.5) - 1.0) < 1e-15


def test_unwound_power_constant_modulus_on_circle():
    # exponent (delta1 + R)/2 with delta1=2, u0=1: modulus sqrt(3)^(1+sqrt(2))
    mu = 0.5 * (2.0 + math.sqrt(4.0 + 4.0))
    expected_mod = math.sqrt(3.0) ** (1.0 + math.sqrt(2.0))
    for t in np.linspace(-7.0, 7.0, 9):
        val = unwound_power(UnwoundPoint(math.sqrt(3.0), t), mu)
        assert abs(abs(val) - expected_mod) < 1e-12 * expected_mod
        assert abs(cmath.phase(val) - ((mu * t + math.pi) % (2 * math.pi) - math.pi)) < 1e-10


def test_unwound_power_multiplicative_in_exponent():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pt = UnwoundPoint(rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0))
        m1 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        m2 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        lhs = unwound_power(pt, m1 + m2)
        rhs = unwound_power(pt, m1) * unwound_power(pt, m2)
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


@given(st.floats(0.05, 20.0), st.floats(-8 * math.pi, 8 * math.pi), _complex(-10.0, 50.0, 10.0))
def test_unwound_power_matches_mpmath(modulus, angle, mu):
    with mpmath.workdps(30):
        ref = complex(mpmath.power(modulus, mu) * mpmath.exp(1j * mu * angle))
    got = unwound_power(UnwoundPoint(modulus, angle), mu)
    assert abs(got - ref) <= EPS_CHECK * abs(ref), (modulus, angle, mu)
