"""Special-function kernels against independent oracles.

Oracles used here: elementary closed forms (logarithm, rational functions),
adaptive quadrature of the defining integral, finite differences of the
integral's derivative, and 30-digit mpmath values at hypothesis-drawn points.  Frozen constants are recorded next to the expression
that produced them.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from twostate.errors import DomainError, ParameterError
from twostate.specfun import (EPS_CHECK, UnwoundPoint, beta_step, hyp2f1, inc_beta,
                              unwound_power)


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
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def _off_poles(p):
    # p = 0, -1, -2, ... are rejected by design (B_z(p, q) does not exist there)
    return abs(p - round(p.real)) > 1e-6 or round(p.real) > 0


def _in_range(p, z):
    # B_z(p, q) ~ z^p / p exceeds the double range for Re p < 0 and tiny |z|
    return z == 0 or p.real * math.log(abs(z)) < 700.0


@PROPERTY
@given(BETA_P, ONE_MINUS_Q, DISC_Z)
def test_hyp2f1_matches_mpmath(p, p2, z):
    assume(_off_poles(p + 1.0))
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(p, p2, p + 1.0, z))
    got = hyp2f1(p, p2, p + 1.0, z)
    assert abs(got - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, p2, z)


@PROPERTY
@given(BETA_P, ONE_MINUS_Q, DISC_Z)
@example(1j, 0.0, 5e-324 + 5e-324j)     # subnormal z: power(z, 1j) inside inc_beta(1j, 1, z)
@example(1j, 2.0, -5e-324 + 5e-324j)
def test_inc_beta_and_beta_step_match_mpmath(p, p2, z):
    q = 1.0 - p2
    assume(_off_poles(p) and _off_poles(p + 1.0) and _in_range(p, z))
    with mpmath.workdps(30):
        ref = complex(mpmath.betainc(p, q, 0, z))
    assert abs(inc_beta(p, q, z) - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, q, z)
    assert abs(beta_step(p, q, z) - ref) <= EPS_CHECK * (1.0 + abs(ref)), (p, q, z)


@PROPERTY
@given(st.floats(0.05, 20.0), st.floats(-8 * math.pi, 8 * math.pi), _complex(-10.0, 50.0, 10.0))
def test_unwound_power_matches_mpmath(modulus, angle, mu):
    with mpmath.workdps(30):
        ref = complex(mpmath.power(modulus, mu) * mpmath.exp(1j * mu * angle))
    got = unwound_power(UnwoundPoint(modulus, angle), mu)
    assert abs(got - ref) <= EPS_CHECK * abs(ref), (modulus, angle, mu)
