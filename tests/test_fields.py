"""Drive-family construction, classification and cross-family consistency.

Hand values below come from rationalized arithmetic (recorded inline) or from
the adaptive-quadrature oracle; each frozen number carries its derivation.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from twostate.errors import DomainError, ParameterError
from twostate.fields import (GLANCING_TOL, U0_FLOOR, CrossingReport, FieldConfig, N2Config,
                             a_from_delta1, classify_crossings, detuning_general, detuning_n2,
                             detuning_n3, drive_field, glancing_ratios, n3_general_config,
                             n3_singular_point)

# glancing member of the a=16 family: delta1/delta2 = 25/15 = (sqrt(16)+1)/(sqrt(16)-1)
GLANCING_16 = dict(u0=1.0, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0)


# ---------------------------------------------------------------- general family

def test_detuning_general_glancing_touch_at_origin():
    cfg = FieldConfig(**GLANCING_16)
    assert abs(detuning_general(cfg, 0.0)) < 1e-12


def test_detuning_general_hand_value_at_half_period():
    # denominator 1 + 16 + 8 = 25; delta1 + (-15)(-15/16)/25 = -25/16 + 9/16 = -1
    cfg = FieldConfig(**GLANCING_16)
    assert abs(detuning_general(cfg, math.pi) - (-1.0)) < 1e-13


def test_detuning_general_no_modulation():
    cfg = FieldConfig(u0=0.7, a=4.0, delta1=1.3, delta2=0.0)
    ts = np.linspace(-5, 5, 101)
    assert np.max(np.abs(detuning_general(cfg, ts) - 1.3)) == 0.0


def test_detuning_general_periodicity():
    cfg = FieldConfig(u0=1.0, a=2.5, delta1=0.4, delta2=-1.1, delta=1.7, t0=0.3)
    ts = np.linspace(0, 3, 50)
    assert np.max(np.abs(detuning_general(cfg, ts + cfg.period)
                         - detuning_general(cfg, ts))) < 1e-12
    cfg2 = N2Config(u0=0.6, delta1=2.4, delta=1.7, t0=0.3)
    assert np.max(np.abs(detuning_n2(cfg2, ts + cfg2.period)
                         - detuning_n2(cfg2, ts))) < 1e-12


def test_scaled_config_reproduces_physical_detuning():
    cfg = FieldConfig(u0=2.0, a=3.0, delta1=4.0, delta2=1.5, delta=2.0, t0=0.5)
    s = cfg.scaled()
    assert s.delta == 1.0 and s.t0 == 0.0
    for t in np.linspace(0.0, 4.0, 17):
        tau = cfg.delta * (t - cfg.t0)
        assert abs(detuning_general(cfg, t)
                   - cfg.delta * detuning_general(s, tau)) < 1e-12


@pytest.mark.parametrize("detuning, cfg", [
    (detuning_general, FieldConfig(u0=1.0, a=2.5, delta1=0.4, delta2=-1.1, delta=1.7, t0=0.3)),
    (detuning_general, FieldConfig(**GLANCING_16)),
    (detuning_n2, N2Config(u0=0.6, delta1=2.4, delta=1.7, t0=0.3)),
    (detuning_n2, N2Config(u0=0.6, delta1=-1.1)),
    (lambda branch, t: detuning_n3(1.0, -2.0, branch, t), +1),
])
def test_detuning_scalar_matches_array(detuning, cfg):
    # one formula, evaluated with math for a scalar and numpy for an array
    ts = np.linspace(-7.5, 7.5, 61)          # steps of 1/4, so the integers are included
    for t, ref in zip(ts, detuning(cfg, ts)):
        for scalar in (float(t), np.float64(t)) + ((int(t),) if t == int(t) else ()):
            val = detuning(cfg, scalar)
            assert type(val) is float and val == ref, (scalar, val, ref)


def test_field_config_validation():
    with pytest.raises(ParameterError):
        FieldConfig(u0=0.0, a=2.0, delta1=1.0, delta2=1.0)
    with pytest.raises(ParameterError):
        FieldConfig(u0=1.0, a=1.0, delta1=1.0, delta2=1.0)
    with pytest.raises(ParameterError):
        FieldConfig(u0=1.0, a=-2.0, delta1=1.0, delta2=1.0)
    good = dict(u0=1.0, a=2.0, delta1=1.0, delta2=1.0, delta=1.0, t0=0.0)
    for key in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                FieldConfig(**{**good, key: bad})


# ---------------------------------------------------------------- two-parameter model

def test_detuning_n2_hand_values():
    cfg = N2Config(u0=1.0, delta1=2.0)
    # rationalize 2/(2-sqrt(3)): (2-sqrt3)(2+sqrt3) = 1, so value = -2 - 2 sqrt(3)
    assert abs(detuning_n2(cfg, 0.0) - (-2.0 - 2.0 * math.sqrt(3.0))) < 1e-13
    assert abs(detuning_n2(cfg, math.pi) - (-2.0 + 2.0 * math.sqrt(3.0))) < 1e-13


def test_detuning_n2_large_carrier_asymptote():
    # delta1 - 1/delta1 + O(delta1^-3) at half period: 99.99 to four decimals
    cfg = N2Config(u0=1.0, delta1=100.0)
    val = detuning_n2(cfg, math.pi)
    assert abs(val - 99.99) < 1e-4
    assert abs(val - (100.0 - 2.0 / (100.0 + math.sqrt(9999.0)))) < 1e-12


def test_detuning_n2_matches_general_family_positive_branch():
    for d1 in (1.5, 2.0, 3.0, 7.0):
        cfg = N2Config(u0=0.8, delta1=d1)
        twin = cfg.as_general()
        ts = np.linspace(0.0, cfg.period, 2000)
        dev = np.max(np.abs(detuning_n2(cfg, ts) - detuning_general(twin, ts)))
        assert dev < 1e-13, (d1, dev)


def test_detuning_n2_matches_general_family_with_drive_scaling():
    cfg = N2Config(u0=0.5, delta1=2.5, delta=2.0, t0=0.7)
    twin = cfg.as_general()
    ts = np.linspace(0.0, 2 * cfg.period, 500)
    assert np.max(np.abs(detuning_n2(cfg, ts) - detuning_general(twin, ts))) < 1e-12


def test_detuning_n2_negative_branch_is_half_period_shift_of_general():
    # for delta1 < -1 the two-parameter form fixes the opposite cosine sign,
    # i.e. the general-family twin shifted by half a period
    cfg = N2Config(u0=1.0, delta1=-3.0)
    twin = cfg.as_general()
    ts = np.linspace(0.0, cfg.period, 400)
    shifted = detuning_general(twin, ts + 0.5 * cfg.period)
    assert np.max(np.abs(detuning_n2(cfg, ts) - shifted)) < 1e-13


def test_detuning_n2_mean_value():
    # (1/2pi) int detuning dt = delta1 - 2 (exact: int dt/(A - B cos t) = 2 pi
    # for A^2 - B^2 = 1, A > 0)
    for d1 in (1.3, 2.0, 5.0):
        cfg = N2Config(u0=1.0, delta1=d1)
        val, _ = quad(lambda s: detuning_n2(cfg, s), 0.0, 2 * math.pi,
                      epsabs=1e-12, epsrel=1e-12, limit=300)
        assert abs(val / (2 * math.pi) - (d1 - 2.0)) < 1e-10, d1


def test_n2_config_validation():
    with pytest.raises(ParameterError):
        N2Config(u0=1.0, delta1=1.0)
    with pytest.raises(ParameterError):
        N2Config(u0=1.0, delta1=-0.5)
    with pytest.raises(ParameterError):
        N2Config(u0=-1.0, delta1=2.0)
    good = dict(u0=1.0, delta1=2.0, delta=1.0, t0=0.0)
    for key in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                N2Config(**{**good, key: bad})


def test_n2_config_coupling_floor():
    # u0 >= U0_FLOOR |delta1|^5, also where |delta1|^5 itself would overflow a double
    for d1 in (2.0, -6.0, 1e3, 1e100):
        floor = math.exp(math.log(U0_FLOOR) + 5.0 * math.log(abs(d1)))
        if floor < 1.0:
            N2Config(u0=1.001 * floor, delta1=d1)
        with pytest.raises(ParameterError):
            N2Config(u0=min(0.999 * floor, 1e300), delta1=d1)
    for u0 in (5e-324, 3e-308, 1e-307):
        with pytest.raises(ParameterError):
            N2Config(u0=u0, delta1=2.0)
    N2Config(u0=1e-305, delta1=2.0)


# ---------------------------------------------------------------- shape parameter map

def test_a_from_delta1_values():
    assert a_from_delta1(3.0) == 2.0
    got = a_from_delta1(2.0)
    assert got == 3.0
    # termination constraint residual a(delta1-1) - delta1 - 1 must vanish
    assert abs(got * (2.0 - 1.0) - 2.0 - 1.0) == 0.0
    assert a_from_delta1(1e12) == pytest.approx(1.0, abs=3e-12)
    with pytest.raises(ParameterError):
        a_from_delta1(1.0)


def test_glancing_ratios_values():
    r1, r2 = glancing_ratios(2.0)
    # (sqrt2+1)/(sqrt2-1) rationalizes to 3 + 2 sqrt2
    assert abs(r1 - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-13
    assert abs(r2 - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-13
    r1, r2 = glancing_ratios(16.0)
    assert abs(r1 - 5.0 / 3.0) < 1e-14 and abs(r2 - 3.0 / 5.0) < 1e-14
    for a in (0.3, 2.0, 16.0, 7.7):
        r1, r2 = glancing_ratios(a)
        assert abs(r1 * r2 - 1.0) < 1e-13
    with pytest.raises(DomainError):
        glancing_ratios(1.0)


def test_glancing_vanishes_at_predicted_extremum():
    for a in (2.0, 16.0, 0.4):
        r1, r2 = glancing_ratios(a)
        d2 = -0.8
        cfg1 = FieldConfig(u0=1.0, a=a, delta1=r1 * d2, delta2=d2)      # touch at t0
        cfg2 = FieldConfig(u0=1.0, a=a, delta1=r2 * d2, delta2=d2)      # touch at t0 + pi
        assert abs(detuning_general(cfg1, cfg1.t0)) < 1e-12
        assert abs(detuning_general(cfg2, cfg2.t0 + math.pi)) < 1e-12


# ---------------------------------------------------------------- crossing census

def test_classify_no_modulation_is_non_crossing():
    cfg = FieldConfig(u0=1.0, a=4.0, delta1=0.9, delta2=0.0)
    rep = classify_crossings(cfg, (0.0, cfg.period))
    assert rep.kind == "non-crossing" and rep.times == ()


def test_classify_n2_two_crossings_at_analytic_roots():
    cfg = N2Config(u0=1.0, delta1=3.0)
    rep = classify_crossings(cfg, (0.0, cfg.period))
    assert rep.kind == "crossing"
    assert len(rep.times) == 2
    # cos t* = (delta1 - 2/delta1)/sqrt(delta1^2-1) = 7/(6 sqrt 2)
    tstar = math.acos(7.0 / (6.0 * math.sqrt(2.0)))
    assert abs(rep.times[0] - tstar) < 1e-9
    assert abs(rep.times[1] - (2 * math.pi - tstar)) < 1e-9
    for r in rep.times:
        assert abs(detuning_n2(cfg, r)) < 1e-12


def test_classify_n2_below_threshold_non_crossing():
    # crossing requires |delta1| >= 2/sqrt(3) = 1.1547
    rep = classify_crossings(N2Config(u0=1.0, delta1=1.1), (0.0, 2 * math.pi))
    assert rep.kind == "non-crossing"


def test_classify_glancing():
    r1, _ = glancing_ratios(16.0)
    cfg = FieldConfig(u0=1.0, a=16.0, delta1=r1 * (-15.0 / 16.0), delta2=-15.0 / 16.0)
    rep = classify_crossings(cfg, (-1.0, cfg.period))
    assert rep.kind == "glancing"
    assert any(abs(t - 0.0) < 1e-9 for t in rep.times)
    # touches thousands of periods out, where sin(k pi) in floating point is
    # far from zero
    for delta, n_periods in ((100.0, 1000), (1.0, 100_000)):
        cfg = FieldConfig(u0=1.0, a=16.0, delta1=r1 * 15.0, delta2=15.0, delta=delta, t0=0.3)
        tc = cfg.t0 + n_periods * cfg.period
        rep = classify_crossings(cfg, (tc - 0.5 * cfg.period, tc + 0.5 * cfg.period))
        assert rep.kind == "glancing", (delta, rep)
        assert any(abs(t - tc) < 1e-12 * tc for t in rep.times)


def test_classify_window_validation():
    with pytest.raises(ParameterError):
        classify_crossings(N2Config(u0=1.0, delta1=2.0), (1.0, 1.0))
    # a config of another type is refused by both, also one with the attributes of a drive
    look_alike = SimpleNamespace(**vars(N2Config(u0=1.0, delta1=2.0)), period=2 * math.pi)
    for cfg in (None, look_alike, {"u0": 1.0, "delta1": 2.0}):
        with pytest.raises(ParameterError, match="unsupported config type"):
            classify_crossings(cfg, (0.0, 1.0))
        with pytest.raises(ParameterError, match="drive_field: unsupported config type"):
            drive_field(cfg)
    # an infinite window once raised a bare OverflowError, and one 2**60 long
    # walked its 3.7e17 extrema one by one
    for window in ((0.0, math.inf), (0.0, 2.0**60)):
        with pytest.raises(ParameterError, match="periods from the drive's centre"):
            classify_crossings(N2Config(u0=1.0, delta1=-2.5), window)


def test_classify_reports_the_closed_window():
    # the window's ends are the touches at theta = 12 pi and 14 pi; the second
    # rounds one ulp above the end, so only the first lies in the window (the
    # census once reported both)
    cfg = FieldConfig(u0=1.0, a=16.0, delta1=-1.5625, delta2=-0.9375, delta=0.7)
    t_lo, t_hi = 53.85587406153931, 62.83185307179586
    rep = classify_crossings(cfg, (t_lo, t_hi))
    assert rep == CrossingReport("glancing", (t_lo,))
    # a touch on either end is reported, the census's float of it being the end
    for k in range(-40, 41):
        end = cfg.t0 + 2 * k * math.pi / cfg.delta
        for window in ((end, end + 1.0), (end - 1.0, end)):
            assert end in classify_crossings(cfg, window).times, (k, window)


U = 2.0**-53     # unit roundoff of a double


def _gamma(n):
    """``n u / (1 - n u)``: bounds ``|prod (1 + e_i)^(+-1) - 1|`` over ``n`` roundings ``e_i``."""
    return n * U / (1 - n * U)


def _touch_in_doubt(float_err, values):
    """Whether the census's float of an exact detuning in ``values`` may cross GLANCING_TOL."""
    return any(abs(abs(d) - GLANCING_TOL) <= float_err(d) for d in values)


def _census_reference(detuning, float_err, t0, delta, window, edge_tol):
    """Kind and times of the crossing census of a 30-digit ``detuning(theta)``.

    The glancing rule at the extrema theta = k pi, and mpmath.findroot
    bracketing the transversal root between theta = 0 and pi; no closed form.
    An event within ``edge_tol`` of a window end is in or out by rounding, and
    so is a touch where the detuning at an extremum lies within
    ``float_err(d)``, a bound on the census's float error at the exact value
    ``d``, of GLANCING_TOL: such draws are not drawn.
    """
    with mpmath.workdps(30):
        t_lo, t_hi = (mpmath.mpf(t) for t in window)
        d_0, d_pi = detuning(mpmath.mpf(0)), detuning(mpmath.pi)
        assume(not _touch_in_doubt(float_err, (d_0, d_pi)))
        k_lo = int(mpmath.floor((t_lo - t0) * delta / mpmath.pi))
        k_hi = int(mpmath.ceil((t_hi - t0) * delta / mpmath.pi))
        glance = [t0 + k * mpmath.pi / delta for k in range(k_lo, k_hi + 1)
                  if abs(d_pi if k % 2 else d_0) < GLANCING_TOL]
        roots = []
        if min(abs(d_0), abs(d_pi)) >= GLANCING_TOL and (d_0 < 0) != (d_pi < 0):
            theta = mpmath.findroot(detuning, (mpmath.mpf(0), mpmath.pi), solver="bisect")
            roots = [t0 + (2 * k * mpmath.pi + side * theta) / delta
                     for k in range(k_lo // 2 - 1, k_hi // 2 + 2) for side in (-1, 1)]
        assume(all(abs(t - edge) > edge_tol for t in roots + glance for edge in (t_lo, t_hi)))
        roots = [t for t in roots if t_lo <= t <= t_hi]
        glance = [t for t in glance if t_lo <= t <= t_hi]
        kind = "crossing" if roots else "glancing" if glance else "non-crossing"
        return kind, sorted(float(t) for t in roots + glance)


def _assert_census_matches(cfg, model, window):
    rep = classify_crossings(cfg, window)
    kind, times = _census_reference(*model, cfg.t0, cfg.delta, window, 1e-13 * cfg.period)
    assert (rep.kind, len(rep.times)) == (kind, len(times)), (cfg, window, rep, times)
    assert all(abs(got - ref) <= 1e-13 * cfg.period for got, ref in zip(rep.times, times)), \
        (cfg, window, rep.times, times)


def _n2_model(cfg):
    """The n2 detuning of theta at 30 digits, and a bound on the census's float error.

    ``b = sqrt(d1^2 - 1)`` is the double's, as in the census.  The census
    evaluates ``D = delta (d1 - q)``, ``q = 2 / (1/(|d1| + b) + 2b sin^2)``
    (cos^2 for d1 < 0), with at most 7 roundings in the denominator (``sin``
    within an ulp counts as two).  That denominator differs from
    ``d1 - b cos(theta)`` by ``(b^2 - d1^2 + 1)/(|d1| + b)``, at most a
    relative ``(4 d1^2 - 3) u``, ``u = 2^-53``.  With the division ``q`` is
    within ``gamma(5 + 4 d1^2)``; the subtraction and the product round once
    each, so the error is at most ``gamma(2) |D| + gamma(8 + 4 d1^2) |delta q|``.
    """
    delta, d1 = cfg.delta, mpmath.mpf(cfg.delta1)
    b = mpmath.mpf(math.sqrt(cfg.delta1 * cfg.delta1 - 1.0))
    return (lambda th: delta * (d1 - 2 / (d1 - b * mpmath.cos(th))),
            lambda d: _gamma(2) * abs(d) + abs(delta * d1 - d) * _gamma(8 + 4 * d1 * d1))


def _general_model(cfg):
    """The general detuning of theta at 30 digits, and a bound on the census's float error.

    ``sqrt(a)`` is the double's, as in the census: near a = 1 the detuning's
    condition number in it is ``1/|sqrt(a) - 1|``, beyond what any census of
    the double ``a`` can resolve.  The census evaluates ``D = delta1 + q``,
    ``q = (1 - a) delta2 / ((sqrt(a) - 1)^2 + 4 sqrt(a) sin^2)``: ``q`` rounds
    at most 10 times (``sin`` within an ulp counts as two) and the sum once,
    so the error is at most ``u |D| + gamma(11) |q|``.  The argument of
    ``sin`` misses pi/2 by ulps, which enters ``sin^2`` at second order only.
    """
    a, delta1, delta2 = cfg.a, cfg.delta1, cfg.delta2
    sqa = mpmath.mpf(math.sqrt(a))
    # the denominator written as a sum of non-negative terms: near a = 1 the
    # form 1 + a - 2 sqrt(a) cos(theta) cancels beyond 30 digits
    den = lambda th: (sqa - 1) ** 2 + 4 * sqa * mpmath.sin(th / 2) ** 2
    return (lambda th: delta1 + (1 - a) * delta2 / den(th),
            lambda d: U * abs(d) + abs(d - delta1) * _gamma(11))


WINDOW_START, WINDOW_PERIODS = st.floats(-10.0, 10.0), st.floats(0.1, 3.0)


@given(st.floats(1.0, 6.0, exclude_min=True), st.sampled_from((1.0, -1.0)),
       st.floats(0.5, 3.0), st.floats(-2.0, 2.0), WINDOW_START, WINDOW_PERIODS)
def test_census_n2_matches_mpmath_root(abs_delta1, sign, delta, t0, start, periods):
    cfg = N2Config(u0=1.0, delta1=sign * abs_delta1, delta=delta, t0=t0)
    _assert_census_matches(cfg, _n2_model(cfg), (start, start + periods * cfg.period))


@given(st.floats(0.05, 20.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.5, 3.0), st.floats(-2.0, 2.0), WINDOW_START, WINDOW_PERIODS)
def test_census_general_matches_mpmath_root(a, delta1, delta2, delta, t0, start, periods):
    assume(math.sqrt(a) != 1.0)             # FieldConfig's own precondition
    cfg = FieldConfig(u0=1.0, a=a, delta1=delta1, delta2=delta2, delta=delta, t0=t0)
    _assert_census_matches(cfg, _general_model(cfg), (start, start + periods * cfg.period))


def test_census_at_the_threshold_is_the_floats():
    # shrunk from the random-seed sweep: the detuning at both extrema is
    # 1e-9 - O(1e-38) (and 1e-9 - O(1e-27)), a touch at 30 digits, but its
    # float is GLANCING_TOL itself, which the strict rule counts as none; the
    # model once said "glancing" at pi and 2 pi, and now draws no verdict
    window = (1.0, 1.0 + 2 * math.pi)
    for delta2 in (1.1754943508222875e-38, 1.665005988296086e-28):
        cfg = FieldConfig(u0=1.0, a=2.0, delta1=1e-9, delta2=delta2)
        assert detuning_general(cfg, 0.0) == detuning_general(cfg, math.pi) == GLANCING_TOL
        assert classify_crossings(cfg, window) == CrossingReport("non-crossing", ())
        detuning, float_err = _general_model(cfg)
        with mpmath.workdps(30):
            exact = detuning(mpmath.mpf(0)), detuning(mpmath.pi)
            assert all(0 < GLANCING_TOL - d < 1e-26 for d in exact), exact
            assert _touch_in_doubt(float_err, exact)


# ---------------------------------------------------------------- three-term model

def test_detuning_n3_periodic():
    ts = np.linspace(0, 2 * math.pi, 40)
    v1 = detuning_n3(1.0, -2.0, +1, ts)
    v2 = detuning_n3(1.0, -2.0, +1, ts + 2 * math.pi)
    assert np.max(np.abs(v1 - v2)) < 1e-12


def test_detuning_n3_matches_general_twin():
    # the printed expression is the general family at the derived shape
    # parameter; checked pointwise on both root branches
    for (u0, d1, br) in [(1.0, -2.0, +1), (1.0, 2.0, -1), (1.5, 3.0, -1)]:
        twin = n3_general_config(u0, d1, br)
        ts = np.linspace(0.0, 2 * math.pi, 200)
        dev = np.max(np.abs(detuning_n3(u0, d1, br, ts) - detuning_general(twin, ts)))
        assert dev < 1e-12, (u0, d1, br, dev)


def test_detuning_n3_golden_mean():
    # frozen quadrature oracle; analytic cross-check: modulation mean is
    # 3*sign(1-a), so the period mean is delta1 + 3 = 1 for a < 1
    f = lambda t: detuning_n3(1.0, -2.0, +1, t)
    val, _ = quad(f, 0.0, 2 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(val / (2 * math.pi) - 1.0) < 1e-10


def test_detuning_n3_domain_errors():
    with pytest.raises(DomainError):
        detuning_n3(0.5, 0.5, +1, 0.0)        # u0^2 + delta1^2 < 1
    with pytest.raises(DomainError):
        detuning_n3(0.6, 0.8, +1, 0.0)        # boundary u0^2 + delta1^2 = 1 rejected
    with pytest.raises(DomainError):
        detuning_n3(1.0, 2.0, +1, 0.0)        # interior square root negative
    with pytest.raises(ParameterError):
        detuning_n3(1.0, 2.0, 0, 0.0)
    with pytest.raises(DomainError):
        n3_singular_point(1.0, 2.0, +1)


# ---------------------------------------------------------------- drive callables

def test_drive_field_views():
    cfg = N2Config(u0=0.5, delta1=2.0, delta=2.0)
    fld = drive_field(cfg)
    assert fld.u == 1.0                           # physical Rabi frequency u0*delta
    assert abs(fld.delta_t(0.3) - detuning_n2(cfg, 0.3)) == 0.0
    assert abs(fld.period - math.pi) < 1e-15
    gen = drive_field(cfg.as_general())
    assert abs(gen.delta_t(1.234) - fld.delta_t(1.234)) < 1e-12


@given(st.floats(1e-3, 1e3), st.floats(1.0, 1e3, exclude_min=True), st.sampled_from((1.0, -1.0)),
       st.floats(1e-2, 1e2), st.floats(-1e3, 1e3), st.floats(-1e4, 1e4))
def test_drive_field_detuning_is_detuning_n2_bit_for_bit(u0, abs_delta1, sign, delta, t0, t):
    # the oracle's detuning has the constants folded once; the public function
    # builds the same formula at every call, so the two agree exactly
    cfg = N2Config(u0=u0, delta1=sign * abs_delta1, delta=delta, t0=t0)
    val = drive_field(cfg).delta_t(t)
    assert type(val) is float and val == detuning_n2(cfg, t)


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.floats(1e-2, 1e2), st.floats(-1e3, 1e3), st.floats(-1e4, 1e4))
def test_drive_field_detuning_is_detuning_general_bit_for_bit(u0, a, delta1, delta2, delta, t0, t):
    assume(math.sqrt(a) != 1.0)
    cfg = FieldConfig(u0=u0, a=a, delta1=delta1, delta2=delta2, delta=delta, t0=t0)
    val = drive_field(cfg).delta_t(t)
    assert type(val) is float and val == detuning_general(cfg, t)
