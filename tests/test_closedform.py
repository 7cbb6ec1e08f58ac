"""The exact finite-sum solution against its independent checks.

Oracles: the quasi-polynomial vs the folded Beta sum (two distinct evaluation
routes), term-by-term Beta-kernel summation inside the unit disc, a 5-point
finite-difference residual of the governing equation, the Runge-Kutta
integrator, and an FFT of the sampled periodic bracket.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from twostate.closedform import (StateVector, _fundamental_pair, circle_point,
                                 closed_form_states, floquet_analytic, harmonic_content,
                                 hg_quasipoly, hg_three_beta, match_initial, phase_n2,
                                 recover_a1, three_beta_coeffs)
from twostate.errors import DomainError, ParameterError
from twostate.fields import N2Config, detuning_n2, drive_field
from twostate.heun import generalized_rabi
from twostate.oracle import integrate, mean_detuning, mod_distance
from twostate.specfun import UnwoundPoint, inc_beta, unwound_power

PAIRS = [(2.0, 1.0), (3.0, 0.5), (5.0, 3.5), (4.0 / 3.0, 2.0), (-3.0, 1.0)]


# ---------------------------------------------------------------- z-space identities

def test_three_beta_equals_quasipoly_on_physical_circle():
    rng = np.random.default_rng(17)
    for d1, u0 in PAIRS:
        radius = math.sqrt(abs((d1 + 1.0) / (d1 - 1.0)))
        for _ in range(50):
            z = UnwoundPoint(radius, rng.uniform(-4 * math.pi, 4 * math.pi))
            lhs = hg_three_beta(d1, u0, z)
            rhs = hg_quasipoly(d1, u0, z)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs)), (d1, u0, z.angle)


def test_three_beta_matches_term_by_term_sum_inside_disc():
    # |z| < 1 admits the direct Beta-kernel summation as a third route; the
    # unwound points lie turns away from the principal sheet
    d1, u0 = 3.0, 1.0                     # R = sqrt(13)
    r = generalized_rabi(u0, d1)
    c0, c1, c2 = three_beta_coeffs(d1, u0)
    for z in (0.3, 0.2 + 0.4j, -0.5 + 0.1j,
              UnwoundPoint(0.5, 0.7 + 2 * math.pi), UnwoundPoint(0.45, -2.0 - 4 * math.pi)):
        direct = (c0 * inc_beta(r, -1.0, z) + c1 * inc_beta(r + 1.0, -1.0, z)
                  + c2 * inc_beta(r + 2.0, -1.0, z))
        got = hg_three_beta(d1, u0, z)
        assert abs(got - direct) < 1e-12 * (1.0 + abs(direct))


def test_quasipoly_leading_power_at_origin():
    d1, u0 = 2.0, 1.0
    r = generalized_rabi(u0, d1)
    v1 = hg_quasipoly(d1, u0, 1e-3) / (1e-3) ** r
    v2 = hg_quasipoly(d1, u0, 1e-4) / (1e-4) ** r
    assert abs(v1 - v2) < 1e-3 * abs(v2)


def test_quasipoly_at_minus_one_unwound():
    # at z = -1 the bracket collapses: value (e^{i pi R}) (1 + R d1)/(R (R+1) (d1+1))
    d1, u0 = 2.0, 1.0
    r = generalized_rabi(u0, d1)
    got = hg_quasipoly(d1, u0, UnwoundPoint(1.0, math.pi))
    ref = cmath.exp(1j * math.pi * r) * (1.0 + r * d1) / (r * (r + 1.0) * (d1 + 1.0))
    assert abs(got - ref) < 1e-13 * abs(ref)


def test_quasipoly_continuous_in_coupling():
    d1, z = 3.0, 0.4 + 0.3j
    v = [hg_quasipoly(d1, u0, z) for u0 in (1e-4, 1e-6, 1e-8)]
    assert abs(v[1] - v[2]) < 1e-7 * abs(v[2])
    assert abs(v[0] - v[2]) < 1e-3 * abs(v[2])


def test_three_beta_and_quasipoly_overflow_is_a_domain_error():
    # |z|^R = sqrt(201)^600 exceeds the float range, on the cover and on the principal branch
    for z in (UnwoundPoint(math.sqrt(201.0), 0.3), cmath.rect(math.sqrt(201.0), 0.3)):
        for route in (hg_three_beta, hg_quasipoly):
            with pytest.raises(DomainError, match="overflows"):
                route(1.01, 300.0, z)


def test_quasipoly_rejects_singular_point():
    with pytest.raises(ParameterError):
        hg_quasipoly(2.0, 1.0, 1.0)


# ---------------------------------------------------------------- fundamental solutions

def fundamental_a2(cfg, sign, t):
    """a2 at time ``t`` of the fundamental solution with sign ``sign`` (+1 or -1) of R."""
    return complex(_fundamental_pair(cfg, t)[1][0 if sign > 0 else 1])


def test_amplitude_floquet_ratio_is_constant():
    cfg = N2Config(u0=1.0, delta1=2.0)
    T = cfg.period
    for sign in (+1, -1):
        lam = 0.5 * (cfg.delta1 + sign * generalized_rabi(cfg.u0, cfg.delta1))
        expected = cmath.exp(1j * lam * 2 * math.pi)
        for t in np.linspace(0.0, 2 * T, 20):
            ratio = fundamental_a2(cfg, sign, t + T) / fundamental_a2(cfg, sign, t)
            assert abs(ratio - expected) < 1e-11, (sign, t)


def test_amplitude_modulus_is_periodic():
    cfg = N2Config(u0=1.0, delta1=2.0)
    for t in np.linspace(0.0, cfg.period, 15):
        m1 = abs(fundamental_a2(cfg, +1, t))
        m2 = abs(fundamental_a2(cfg, +1, t + cfg.period))
        assert abs(m1 - m2) < 1e-11 * m1


def _fd_ode_residual(cfg, sign):
    """Max |a2'' - i delta_t a2' + u0^2 a2| over a period, 5-point stencils."""
    h = 1e-4 * cfg.period
    worst, scale = 0.0, 0.0
    f = lambda t: fundamental_a2(cfg, sign, t)
    u_phys = cfg.u0 * cfg.delta
    for t in np.linspace(0.0, cfg.period, 57):
        fm2, fm1, f0, fp1, fp2 = f(t - 2 * h), f(t - h), f(t), f(t + h), f(t + 2 * h)
        d1v = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
        d2v = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
        resid = d2v - 1j * detuning_n2(cfg, t) * d1v + u_phys**2 * f0
        worst = max(worst, abs(resid))
        scale = max(scale, abs(f0))
    return worst, scale


@pytest.mark.parametrize("d1,u0", [(2.0, 1.0), (3.0, 0.5), (-3.0, 1.0)])
def test_amplitude_satisfies_governing_equation(d1, u0):
    cfg = N2Config(u0=u0, delta1=d1)
    for sign in (+1, -1):
        worst, scale = _fd_ode_residual(cfg, sign)
        assert worst <= 1e-6 * scale, (d1, u0, sign, worst / scale)


# ---------------------------------------------------------------- phases and recovery

def test_phase_accumulation_anchored_by_mean():
    cfg = N2Config(u0=1.0, delta1=2.0)
    # over one full period the phase advances by (delta1 - 2) * T exactly
    assert abs(phase_n2(cfg, cfg.period) - (cfg.delta1 - 2.0) * cfg.period) < 1e-10
    assert phase_n2(cfg, 0.0) == 0.0
    ts = np.array([0.0, 1.0, 2.5, 2.5, 0.7])
    phases = phase_n2(cfg, ts)
    for t, p in zip(ts, phases):
        assert abs(p - phase_n2(cfg, t)) < 1e-10


@pytest.mark.parametrize("d1", [1.01, 2.0, 40.0, -1.01, -2.0, -40.0])
def test_phase_matches_quadrature(d1):
    # the modulation part delta*delta1 - delta_t keeps one sign, so its
    # quadrature reaches full relative precision even where the phase itself
    # returns to 0 (|delta1| = 2: zero mean detuning)
    cfg = N2Config(u0=1.0, delta1=d1, delta=1.7, t0=0.4)
    carrier = cfg.delta * d1
    ts = cfg.t0 + np.array([-1.3, -0.2, 0.37, 1.0, 3.3, 7.0]) * cfg.period
    for t, got in zip(ts, phase_n2(cfg, ts)):
        mod = quad(lambda s: carrier - detuning_n2(cfg, s), cfg.t0, t,
                   epsabs=0.0, epsrel=1e-13, limit=1000)[0]
        ref = carrier * (t - cfg.t0) - mod
        assert abs(got - ref) <= 1e-12 * (abs(carrier * (t - cfg.t0)) + abs(mod)), (d1, t)
        assert phase_n2(cfg, float(t)) == got


def test_recover_a1_against_oracle():
    cfg = N2Config(u0=1.0, delta1=2.0)
    state0 = StateVector(a1=1.0, a2=0.0)
    n = 2001
    grid = np.linspace(0.0, cfg.period, n)
    traj = integrate(drive_field(cfg), state0, (0.0, float(grid[-1])), t_eval=grid,
                     rtol=1e-11, atol=1e-13)
    h = grid[1] - grid[0]
    a2 = traj.a2
    # 5-point interior differentiation of the oracle's own a2 samples
    d_a2 = (a2[:-4] - 8 * a2[1:-3] + 8 * a2[3:-1] - a2[4:]) / (12 * h)
    for i in range(2, n - 2, 97):
        rec = recover_a1(cfg, d_a2[i - 2], traj.phase[i])
        assert abs(rec - traj.a1[i]) < 1e-7, i


# ---------------------------------------------------------------- matching

def test_match_ground_state_starts_dark():
    cfg = N2Config(u0=1.0, delta1=2.0)
    c_plus, c_minus = match_initial(cfg, StateVector(a1=1.0, a2=0.0), 0.0)
    (a1p, a1m), (a2p, a2m) = _fundamental_pair(cfg, 0.0)
    a2_0 = c_plus * a2p + c_minus * a2m
    # a1 = i (da2/dt) exp(-i phase) / U, and the phase is 0 at t0 = 0
    da2_0 = (c_plus * a1p + c_minus * a1m) * cfg.u0 * cfg.delta / 1j
    assert abs(a2_0) < 1e-12
    assert abs(da2_0) > 0.1 * cfg.u0          # transition starts with nonzero slope


def test_match_excited_state():
    cfg = N2Config(u0=0.7, delta1=3.0)
    c_plus, c_minus = match_initial(cfg, StateVector(a1=0.0, a2=1.0), 0.0)
    a2_0 = c_plus * fundamental_a2(cfg, +1, 0.0) + c_minus * fundamental_a2(cfg, -1, 0.0)
    assert abs(a2_0 - 1.0) < 1e-12


def test_match_requires_normalized_state():
    # a NaN norm once passed the normalization check and gave NaN weights
    for state0 in (StateVector(a1=1.0, a2=1.0), StateVector(a1=math.nan, a2=0.0)):
        with pytest.raises(ParameterError):
            match_initial(N2Config(u0=1.0, delta1=2.0), state0, 0.0)


def test_generalized_rabi_overflow_is_a_domain_error():
    assert generalized_rabi(1.0, 2.0) == math.sqrt(8.0)
    for u0, d1 in ((1e200, 2.0), (1.0, 1e300)):
        with pytest.raises(DomainError, match="overflows"):
            generalized_rabi(u0, d1)


def test_match_rejects_non_finite_start():
    # a NaN determinant used to pass the conditioning check and give NaN weights
    cfg, state0 = N2Config(u0=1.0, delta1=2.0), StateVector(a1=1.0, a2=0.0)
    for t_start in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            match_initial(cfg, state0, t_start)
        with pytest.raises(ParameterError):
            closed_form_states(cfg, state0, t_start, np.linspace(0.0, 1.0, 5))


def test_matched_solution_tracks_oracle():
    cfg = N2Config(u0=2.0, delta1=2.0)
    state0 = StateVector(a1=1.0, a2=0.0)
    grid = np.linspace(0.0, 5 * cfg.period, 501)
    a1c, a2c = closed_form_states(cfg, state0, 0.0, grid)
    traj = integrate(drive_field(cfg), state0, (0.0, float(grid[-1])), t_eval=grid,
                     rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(a2c - traj.a2)) < 1e-8
    assert np.max(np.abs(a1c - traj.a1)) < 1e-8


def test_matched_solution_conserves_norm():
    cfg = N2Config(u0=1.0, delta1=2.0)
    grid = np.linspace(0.0, cfg.period, 301)
    a1c, a2c = closed_form_states(cfg, StateVector(a1=1.0, a2=0.0), 0.0, grid)
    norm = np.abs(a1c) ** 2 + np.abs(a2c) ** 2
    assert np.max(np.abs(norm - 1.0)) < 1e-9


def test_matched_solution_negative_carrier_branch():
    cfg = N2Config(u0=1.0, delta1=-3.0)
    state0 = StateVector(a1=1.0, a2=0.0)
    grid = np.linspace(0.0, 3 * cfg.period, 301)
    a1c, a2c = closed_form_states(cfg, state0, 0.0, grid)
    traj = integrate(drive_field(cfg), state0, (0.0, float(grid[-1])), t_eval=grid,
                     rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(a2c - traj.a2)) < 1e-8


@pytest.mark.parametrize("u0,d1", [(300.0, 1.01), (1000.0, 1.5)])
def test_matched_solution_large_coupling(u0, d1):
    # sqrt(a)^lambda overflows here; the unit-modulus Floquet factor does not
    cfg = N2Config(u0=u0, delta1=d1)
    state0 = StateVector(a1=1.0, a2=0.0)
    a1c, a2c = closed_form_states(cfg, state0, 0.0, np.linspace(0.0, cfg.period, 2001))
    norm = np.abs(a1c) ** 2 + np.abs(a2c) ** 2
    assert np.all(np.isfinite(norm)) and np.max(np.abs(norm - 1.0)) <= 1e-9
    grid = np.linspace(0.0, cfg.period / 20, 101)
    a1c, a2c = closed_form_states(cfg, state0, 0.0, grid)
    traj = integrate(drive_field(cfg), state0, (0.0, float(grid[-1])), t_eval=grid,
                     rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(a2c - traj.a2)) < 1e-8
    assert np.max(np.abs(a1c - traj.a1)) < 1e-8


def test_full_state_floquet_return():
    # after one period the matched state comes back as a phase mix of the two
    # fundamental channels: project, advance each weight, rebuild
    cfg = N2Config(u0=1.3, delta1=2.0)
    state0 = StateVector(a1=1.0, a2=0.0)
    T = cfg.period
    c_plus, c_minus = match_initial(cfg, state0, 0.0)
    lam1 = floquet_analytic(cfg).lambda1
    lam2 = floquet_analytic(cfg).lambda2
    grid = np.array([T])
    a1c, a2c = closed_form_states(cfg, state0, 0.0, grid)
    rebuilt_a2 = (c_plus * cmath.exp(2j * math.pi * lam2) * fundamental_a2(cfg, +1, 0.0)
                  + c_minus * cmath.exp(2j * math.pi * lam1) * fundamental_a2(cfg, -1, 0.0))
    assert abs(a2c[0] - rebuilt_a2) < 1e-11


# ---------------------------------------------------------------- quasi-energies

def test_floquet_analytic_values():
    rep = floquet_analytic(N2Config(u0=1.0, delta1=2.0))
    assert abs(rep.lambda2 - (1.0 + math.sqrt(2.0))) < 1e-14
    assert abs(rep.lambda1 - (1.0 - math.sqrt(2.0))) < 1e-14


def test_floquet_sum_rule_and_ordering():
    rng = np.random.default_rng(23)
    for _ in range(25):
        cfg = N2Config(u0=rng.uniform(0.1, 4.0), delta1=rng.choice([-1, 1]) * rng.uniform(1.01, 6.0))
        rep = floquet_analytic(cfg)
        assert abs(rep.lambda1 + rep.lambda2 - cfg.delta1) < 1e-12
        assert rep.lambda2 > 0.0 and rep.lambda1 < 0.0


def test_floquet_weak_coupling_limits():
    cfg = N2Config(u0=1e-8, delta1=2.0)
    rep = floquet_analytic(cfg)
    assert abs(rep.lambda2 - cfg.delta1) < 1e-12
    assert abs(rep.lambda1) < 1e-12
    # consistency with the period-average detuning, modulo the drive frequency
    mean = mean_detuning(drive_field(cfg))
    assert mod_distance(rep.lambda2, mean, 1.0) < 1e-10


# ---------------------------------------------------------------- harmonic ladder

def _fft_bracket(cfg, n_fft=4096):
    lam2 = floquet_analytic(cfg).lambda2
    ts = np.arange(n_fft) * cfg.period / n_fft
    # the fundamental solution carries z^lam2 / sqrt(a)^lam2
    g = np.array([fundamental_a2(cfg, +1, t) * math.sqrt(cfg.a) ** lam2
                  / unwound_power(circle_point(cfg, t), lam2) for t in ts])
    return np.fft.fft(g) / n_fft


def test_harmonic_ladder_descending_branch():
    cfg = N2Config(u0=1.0, delta1=2.0)        # circle radius sqrt(3) > 1
    ladder = harmonic_content(cfg, 8)
    assert ladder.direction == -1
    spec = _fft_bracket(cfg)
    assert abs(spec[0] - ladder.coeffs[0]) < 1e-10 * (1 + abs(ladder.coeffs[0]))
    for k in range(1, 9):
        assert abs(spec[-k] - ladder.coeffs[k]) < 1e-10 * (1 + abs(ladder.coeffs[k])), k
        assert abs(spec[k]) < 1e-10            # ascending side empty
        assert abs(ladder.coeffs[k]) > 0.0
    # geometric decay with ratio 1/sqrt(a)
    ratios = np.abs(ladder.coeffs[2:]) / np.abs(ladder.coeffs[1:-1])
    assert np.max(np.abs(ratios - 1.0 / math.sqrt(cfg.a))) < 1e-12


def test_harmonic_ladder_ascending_branch():
    cfg = N2Config(u0=1.0, delta1=-3.0)       # circle radius sqrt(0.5) < 1
    ladder = harmonic_content(cfg, 6)
    assert ladder.direction == +1
    spec = _fft_bracket(cfg)
    assert abs(spec[0] - ladder.coeffs[0]) < 1e-10 * (1 + abs(ladder.coeffs[0]))
    for k in range(1, 7):
        assert abs(spec[k] - ladder.coeffs[k]) < 1e-10 * (1 + abs(ladder.coeffs[k])), k
    ratios = np.abs(ladder.coeffs[2:]) / np.abs(ladder.coeffs[1:-1])
    assert np.max(np.abs(ratios - math.sqrt(cfg.a))) < 1e-12


def test_harmonic_ladder_never_dies():
    rng = np.random.default_rng(29)
    for _ in range(20):
        cfg = N2Config(u0=rng.uniform(0.05, 5.0), delta1=rng.uniform(1.05, 6.0))
        ladder = harmonic_content(cfg, 12)
        assert np.all(np.abs(ladder.coeffs) > 0.0)
    with pytest.raises(ParameterError):
        harmonic_content(N2Config(u0=1.0, delta1=2.0), 0)
