"""Series machinery: parameter map, recurrence, termination, accessory polynomial.

The independent oracles here: rationalized hand arithmetic for the parameter
map (derivations recorded inline), a grid-scan root finder for the accessory
polynomial, and a finite-difference residual of the underlying ODE for the
series evaluation.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twostate.errors import ConvergenceError, DomainError, ParameterError
from twostate.fields import FieldConfig, a_from_delta1
from twostate.heun import (_U0_PROBES, BetaSeries, HeunParams, _constraint_determinant,
                           _recurrence_terms, eval_series, expand, generalized_rabi, grid_roots,
                           map_to_heun, q_polynomial, series_solution, termination_search)
from twostate.specfun import fold_beta_sum, inc_beta

SQ2 = math.sqrt(2.0)


def n2_scaled_config(u0, delta1):
    return FieldConfig(u0=u0, a=a_from_delta1(delta1), delta1=delta1, delta2=2.0)


# ---------------------------------------------------------------- parameter map

def test_map_example_plus_sign():
    # u0=1, delta1=2: sqrt(4+4) = 2 sqrt2; alpha1 = 1 + sqrt2;
    # q = (3-1)*2*(1+sqrt2) = 4 (1+sqrt2)
    cfg = FieldConfig(u0=1.0, a=3.0, delta1=2.0, delta2=2.0)
    hp, alpha1 = map_to_heun(cfg, +1)
    assert abs(hp.gamma - (1.0 + 2.0 * SQ2)) < 1e-14
    assert hp.delta == 2.0 and hp.epsilon == -2.0 and hp.alpha == 0.0
    assert abs(hp.beta - 2.0 * SQ2) < 1e-14
    assert abs(alpha1 - (1.0 + SQ2)) < 1e-14
    assert abs(hp.q - 4.0 * (1.0 + SQ2)) < 1e-13
    assert hp.fuchs_residual() < 1e-12


def test_map_zero_coupling_degeneration():
    cfg = FieldConfig(u0=1e-15, a=3.0, delta1=2.0, delta2=1.0)
    hp, alpha1 = map_to_heun(cfg, +1)
    assert abs(hp.gamma - 3.0) < 1e-12          # 1 + delta1
    assert abs(hp.beta - 2.0) < 1e-12
    assert abs(alpha1 - 2.0) < 1e-12


def test_map_alpha_is_zero_and_fuchs_holds_both_signs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        cfg = FieldConfig(u0=rng.uniform(0.1, 4.0), a=rng.uniform(0.1, 6.0),
                          delta1=rng.uniform(-4, 4), delta2=rng.uniform(-3, 3))
        if cfg.a == 1.0:
            continue
        for sign in (+1, -1):
            hp, _ = map_to_heun(cfg, sign)
            assert hp.alpha == 0.0
            assert hp.fuchs_residual() < 1e-12


def test_map_sign_symmetry():
    cfg = FieldConfig(u0=1.3, a=2.2, delta1=1.7, delta2=0.9)
    hp_p, alpha1_p = map_to_heun(cfg, +1)
    hp_m, alpha1_m = map_to_heun(cfg, -1)
    assert abs(hp_m.gamma - (2.0 - hp_p.gamma)) < 1e-13
    assert abs(hp_m.beta + hp_p.beta) < 1e-13
    assert abs((alpha1_p + alpha1_m) - cfg.delta1) < 1e-13


def test_map_requires_scaled_config():
    cfg = FieldConfig(u0=1.0, a=3.0, delta1=2.0, delta2=2.0, delta=2.0)
    with pytest.raises(ParameterError):
        map_to_heun(cfg, +1)
    with pytest.raises(ParameterError):
        map_to_heun(cfg.scaled(), 2)


# ---------------------------------------------------------------- recurrence

def recurrence_terms(hp, n):
    """``(R_n, Q_n, P_n)`` of the recurrence at index ``n`` for the constants ``hp``."""
    return _recurrence_terms(hp.a, hp.gamma, hp.delta, hp.epsilon, hp.q, n)


def test_recurrence_r0_vanishes():
    hp, _ = map_to_heun(n2_scaled_config(1.0, 2.0), -1)
    assert recurrence_terms(hp, 0)[0] == 0.0


def test_recurrence_p_vanishes_at_termination_index():
    # with epsilon = -2 the factor (n + epsilon) kills P at n = 2
    hp, _ = map_to_heun(n2_scaled_config(1.0, 2.0), -1)
    assert abs(recurrence_terms(hp, 2)[2]) == 0.0


def test_recurrence_q1_frozen_hand_value():
    # plus branch of the map example: gamma = 1 + 2 sqrt2, delta = 2,
    # epsilon = -2, q = 4(1 + sqrt2).  Hand evaluation:
    #   -3(2 - gamma - delta) = 3 + 6 sqrt2
    #   -(1 + epsilon)(2 - gamma) = 1 - 2 sqrt2
    #   -q = -4 - 4 sqrt2
    # sum = 0 exactly.
    cfg = FieldConfig(u0=1.0, a=3.0, delta1=2.0, delta2=2.0)
    hp, _ = map_to_heun(cfg, +1)
    assert abs(recurrence_terms(hp, 1)[1]) < 1e-13


# ---------------------------------------------------------------- expansion

@pytest.mark.parametrize("u0", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("delta1", [-3.0, 4.0 / 3.0, 2.0, 5.0])
def test_expand_terminates_for_solvable_model(u0, delta1):
    hp, _ = map_to_heun(n2_scaled_config(u0, delta1), -1)
    bs = expand(hp)
    assert bs.terminated and bs.n_term == 2
    cmax = float(np.max(np.abs(bs.coeffs)))
    assert abs(bs.coeffs[3]) <= 1e-12 * cmax
    assert abs(bs.coeffs[4]) <= 1e-12 * cmax
    assert bs.coeffs[0] == 1.0


def test_expand_terminates_where_p_vanishes():
    # P_2 = 0 (epsilon = -2) makes c_4 = -Q_3 c_3 / R_4, so c_3 alone decides;
    # here c_3 ~ 2e-12 is rounding, but c_4 amplifies it past the cutoff and
    # the two-small-coefficients rule once left the series unterminated
    d1, u0 = -1.0557960001725712, 1.347626641140448
    hp, _ = map_to_heun(n2_scaled_config(u0, d1), +1)
    bs = expand(hp)
    assert bs.n_term == 2
    z = math.sqrt(hp.a) * cmath.exp(0.3j)
    with mp.workdps(40):
        consts = [mp.mpmathify(x) for x in (hp.a, hp.gamma, hp.delta, hp.epsilon, hp.q)]
        (_, q0, p0), (r1, q1, _), (r2, _, _) = (_recurrence_terms(*consts, n) for n in range(3))
        c1 = -q0 / r1
        c2 = -(q1 * c1 + p0) / r2
        zm, g0 = mp.mpc(z), 1 - consts[1]
        # B_z(p, 1 - delta) = z^p / p 2F1(p, delta; p + 1; z)
        ref = complex(sum(c * zm**p / p * mp.hyp2f1(p, consts[2], p + 1, zm)
                          for c, p in ((1, g0), (c1, g0 + 1), (c2, g0 + 2))))
    assert abs(eval_series(bs, z) - ref) <= 1e-12 * abs(ref)


def test_expand_termination_needs_the_constraint():
    cfg = n2_scaled_config(1.0, 2.0)
    off = FieldConfig(u0=cfg.u0, a=1.01 * cfg.a, delta1=cfg.delta1, delta2=2.0)
    bs = expand(map_to_heun(off, -1)[0])
    cmax = float(np.max(np.abs(bs.coeffs)))
    assert abs(bs.coeffs[3]) > 1e-6 * cmax


def test_expand_coefficients_match_elementary_weights():
    # terminated weights in closed form: c1 = 2 d1 (1-R)/((d1+1) R),
    # c2 = (d1-1)(R-1)/((d1+1)(R+1))
    for (u0, d1) in [(1.0, 2.0), (0.5, 3.0), (1.3, -3.0)]:
        bs = expand(map_to_heun(n2_scaled_config(u0, d1), -1)[0])
        r = generalized_rabi(u0, d1)
        c1 = 2.0 * d1 * (1.0 - r) / ((d1 + 1.0) * r)
        c2 = (d1 - 1.0) * (r - 1.0) / ((d1 + 1.0) * (r + 1.0))
        assert abs(bs.coeffs[1] - c1) < 1e-12 * max(1.0, abs(c1))
        assert abs(bs.coeffs[2] - c2) < 1e-12 * max(1.0, abs(c2))


def test_expand_generic_series_not_terminated():
    cfg = FieldConfig(u0=0.9, a=0.45, delta1=1.2, delta2=0.8)
    bs = expand(map_to_heun(cfg, -1)[0], max_terms=25)
    assert not bs.terminated and bs.n_term is None
    assert len(bs.coeffs) == 26


def test_expand_requires_zero_exponent_at_infinity():
    hp = HeunParams(a=2.0, q=1.0, alpha=0.5, beta=1.0, gamma=1.0, delta=0.5, epsilon=0.0)
    with pytest.raises(ParameterError):
        expand(hp)


def test_expand_resonant_gamma_raises():
    # gamma = 2 makes the n = 2 pivot vanish while the numerator stays finite
    hp = HeunParams(a=2.0, q=0.7, alpha=0.0, beta=1.6, gamma=2.0, delta=0.3, epsilon=0.3)
    with pytest.raises(DomainError):
        expand(hp)


# ---------------------------------------------------------------- accessory polynomial

def test_q_polynomial_order_zero():
    # degree-1 polynomial c0 + c1 q; its root -c0/c1 is the q-free part of
    # Q_0, i.e. c_1 = 0 exactly at Q_0 = 0
    hp = HeunParams(a=2.0, q=0.0, alpha=0.0, beta=1.0, gamma=2.0 - 1.0, delta=2.0, epsilon=0.0)
    poly = q_polynomial(hp, 0)
    assert len(poly) == 2
    root = -poly[0] / poly[1]
    hp_at_root = HeunParams(a=hp.a, q=root, alpha=0.0, beta=hp.beta, gamma=hp.gamma,
                            delta=hp.delta, epsilon=hp.epsilon)
    assert abs(recurrence_terms(hp_at_root, 0)[1]) < 1e-12


def test_q_polynomial_solvable_model_root():
    # the physical accessory parameter is a root exactly when the
    # termination constraint a (d1 - 1) - d1 - 1 = 0 holds
    for (u0, d1) in [(0.8, 2.0), (2.0, 3.0), (1.0, 1.7)]:
        a_star = a_from_delta1(d1)
        for a, should_vanish in [(a_star, True), (1.05 * a_star, False), (2.5, abs(a_from_delta1(d1) - 2.5) < 1e-12)]:
            cfg = FieldConfig(u0=u0, a=a, delta1=d1, delta2=2.0)
            hp, _ = map_to_heun(cfg, -1)
            poly = q_polynomial(hp, 2)
            norm = float(np.max(np.abs(poly)))
            res = abs(np.polyval(poly[::-1], hp.q))
            if should_vanish:
                assert res <= 1e-10 * norm, (u0, d1, a, res / norm)
            else:
                assert res > 1e-6 * norm, (u0, d1, a, res / norm)


def test_q_polynomial_degree_two_vs_grid_scan():
    # N = 1: quadratic in q; brute-force sign-change scan against its numpy roots
    cfg = FieldConfig(u0=1.1, a=2.6, delta1=1.9, delta2=1.0)
    hp, _ = map_to_heun(cfg, -1)
    poly = q_polynomial(hp, 1)
    assert len(poly) == 3
    f = lambda q: np.polyval(poly[::-1], q).real
    qs = np.linspace(-60.0, 60.0, 24001)
    vals = np.array([f(q) for q in qs])
    scan_roots = []
    for i in range(len(qs) - 1):
        if (vals[i] < 0) != (vals[i + 1] < 0):
            lo, hi = qs[i], qs[i + 1]
            flo = f(lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (flo < 0) != (f(mid) < 0):
                    hi = mid
                else:
                    lo, flo = mid, f(mid)
            scan_roots.append(0.5 * (lo + hi))
    assert len(scan_roots) == 2
    companion = sorted(np.roots(poly[::-1]).real)
    for s, c in zip(sorted(scan_roots), companion):
        assert abs(s - c) < 1e-8, (s, c)


def _determinant_50_digits(u0, d1, a, n_stop):
    """d_{N+1} on the sign -1 branch (delta2 = N) and its term scale, at 50 digits.

    The scale is the same recurrence run on absolute values of its terms.
    """
    with mp.workdps(50):
        u0, d1, a, d2 = mp.mpf(u0), mp.mpf(d1), mp.mpf(a), mp.mpf(n_stop)
        r = mp.sqrt(4 * u0 * u0 + d1 * d1)
        q = (a - 1) * d2 * (d1 - r) / 2
        qn = lambda n: -a * n * (n + r - d2) - (n - d2) * (n + r) - q
        pr = lambda n: (n + r - d2) * (n - 1 - d2) * a * n * (n - 1 + r)   # P_{n-1} R_n
        d_prev, d_cur, s_prev, s_cur = 1, qn(0), 1, abs(qn(0))
        for n in range(2, n_stop + 2):
            d_prev, d_cur = d_cur, qn(n - 1) * d_cur - pr(n - 1) * d_prev
            s_prev, s_cur = s_cur, abs(qn(n - 1)) * s_cur + abs(pr(n - 1)) * s_prev
        return float(d_cur), float(s_cur)


def test_constraint_determinant_matches_q_polynomial():
    # the numeric recurrence behind termination_search against the dense
    # q-polynomial of criterion 04 and a 50-digit run of the same recurrence.
    # Errors are measured against the term scale: near a root the value itself
    # cancels, and the dense coefficients lose up to ~2e-12 of that scale
    # (2e-8 of the value at delta1 = -4.5, a = 0.3, N = 6)
    for d1 in (2.0, -2.0, 3.5, -4.5):
        for a in (0.3, 0.77, 1.6, 4.2, 7.9):
            for u0 in (0.5, 1.0, 2.0):
                for n_stop in range(1, 9):
                    got = _constraint_determinant(u0, d1, float(n_stop), a, n_stop)
                    exact, scale = _determinant_50_digits(u0, d1, a, n_stop)
                    assert abs(got - exact) <= 1e-14 * scale, (d1, a, u0, n_stop)
                    hp, _ = map_to_heun(FieldConfig(u0=u0, a=a, delta1=d1,
                                                    delta2=float(n_stop)), -1)
                    dense = np.polyval(q_polynomial(hp, n_stop)[::-1], hp.q)
                    assert abs(dense - got) <= 1e-11 * scale, (d1, a, u0, n_stop)


def test_constraint_vanishes_at_a_equal_one():
    # at a = 1 (q = 0, delta = -epsilon = N) the ODE is u'' + (gamma/z) u' = 0,
    # solved by the (N+1)-term Beta sum: every order terminates there, which is
    # why termination_search calls an order without admissible roots trivial
    for d1 in (2.0, -2.0, 3.5, -4.5):
        for u0 in (0.5, 1.0, 2.0):
            for n_stop in range(1, 9):
                exact, scale = _determinant_50_digits(u0, d1, 1.0, n_stop)
                assert abs(exact) <= 1e-40 * scale      # zero to the 50-digit working precision
                got = _constraint_determinant(u0, d1, float(n_stop), 1.0, n_stop)
                assert abs(got) <= 1e-14 * scale, (d1, u0, n_stop, abs(got) / scale)


def test_constraint_determinant_vectorized_over_a():
    avals = np.array([0.3, 0.77, 1.6, 4.2])
    vec = _constraint_determinant(1.3, -2.5, 4.0, avals, 4)
    assert np.array_equal(vec, [_constraint_determinant(1.3, -2.5, 4.0, a, 4) for a in avals])
    # the stacked probe grid of termination_search: every row is the scalar
    # evaluation bit for bit, which is what lets grid_roots hand the grid
    # values to Brent's method without re-evaluating the bracket ends
    avals = np.linspace(1e-3, 8.0, 2001)
    for d1, n_stop in ((-2.5, 4), (2.0, 3), (5.5, 8)):
        stacked = _constraint_determinant(_U0_PROBES, d1, float(n_stop), avals, n_stop)
        assert stacked.shape == (3, 2001)
        for row, u0 in zip(stacked, _U0_PROBES):
            assert np.array_equal(row, [_constraint_determinant(u0, d1, float(n_stop), float(a),
                                                                n_stop) for a in avals])


def test_q_polynomial_requires_termination_precondition():
    hp = HeunParams(a=2.0, q=0.0, alpha=0.0, beta=0.7, gamma=0.3, delta=0.6, epsilon=0.8)
    with pytest.raises(ParameterError):
        q_polynomial(hp, 2)


# ---------------------------------------------------------------- series evaluation

def test_fold_rejects_a_non_cancelling_weight_set():
    # without the cancelling weights of a terminated series the top Beta
    # weight survives the fold and the sum is not elementary
    with pytest.raises(DomainError):
        fold_beta_sum(np.array([1.0, 0.5, 0.25], dtype=complex), 1.3, -1.0, 1.5 + 0.5j)


def test_eval_series_rejects_a_perturbed_terminated_series():
    cfg = n2_scaled_config(1.0, 2.0)        # a = 3: the circle lies outside the unit disc
    hp, _ = map_to_heun(cfg, -1)
    bs = expand(hp)
    z = math.sqrt(cfg.a) * np.exp(0.7j)
    eval_series(bs, z)                      # the genuine series folds
    coeffs = bs.coeffs.copy()
    coeffs[1] *= 1.0 + 1e-6
    bad = BetaSeries(gamma0=bs.gamma0, delta_n=bs.delta_n, coeffs=coeffs,
                     n_term=bs.n_term)
    with pytest.raises(DomainError):
        eval_series(bad, z)


def test_eval_series_single_term_is_beta_kernel():
    hp, _ = map_to_heun(FieldConfig(u0=0.7, a=3.0, delta1=1.3, delta2=0.7), -1)
    bs = BetaSeries(gamma0=1.0 - hp.gamma, delta_n=1.0 - hp.delta,
                    coeffs=np.array([1.0 + 0j]), n_term=None)
    z = 0.4 + 0.2j
    ref = inc_beta(1.0 - hp.gamma, 1.0 - hp.delta, z)
    assert abs(eval_series(bs, z) - ref) < 1e-13 * (1.0 + abs(ref))


def test_eval_series_terminated_matches_beta_sum_inside_disc():
    # shape parameter < 1 branch keeps the circle inside the unit disc, so the
    # finite sum can be cross-checked term by term against the Beta kernel
    cfg = n2_scaled_config(1.0, -3.0)        # a = 0.5
    hp, _ = map_to_heun(cfg, -1)
    bs = expand(hp)
    for ang in np.linspace(0.0, 2 * math.pi, 9):
        z = math.sqrt(cfg.a) * np.exp(1j * ang)
        if abs(z - 1.0) < 1e-9:
            continue
        direct = sum(bs.coeffs[n] * inc_beta(bs.gamma0 + n, bs.delta_n, z)
                     for n in range(bs.n_term + 1))
        got = eval_series(bs, z)
        assert abs(got - direct) < 1e-12 * (1.0 + abs(direct))


def _terminated_beta_sum_40_digits(bs, z):
    """``sum_n c_n B_z(gamma0 + n, delta_n)`` over the active terms, to 40 digits.

    Each Beta function is ``z^p / p 2F1(p, 1 - q; p + 1; z)``.  The top
    coefficient is recomputed so that the series terminates exactly: with the
    rounded one, its Beta weight near a negative integer ``p`` would add an
    error of its own.
    """
    with mp.workdps(40):
        zm, p0, q = mp.mpc(z), mp.mpc(bs.gamma0), mp.mpc(bs.delta_n)
        cs = [mp.mpc(c) for c in bs.active_coeffs()]
        carried = mp.mpc(0)                 # the Beta weight folded up to the top index
        for n in range(len(cs) - 1):
            carried = (carried + cs[n]) * (q + p0 + n) / (p0 + n)
        cs[-1] = -carried
        return complex(mp.fsum(c * zm ** (p0 + n) / (p0 + n)
                               * mp.hyp2f1(p0 + n, 1 - q, p0 + n + 1, zm)
                               for n, c in enumerate(cs)))


def test_eval_series_folds_terminated_series_inside_disc():
    # +R branch of the two-parameter model with delta1 < -1: the circle lies in
    # the unit disc and the Beta terms are ~1e3 times the sum, so summing them
    # through inc_beta lost three digits (2.9e-11 here); the fold does not
    rng = np.random.default_rng(4)
    for _ in range(60):
        d1, u0 = rng.uniform(-7.0, -1.05), rng.uniform(0.05, 5.0)
        cfg = n2_scaled_config(u0, d1)
        hp, _ = map_to_heun(cfg, +1)
        three = expand(hp, max_terms=2)     # c_0..c_2; c_3 and c_4 vanish at delta2 = 2
        bs = BetaSeries(gamma0=three.gamma0, delta_n=three.delta_n, coeffs=three.coeffs,
                        n_term=2)
        z = math.sqrt(cfg.a) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        ref = _terminated_beta_sum_40_digits(bs, z)
        assert abs(eval_series(bs, z) - ref) < 1e-12 * abs(ref), (d1, u0, z)


def test_eval_series_outside_disc_requires_termination():
    cfg = FieldConfig(u0=0.9, a=3.0, delta1=1.2, delta2=0.8)
    hp, _ = map_to_heun(cfg, -1)
    bs = expand(hp, max_terms=25)
    with pytest.raises(DomainError):
        eval_series(bs, 1.4 + 0.2j)


def test_eval_series_ode_residual():
    # substitute the truncated expansion into the defining ODE; derivatives by
    # fourth-order finite differences in z
    cfg = FieldConfig(u0=0.8, a=3.0, delta1=1.4, delta2=1.3)
    hp, _ = map_to_heun(cfg, -1)
    bs = expand(hp, max_terms=80)
    assert not bs.terminated
    u = lambda z: eval_series(bs, z)
    rng = np.random.default_rng(5)
    h = 1e-3
    for _ in range(20):
        z = rng.uniform(0.15, 0.7) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        um2, um1, u0v, up1, up2 = u(z - 2 * h), u(z - h), u(z), u(z + h), u(z + 2 * h)
        du = (um2 - 8 * um1 + 8 * up1 - up2) / (12 * h)
        d2u = (-um2 + 16 * um1 - 30 * u0v + 16 * up1 - up2) / (12 * h * h)
        coef1 = hp.gamma / z + hp.delta / (z - 1.0) + hp.epsilon / (z - hp.a)
        coef0 = -hp.q / (z * (z - 1.0) * (z - hp.a))
        resid = d2u + coef1 * du + coef0 * u0v
        scale = abs(d2u) + abs(coef1 * du) + abs(coef0 * u0v) + 1e-30
        assert abs(resid) / scale < 1e-6, (z, abs(resid) / scale)


def test_series_solution_fundamental_pair_independent():
    # nonzero normalized Wronskian of the two branches at a probe time
    cfg = n2_scaled_config(1.0, 2.0)
    a2p, da2p = series_solution(cfg, +1)
    a2m, da2m = series_solution(cfg, -1)
    t = 0.4
    w = a2p(t) * da2m(t) - a2m(t) * da2p(t)
    scale = abs(a2p(t) * da2m(t)) + abs(a2m(t) * da2p(t))
    assert abs(w) / scale > 1e-6


# ---------------------------------------------------------------- termination hierarchy

def test_grid_roots_zeros_brackets_and_merging():
    xs = np.linspace(0.0, 2.0, 9)                 # exact binary grid points
    # exact zeros on the grid (the last point included) are returned once
    g = lambda x: (x - 0.5) * (x - 2.0)
    assert grid_roots(g, xs, g(xs), 1e-15, 1e-8) == [0.5, 2.0]
    h = lambda x: x - 0.3
    assert grid_roots(h, xs, h(xs), 1e-15, 1e-8) == [pytest.approx(0.3, abs=1e-15)]
    # two crossings 2e-10 apart straddle a grid point: one root unless merge_tol is finer
    f = lambda x: (x - 0.5 + 1e-10) * (x - 0.5 - 1e-10)
    assert grid_roots(f, xs, f(xs), 1e-15, 1e-8) == [pytest.approx(0.5 - 1e-10, abs=1e-14)]
    assert grid_roots(f, xs, f(xs), 1e-15, 1e-12) == [pytest.approx(0.5 - 1e-10, abs=1e-14),
                                                      pytest.approx(0.5 + 1e-10, abs=1e-14)]


def _brentq_grid_roots(f, xs, fx, xtol, merge_tol):
    """The reference: :func:`grid_roots` with each bracket refined by scipy's brentq."""
    from scipy.optimize import brentq

    roots = [float(x) for x in xs[fx == 0.0]]
    for i in range(len(xs) - 1):
        if fx[i] != 0.0 and fx[i + 1] != 0.0 and (fx[i] < 0) != (fx[i + 1] < 0):
            roots.append(brentq(f, float(xs[i]), float(xs[i + 1]), xtol=xtol))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > merge_tol:
            merged.append(r)
    return merged


@st.composite
def _polynomial_brackets(draw):
    """A grid and a polynomial c prod(x - r): exact grid zeros, close pairs, triple roots."""
    lo = draw(st.floats(-5.0, 5.0))
    xs = np.linspace(lo, lo + draw(st.floats(0.1, 10.0)), draw(st.integers(2, 40)))
    roots = []
    kinds = ["grid", "free", "pair", "triple"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "grid":
            roots.append(float(xs[draw(st.integers(0, len(xs) - 1))]))
        else:
            r = draw(st.floats(xs[0] - 1.0, xs[-1] + 1.0))
            roots += [r] * (3 if kind == "triple" else 1)
            if kind == "pair":
                roots.append(r + draw(st.floats(1e-13, 1e-6)))
    scale = draw(st.sampled_from([-1e3, -1.0, 1e-3, 1.0, 1e8]))
    return xs, roots, scale


@given(_polynomial_brackets(), st.sampled_from([1e-15, 1e-12, 1e-8]),
       st.sampled_from([1e-12, 1e-8]))
def test_grid_roots_is_brentq_bit_for_bit(bracket, xtol, merge_tol):
    xs, roots, scale = bracket

    def f(x):                              # the same operations on a float and on the grid
        y = scale
        for r in roots:
            y = y * (x - r)
        return y

    fx = f(xs)
    try:
        expected = _brentq_grid_roots(f, xs, fx, xtol, merge_tol)
    except RuntimeError:                   # brentq did not converge (a flat triple root)
        with pytest.raises(ConvergenceError):
            grid_roots(f, xs, fx, xtol, merge_tol)
        return
    assert grid_roots(f, xs, fx, xtol, merge_tol) == expected


@pytest.mark.parametrize("u0, delta1, n_stop", [(5.141038753367041, 10.037068134735588, 6),
                                                (1.8388067875218563, -9.689200223603034, 5),
                                                (0.4500683314806528, 10.264236140718245, 5),
                                                (1.0, 2.0, 3)])
def test_grid_roots_is_brentq_bit_for_bit_on_constraint_grids(u0, delta1, n_stop):
    # the first three meet Brent's step-length test (2|step| < 3|bisection| - tol)
    # within the tolerance, which the polynomial brackets above hardly ever do
    avals = np.linspace(1e-3, 8.0, 2001)
    f = lambda a: _constraint_determinant(u0, delta1, float(n_stop), a, n_stop)
    fx = _constraint_determinant(u0, delta1, float(n_stop), avals, n_stop)
    assert grid_roots(f, avals, fx, 1e-15, 1e-8) == _brentq_grid_roots(f, avals, fx, 1e-15, 1e-8)


def test_grid_roots_non_finite_inside_a_bracket_is_a_domain_error():
    xs = np.array([0.0, 1.0])
    f = lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan
    with pytest.raises(DomainError):
        grid_roots(f, xs, np.array([-0.3, 0.7]), 1e-15, 1e-8)


def test_grid_roots_not_converged_is_a_convergence_error():
    # the flat triple root takes Brent's method (scipy's brentq too) past 100
    # iterations at this xtol
    xs = np.array([0.0, 2.0])
    f = lambda x: -1e3 * (x - 1.5) * (x - 1.5) * (x - 1.5)
    with pytest.raises(ConvergenceError):
        grid_roots(f, xs, f(xs), 1e-15, 1e-8)


def test_termination_search_classifies_hierarchy():
    base = FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0)
    records = termination_search(base, 3)
    status = {r.n: r.status for r in records}
    assert status == {0: "trivial", 1: "trivial", 2: "unconditional", 3: "conditional"}
    rec2 = records[2]
    for roots in rec2.roots_by_u0.values():
        assert len(roots) == 1
        assert abs(roots[0] - a_from_delta1(2.0)) < 1e-6
    assert rec2.drift < 1e-6
    assert records[3].drift > 1e-3


@pytest.mark.parametrize("delta1", [2.0, -2.0, 3.5])
def test_termination_search_hierarchy_to_order_six(delta1):
    # beyond the paper's N = 3: order 2 stays the only unconditional one
    records = termination_search(FieldConfig(u0=1.0, a=2.0, delta1=delta1, delta2=1.0), 6)
    assert [r.status for r in records] == ["trivial", "trivial", "unconditional"] + \
        ["conditional"] * 4
    for roots in records[2].roots_by_u0.values():
        assert len(roots) == 1 and abs(roots[0] - a_from_delta1(delta1)) < 1e-9
    # every root also zeroes the dense q-polynomial of criterion 04
    for rec in records[1:]:
        for u0, roots in rec.roots_by_u0.items():
            for a in roots:
                hp, _ = map_to_heun(FieldConfig(u0=u0, a=a, delta1=delta1,
                                                delta2=float(rec.n)), -1)
                poly = q_polynomial(hp, rec.n)
                assert abs(np.polyval(poly[::-1], hp.q)) / np.max(np.abs(poly)) < 1e-9


def test_termination_search_at_high_order_does_not_warn():
    # an inverse-quadratic trial step overflows at order 40; Brent's method
    # bisects past it, as scipy's brentq does, with no RuntimeWarning (an
    # error under the suite's warning filter)
    records = termination_search(FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0), 40)
    assert [r.n for r in records] == list(range(41))


def test_termination_search_validates_n_max():
    with pytest.raises(ParameterError):
        termination_search(FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0), -1)


def test_termination_search_validates_a_range():
    # the grid runs from 1e-3 up to a_max
    base = FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0)
    for a_max in (math.inf, math.nan, 1e-4, 1e-3, 0.0, -8.0):
        with pytest.raises(ParameterError):
            termination_search(base, 3, a_max=a_max)


def test_termination_search_rejects_a_coarse_grid():
    # a step above 0.025 can hold two roots in one cell; (1e-3, 1e60) once
    # returned every order "trivial" though order 2 terminates at a = 3
    base = FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0)
    for a_max in (1e60, 51.0):
        with pytest.raises(DomainError, match="step"):
            termination_search(base, 3, a_max=a_max)
    roots = termination_search(base, 3, a_max=50.0)[2].roots_by_u0
    assert all(len(r) == 1 and abs(r[0] - 3.0) < 1e-9 for r in roots.values())
