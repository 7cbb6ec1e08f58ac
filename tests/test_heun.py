"""Series machinery: parameter map, recurrence, termination, accessory polynomial.

The independent oracles here: rationalized hand arithmetic for the parameter
map (derivations recorded inline), a grid-scan root finder for the accessory
polynomial, a finite-difference residual of the underlying ODE for the
series evaluation, and the numerical oracle for the hierarchy's members.
"""

import functools

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from twostate.errors import ConvergenceError, DomainError, ParameterError
from twostate.fields import FieldConfig, StateVector, a_from_delta1, drive_field
from twostate.heun import (_A_GRID, _A_MIN, _ROOT_MATCH_ATOL, _ROOT_XTOL, _U0_PROBES, BetaSeries,
                           HeunParams, TerminationRecord, _branch_constants, _constraint,
                           _continuant, _recurrence_terms, _stacked_grid_roots, eval_series,
                           expand, generalized_rabi, grid_roots, map_to_heun, q_polynomial,
                           series_solution, termination_search)
from twostate.oracle import exponent_pair_residual, integrate, monodromy
from twostate.specfun import UnwoundPoint, fold_beta_sum, inc_beta

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
                    got = _constraint(u0, d1, float(n_stop), n_stop)(a)
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
                got = _constraint(u0, d1, float(n_stop), n_stop)(1.0)
                assert abs(got) <= 1e-14 * scale, (d1, u0, n_stop, abs(got) / scale)


def test_constraint_determinant_vectorized_over_a():
    avals = np.array([0.3, 0.77, 1.6, 4.2])
    vec = _constraint(1.3, -2.5, 4.0, 4)(avals)
    assert np.array_equal(vec, [_constraint(1.3, -2.5, 4.0, 4)(a) for a in avals])
    # the stacked probe grid of termination_search: every row is the scalar
    # evaluation bit for bit, which is what lets the search hand the grid
    # values to Brent's method without re-evaluating the bracket ends
    avals = np.linspace(1e-3, 8.0, 2001)
    for d1, n_stop in ((-2.5, 4), (2.0, 3), (5.5, 8)):
        stacked = _constraint(_U0_PROBES, d1, float(n_stop), n_stop)(avals)
        assert stacked.shape == (3, 2001)
        for row, u0 in zip(stacked, _U0_PROBES):
            assert np.array_equal(row, [_constraint(u0, d1, float(n_stop), n_stop)(float(a))
                                        for a in avals])


def _plain_continuant(a, g, d, e, q, n_stop):
    """The continuant as the plain recursion: every term of :func:`_recurrence_terms` formed."""
    rn, qn, pn = zip(*(_recurrence_terms(a, g, d, e, q, n) for n in range(n_stop + 1)))
    d_prev, d_cur = 1.0, qn[0]
    for n in range(2, n_stop + 2):
        d_prev, d_cur = d_cur, qn[n - 1] * d_cur - pn[n - 2] * rn[n - 1] * d_prev
    return d_cur


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("delta1", [2.0, -2.5, 5.5, -11.3])
def test_continuant_forms_equal_the_plain_recursion_and_leave_inputs_alone(delta1):
    # _continuant forms a n once, rewrites Q_n = -((a n X + C) + q), carries
    # (-1)^n d_n and updates its grid temporaries in place.  Read-only inputs
    # are accepted and left as they were, and the stacked, scalar and
    # polynomial forms equal the plain recursion value for value (== on every
    # element: an exactly zero result may carry the other sign)
    avals = np.linspace(1e-3, 8.0, 2001)
    big_r = np.array([[generalized_rabi(u, delta1)] for u in _U0_PROBES])
    gamma, alpha1 = _branch_constants(big_r, delta1, -1)
    for n_stop in range(11):
        d2 = float(n_stop)
        q = (avals - 1.0) * d2 * alpha1
        inputs = [_read_only(x) for x in (avals, gamma, q)]
        stacked = _continuant(inputs[0], inputs[1], d2, -d2, inputs[2], n_stop)
        for x, before in zip(inputs, (avals, gamma, q)):
            assert np.array_equal(x, before)
        assert stacked.shape == (3, 2001)
        assert np.array_equal(stacked, _plain_continuant(avals, gamma, d2, -d2, q, n_stop))
        for k in range(3):
            for j in range(0, 2001, 50):
                args = (float(avals[j]), float(gamma[k, 0]), d2, -d2, float(q[k, j]), n_stop)
                assert _continuant(*args) == _plain_continuant(*args) == stacked[k, j]
        hp, _ = map_to_heun(FieldConfig(u0=1.0, a=0.77, delta1=delta1, delta2=d2), -1)
        args = (hp.a, hp.gamma, hp.delta, hp.epsilon, Polynomial([0j, 1.0]), n_stop)
        poly = _continuant(*args)
        assert isinstance(poly, Polynomial)
        assert np.array_equal(poly.coef, _plain_continuant(*args).coef)


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


def test_eval_series_at_z_zero_and_one():
    # the Beta kernels own these points for both kinds of series: every B_0 is 0,
    # and z = 1 is singular (the terminated fold and the summed series alike)
    terminated = expand(map_to_heun(n2_scaled_config(1.0, 2.0), -1)[0])
    summed = expand(map_to_heun(FieldConfig(u0=0.9, a=3.0, delta1=1.2, delta2=0.8), -1)[0],
                    max_terms=5)
    assert terminated.terminated and not summed.terminated
    for bs in (terminated, summed):
        assert eval_series(bs, 0.0) == 0 and eval_series(bs, 0j) == 0
        for z in (1.0, UnwoundPoint(1.0, 0.0), complex(math.nan, 0.0)):
            with pytest.raises(DomainError):
                eval_series(bs, z)


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


@given(_polynomial_brackets(), st.integers(0, 40), st.integers(0, 5),
       st.sampled_from([1e-12, 1e-8, 10.0]))
def test_stacked_grid_roots_search_each_side_as_grid_roots(bracket, lo, width, merge_tol):
    # the one-pass search of termination_search on synthetic rows: every
    # exact zero and sign change of all rows at once, the points lo <= j < hi
    # and the cells leaving a side dropped, each side merged on its own, as
    # grid_roots returns from each side's own copy of the grid
    xs, roots, scale = bracket
    lo = min(lo, len(xs))
    hi = min(lo + width, len(xs))
    fs = []
    for k in range(3):                     # rows with fewer roots and either sign
        def f(x, row=roots[k:], c=(-scale if k == 1 else scale)):
            y = c
            for r in row:
                y = y * (x - r)
            return y
        fs.append(f)
    fx = np.array([np.broadcast_to(f(xs), xs.shape) for f in fs])
    try:
        expected = [grid_roots(f, xs[:lo], row[:lo], 1e-15, merge_tol)
                    + grid_roots(f, xs[hi:], row[hi:], 1e-15, merge_tol)
                    for f, row in zip(fs, fx)]
    except ConvergenceError:               # a flat triple root: the same error either way
        with pytest.raises(ConvergenceError):
            _stacked_grid_roots(fs, xs, fx, 1e-15, merge_tol, (lo, hi))
        return
    assert _stacked_grid_roots(fs, xs, fx, 1e-15, merge_tol, (lo, hi)) == expected


@pytest.mark.parametrize("u0, delta1, n_stop", [(5.141038753367041, 10.037068134735588, 6),
                                                (1.8388067875218563, -9.689200223603034, 5),
                                                (0.4500683314806528, 10.264236140718245, 5),
                                                (1.0, 2.0, 3)])
def test_grid_roots_is_brentq_bit_for_bit_on_constraint_grids(u0, delta1, n_stop):
    # the first three meet Brent's step-length test (2|step| < 3|bisection| - tol)
    # within the tolerance, which the polynomial brackets above hardly ever do
    avals = np.linspace(1e-3, 8.0, 2001)
    f = _constraint(u0, delta1, float(n_stop), n_stop)
    fx = f(avals)
    assert grid_roots(f, avals, fx, 1e-15, 1e-8) == _brentq_grid_roots(f, avals, fx, 1e-15, 1e-8)


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_grid_roots_of_a_tiny_function_is_brentq_bit_for_bit(scale):
    # the inverse-quadratic step's quotient underflows to 0 / 0; scipy's C
    # code bisects past the nan, where Python floats raise ZeroDivisionError
    xs = np.linspace(0.0, 2.0, 9)
    f = lambda x: scale * (x - 0.3) * (x + 1.7) * (x - 5.1)
    assert grid_roots(f, xs, f(xs), 1e-15, 1e-8) == _brentq_grid_roots(f, xs, f(xs), 1e-15, 1e-8)


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


def _reference_search(delta1, n_max, a_max):
    """The search as one grid per probe coupling: the plain recursion, and
    :func:`grid_roots` on masked copies of the grid on either side of a = 1."""
    avals, h = np.linspace(_A_MIN, a_max, _A_GRID, retstep=True)
    sides = (avals < 1.0 - 0.5 * h, avals > 1.0 + 0.5 * h)
    records = [TerminationRecord(0, "trivial", {}, 0.0)]
    for n_stop in range(1, n_max + 1):
        d2 = float(n_stop)
        roots_by_u0 = {}
        for u0 in _U0_PROBES:
            gamma, alpha1 = _branch_constants(generalized_rabi(u0, delta1), delta1, -1)
            f = lambda a: _plain_continuant(a, gamma, d2, -d2, (a - 1.0) * d2 * alpha1, n_stop)
            fvals = f(avals)
            roots_by_u0[u0] = tuple(r for side in sides for r in grid_roots(
                f, avals[side], fvals[side], _ROOT_XTOL, 1e-8))
        sets = list(roots_by_u0.values())
        counts = {len(s) for s in sets}
        if counts == {0}:
            status, drift = "trivial", 0.0
        elif len(counts) > 1:
            status, drift = "conditional", math.inf
        else:
            stacked = np.array([sorted(s) for s in sets])
            drift = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
            status = "unconditional" if drift < _ROOT_MATCH_ATOL else "conditional"
        records.append(TerminationRecord(n_stop, status, roots_by_u0, drift))
    return records


@pytest.mark.parametrize("a_max", [8.0, 50.0])
@pytest.mark.parametrize("n_max", [3, 6, 10])
def test_termination_search_equals_the_per_probe_reference(n_max, a_max):
    # the one-pass search (stacked grid, every bracket at once, the cells at
    # a = 1 sliced away) returns the records of one grid per coupling searched
    # side by side, roots and drifts equal as floats
    rng = np.random.default_rng(1000 * n_max + int(a_max))
    for sign in (1.0, -1.0):
        for size in (1.02, 12.0, *rng.uniform(1.02, 12.0, 5)):
            delta1 = sign * float(size)
            got = termination_search(FieldConfig(u0=1.0, a=2.0, delta1=delta1, delta2=1.0),
                                     n_max, a_max=a_max)
            assert got == _reference_search(delta1, n_max, a_max), delta1


@pytest.mark.parametrize("delta1, a_max", [(-9.680707118832233, 2.1798127965638106),
                                           (7.956925238446511, 29.383616727942655),
                                           (10.684607353502019, 7.036283075368875)])
def test_termination_search_leaves_out_the_cells_at_a_equal_one(delta1, a_max):
    # on these grids the left-out point nearest a = 1 has the other sign than
    # both its neighbours at some of orders 7 to 10: neither cell touching it
    # is searched, as neither lies within one side
    got = termination_search(FieldConfig(u0=1.0, a=2.0, delta1=delta1, delta2=1.0), 10,
                             a_max=a_max)
    assert got == _reference_search(delta1, 10, a_max)


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


@functools.cache
def hierarchy_deviations() -> dict:
    """Largest |a2| deviation from the oracle among the members of each order N.

    Every root that ``termination_search(cfg, 7)`` reports at each probe u0,
    for delta1 in {2, -2.5, 3.5}, is one member ``FieldConfig(u0, root,
    delta1, delta2=N)``.  Its normalised ``series_solution(cfg, -1)`` seeds
    the oracle as in criterion 10 (rtol 1e-11), over two periods at 101 samples.
    """
    worst = {}
    for delta1 in (2.0, -2.5, 3.5):
        for rec in termination_search(FieldConfig(u0=1.0, a=2.0, delta1=delta1, delta2=1.0), 7):
            for u0, roots in rec.roots_by_u0.items():
                for a in roots:
                    cfg = FieldConfig(u0=u0, a=a, delta1=delta1, delta2=float(rec.n))
                    a2_fn, da2_fn = series_solution(cfg, -1)
                    a1_0 = 1j * da2_fn(0.0) / cfg.u0
                    scale = math.sqrt(abs(a1_0) ** 2 + abs(a2_fn(0.0)) ** 2)
                    state0 = StateVector(a1=a1_0 / scale, a2=a2_fn(0.0) / scale)
                    grid = np.linspace(0.0, 2.0 * cfg.period, 101)
                    traj = integrate(drive_field(cfg), state0, (0.0, float(grid[-1])),
                                     t_eval=grid, rtol=1e-11, atol=1e-13)
                    series = np.array([a2_fn(t) for t in grid]) / scale
                    dev = float(np.max(np.abs(series - traj.a2)))
                    worst[rec.n] = max(worst.get(rec.n, 0.0), dev)
    return worst


_FOLD_CANCELLATION = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="known defect, fold cancellation: every head of the fold carries (1 - z)^(1 - N), "
           "and near theta = 0 heads of 4.3e6 cancel to a sum of 0.068, so the series loses "
           "digits: 7.0e-9 at N = 6, 3.8e-7 at N = 7")


@pytest.mark.parametrize("order", [2, 3, 4, 5, pytest.param(6, marks=_FOLD_CANCELLATION),
                                   pytest.param(7, marks=_FOLD_CANCELLATION)])
def test_every_hierarchy_member_series_tracks_the_oracle(order):
    # each terminated member's finite Beta sum, seeded into the oracle, solves
    # its own drive: the worst up to N = 5 is 2.0e-10 (N = 5, delta1 = 3.5, u0 = 2)
    assert hierarchy_deviations()[order] <= 1e-9


def n2_exponent_residual(cfg: FieldConfig) -> float:
    """Mod-1 residual of the oracle's Floquet exponents against ``(delta1 -+ R)/2`` (scaled time)."""
    big_r = generalized_rabi(cfg.u0, cfg.delta1)
    analytic = (0.5 * (cfg.delta1 - big_r), 0.5 * (cfg.delta1 + big_r))
    return exponent_pair_residual(analytic, monodromy(drive_field(cfg)).exponents, 1.0)


@functools.cache
def hierarchy_exponent_residuals() -> dict:
    """Largest exponent residual (:func:`n2_exponent_residual`) among the members of each order N.

    The members are those of :func:`hierarchy_deviations`: every root that
    ``termination_search(cfg, 7)`` reports at each probe u0, for delta1 in
    {2, -2.5, 3.5}, 93 in all.  The oracle's monodromy at its default
    tolerances reads no series, so N = 6 and 7 are checked here too.
    """
    worst = {}
    for delta1 in (2.0, -2.5, 3.5):
        for rec in termination_search(FieldConfig(u0=1.0, a=2.0, delta1=delta1, delta2=1.0), 7):
            for u0, roots in rec.roots_by_u0.items():
                for a in roots:
                    cfg = FieldConfig(u0=u0, a=a, delta1=delta1, delta2=float(rec.n))
                    worst[rec.n] = max(worst.get(rec.n, 0.0), n2_exponent_residual(cfg))
    return worst


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7])
def test_every_hierarchy_member_has_the_n2_floquet_exponents(order):
    # a member's a2 is z^alpha1 times a folded finite sum whose heads
    # z^(gamma0 + k) (1 - z)^(1 - N) all wind once per period, so a2 gains
    # exp(2 pi i (alpha1 + gamma0)) = exp(i pi (delta1 -+ R)) at every order and
    # root.  The worst residual per order, N = 2 to 7, was 2.0e-12 to 3.5e-12
    # (3.5e-12 at N = 7); the bound leaves ~30x for other platforms' rounding
    assert hierarchy_exponent_residuals()[order] <= 1e-10


@pytest.mark.parametrize("u0, a, delta1, delta2", [
    (1.0, 2.0, 2.0, 3.0), (1.0, 0.3, 2.0, 4.0), (0.5, 0.5, -2.5, 3.0), (2.0, 1.5, 3.5, 5.0),
    (1.0, 2.0, 2.0, 2.5),
])
def test_off_a_root_the_n2_floquet_exponents_fail(u0, a, delta1, delta2):
    # the same formula off every root misses by 0.020 to 0.40, so the check
    # above tests termination_search's roots against the oracle
    assert n2_exponent_residual(FieldConfig(u0=u0, a=a, delta1=delta1, delta2=delta2)) > 1e-3
