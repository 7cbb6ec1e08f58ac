"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.  Each criterion is independent; tolerances are hard-coded here
and must not be loosened.
"""

import math
import time

import numpy as np

from twostate.closedform import (StateVector, closed_form_states, floquet_analytic,
                                 hg_quasipoly, hg_three_beta)
from twostate.fields import (FieldConfig, N2Config, a_from_delta1, classify_crossings,
                             detuning_general, detuning_n2, detuning_n3, drive_field,
                             glancing_ratios, n3_general_config)
from twostate.heun import expand, map_to_heun, q_polynomial, series_solution, termination_search
from twostate.oracle import (exponent_pair_residual, integrate, mean_detuning, monodromy,
                             rabi_population)
from twostate.specfun import UnwoundPoint, beta_step, inc_beta

GROUND = StateVector(a1=1.0, a2=0.0)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_closed_form_vs_oracle():
    t0 = time.time()
    worst = 0.0
    for u0 in (0.3, 1.0, 2.0, 3.5):
        cfg = N2Config(u0=u0, delta1=2.0)
        grid = np.linspace(0.0, 5 * cfg.period, 401)
        _, a2c = closed_form_states(cfg, GROUND, 0.0, grid)
        traj = integrate(drive_field(cfg), GROUND, (0.0, float(grid[-1])),
                         t_eval=grid, rtol=1e-11, atol=1e-13)
        worst = max(worst, float(np.max(np.abs(a2c - traj.a2))))
    elapsed = time.time() - t0
    _report(1, "closed form vs oracle", worst <= 1e-8,
            f"max |a2| deviation {worst:.3e} <= 1e-8, {elapsed:.1f}s")


def test_criterion_02_floquet_grid():
    worst_res, worst_mod = 0.0, 0.0
    for d1 in (4.0 / 3.0, 2.0, 3.0, 5.0):
        for u0 in (0.3, 1.0, 2.0, 3.5):
            cfg = N2Config(u0=u0, delta1=d1)
            rep = floquet_analytic(cfg)
            mono = monodromy(drive_field(cfg), rtol=1e-12, atol=1e-13)
            res = exponent_pair_residual((rep.lambda1, rep.lambda2), mono.exponents, 1.0)
            worst_res = max(worst_res, res)
            worst_mod = max(worst_mod, max(abs(abs(ev) - 1.0) for ev in mono.eigenvalues))
    ok = worst_res <= 1e-8 and worst_mod <= 1e-9
    _report(2, "Floquet agreement", ok,
            f"max mod-1 residual {worst_res:.3e} <= 1e-8, eig modulus err {worst_mod:.3e} <= 1e-9")


def test_criterion_03_termination_hierarchy():
    ok = True
    detail = []
    for d1 in (-3.0, 4.0 / 3.0, 2.0, 5.0):
        terminated_at = set()
        for u0 in (0.1, 1.0, 10.0):
            cfg = FieldConfig(u0=u0, a=a_from_delta1(d1), delta1=d1, delta2=2.0)
            bs = expand(map_to_heun(cfg, -1)[0])
            cmax = float(np.max(np.abs(bs.coeffs)))
            good = (bs.terminated and bs.n_term == 2
                    and abs(bs.coeffs[3]) <= 1e-12 * cmax
                    and abs(bs.coeffs[4]) <= 1e-12 * cmax)
            ok = ok and good
            terminated_at.add(bs.n_term)
        ok = ok and terminated_at == {2}       # coupling-independent termination
        perturbed = FieldConfig(u0=1.0, a=1.01 * a_from_delta1(d1), delta1=d1, delta2=2.0)
        bsp = expand(map_to_heun(perturbed, -1)[0])
        off = abs(bsp.coeffs[3]) / float(np.max(np.abs(bsp.coeffs)))
        ok = ok and off > 1e-12
        detail.append(f"d1={d1:g} off-constraint c3 rel {off:.1e}")
    _report(3, "termination hierarchy", ok, "; ".join(detail))


def test_criterion_04_q_equation():
    ok = True
    worst_on, best_off = 0.0, float("inf")
    for d1 in (1.5, 2.0, 3.0, -3.0):
        for u0 in (0.5, 1.0, 2.0):
            for a in (a_from_delta1(d1), 1.05 * a_from_delta1(d1), 2.7):
                cfg = FieldConfig(u0=u0, a=a, delta1=d1, delta2=2.0)
                hp, _ = map_to_heun(cfg, -1)
                poly = q_polynomial(hp, 2)
                norm = float(np.max(np.abs(poly)))
                res = abs(np.polyval(poly[::-1], hp.q)) / norm
                factor = a * (d1 - 1.0) - d1 - 1.0
                if abs(factor) < 1e-12:
                    ok = ok and res <= 1e-10
                    worst_on = max(worst_on, res)
                else:
                    ok = ok and res > 1e-10
                    best_off = min(best_off, res)
    _report(4, "q-equation", ok,
            f"on-constraint residual {worst_on:.2e} <= 1e-10, off-constraint min {best_off:.2e}")


def test_criterion_05_identity_suite():
    rng = np.random.default_rng(2024)
    worst_step = 0.0
    checked = 0
    while checked < 100:
        c = rng.uniform(-2.0, 3.0) + 1j * rng.uniform(-1.0, 1.0)
        b = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        if abs(c) < 0.1 or abs(c - round(c.real)) < 0.05:
            continue
        z = rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        ref = inc_beta(c, b, z)
        err = abs(beta_step(c, b, z) - ref) / (1.0 + abs(ref))
        worst_step = max(worst_step, err)
        checked += 1
    worst_id = 0.0
    for d1, u0 in ((2.0, 1.0), (3.0, 0.5), (5.0, 3.5), (4.0 / 3.0, 2.0), (-3.0, 1.0)):
        radius = math.sqrt(abs(a_from_delta1(d1)))
        for _ in range(50):
            z = UnwoundPoint(radius, rng.uniform(-4 * math.pi, 4 * math.pi))
            rhs = hg_quasipoly(d1, u0, z)
            err = abs(hg_three_beta(d1, u0, z) - rhs) / (1.0 + abs(rhs))
            worst_id = max(worst_id, err)
    worst_unit = 0.0
    for z in (0.1, 0.37, 0.62, 0.85, 0.3 + 0.4j, -0.5 + 0.2j):
        worst_unit = max(worst_unit, abs(inc_beta(1.0, 1.0, z) - z))
        worst_unit = max(worst_unit, abs(inc_beta(1.0, -1.0, z) - z / (1.0 - z)))
    ok = worst_step <= 1e-11 and worst_id <= 1e-11 and worst_unit <= 1e-13
    _report(5, "identity suite", ok,
            f"neighbour step {worst_step:.2e} <= 1e-11, sum vs quasi-poly {worst_id:.2e} <= 1e-11, "
            f"unit cases {worst_unit:.2e} <= 1e-13")


def test_criterion_06_ode_residual():
    ok = True
    details = []
    for (d1, u0) in ((2.0, 1.0), (3.0, 0.5)):
        cfg = N2Config(u0=u0, delta1=d1)
        state0 = GROUND
        grid = np.linspace(0.0, cfg.period, 201)
        _, a2c = closed_form_states(cfg, state0, 0.0, grid)
        sup = float(np.max(np.abs(a2c)))
        h = 1e-4 * cfg.period
        worst = 0.0
        for t in np.linspace(0.0, cfg.period, 101):
            samples = [closed_form_states(cfg, state0, 0.0, np.array([t + k * h]))[1][0]
                       for k in (-2, -1, 0, 1, 2)]
            fm2, fm1, f0, fp1, fp2 = samples
            d1v = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
            d2v = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
            resid = d2v - 1j * detuning_n2(cfg, t) * d1v + (cfg.u0 * cfg.delta) ** 2 * f0
            worst = max(worst, abs(resid))
        ok = ok and worst <= 1e-6 * sup
        details.append(f"({d1:g},{u0:g}): {worst / sup:.2e}")
    _report(6, "governing-equation residual", ok,
            "relative residuals " + ", ".join(details) + " <= 1e-6")


def test_criterion_07_field_family_consistency():
    cfg2 = N2Config(u0=1.0, delta1=2.0)
    cfg3 = N2Config(u0=1.0, delta1=3.0)
    dev = 0.0
    for cfg in (cfg2, cfg3):
        ts = np.linspace(0.0, cfg.period, 10_000)
        dev = max(dev, float(np.max(np.abs(detuning_n2(cfg, ts)
                                           - detuning_general(cfg.as_general(), ts)))))
    mean_err = 0.0
    for cfg in (cfg2, cfg3, N2Config(u0=1.0, delta1=1.4)):
        mean_err = max(mean_err, abs(mean_detuning(drive_field(cfg)) - (cfg.delta1 - 2.0)))
    glance = abs(detuning_general(FieldConfig(u0=1.0, a=16.0, delta1=-25.0 / 16.0,
                                              delta2=-15.0 / 16.0), 0.0))
    for a in (2.0, 16.0):
        r1, r2 = glancing_ratios(a)
        glance = max(glance, abs(detuning_general(
            FieldConfig(u0=1.0, a=a, delta1=r1 * 0.7, delta2=0.7), 0.0)))
        glance = max(glance, abs(detuning_general(
            FieldConfig(u0=1.0, a=a, delta1=r2 * 0.7, delta2=0.7), math.pi)))
    ok = dev <= 1e-13 and mean_err <= 1e-10 and glance <= 1e-12
    _report(7, "field-family consistency", ok,
            f"two-parameter vs general {dev:.2e} <= 1e-13, mean {mean_err:.2e} <= 1e-10, "
            f"glancing touch {glance:.2e} <= 1e-12")


def test_criterion_08_crossing_census():
    ok = True
    worst = 0.0
    for d1 in (1.2, 2.0, 5.0):
        cfg = N2Config(u0=1.0, delta1=d1)
        rep = classify_crossings(cfg, (0.0, cfg.period))
        ok = ok and rep.kind == "crossing" and len(rep.times) == 2
        for r in rep.times:
            worst = max(worst, abs(detuning_n2(cfg, r)))
    rep = classify_crossings(N2Config(u0=1.0, delta1=1.1), (0.0, 2 * math.pi))
    ok = ok and rep.kind == "non-crossing" and len(rep.times) == 0
    ok = ok and worst <= 1e-12
    _report(8, "crossing census", ok,
            f"two roots per period above threshold, none at 1.1, root residual {worst:.2e} <= 1e-12")


def test_criterion_09_oracle_self_validation():
    u0, d1 = 0.8, 1.3
    fld = drive_field(N2Config(u0=u0, delta1=d1))
    const = type(fld)(u=u0, delta_t=lambda t: d1, period=2 * math.pi)
    ts = np.linspace(0.0, 20 * math.pi, 801)
    traj = integrate(const, GROUND, (0.0, float(ts[-1])), t_eval=ts, rtol=1e-12, atol=1e-14)
    flop_err = float(np.max(np.abs(traj.pop2 - rabi_population(u0, d1, ts))))
    drift = traj.norm_drift
    cfg = N2Config(u0=1.0, delta1=2.0)
    fwd = integrate(drive_field(cfg), GROUND, (0.0, cfg.period), rtol=1e-11, atol=1e-13)
    back = integrate(drive_field(cfg), fwd.state_at(-1), (cfg.period, 0.0),
                     rtol=1e-11, atol=1e-13)
    round_trip = abs(back.state_at(-1).a1 - 1.0) + abs(back.state_at(-1).a2)
    ok = flop_err <= 1e-9 and drift <= 1e-10 and round_trip <= 1e-8
    _report(9, "oracle self-validation", ok,
            f"flopping formula {flop_err:.2e} <= 1e-9, norm drift {drift:.2e} <= 1e-10, "
            f"round trip {round_trip:.2e} <= 1e-8")


def test_criterion_10_conditional_model_pathway():
    records = termination_search(FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0), 3)
    status = {r.n: r.status for r in records}
    hierarchy_ok = status == {0: "trivial", 1: "trivial", 2: "unconditional", 3: "conditional"}

    # the printed three-term field: its four-term series, seeded into the
    # oracle, must track the numerical solution
    u0, d1, branch = 1.0, -2.0, +1
    cfg = n3_general_config(u0, d1, branch)
    a2_fn, da2_fn = series_solution(cfg, -1)
    a1_0 = 1j * da2_fn(0.0) / cfg.u0
    scale = math.sqrt(abs(a1_0) ** 2 + abs(a2_fn(0.0)) ** 2)
    state0 = StateVector(a1=a1_0 / scale, a2=a2_fn(0.0) / scale)
    grid = np.linspace(0.0, 4 * math.pi, 301)
    fld = drive_field(cfg)
    printed = type(fld)(u=u0, delta_t=lambda t: detuning_n3(u0, d1, branch, t),
                        period=2 * math.pi)
    traj = integrate(printed, state0, (0.0, float(grid[-1])), t_eval=grid,
                     rtol=1e-11, atol=1e-13)
    series_vals = np.array([a2_fn(t) for t in grid]) / scale
    dev = float(np.max(np.abs(series_vals - traj.a2)))
    ok = hierarchy_ok and dev <= 1e-6
    _report(10, "conditional-model pathway", ok,
            f"hierarchy {status}, printed-field series vs oracle {dev:.3e} <= 1e-6")
