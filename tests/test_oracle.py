"""Integrator self-validation and Floquet extraction.

The integrator is checked against problems with known closed-form behaviour
(decoupled system, constant-detuning flopping), against itself (tolerance
scaling, time reversal, norm conservation), against the analytic
quasi-energies of the solvable model, and against a brute-force multi-period
solve written here, which shares no code with the Floquet composition.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twostate import oracle
from twostate.closedform import StateVector, closed_form_states, floquet_analytic
from twostate.errors import IntegrationError, ParameterError
from twostate.fields import DriveField, FieldConfig, N2Config, drive_field
from twostate.oracle import (exponent_pair_residual, integrate, mean_detuning,
                             mod_distance, monodromy, rabi_population, wrap_mod)

GROUND = StateVector(a1=1.0, a2=0.0)


def constant_drive(u0, delta1):
    return DriveField(u=lambda t: u0, delta_t=lambda t: delta1, period=2 * math.pi)


def printed_n3_drive():
    from twostate.fields import detuning_n3
    return DriveField(u=lambda t: 1.0, delta_t=lambda t: detuning_n3(1.0, -2.0, +1, t),
                      period=2 * math.pi)


def brute_force(field, state0, t_span, t_eval):
    """Reference: the raw amplitude equations solved straight across the whole window.

    ``[a1, a2, phase]`` in the lab frame, every period integrated, at a tighter
    tolerance than the runs it checks; no Floquet composition, no co-rotating
    frame and no code from the oracle.
    """
    def rhs(t, y):
        a1, a2, phase = y
        rot = np.exp(-1j * phase.real)
        u = field.u(t)
        return [-1j * u * rot * a2, -1j * u * np.conj(rot) * a1, field.delta_t(t)]

    sol = solve_ivp(rhs, t_span, np.array([state0.a1, state0.a2, state0.phase], dtype=complex),
                    method="DOP853", t_eval=t_eval, rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y[0], sol.y[1], sol.y[2].real


# every in-repo drive family, each `period`-periodic and even about its
# `center`: n2 with both carrier signs, the general drive (generic and the
# a = 16 glancing case), each also centred off the time origin, the printed n3
# field and the constant drive
DRIVES = {
    "n2+": lambda: drive_field(N2Config(u0=1.0, delta1=2.0)),
    "n2-": lambda: drive_field(N2Config(u0=0.7, delta1=-3.0)),
    "n2-off-centre": lambda: drive_field(N2Config(u0=0.8, delta1=-2.5, delta=1.7, t0=0.4)),
    "general": lambda: drive_field(FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0)),
    "general-off-centre": lambda: drive_field(FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0,
                                                          delta=1.3, t0=-0.9)),
    "glancing": lambda: drive_field(FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0,
                                                delta2=-15.0 / 16.0)),
    "n3-printed": printed_n3_drive,
    "constant": lambda: constant_drive(0.8, 1.3),
}


@pytest.mark.parametrize("name", DRIVES)
def test_drive_field_contract(name):
    # u and delta_t are even about the centre and period-periodic, the two
    # facts the half-period oracle composes every sample from
    fld = DRIVES[name]()
    c, T = fld.center, fld.period
    for s in np.linspace(0.0, T, 41):
        for f in (fld.u, fld.delta_t):
            assert f(c - s) == pytest.approx(f(c + s), rel=1e-12, abs=1e-12), (name, s)
            assert f(c + s + T) == pytest.approx(f(c + s), rel=1e-12, abs=1e-12), (name, s)


def test_drive_field_rejects_a_bad_period_or_centre():
    for period, center in ((math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (-1.0, 0.0),
                           (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ParameterError):
            DriveField(u=lambda t: 1.0, delta_t=lambda t: 1.0, period=period, center=center)


# ---------------------------------------------------------------- basic integration

def test_zero_coupling_freezes_populations():
    fld = constant_drive(0.0, 1.7)
    state0 = StateVector(a1=math.sqrt(0.3), a2=math.sqrt(0.7))
    ts = np.linspace(0.0, 40.0, 101)
    traj = integrate(fld, state0, (0.0, 40.0), t_eval=ts)
    assert np.max(np.abs(traj.pop2 - 0.7)) < 1e-12


def test_constant_detuning_flopping_formula():
    # |a2|^2 = (4 u0^2/R^2) sin^2(R t/2) from the ground state
    for (u0, d1) in [(0.8, 1.3), (1.0, 0.0), (2.0, -3.0)]:
        fld = constant_drive(u0, d1)
        ts = np.linspace(0.0, 10 * 2 * math.pi, 801)
        traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts,
                         rtol=1e-12, atol=1e-14)
        ref = rabi_population(u0, d1, ts)
        assert np.max(np.abs(traj.pop2 - ref)) < 1e-9, (u0, d1)
        assert traj.norm_drift < 1e-10, (u0, d1)


def test_norm_drift_solvable_model():
    cfg = N2Config(u0=1.0, delta1=2.0)
    ts = np.linspace(0.0, 5 * cfg.period, 501)
    traj = integrate(drive_field(cfg), GROUND, (0.0, float(ts[-1])), t_eval=ts,
                     rtol=1e-11, atol=1e-13)
    assert traj.norm_drift < 1e-10
    assert np.all(np.diff(traj.times) > 0)


def test_norm_conservation_all_drive_families():
    rtol = 1e-10
    drives = [
        drive_field(N2Config(u0=1.0, delta1=2.0)),
        drive_field(FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0)),
        printed_n3_drive(),
    ]
    for fld in drives:
        traj = integrate(fld, GROUND, (0.0, 10 * fld.period), rtol=rtol, atol=1e-12)
        assert traj.norm_drift <= 100 * rtol


def test_tolerance_scaling():
    fld = constant_drive(1.0, 1.5)
    ts = np.linspace(0.0, 20 * math.pi, 201)
    errs = []
    for rtol in (1e-6, 1e-8, 1e-10):
        traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts,
                         rtol=rtol, atol=rtol * 1e-2)
        errs.append(np.max(np.abs(traj.pop2 - rabi_population(1.0, 1.5, ts))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 30.0


def test_time_reversal_round_trip():
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    T = cfg.period
    fwd = integrate(fld, GROUND, (0.0, T), rtol=1e-11, atol=1e-13)
    end = fwd.state_at(-1)
    back = integrate(fld, end, (T, 0.0), rtol=1e-11, atol=1e-13)
    final = back.state_at(-1)
    assert abs(final.a1 - 1.0) < 1e-8 and abs(final.a2) < 1e-8


def test_integrate_rejects_loose_rtol_floor():
    with pytest.raises(ParameterError):
        integrate(constant_drive(1.0, 1.0), GROUND, (0.0, 1.0), rtol=1e-14)
    # non-finite tolerances would make the solver step forever
    for rtol, atol in ((math.nan, 1e-12), (math.inf, 1e-12), (1e-10, math.nan), (1e-10, -1.0)):
        with pytest.raises(ParameterError):
            integrate(constant_drive(1.0, 1.0), GROUND, (0.0, 1.0), rtol=rtol, atol=atol)
        with pytest.raises(ParameterError):
            monodromy(constant_drive(1.0, 1.0), rtol=rtol, atol=atol)


def test_integrate_seeds_phase():
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    mid = integrate(fld, GROUND, (0.0, 1.0), rtol=1e-11, atol=1e-13).state_at(-1)
    # restarting from the stored state (including phase) continues the run
    full = integrate(fld, GROUND, (0.0, 2.0), rtol=1e-11, atol=1e-13)
    cont = integrate(fld, mid, (1.0, 2.0), rtol=1e-11, atol=1e-13)
    assert abs(cont.state_at(-1).a2 - full.state_at(-1).a2) < 1e-9


@pytest.mark.parametrize("name", DRIVES)
@pytest.mark.parametrize("periods", (5.37, -5.37, 0.61))
def test_composed_integrate_matches_brute_force(name, periods):
    # a window starting off the origin, forward, backward and shorter than one
    # period, from a state with a seeded phase
    fld = DRIVES[name]()
    t_ref = 0.3
    t_span = (t_ref, t_ref + periods * fld.period)
    state0 = StateVector(a1=0.6, a2=0.8j, phase=0.4)
    ts = np.linspace(*t_span, 401)
    traj = integrate(fld, state0, t_span, t_eval=ts, rtol=1e-11, atol=1e-13)
    assert np.array_equal(traj.times, ts)
    a1, a2, phase = brute_force(fld, state0, t_span, ts)
    assert np.max(np.abs(traj.a1 - a1)) < 1e-9, name
    assert np.max(np.abs(traj.a2 - a2)) < 1e-9, name
    assert np.max(np.abs(traj.phase - phase)) < 1e-9, name
    # without t_eval: the half-period steps, reflected and tiled over the window
    steps = integrate(fld, state0, t_span, rtol=1e-11, atol=1e-13)
    assert steps.times[0] == t_span[0] and steps.times[-1] == t_span[1]
    assert np.all(np.sign(periods) * np.diff(steps.times) > 0)
    a1, a2, _ = brute_force(fld, state0, t_span, steps.times)
    assert np.max(np.abs(steps.a1 - a1)) < 1e-9, name
    assert np.max(np.abs(steps.a2 - a2)) < 1e-9, name


@pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (0.0, -2.0)])
def test_whole_period_windows_match_brute_force(t_span):
    # spans of exactly one or two periods, where a sample falls on a period end
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    t_span = (t_span[0] * cfg.period, t_span[1] * cfg.period)
    traj = integrate(fld, GROUND, t_span, rtol=1e-11, atol=1e-13)
    assert traj.times[-1] == t_span[1]
    a1, a2, _ = brute_force(fld, GROUND, t_span, traj.times)
    assert np.max(np.abs(traj.a1 - a1)) < 1e-9
    assert np.max(np.abs(traj.a2 - a2)) < 1e-9


def test_integrate_rejects_t_eval_outside_span_or_unsorted():
    fld = constant_drive(1.0, 1.0)
    for t_eval in ([0.0, 2.0], [1.0, 0.5], [0.5, 0.5]):
        with pytest.raises(ParameterError):
            integrate(fld, GROUND, (0.0, 1.0), t_eval=t_eval)


def _field_never_called():
    """A drive whose every evaluation fails: an input check must stop the call first."""
    def never(t):
        raise AssertionError("the solver was started")
    return DriveField(u=never, delta_t=never, period=2 * math.pi)


# times that would make the solver step forever, or fail with a bare Python or numpy error
BAD_TIMES = {
    "span-end-nan": lambda f: integrate(f, GROUND, (0.0, math.nan)),
    "span-start-nan": lambda f: integrate(f, GROUND, (math.nan, 1.0)),
    "span-end-inf": lambda f: integrate(f, GROUND, (0.0, math.inf)),
    "t-eval-nan": lambda f: integrate(f, GROUND, (0.0, 1.0), t_eval=[0.0, math.nan]),
    "t-eval-empty": lambda f: integrate(f, GROUND, (0.0, 1.0), t_eval=[]),
    "zero-span-t-eval": lambda f: integrate(f, GROUND, (0.0, 0.0), t_eval=[0.0]),
    "zero-span": lambda f: integrate(f, GROUND, (1.0, 1.0)),
    "monodromy-t-ref-nan": lambda f: monodromy(f, t_ref=math.nan),
    "monodromy-t-ref-inf": lambda f: monodromy(f, t_ref=math.inf),
}


@pytest.mark.parametrize("case", BAD_TIMES)
def test_non_finite_or_empty_times_raise_before_solving(case):
    with pytest.raises(ParameterError):
        BAD_TIMES[case](_field_never_called())


@pytest.mark.parametrize("name", DRIVES)
@pytest.mark.parametrize("rtol, atol", [(1e-11, 1e-13), (1e-13, 1e-15)])
@pytest.mark.parametrize("dense", (False, True))
def test_half_period_solve_is_solve_ivp_step_for_step(name, rtol, atol, dense):
    # the oracle's DOP853 loop against scipy's: the same steps and calls; the
    # values differ only by the order of rounding in the stage sums (measured
    # at most 1.4e-14 at the end point and 1.8e-14 in the dense samples)
    fld = DRIVES[name]()
    c = fld.center

    def rhs(t, y):
        iu, dt = 1j * fld.u(t), fld.delta_t(t)
        return [1j * dt * y[0] - iu * y[2], 1j * dt * y[1] - iu * y[3], -iu * y[0], -iu * y[1], dt]

    ref = solve_ivp(rhs, (c, c + 0.5 * fld.period), np.array([1, 0, 0, 1, 0], dtype=complex),
                    method="DOP853", dense_output=dense, rtol=rtol, atol=atol)
    sol = oracle._half_period_solve("test", fld, rtol, atol, dense)
    assert ref.success
    assert sol.nfev == ref.nfev and len(sol.t) == len(ref.t), name
    assert sol.t[0] == c and sol.t[-1] == ref.t[-1]
    assert np.max(np.abs(sol.y[:, -1] - ref.y[:, -1])) < 1e-13, name
    if dense:
        ts = np.linspace(c, ref.t[-1], 501)
        assert np.max(np.abs(sol(ts) - ref.sol(ts))) < 1e-13, name


def test_a_sample_does_not_depend_on_the_other_samples():
    # every sample is read from the same dense half-period solution, so a
    # subgrid gives the same bits at the same cost, and so does no grid
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    grid = np.linspace(0.0, 5 * cfg.period, 1001)
    t_span = (0.0, float(grid[-1]))
    full = integrate(fld, GROUND, t_span, t_eval=grid, rtol=1e-11, atol=1e-13)
    coarse = integrate(fld, GROUND, t_span, t_eval=grid[::250], rtol=1e-11, atol=1e-13)
    for name in ("a1", "a2", "phase"):
        assert np.array_equal(getattr(full, name)[::250], getattr(coarse, name)), name
    assert full.nfev == coarse.nfev == integrate(fld, GROUND, t_span, rtol=1e-11,
                                                 atol=1e-13).nfev
    # samples periods away from t_start, forward and backward
    tail = integrate(fld, GROUND, t_span, t_eval=grid[600:], rtol=1e-11, atol=1e-13)
    assert np.array_equal(full.a2[600:], tail.a2)
    back_span = t_span[::-1]
    back = integrate(fld, GROUND, back_span, t_eval=grid[::-1], rtol=1e-11, atol=1e-13)
    back_tail = integrate(fld, GROUND, back_span, t_eval=grid[400::-1], rtol=1e-11, atol=1e-13)
    assert np.array_equal(back.a2[600:], back_tail.a2)


# ---------------------------------------------------------------- monodromy

def test_monodromy_matches_analytic_quasi_energies():
    cfg = N2Config(u0=1.0, delta1=2.0)
    res = monodromy(drive_field(cfg))
    rep = floquet_analytic(cfg)
    assert exponent_pair_residual((rep.lambda1, rep.lambda2), res.exponents, 1.0) < 1e-9
    for ev in res.eigenvalues:
        assert abs(abs(ev) - 1.0) < 1e-9
    assert abs(res.det_modulus - 1.0) < 1e-9
    for x in res.exponents:
        assert -0.5 <= x < 0.5


def test_monodromy_invariant_under_reference_time():
    cfg = N2Config(u0=0.7, delta1=3.0)
    e0 = sorted(monodromy(drive_field(cfg), t_ref=0.0).exponents)
    e1 = sorted(monodromy(drive_field(cfg), t_ref=1.234).exponents)
    for x, y in zip(e0, e1):
        assert mod_distance(x, y, 1.0) < 1e-9


def test_monodromy_weak_coupling_degenerate_pair():
    # u0 -> 0 with delta1 = 2: both exponents collapse to 0 mod 1 because the
    # period-average detuning differs from the carrier by an integer
    cfg = N2Config(u0=1e-8, delta1=2.0)
    res = monodromy(drive_field(cfg))
    for x in res.exponents:
        assert abs(wrap_mod(x, 1.0)) < 1e-6


def test_monodromy_general_drive_unit_circle():
    cfg = FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0)
    res = monodromy(drive_field(cfg))
    for ev in res.eigenvalues:
        assert abs(abs(ev) - 1.0) < 1e-9


@pytest.mark.parametrize("cfg", [
    N2Config(u0=1.0, delta1=2.0),
    N2Config(u0=0.7, delta1=-3.0),
    FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0),   # glancing
    N2Config(u0=0.8, delta1=-2.5, delta=1.7, t0=0.4),
])
def test_monodromy_columns_match_integrate(cfg):
    # column j is basis state j after one period, in co-rotating variables
    # (a1 exp(i phase), a2), with the phase seeded at 0 at t_ref; the columns
    # come from the brute-force reference, since integrate composes its
    # samples from the same half-period solve as monodromy; t_ref at the
    # centre reads the solve's end point, off it the dense output
    fld = drive_field(cfg)
    for t_ref in (0.3, fld.center):
        m = monodromy(fld, t_ref=t_ref).matrix
        t_end = t_ref + fld.period
        for j, state0 in enumerate((StateVector(a1=1.0, a2=0.0), StateVector(a1=0.0, a2=1.0))):
            a1, a2, phase = brute_force(fld, state0, (t_ref, t_end), [t_end])
            col = [a1[0] * np.exp(1j * phase[0]), a2[0]]
            assert np.max(np.abs(m[:, j] - col)) < 1e-9, (cfg, t_ref, j)


@pytest.mark.parametrize("name", DRIVES)
def test_monodromy_at_centre_is_complex_symmetric(name):
    # A(t) is complex symmetric and even about the centre, so M(c) = Y_h^T Y_h
    fld = DRIVES[name]()
    m = monodromy(fld, t_ref=fld.center).matrix
    assert np.array_equal(m, m.T), name


def test_monodromy_unitarity_error_floquet_grid():
    # the criterion-02 grid plus both carrier signs below resonance
    for d1 in (4.0 / 3.0, 2.0, 3.0, 5.0, -2.0, -5.0):
        for u0 in (0.3, 1.0, 2.0, 3.5):
            mono = monodromy(drive_field(N2Config(u0=u0, delta1=d1)), rtol=1e-12, atol=1e-13)
            assert mono.unitarity_error <= 1e-9, (u0, d1)


# ---------------------------------------------------------------- cost and range

def _counting_field(fld):
    calls = [0]

    def delta_t(t):
        calls[0] += 1
        return fld.delta_t(t)
    return calls, DriveField(u=fld.u, delta_t=delta_t, period=fld.period, center=fld.center)


def test_nfev_counts_rhs_calls():
    # every right-hand-side call evaluates delta_t exactly once, dense output included
    cfg = N2Config(u0=0.7, delta1=-3.0)
    ts = np.linspace(0.0, 2 * cfg.period, 51)
    calls, fld = _counting_field(drive_field(cfg))
    traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts, rtol=1e-11, atol=1e-13)
    assert traj.nfev == calls[0] > 0
    calls, fld = _counting_field(drive_field(cfg))
    assert monodromy(fld).nfev == calls[0] > 0


def test_rhs_call_budget_solvable_model():
    # one half-period solve with dense output makes 617 calls here and the
    # monodromy at the centre, without it, 626; a one-period solve made 1,157
    # and 1,202, DOP853 across all five periods 4,493, RK45 11,150
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    ts = np.linspace(0.0, 5 * cfg.period, 1001)
    traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts, rtol=1e-11, atol=1e-13)
    assert traj.nfev <= 800
    assert monodromy(fld, rtol=1e-12, atol=1e-13).nfev <= 800


def test_half_period_below_float_spacing_is_an_integration_error():
    # c + T/2 rounds to c: no step can be taken
    fld = DriveField(u=lambda t: 1.0, delta_t=lambda t: 1.0, period=1.0, center=2.0**60)
    with pytest.raises(IntegrationError, match="spacing between numbers"):
        monodromy(fld, t_ref=fld.center)


def test_integrate_cost_independent_of_periods():
    # the same 200-sample-per-period grid over 5 and over 200 periods
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    nfev = []
    for periods in (5, 200):
        ts = np.linspace(0.0, periods * cfg.period, 200 * periods + 1)
        nfev.append(integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts,
                              rtol=1e-11, atol=1e-13).nfev)
    assert nfev[0] == nfev[1]


@pytest.mark.parametrize("u0", (0.2, 5.0))
@pytest.mark.parametrize("delta1", (-6.0, -1.1, 1.1, 6.0))
def test_oracle_agrees_at_input_range_corners(u0, delta1):
    # corners of the validation inputs: u0 in [0.2, 5], 1.1 <= |delta1| <= 6,
    # checked at the acceptance-gate bounds of criteria 01 and 02
    cfg = N2Config(u0=u0, delta1=delta1)
    fld = drive_field(cfg)
    grid = np.linspace(0.0, 5 * cfg.period, 1001)
    _, a2c = closed_form_states(cfg, GROUND, 0.0, grid)
    traj = integrate(fld, GROUND, (0.0, float(grid[-1])), t_eval=grid, rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(a2c - traj.a2)) <= 1e-8
    rep = floquet_analytic(cfg)
    mono = monodromy(fld)
    assert exponent_pair_residual((rep.lambda1, rep.lambda2), mono.exponents, 1.0) <= 1e-8
    assert max(abs(abs(ev) - 1.0) for ev in mono.eigenvalues) <= 1e-9


# ---------------------------------------------------------------- averages

def test_mean_detuning_solvable_model():
    for d1 in (1.4, 2.0, 6.0):
        cfg = N2Config(u0=1.0, delta1=d1)
        assert abs(mean_detuning(drive_field(cfg)) - (d1 - 2.0)) < 1e-10


def test_mean_detuning_constant():
    fld = constant_drive(1.0, 1.7)
    assert abs(mean_detuning(fld) - 1.7) < 1e-12


def test_mean_detuning_general_golden():
    # frozen quadrature value; analytically delta1 - delta2 for a > 1
    cfg = FieldConfig(u0=1.0, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0)
    assert abs(mean_detuning(drive_field(cfg)) - (-0.625)) < 1e-10


def test_oracle_imports_no_analytic_module():
    # the oracle must stay independent of closedform, heun and specfun
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative == {"errors", "fields"}


def test_no_module_imports_a_private_name_of_another():
    # what one module needs from another is public (dunders such as
    # __version__ are): shared algebra has one owner
    found = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "twostate"):
                found += [(path.name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []
