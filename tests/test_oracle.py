"""Integrator self-validation and Floquet extraction.

The integrator is checked against problems with known closed-form behaviour
(decoupled system, constant-detuning flopping), against itself (tolerance
scaling, time reversal, norm conservation), against the analytic
quasi-energies of the solvable model, and against a brute-force multi-period
solve written here, which shares no code with the Floquet composition.
"""

import ast
import functools
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twostate import oracle
from twostate.closedform import StateVector, closed_form_states, floquet_analytic
from twostate.errors import IntegrationError, ParameterError
from twostate.fields import (DriveField, FieldConfig, N2Config, _drive_field, classify_crossings,
                             detuning_general, detuning_n2, drive_field)
from twostate.oracle import (exponent_pair_residual, integrate, mean_detuning,
                             mod_distance, monodromy, rabi_population, wrap_mod)

GROUND = StateVector(a1=1.0, a2=0.0)


def constant_drive(u0, delta1):
    return DriveField(u=u0, delta_t=lambda t: delta1, period=2 * math.pi)


def printed_n3_drive():
    from twostate.fields import detuning_n3
    return DriveField(u=1.0, delta_t=lambda t: detuning_n3(1.0, -2.0, +1, t),
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
        u = field.u
        return [-1j * u * rot * a2, -1j * u * np.conj(rot) * a1, field.delta_t(t)]

    sol = solve_ivp(rhs, t_span, np.array([state0.a1, state0.a2, state0.phase], dtype=complex),
                    method="DOP853", t_eval=t_eval, rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y[0], sol.y[1], sol.y[2].real


# the configurations of the drive_field families: n2 with both carrier signs,
# the general drive (generic and the a = 16 glancing case), each also centred
# off the time origin
CONFIGS = {
    "n2+": N2Config(u0=1.0, delta1=2.0),
    "n2-": N2Config(u0=0.7, delta1=-3.0),
    "n2-off-centre": N2Config(u0=0.8, delta1=-2.5, delta=1.7, t0=0.4),
    "general": FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0),
    "general-off-centre": FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0, delta=1.3, t0=-0.9),
    "glancing": FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0),
}
# every in-repo drive family, each `period`-periodic and even about its
# `center`: those above, the printed n3 field and the constant drive
DRIVES = {
    **{name: functools.partial(drive_field, cfg) for name, cfg in CONFIGS.items()},
    "n3-printed": printed_n3_drive,
    "constant": lambda: constant_drive(0.8, 1.3),
}


@pytest.mark.parametrize("name", DRIVES)
def test_drive_field_contract(name):
    # delta_t is even about the centre and period-periodic (u is a constant),
    # the two facts the half-period oracle composes every sample from
    fld = DRIVES[name]()
    c, T = fld.center, fld.period
    f = fld.delta_t
    for s in np.linspace(0.0, T, 41):
        assert f(c - s) == pytest.approx(f(c + s), rel=1e-12, abs=1e-12), (name, s)
        assert f(c + s + T) == pytest.approx(f(c + s), rel=1e-12, abs=1e-12), (name, s)


def test_drive_field_rejects_a_bad_period_or_centre():
    for period, center in ((math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (-1.0, 0.0),
                           (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ParameterError):
            DriveField(u=1.0, delta_t=lambda t: 1.0, period=period, center=center)


def test_a_complex_detuning_is_refused():
    # the oracle rebuilds Y from one column, which needs a real detuning
    fld = DriveField(u=1.0, delta_t=lambda t: 1.0 + 1j, period=1.0)
    for call in (lambda: integrate(fld, GROUND, (0.0, 1.0)), lambda: monodromy(fld),
                 lambda: mean_detuning(fld)):
        with pytest.raises(ParameterError, match="detuning must be a real number"):
            call()


def test_drive_field_rabi_frequency_is_a_finite_number():
    # the drive is constant-amplitude: a callable u is refused, not called
    for u in (lambda t: 1.0, math.nan, math.inf, "1.0", 1j):
        with pytest.raises(ParameterError, match="constant Rabi frequency"):
            DriveField(u=u, delta_t=lambda t: 1.0, period=1.0)


# ---------------------------------------------------------------- basic integration

def test_zero_coupling_freezes_populations():
    fld = constant_drive(0.0, 1.7)
    state0 = StateVector(a1=math.sqrt(0.3), a2=math.sqrt(0.7))
    ts = np.linspace(0.0, 40.0, 101)
    traj = integrate(fld, state0, (0.0, 40.0), t_eval=ts)
    assert np.max(np.abs(traj.pop2 - 0.7)) < 1e-12
    assert np.max(np.abs(np.abs(traj.a1) ** 2 - 0.3)) < 1e-12


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
        ts = np.linspace(0.0, 10 * fld.period, 2001)
        traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts, rtol=rtol, atol=1e-12)
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
    # non-finite tolerances would make the solver step forever; a zero atol
    # divided by the zero entries of Y(c) = I in the error scale
    for rtol, atol in ((math.nan, 1e-12), (math.inf, 1e-12), (1e-10, math.nan), (1e-10, -1.0),
                       (1e-10, 0.0)):
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
    # the half-period lattice c + i T/2 inside the window, where the offset
    # from the centre is 0 or +-T/2, between the window's ends
    lo, hi, half = min(t_span), max(t_span), 0.5 * fld.period
    i = np.arange(math.floor((lo - fld.center) / half), math.ceil((hi - fld.center) / half) + 1)
    inner = [t for t in fld.center + i * half if lo < t < hi]
    edges = np.array([t_span[0], *inner[::int(np.sign(periods))], t_span[1]])
    lattice = integrate(fld, state0, t_span, t_eval=edges, rtol=1e-11, atol=1e-13)
    a1, a2, _ = brute_force(fld, state0, t_span, edges)
    assert np.max(np.abs(lattice.a1 - a1)) < 1e-9, name
    assert np.max(np.abs(lattice.a2 - a2)) < 1e-9, name
    # without t_eval: the window's ends, with the bits they have in a grid
    ends = integrate(fld, state0, t_span, rtol=1e-11, atol=1e-13)
    assert ends.times.tolist() == list(t_span)
    assert np.array_equal(ends.a1, traj.a1[[0, -1]]) and np.array_equal(ends.a2, traj.a2[[0, -1]])


@pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (0.0, -2.0)])
def test_whole_period_windows_match_brute_force(t_span):
    # spans of exactly one or two periods, 100 samples a period, one on each
    # period end
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    t_span = (t_span[0] * cfg.period, t_span[1] * cfg.period)
    ends = np.linspace(*t_span, round(abs(t_span[1] - t_span[0]) / cfg.period) + 1)
    ts = np.append(np.concatenate([np.linspace(a, b, 101)[:-1] for a, b in zip(ends, ends[1:])]),
                   ends[-1])
    traj = integrate(fld, GROUND, t_span, t_eval=ts, rtol=1e-11, atol=1e-13)
    assert traj.times[-1] == t_span[1] and np.isin(ends, traj.times).all()
    a1, a2, _ = brute_force(fld, GROUND, t_span, ts)
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
    return DriveField(u=1.0, delta_t=never, period=2 * math.pi)


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
    "t-eval-scalar": lambda f: integrate(f, GROUND, (0.0, 1.0), t_eval=0.5),
    "monodromy-t-ref-array": lambda f: monodromy(f, t_ref=np.array([0.3])),
}


@pytest.mark.parametrize("case", BAD_TIMES)
def test_non_finite_or_empty_times_raise_before_solving(case):
    with pytest.raises(ParameterError):
        BAD_TIMES[case](_field_never_called())


def test_times_too_many_periods_from_the_centre_raise_before_solving():
    # from 2**53 periods out t - c - k T is lost to rounding (and beyond 2**63
    # the period count overflowed its integer cast)
    never = _field_never_called()
    far = DriveField(u=never.u, delta_t=never.delta_t, period=1.0, center=1e20)
    # t - c overflows to inf, which once warned before any check refused it
    edge = DriveField(u=never.u, delta_t=never.delta_t, period=1.0, center=-1e308)
    for call in (lambda: monodromy(far, t_ref=0.0),
                 lambda: integrate(far, GROUND, (0.0, 1.0)),
                 lambda: monodromy(edge, t_ref=1e308),
                 lambda: integrate(edge, GROUND, (1e308, 0.0)),
                 lambda: monodromy(never, t_ref=2.0**60),
                 lambda: integrate(never, GROUND, (0.0, 2.0**60)),
                 lambda: integrate(never, GROUND, (2.0**60, 2.0**60 + 2.0**20))):
        with pytest.raises(ParameterError, match="periods from the drive's centre"):
            call()


def test_embedded_dop853_tableau_is_scipys():
    # every stored coefficient is scipy's double, and nothing scipy has is left out
    from scipy.integrate import DOP853

    nodes, a, b, e5, e3 = oracle._NODES, oracle._A, oracle._B, oracle._E5, oracle._E3
    nodes_extra, a_extra = oracle._NODES_EXTRA, oracle._A_EXTRA

    def scatter(rows, width):
        out = np.zeros((len(rows), width))
        for row, terms in zip(out, rows):
            for j, x in terms:
                row[j] = x
        return out

    n = DOP853.n_stages
    assert np.array_equal(np.concatenate(([0.0], nodes)), DOP853.C)
    assert np.array_equal(scatter(((),) + a, n), DOP853.A)
    assert np.array_equal(scatter((b,), n)[0], DOP853.B)
    assert np.array_equal(scatter((e5,), n + 1)[0], DOP853.E5)
    assert np.array_equal(scatter((e3,), n + 1)[0], DOP853.E3)
    assert np.array_equal(nodes_extra, DOP853.C_EXTRA)
    assert np.array_equal(scatter(a_extra, n + 4), DOP853.A_EXTRA)
    assert np.array_equal(oracle._D, DOP853.D)
    assert all(x != 0.0 for rows in (a, (b, e5, e3), a_extra) for row in rows for _, x in row)


@pytest.mark.parametrize("name", DRIVES)
@pytest.mark.parametrize("rtol, atol", [(1e-11, 1e-13), (1e-13, 1e-15)])
@pytest.mark.parametrize("dense", (False, True))
def test_half_period_solve_is_solve_ivp_step_for_step(name, rtol, atol, dense):
    # the oracle's DOP853 loop against scipy's on [gamma, eps, gamma, eps,
    # delta], the integrated column twice, which is what the weighted error
    # norm stands for: the same steps and calls; the values differ only by the
    # order of rounding in the stage and norm sums (measured at most 1.5e-14
    # at the end point and 2.3e-14 in the dense samples)
    fld = DRIVES[name]()
    c = fld.center

    def rhs(t, y):
        iu, dt = 1j * fld.u, fld.delta_t(t)
        return [1j * dt * y[0] - iu * y[1], -iu * y[0], 1j * dt * y[2] - iu * y[3], -iu * y[2], dt]

    ref = solve_ivp(rhs, (c, c + 0.5 * fld.period), np.array([0, 1, 0, 1, 0], dtype=complex),
                    method="DOP853", dense_output=dense, rtol=rtol, atol=atol)
    sol = oracle._half_period_solve("test", fld, rtol, atol, dense)
    assert ref.success
    assert sol.nfev == ref.nfev and len(sol.t) == len(ref.t), name
    assert sol.t[0] == c and sol.t[-1] == ref.t[-1]
    assert np.max(np.abs(sol.y[:, -1] - ref.y[[0, 1, 4], -1])) < 1e-13, name
    if dense:
        ts = np.linspace(c, ref.t[-1], 501)
        assert np.max(np.abs(sol(ts) - ref.sol(ts)[[0, 1, 4]])) < 1e-13, name


@pytest.mark.parametrize("name", DRIVES)
def test_rebuilt_fundamental_matrix_is_the_full_solve(name):
    # [Y, delta] rebuilt from the one integrated column against scipy's DOP853
    # on all of [Y (row-major), delta] from [I, 0], at the oracle's default
    # monodromy tolerances: they take different steps, and agree to within the
    # error of either solve (measured at most 7.3e-12 at the end point, and
    # 3.2e-11 in the dense samples, where the one column itself is 2.8e-11 off)
    fld = DRIVES[name]()
    c, rtol, atol = fld.center, 1e-11, 1e-13

    def rhs(t, y):
        iu, dt = 1j * fld.u, fld.delta_t(t)
        return [1j * dt * y[0] - iu * y[2], 1j * dt * y[1] - iu * y[3], -iu * y[0], -iu * y[1], dt]

    ref = solve_ivp(rhs, (c, c + 0.5 * fld.period), np.array([1, 0, 0, 1, 0], dtype=complex),
                    method="DOP853", dense_output=True, rtol=rtol, atol=atol)
    sol = oracle._half_period_solve("test", fld, rtol, atol, dense=True)
    assert ref.success
    assert np.max(np.abs(oracle._fundamental(sol.y[:, -1]) - ref.y[:, -1])) < 1e-11, name
    ts = np.linspace(c, ref.t[-1], 501)
    assert np.max(np.abs(oracle._fundamental(sol(ts)) - ref.sol(ts))) < 5e-11, name


def test_generated_step_is_the_tableau_summed_in_loops():
    # the straight-line functions against the same step written as loops over
    # the tableau, each sum taken from left to right, and the error sums as
    # loops over [gamma, eps, delta] with the weights 2, 2, 1: equal values,
    # stage for stage
    nodes, a, b, e5, e3 = oracle._NODES, oracle._A, oracle._B, oracle._E5, oracle._E3
    nodes_extra, a_extra = oracle._NODES_EXTRA, oracle._A_EXTRA
    rhs, attempt, extra = oracle._dop853_step()
    fld = DRIVES["n2-off-centre"]()
    iu, delta_t = 1j * fld.u, fld.delta_t
    rtol, atol = 1e-9, 1e-11

    def rhs_loop(t, x):
        dt = delta_t(t)
        return 1j * dt * x[0] - iu * x[1], -iu * x[0], dt

    def total(terms, ks, c):
        return functools.reduce(operator.add, [w * ks[j][c] for j, w in terms])

    def stage(t, h, y, node, terms, ks):
        return rhs_loop(t + node * h, [y[c] + h * total(terms, ks, c) for c in range(2)])

    t, h = fld.center + 0.1, 0.05
    y = (0.6 + 0.1j, 0.7 - 0.2j, 0.4)
    ks = [rhs_loop(t, y)]
    assert rhs(iu, -iu, delta_t, t, y[:2]) == ks[0]
    for node, terms in zip(nodes, a):
        ks.append(stage(t, h, y, node, terms, ks))
    y_new = tuple(y[c] + h * total(b, ks, c) for c in range(3))
    ks.append(rhs_loop(t + h, y_new))
    r5, r3 = (tuple(total(e, ks, c) for c in range(3)) for e in (e5, e3))
    err5 = err3 = 0.0
    for p, q, e, g, w in zip(y, y_new, r5, r3, (2.0, 2.0, 1.0)):
        scale = atol + max(abs(p), abs(q)) * rtol
        err5 += abs(e / scale) ** 2 * w
        err3 += abs(g / scale) ** 2 * w
    assert err5 > 0.0 and err3 > 0.0
    assert (attempt(iu, -iu, delta_t, t, h, t + h, y, ks[0], rtol, atol)
            == (y_new, ks[12], err5, err3, tuple(ks)))
    for node, terms in zip(nodes_extra, a_extra):
        ks.append(stage(t, h, y, node, terms, ks))
    assert extra(iu, -iu, delta_t, t, h, y, tuple(ks[:13])) == tuple(ks[13:])


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("dense", (False, True))
def test_folded_drive_solves_as_the_public_detuning(name, dense):
    # drive_field's detuning has its constants folded once per config; a solve
    # with it takes the same steps to the same bits as one whose detuning
    # calls the public function, which reads the config at every call
    cfg = CONFIGS[name]
    detuning = detuning_n2 if isinstance(cfg, N2Config) else detuning_general
    fld = drive_field(cfg)
    ref = DriveField(u=fld.u, delta_t=lambda t: detuning(cfg, t), period=cfg.period,
                     center=cfg.t0)
    got, want = (oracle._half_period_solve("test", f, 1e-11, 1e-13, dense) for f in (fld, ref))
    assert got.nfev == want.nfev
    assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
    if dense:
        assert np.array_equal(got.rows, want.rows)
    else:
        assert got.rows is None and want.rows is None


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


def test_integrate_without_t_eval_samples_the_span_ends():
    # the default samples are (t_start, t_end) whatever the window's length,
    # with the bits those times have in a grid
    fld = drive_field(CONFIGS["n2-off-centre"])
    for t_span in ((0.3, 0.3 + 2.5 * fld.period), (0.3, 0.3 - 2.5 * fld.period),
                   (0.0, 20_000 * fld.period)):
        ends = integrate(fld, GROUND, t_span)
        assert ends.times.tolist() == list(t_span), t_span
        grid = integrate(fld, GROUND, t_span, t_eval=np.linspace(*t_span, 101))
        for name in ("a1", "a2", "phase"):
            assert np.array_equal(getattr(ends, name), getattr(grid, name)[[0, -1]]), name


@pytest.mark.parametrize("direction", (1, -1), ids=["forward", "backward"])
def test_a_long_window_samples_its_ends_in_little_memory(direction):
    # M^j is raised to each sampled count by its binary digits, so two samples
    # 10^5 periods apart hold two vectors: they peaked at 22.4 MB traced when
    # every period's vector was kept
    fld = drive_field(CONFIGS["n2-off-centre"])
    t_span = (0.3, 0.3 + direction * 100_000 * fld.period)
    tracemalloc.start()
    try:
        traj = integrate(fld, GROUND, t_span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.tolist() == list(t_span)
    assert peak < 2_000_000, peak


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


def test_monodromy_defaults_to_the_drive_centre():
    # on a drive centred off the time origin the default reference time is the
    # centre: the same bits as an explicit t_ref there, from a solve without
    # dense output
    fld = drive_field(CONFIGS["n2-off-centre"])
    calls, counted = _counting_field(fld)
    got = monodromy(counted)
    want = monodromy(fld, t_ref=fld.center)
    assert np.array_equal(got.matrix, want.matrix) and got.exponents == want.exponents
    assert got.nfev == calls[0] == want.nfev


@pytest.mark.parametrize("name", DRIVES)
def test_monodromy_at_centre_is_complex_symmetric(name):
    # A(t) is complex symmetric and even about the centre, so M(c) = Y_h^T Y_h
    fld = DRIVES[name]()
    m = monodromy(fld).matrix
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
    # one half-period solve of one column of Y with dense output makes 587
    # calls here and the monodromy at the centre, without it, 590; the same
    # solves of all of Y made 617 and 626, a one-period solve 1,157 and 1,202,
    # DOP853 across all five periods 4,493, RK45 11,150
    cfg = N2Config(u0=1.0, delta1=2.0)
    fld = drive_field(cfg)
    ts = np.linspace(0.0, 5 * cfg.period, 1001)
    traj = integrate(fld, GROUND, (0.0, float(ts[-1])), t_eval=ts, rtol=1e-11, atol=1e-13)
    assert traj.nfev <= 800
    assert monodromy(fld, rtol=1e-12, atol=1e-13).nfev <= 800


def test_half_period_below_float_spacing_is_an_integration_error():
    # c + T/2 rounds to c: no step can be taken
    fld = DriveField(u=1.0, delta_t=lambda t: 1.0, period=1.0, center=2.0**60)
    with pytest.raises(IntegrationError, match="spacing between numbers"):
        monodromy(fld)


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


@pytest.mark.parametrize("u0, delta1", [(2.0, 2.0), (0.7, -4.0)])
def test_a_long_window_keeps_the_closed_form_to_k_periods_of_error(u0, delta1):
    # k periods out the deviation of a2 from the closed form, the one compare
    # reports, is k times the error of the one-period matrix, whatever the
    # power's order of products: measured at most 2.4e-12 k here, 10^2 to 10^6
    # periods, forward and backward.  The norm drift is the solve's own
    # diagnostic, so it grows with k too
    cfg = N2Config(u0=u0, delta1=delta1)
    fld = drive_field(cfg)
    for direction in (1, -1):
        drifts = []
        for k in (100, 10_000, 1_000_000):
            t_span = (0.0, direction * k * fld.period)
            traj = integrate(fld, GROUND, t_span)
            _, a2 = closed_form_states(cfg, GROUND, 0.0, np.array(t_span))
            deviation = np.max(np.abs(a2 - traj.a2))
            assert deviation < 1e-11 * k, (direction, k, deviation)
            drifts.append(traj.norm_drift)
        assert drifts[0] < drifts[1] < drifts[2], (direction, drifts)


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


# ---------------------------------------------------------------- the kept dense solve

@pytest.mark.parametrize("name", CONFIGS)
def test_monodromy_reads_the_last_dense_solve(name):
    # integrate keeps its dense solve; the monodromy at the centre of the same
    # drive at the same tolerances reads its end point and calls nothing, and
    # gives the bits and the count of a fresh solve without dense output
    fld = drive_field(CONFIGS[name])
    calls, counted = _counting_field(fld)
    traj = integrate(counted, GROUND, (fld.center, fld.center + 2 * fld.period),
                     rtol=1e-11, atol=1e-13)
    assert traj.nfev == calls[0] > 0
    calls[0] = 0
    got = monodromy(counted)
    assert calls[0] == 0
    fresh_calls, fresh = _counting_field(fld)
    want = monodromy(fresh)
    assert want.nfev == fresh_calls[0] < traj.nfev
    assert np.array_equal(got.matrix, want.matrix)
    assert got.eigenvalues == want.eigenvalues and got.exponents == want.exponents
    assert got.unitarity_error == want.unitarity_error and got.nfev == want.nfev
    # so does the period average, read from the same end point
    assert mean_detuning(counted) == mean_detuning(fresh)
    assert calls[0] == 0


def test_library_defaults_solve_once():
    # one tolerance pair is every reader's default: integrate, then monodromy
    # and mean_detuning on the same drive, none given tolerances or t_ref,
    # read integrate's solve
    fld = drive_field(CONFIGS["general-off-centre"])
    calls, counted = _counting_field(fld)
    traj = integrate(counted, GROUND, (0.0, fld.period))
    assert traj.nfev == calls[0] > 0
    calls[0] = 0
    mono = monodromy(counted)
    mean_detuning(counted)
    assert calls[0] == 0 and 0 < mono.nfev < traj.nfev


def test_a_solve_is_reused_only_for_an_equal_drive_at_equal_tolerances():
    # every other request solves, and its nfev is the count it made
    fld = drive_field(CONFIGS["n2-off-centre"])
    calls, counted = _counting_field(fld)
    span = (0.0, fld.period)
    integrate(counted, GROUND, span, rtol=1e-11, atol=1e-13)
    requests = {
        "another rtol": lambda: monodromy(counted, rtol=1e-12),
        "another atol": lambda: monodromy(counted, atol=1e-14),
        # equal values, but a detuning of its own: drives compare it by identity
        "hand-built drive": lambda: monodromy(DriveField(
            u=counted.u, delta_t=lambda t: counted.delta_t(t), period=counted.period,
            center=counted.center)),
        "off-lattice t_ref": lambda: monodromy(counted, t_ref=counted.center + 0.3),
        "integrate again": lambda: integrate(counted, GROUND, span, rtol=1e-11, atol=1e-13),
    }
    for what, request in requests.items():
        calls[0] = 0
        assert request().nfev == calls[0] > 0, what
    # the last dense solve (integrate again) is kept; a solve that raises keeps nothing
    with pytest.raises(ParameterError):
        integrate(DriveField(u=1.0, delta_t=lambda t: 1j, period=1.0), GROUND, (0.0, 1.0),
                  rtol=1e-11, atol=1e-13)
    calls[0] = 0
    monodromy(counted)
    assert calls[0] == 0


def test_a_crossing_census_between_two_readers_costs_no_solve(monkeypatch):
    # integrate on drive A, a census of drive B, then monodromy on A at equal
    # tolerances: the census builds no drive, so A's memo and solve survive it
    cfg_a, cfg_b = CONFIGS["n2-off-centre"], N2Config(u0=1.3, delta1=3.0)
    solves = []
    step = oracle._dop853_step
    monkeypatch.setattr(oracle, "_dop853_step", lambda: solves.append(1) or step())
    integrate(drive_field(cfg_a), GROUND, (0.0, cfg_a.period), rtol=1e-11, atol=1e-13)
    info = _drive_field.cache_info()
    classify_crossings(cfg_b, (0.0, cfg_b.period))
    assert _drive_field.cache_info() == info
    monodromy(drive_field(cfg_a), rtol=1e-11, atol=1e-13)
    assert len(solves) == 1


def test_drive_field_is_one_object_per_configuration():
    for cfg in CONFIGS.values():
        equal = type(cfg)(**vars(cfg))
        assert equal is not cfg and drive_field(equal) is drive_field(cfg)


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


def test_no_analytic_module_names_the_oracle_drive():
    # the other direction of the split: closedform, heun and specfun never name
    # drive_field or DriveField; in fields only drive_field's memo builds a drive,
    # and nothing calls drive_field, whose memo so serves the oracle's callers alone
    pkg = Path(oracle.__file__).parent
    for name in ("closedform", "heun", "specfun"):
        tree = ast.parse((pkg / f"{name}.py").read_text(encoding="utf-8"))
        names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                 | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                 | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names})
        assert not names & {"drive_field", "DriveField"}, name
    tree = ast.parse((pkg / "fields.py").read_text(encoding="utf-8"))

    def callers(callee):
        return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == callee}
    assert callers("DriveField") == {"_drive_field"}
    assert callers("_drive_field") == {"drive_field"}
    assert callers("drive_field") == set()


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: no import of scipy at any nesting,
    # a function-local one included
    found = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []


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
