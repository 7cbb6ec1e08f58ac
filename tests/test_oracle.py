"""Integrator self-validation and Floquet extraction.

The integrator is checked against problems with known closed-form behaviour
(decoupled system, constant-detuning flopping), against itself (tolerance
scaling, time reversal, norm conservation) and against the analytic
quasi-energies of the solvable model.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from twostate import oracle
from twostate.closedform import StateVector, floquet_analytic
from twostate.errors import ParameterError
from twostate.fields import DriveField, FieldConfig, N2Config, drive_field
from twostate.oracle import (exponent_pair_residual, integrate, mean_detuning,
                             mod_distance, monodromy, rabi_population, wrap_mod)

GROUND = StateVector(a1=1.0, a2=0.0)


def constant_drive(u0, delta1):
    return DriveField(u=lambda t: u0, delta_t=lambda t: delta1, period=2 * math.pi)


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
    from twostate.fields import detuning_n3
    rtol = 1e-10
    drives = [
        drive_field(N2Config(u0=1.0, delta1=2.0)),
        drive_field(FieldConfig(u0=0.9, a=16.0, delta1=-25.0 / 16.0, delta2=-15.0 / 16.0)),
        DriveField(u=lambda t: 1.0, delta_t=lambda t: detuning_n3(1.0, -2.0, +1, t),
                   period=2 * math.pi),
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
])
def test_monodromy_columns_match_integrate(cfg):
    # column j is basis state j after one period, in co-rotating variables
    # (a1 exp(i phase), a2), with the phase seeded at 0 at t_ref
    fld, t_ref = drive_field(cfg), 0.3
    m = monodromy(fld, t_ref=t_ref).matrix
    for j, state0 in enumerate((StateVector(a1=1.0, a2=0.0), StateVector(a1=0.0, a2=1.0))):
        end = integrate(fld, state0, (t_ref, t_ref + fld.period),
                        rtol=1e-11, atol=1e-13).state_at(-1)
        col = [end.a1 * np.exp(1j * end.phase), end.a2]
        assert np.max(np.abs(m[:, j] - col)) < 1e-9, (cfg, j)


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
