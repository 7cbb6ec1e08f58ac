"""Seeded inputs, operations and correctness checks of the benchmark workloads.

analytic   one N2 config through the library-only analytic path: crossing
           census, closed-form states on a dense 5-period grid, Floquet data,
           harmonic ladder, and both series routes against the quasi-polynomial.
validate   ``twostate compare`` then ``twostate floquet --format json`` through
           ``twostate.cli.main`` in-process, outputs parsed and checked.
terminate  ``twostate terminate --n-max 3`` through ``twostate.cli.main``.

Every op is checked against the acceptance gate's tolerances; an op returns
the list of its failed checks (empty when correct).

Inputs are ``(u0, delta1)`` pairs: ``u0`` log-uniform in [0.2, 5], ``|delta1|``
uniform in the workload's range, both signs.  They are drawn from a Halton
sequence (bases 2, 3, 5) under a random shift taken from the seed, not from
independent uniform draws: every prefix of the op sequence then covers the
input range evenly, so a time-bounded run's mean op cost, which varies
several-fold across the range, depends little on the seed.  Base 2 drives the
sign, so every prefix of the sequence is within one op of half delta1 < -1.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np

from twostate import cli
from twostate.closedform import (StateVector, circle_point, closed_form_states,
                                 floquet_analytic, harmonic_content, hg_quasipoly,
                                 hg_three_beta, three_beta_coeffs)
from twostate.fields import N2Config, classify_crossings, detuning_n2
from twostate.heun import generalized_rabi
from twostate.specfun import inc_beta

U0_RANGE = (0.2, 5.0)
# terminate keeps |delta1| >= 1.5 so the N = 2 root (d1+1)/(d1-1) <= 5 stays
# inside the CLI's default a-grid, which ends at 8
ABS_DELTA1_RANGE = {"analytic": (1.1, 6.0), "validate": (1.1, 6.0), "terminate": (1.5, 6.0)}
POOL_SIZE = 1024            # inputs generated per run; a run cycles through them

GRID_PERIODS = 5
GRID_SAMPLES = 1001
ORBIT_POINTS = 64           # series-route evaluation points per op
HARMONICS = 16
GROUND = StateVector(a1=1.0, a2=0.0)

# acceptance-gate tolerances (tests/test_acceptance.py)
NORM_TOL = 1e-8
CROSSING_TOL = 1e-12
SERIES_RTOL = 1e-11
COMPARE_TOL = 1e-8
FLOQUET_RESIDUAL_TOL = 1e-8
EIG_MODULUS_TOL = 1e-9
ROOT_TOL = 1e-9
TERMINATE_STATUS = ["trivial", "trivial", "unconditional", "conditional"]


def _radical_inverse(i: int, base: int) -> float:
    inv, out = 1.0, 0.0
    while i:
        inv /= base
        out += inv * (i % base)
        i //= base
    return out


def make_inputs(workload: str, seed: int, n: int = POOL_SIZE) -> list[tuple[float, float]]:
    """The first ``n`` seeded ``(u0, delta1)`` inputs of ``workload``, in op order."""
    lo, hi = ABS_DELTA1_RANGE[workload]
    shift = [float(x) for x in np.random.default_rng(seed).random(3)]
    log_lo = math.log(U0_RANGE[0])
    log_span = math.log(U0_RANGE[1] / U0_RANGE[0])
    out = []
    for i in range(1, n + 1):
        s, u, d = ((_radical_inverse(i, base) + x) % 1.0 for base, x in zip((2, 3, 5), shift))
        u0 = math.exp(log_lo + u * log_span)
        d1 = lo + d * (hi - lo)
        out.append((u0, -d1 if s < 0.5 else d1))
    return out


LIBRARY = (classify_crossings, detuning_n2, closed_form_states, floquet_analytic,
           harmonic_content, circle_point, hg_quasipoly, hg_three_beta, three_beta_coeffs,
           generalized_rabi, inc_beta, cli.main)


def layer_name(fn) -> str:
    """Span name of a library function: ``<module>.<function>``, e.g. ``oracle.integrate``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def library(wrap=None) -> SimpleNamespace:
    """The library entry points the ops call; ``wrap(name, fn)`` instruments each one."""
    return SimpleNamespace(**{fn.__name__: wrap(layer_name(fn), fn) if wrap else fn
                              for fn in LIBRARY})


def _rel_err(got: complex, ref: complex) -> float:
    return abs(got - ref) / (1.0 + abs(ref))


def analytic_op(lib, u0: float, d1: float, workdir) -> list[str]:
    cfg = N2Config(u0=u0, delta1=d1)
    period = cfg.period
    problems = []

    census = lib.classify_crossings(cfg, (0.0, period))
    worst = max((abs(lib.detuning_n2(cfg, t)) for t in census.times), default=0.0)
    if not worst <= CROSSING_TOL:
        problems.append(f"crossing residual {worst:.3e} > {CROSSING_TOL:g}")

    ts = np.linspace(0.0, GRID_PERIODS * period, GRID_SAMPLES)
    a1, a2 = lib.closed_form_states(cfg, GROUND, 0.0, ts)
    drift = float(np.max(np.abs(np.abs(a1) ** 2 + np.abs(a2) ** 2 - 1.0)))
    if not drift <= NORM_TOL:
        problems.append(f"closed-form norm drift {drift:.3e} > {NORM_TOL:g}")

    lib.floquet_analytic(cfg)
    lib.harmonic_content(cfg, HARMONICS)

    big_r = lib.generalized_rabi(u0, d1)
    weights = lib.three_beta_coeffs(d1, u0)
    fold_err = beta_err = 0.0
    for k in range(ORBIT_POINTS):
        pt = lib.circle_point(cfg, GRID_PERIODS * period * k / ORBIT_POINTS)
        fold_err = max(fold_err, _rel_err(lib.hg_three_beta(d1, u0, pt),
                                          lib.hg_quasipoly(d1, u0, pt)))
        if d1 < -1.0:
            # the orbit radius sqrt(a) is below 1 only here, where the
            # Beta-function series itself converges
            z = pt.value
            series = sum(c * lib.inc_beta(big_r + n, -1.0, z) for n, c in enumerate(weights))
            beta_err = max(beta_err, _rel_err(series, lib.hg_quasipoly(d1, u0, z)))
    if not fold_err <= SERIES_RTOL:
        problems.append(f"fold vs quasi-polynomial {fold_err:.3e} > {SERIES_RTOL:g}")
    if not beta_err <= SERIES_RTOL:
        problems.append(f"Beta series vs quasi-polynomial {beta_err:.3e} > {SERIES_RTOL:g}")
    return problems


def validate_op(lib, u0: float, d1: float, workdir) -> list[str]:
    field = ["--u0", repr(u0), "--delta1", repr(d1)]
    problems = []

    out = workdir / "compare.csv"
    rc = lib.main(["compare", *field, "--periods", "5", "--tol", repr(COMPARE_TOL),
                   "-o", str(out)])
    if rc != 0:
        problems.append(f"compare exited {rc}")
    else:
        deviation, _tol, verdict = out.read_text().splitlines()[-1].split(",")
        if verdict != "PASS" or not float(deviation) <= COMPARE_TOL:
            problems.append(f"compare {verdict}, max deviation {deviation}")

    out = workdir / "floquet.json"
    rc = lib.main(["floquet", *field, "--format", "json", "-o", str(out)])
    if rc != 0:
        problems.append(f"floquet exited {rc}")
    else:
        data = json.loads(out.read_text())["data"]
        residual = data["residual_mod_delta"][0]
        eig_err = data["eig_modulus_err"][0]
        if not residual <= FLOQUET_RESIDUAL_TOL:
            problems.append(f"floquet residual {residual:.3e} > {FLOQUET_RESIDUAL_TOL:g}")
        if not eig_err <= EIG_MODULUS_TOL:
            problems.append(f"monodromy eigenvalue modulus error {eig_err:.3e} > "
                            f"{EIG_MODULUS_TOL:g}")
    return problems


def terminate_op(lib, u0: float, d1: float, workdir) -> list[str]:
    out = workdir / "terminate.csv"
    rc = lib.main(["terminate", "--u0", repr(u0), "--delta1", repr(d1), "--n-max", "3",
                   "-o", str(out)])
    if rc != 0:
        return [f"terminate exited {rc}"]
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]          # n,status,drift,roots
    problems = []
    status = [row[1] for row in rows]
    if status != TERMINATE_STATUS:
        problems.append(f"status column {status}")
    n2 = [row for row in rows if float(row[0]) == 2.0]
    roots = [float(r) for r in n2[0][3].split(";")] if n2 and n2[0][3] != "none" else []
    target = (d1 + 1.0) / (d1 - 1.0)
    worst = max((abs(r - target) for r in roots), default=math.inf)
    if not worst <= ROOT_TOL:
        problems.append(f"N = 2 roots {roots} vs (d1+1)/(d1-1) = {target!r}")
    return problems


OPS = {"analytic": analytic_op, "validate": validate_op, "terminate": terminate_op}
