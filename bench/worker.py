"""One benchmark process: set-up timing, a measured run, a traced run, or the layer rows.

Started by ``run.py`` with a single JSON argument
``{"mode", "workload", "seed", "seconds", "workdir"}``; prints one JSON object
as its last line of output.  Modes:

setup     import ``twostate`` and generate the seeded inputs; report the time.
run       closed loop, one op at a time, until ``seconds`` have passed; no tracing.
trace     a fixed number of ops, each run once untraced and once traced (the
          order alternating), so the layer metrics are a function of seed and
          ``seconds`` alone and the tracing overhead is measured on the same ops.
baseline  the layer rows of the ROADMAP baseline table, best of three.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ops per second of ``seconds`` a traced run executes; each op runs twice, so
# on a 2-core x86 VM the traced run takes about half of ``seconds``
TRACE_OPS_PER_S = {"analytic": 1.8, "validate": 0.25, "terminate": 0.18}
BASELINE_REPS = 3


def _run_op(op, lib, u0: float, d1: float, workdir: Path) -> list[str]:
    try:
        return op(lib, u0, d1, workdir)
    except (Exception, SystemExit) as exc:   # argparse exits; count it as a failed op
        return [f"raised {type(exc).__name__}: {exc}"]


def _input_shares(inputs) -> dict:
    u0s = [u0 for u0, _ in inputs]
    quartiles = statistics.quantiles(u0s, n=4) if len(u0s) > 1 else u0s * 3
    return {"ops": len(inputs),
            "delta1_below_minus1_share": sum(d1 < -1.0 for _, d1 in inputs) / len(inputs),
            "u0_quartiles": quartiles}


def _report_failures(failures: list) -> None:
    for i, (u0, d1), problems in failures[:5]:
        print(f"op {i} (u0={u0!r}, delta1={d1!r}) failed: {'; '.join(problems)}",
              file=sys.stderr)


def measure(workloads, workload, inputs, seconds, workdir) -> dict:
    op, lib = workloads.OPS[workload], workloads.library()
    failures = []
    # warm-up: lazy imports and first-call set-up are not part of an op's latency
    problems = _run_op(op, lib, *inputs[0], workdir)
    if problems:
        failures.append((-1, inputs[0], problems))
    latencies = []
    start = time.perf_counter()
    while True:
        i = len(latencies)
        u0, d1 = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        problems = _run_op(op, lib, u0, d1, workdir)
        latencies.append(time.perf_counter() - t0)
        if problems:
            failures.append((i, (u0, d1), problems))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    _report_failures(failures)
    ran = [inputs[i % len(inputs)] for i in range(len(latencies))]
    return {"attempted": len(latencies) + 1, "failed": len(failures),
            "latencies_ms": [1e3 * t for t in latencies], "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "inputs": _input_shares(ran)}


def _layer_metrics(totals: dict, n_ops: int, overhead_frac: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per op of the traced run.

    Each value is ``[value, unit, samples]``; a layer the workload never calls
    reads 0 with 0 samples.
    """
    empty = {"busy_s": 0.0, "calls": 0, "samples": 0, "rhs_calls": 0, "rhs_s": 0.0,
             "self_s": 0.0}

    def per_op(span, key, scale, unit):
        t = totals.get(span, empty)
        return [t[key] * scale / n_ops, unit, t["calls"]]

    out = {}
    for span in ("closedform.closed_form_states", "fields.classify_crossings",
                 "closedform.hg_three_beta", "specfun.inc_beta", "oracle.integrate",
                 "oracle.monodromy", "heun.termination_search"):
        out[f"{span}.busy_ms"] = per_op(span, "busy_s", 1e3, "ms/op")
    out["closedform.closed_form_states.samples"] = per_op(
        "closedform.closed_form_states", "samples", 1, "samples/op")
    for span in ("fields.classify_crossings", "specfun.inc_beta"):
        out[f"{span}.calls"] = per_op(span, "calls", 1, "calls/op")
    for span in ("oracle.integrate", "oracle.monodromy"):
        out[f"{span}.rhs_calls"] = per_op(span, "rhs_calls", 1, "calls/op")
    rhs_s = sum(t["rhs_s"] for t in totals.values())
    rhs_calls = sum(t["rhs_calls"] for t in totals.values())
    out["fields.delta_t.busy_ms"] = [1e3 * rhs_s / n_ops, "ms/op", rhs_calls]
    out["cli.overhead_ms"] = per_op("cli.main", "self_s", 1e3, "ms/op")
    out["trace.overhead_frac"] = [overhead_frac, "frac", n_ops]
    return out


def trace(workloads, workload, inputs, seconds, workdir) -> dict:
    from tracing import Tracer

    op = workloads.OPS[workload]
    tracer = Tracer()
    plain, traced = workloads.library(), workloads.library(tracer.wrap)
    n_ops = max(1, round(seconds * TRACE_OPS_PER_S[workload]))
    failures = []
    problems = _run_op(op, plain, *inputs[0], workdir)   # warm-up, as in the measured run
    if problems:
        failures.append((-1, inputs[0], problems))
    plain_s = traced_s = 0.0
    for i in range(n_ops):
        u0, d1 = inputs[i % len(inputs)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_trace:
                tracer.op = i
                with tracer.cli_boundary():
                    problems = _run_op(op, traced, u0, d1, workdir)
                traced_s += time.perf_counter() - t0
            else:
                problems = _run_op(op, plain, u0, d1, workdir)
                plain_s += time.perf_counter() - t0
            if problems:
                failures.append((i, (u0, d1), problems))
    _report_failures(failures)
    trace_file = workdir.parent / f"trace-{workload}.jsonl"
    tracer.write(trace_file)
    totals = tracer.layer_totals()
    rows = {f"{name}.busy_ms": [1e3 * t["busy_s"] / n_ops, "ms/op", t["calls"]]
            for name, t in sorted(totals.items())}
    rows.update({f"{name}.calls": [t["calls"] / n_ops, "calls/op", t["calls"]]
                 for name, t in sorted(totals.items())})
    return {"attempted": 2 * n_ops + 1, "failed": len(failures),
            "metrics": _layer_metrics(totals, n_ops, traced_s / plain_s - 1.0),
            "rows": rows, "trace_file": str(trace_file),
            "inputs": _input_shares([inputs[i % len(inputs)] for i in range(n_ops)])}


def baseline() -> dict:
    """Layer rows of the ROADMAP baseline table: best of three, RHS calls counted once."""
    import numpy as np
    from twostate.closedform import StateVector, circle_point, closed_form_states, hg_three_beta
    from twostate.fields import DriveField, FieldConfig, N2Config, classify_crossings, drive_field
    from twostate.heun import generalized_rabi, termination_search
    from twostate.oracle import integrate, monodromy
    from twostate.specfun import inc_beta

    ground = StateVector(a1=1.0, a2=0.0)
    cfg = N2Config(u0=1.0, delta1=2.0)
    field = drive_field(cfg)
    ts = np.linspace(0.0, 5 * cfg.period, 1001)

    def best_ms(call):
        times = []
        for _ in range(BASELINE_REPS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return [1e3 * min(times), "ms", BASELINE_REPS]

    def rhs_calls(solve):
        count = [0]
        inner = field.delta_t

        def delta_t(t):
            count[0] += 1
            return inner(t)
        solve(DriveField(u=field.u, delta_t=delta_t, period=field.period))
        return [count[0], "count", 1]

    run_integrate = lambda f: integrate(f, ground, (0.0, float(ts[-1])), t_eval=ts,
                                        rtol=1e-11, atol=1e-13)
    run_monodromy = lambda f: monodromy(f, rtol=1e-12, atol=1e-13)

    calls = 300
    z_inside = circle_point(N2Config(u0=1.0, delta1=-3.0), 0.7).value   # |z| = sqrt(1/2)
    p = generalized_rabi(1.0, -3.0)
    pt = circle_point(cfg, 0.7)
    inc_beta_ms = best_ms(lambda: [inc_beta(p + k % 3, -1.0, z_inside) for k in range(calls)])
    fold_ms = best_ms(lambda: [hg_three_beta(2.0, 1.0, pt) for _ in range(calls)])
    return {"metrics": {
        "baseline.closed_form_states_1001x5p.ms":
            best_ms(lambda: closed_form_states(cfg, ground, 0.0, ts)),
        "baseline.integrate_5p.ms": best_ms(lambda: run_integrate(field)),
        "baseline.integrate_5p.rhs_calls": rhs_calls(run_integrate),
        "baseline.monodromy.ms": best_ms(lambda: run_monodromy(field)),
        "baseline.monodromy.rhs_calls": rhs_calls(run_monodromy),
        "baseline.termination_search_n3.ms": best_ms(lambda: termination_search(
            FieldConfig(u0=1.0, a=2.0, delta1=2.0, delta2=1.0), 3)),
        "baseline.classify_crossings_1p.ms":
            best_ms(lambda: classify_crossings(cfg, (0.0, cfg.period))),
        "baseline.inc_beta.us": [1e3 * inc_beta_ms[0] / calls, "us/call", BASELINE_REPS],
        "baseline.hg_three_beta.us": [1e3 * fold_ms[0] / calls, "us/call", BASELINE_REPS],
    }}


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads                   # imports twostate from this checkout's src/
    inputs = workloads.make_inputs(spec["workload"], spec["seed"])
    setup_s = time.perf_counter() - t0

    mode, workdir = spec["mode"], Path(spec["workdir"])
    if mode == "setup":
        result = {"setup_s": setup_s}
    elif mode == "run":
        result = measure(workloads, spec["workload"], inputs, spec["seconds"], workdir)
    elif mode == "trace":
        result = trace(workloads, spec["workload"], inputs, spec["seconds"], workdir)
    elif mode == "baseline":
        result = baseline()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
