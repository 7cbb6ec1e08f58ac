"""Benchmark of the twostate package.

    python3 bench/run.py --workload {analytic,validate,terminate,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs closed-loop: one client,
one thread, the next op only after the previous one completes.  Every op is
checked against the acceptance gate's tolerances (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh processes that import ``twostate`` and generate the seeded
inputs; the measured run is one more process, so ``peak_rss_mb`` belongs to
the workload alone.  ``--trace 1`` reports the per-layer metrics from a
separate traced run, plus the layer rows of the ROADMAP baseline table.
``--workload all`` runs every workload both ways and prints every metric.

The report is printed by name, unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of the latest traced run of each workload
are written to ``.bench_runs/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("analytic", "validate", "terminate")
SETUP_REPEATS = 5
DEADLINE_S = 170.0          # a single-workload run must end within 180 s
# a p90 is reported only with at least ten samples beyond it
P90_MIN_OPS = 100
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing its check)."""


def _worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {spec['mode']} timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {spec['mode']} exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: int, workdir: Path, deadline: float) -> dict:
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "workdir": str(workdir)}
    setups = [_worker(dict(spec, mode="setup"), deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    run = _worker(dict(spec, mode="run"), deadline)
    lat = run["latencies_ms"]
    n = len(lat)
    metrics = {
        "setup_s": [statistics.median(setups), "s", SETUP_REPEATS],
        "ops_per_s": [n / run["wall_s"], "1/s", n],
        "op_p50_ms": [statistics.median(lat), "ms", n],
        "peak_rss_mb": [run["peak_rss_mb"], "MB", 1],
    }
    extra = {"fail_frac": [run["failed"] / run["attempted"], "frac", run["attempted"]]}
    if n >= P90_MIN_OPS:
        extra["op_p90_ms"] = [statistics.quantiles(lat, n=10)[8], "ms", n]
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics,
            "rows": extra, "inputs": run["inputs"]}


def per_layer(workload: str, seed: int, seconds: int, workdir: Path, deadline: float) -> dict:
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "workdir": str(workdir)}
    traced = _worker(dict(spec, mode="trace"), deadline)
    traced["rows"]["fail_frac"] = [traced["failed"] / traced["attempted"], "frac",
                                   traced["attempted"]]
    return traced


def baseline_rows(seed: int, workdir: Path, deadline: float) -> dict:
    spec = {"mode": "baseline", "workload": "analytic", "seed": seed, "seconds": 1,
            "workdir": str(workdir)}
    return dict(_worker(spec, deadline), attempted=0, failed=0)


def _print_report(title: str, result: dict) -> None:
    print(title)
    inp = result.get("inputs")
    if inp:
        q = inp["u0_quartiles"]
        print(f"  inputs: {inp['ops']} ops; share with delta1 < -1 (Beta-series route) "
              f"{inp['delta1_below_minus1_share']:.3f}; "
              f"u0 quartiles {q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}")
    print(f"  {'metric':<44} {'value':>14} {'unit':<10} {'samples':>8}")
    rows = dict(result["metrics"])
    rows.update({k: v for k, v in result.get("rows", {}).items() if k not in rows})
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<10} {samples:>8}")
    verdict = "correct" if result["failed"] == 0 else "INCORRECT"
    print(f"  verdict: {verdict} ({result['failed']} of {result['attempted']} ops failed "
          f"a check)")
    if result.get("trace_file"):
        print(f"  spans: {result['trace_file']}")


def _result_line(parts: list[tuple[str, dict]]) -> str:
    """The closing JSON line; metric names carry a ``<workload>.`` prefix where one is given."""
    metrics = {f"{prefix}{name}": {"value": value, "unit": unit}
               for prefix, result in parts
               for name, (value, unit, _samples) in result["metrics"].items()}
    attempted = sum(r["attempted"] for _, r in parts)
    failed = sum(r["failed"] for _, r in parts)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "twostate" / "__init__.py").is_file():
        print(f"bench: no twostate package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    parts_planned = len(workloads) * len(modes) + 1 if args.workload == "all" else 1
    deadline = time.monotonic() + DEADLINE_S * parts_planned
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUNS))   # CLI outputs of the ops
    try:
        parts = []
        for workload in workloads:
            for trace in modes:
                measure = per_layer if trace else end_to_end
                result = measure(workload, args.seed, args.seconds, workdir, deadline)
                mode = "per-layer (traced)" if trace else "end-to-end"
                _print_report(f"{workload}: {mode}, seed {args.seed}, {args.seconds} s", result)
                parts.append((f"{workload}." if args.workload == "all" else "", result))
        if args.workload == "all" or args.trace:
            base = baseline_rows(args.seed, workdir, deadline)
            _print_report("layer rows of the ROADMAP baseline table", base)
            if args.workload == "all":
                parts.append(("", base))
            else:
                parts[0][1]["metrics"].update(base["metrics"])
        print(_result_line(parts))
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
