"""Smoke test of the benchmark harness: a tiny run of every workload, both ways."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
                           "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_metric_is_reported(report):
    _, result = report
    names = set(result["metrics"])
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            name = metric["name"]
            key = name if name.startswith("baseline.") else f"{workload['name']}.{name}"
            assert key in names
            assert result["metrics"][key]["unit"] == metric["unit"]


def test_no_op_fails_at_the_default_seed(report):
    table, result = report
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    fail_fracs = [float(line.split()[1]) for line in table if line.split()[:1] == ["fail_frac"]]
    assert fail_fracs == [0.0] * (2 * len(SPEC["workloads"]))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", "analytic", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
