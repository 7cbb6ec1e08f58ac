"""Command-line front door: outputs, formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twostate import __version__
from twostate.cli import build_parser, main

SQ2 = math.sqrt(2.0)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def column(header, rows, name, as_float=True):
    i = header.index(name)
    vals = [r[i] for r in rows]
    return [float(v) for v in vals] if as_float else vals


# ---------------------------------------------------------------- detuning

def test_detuning_n2_curve_values(tmp_path):
    # carrier 3: value at t=0 is 3 - 2(3 + sqrt 8) = -3 - 4 sqrt2, at t=pi
    # the rationalized mirror -3 + 4 sqrt2
    out = tmp_path / "curve.csv"
    rc = main(["detuning", "--model", "n2", "--u0", "1", "--delta1", "3",
               "--t-start", "0", "--t-end", str(2 * math.pi), "--samples", "3",
               "-o", str(out)])
    assert rc == 0
    meta, header, rows = read_csv(out)
    assert meta["tool"] == "twostate" and meta["command"] == "detuning"
    ts = column(header, rows, "t")
    vals = column(header, rows, "delta_t")
    assert abs(vals[0] - (-3.0 - 4.0 * SQ2)) < 1e-12
    assert abs(vals[1] - (-3.0 + 4.0 * SQ2)) < 1e-12
    assert abs(ts[2] - 2 * math.pi) < 1e-12


def test_detuning_family_curves(tmp_path):
    for d1 in (4.0 / 3.0, 3.0, 5.0):
        out = tmp_path / f"curve_{d1:.3f}.csv"
        rc = main(["detuning", "--model", "n2", "--u0", "1", "--delta1", str(d1),
                   "--samples", "101", "-o", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        vals = column(header, rows, "delta_t")
        assert abs(vals[0] - (d1 - 2.0 * (d1 + math.sqrt(d1 * d1 - 1.0)))) < 1e-10


def test_detuning_general_and_n3_models(tmp_path):
    out = tmp_path / "gen.csv"
    rc = main(["detuning", "--model", "general", "--u0", "1", "--a", "16",
               "--delta1", str(-25 / 16), "--delta2", str(-15 / 16),
               "--samples", "5", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert abs(column(header, rows, "delta_t")[0]) < 1e-12     # glancing touch
    out3 = tmp_path / "n3.csv"
    rc = main(["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2",
               "--branch", "plus", "--samples", "5", "-o", str(out3)])
    assert rc == 0


def test_detuning_n3_moves_with_t0(tmp_path):
    # --t0 shifts the n3 drive with its window, as it does for n2 and general;
    # the curve once stayed put while the window moved
    curves = []
    for t0 in ("0", "1"):
        out = tmp_path / f"n3_{t0}.csv"
        assert main(["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2",
                     "--t0", t0, "--samples", "5", "-o", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["t0"] == t0 and meta["t-start"] == t0
        curves.append(column(header, rows, "delta_t"))
    assert np.allclose(curves[0], curves[1], rtol=1e-12, atol=0.0)
    assert curves[1][0] == max(curves[1])      # the peak sits at t0


# ---------------------------------------------------------------- analytics commands

def test_heun_map_record(tmp_path):
    out = tmp_path / "map.json"
    rc = main(["heun-map", "--u0", "1", "--delta1", "2", "--delta2", "2", "--a", "3",
               "--format", "json", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    data = payload["data"]
    assert data["sign"] == ["plus", "minus"]
    assert abs(data["gamma"][0] - (1.0 + 2.0 * SQ2)) < 1e-12
    assert abs(data["beta"][0] - 2.0 * SQ2) < 1e-12
    assert abs(data["alpha1"][0] - (1.0 + SQ2)) < 1e-12
    assert abs(data["q"][0] - 4.0 * (1.0 + SQ2)) < 1e-12
    assert data["alpha"] == [0.0, 0.0]
    assert max(data["fuchs_residual"]) < 1e-12


def test_floquet_record(tmp_path):
    out = tmp_path / "floquet.json"
    rc = main(["floquet", "--u0", "1", "--delta1", "2", "--format", "json", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())["data"]
    assert abs(data["lambda2"][0] - (1.0 + SQ2)) < 1e-12
    assert abs(data["lambda1"][0] - (1.0 - SQ2)) < 1e-12
    assert data["residual_mod_delta"][0] < 1e-8
    assert data["eig_modulus_err"][0] < 1e-9


def test_terminate_table(tmp_path):
    out = tmp_path / "term.csv"
    rc = main(["terminate", "--u0", "1", "--delta1", "2", "--n-max", "3", "-o", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    status = column(header, rows, "status", as_float=False)
    assert status == ["trivial", "trivial", "unconditional", "conditional"]
    roots2 = column(header, rows, "roots", as_float=False)[2]
    assert abs(float(roots2.split(";")[0]) - 3.0) < 1e-5


def test_terminate_overflow_is_a_configuration_error(tmp_path, capsys):
    # the constraint determinant overflows on such a-grids; it once exited 0
    # with every order "trivial" and overflow RuntimeWarnings
    for argv in (["--u0", "1", "--delta1", "2", "--a-max", "1e300"],
                 ["--u0", "1", "--delta1", "1e300"]):
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["terminate", *argv, "-o", str(out)]) == 2, argv
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows" in err, err


def test_oracle_work_bound_is_a_numerical_failure(tmp_path, capsys):
    # the oracle's cost grows like |delta1|; past its bound on right-hand-side
    # calls it stops within about two seconds, where it once ran unbounded
    out = tmp_path / "never.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["floquet", "--u0", "1", "--delta1", "1e5", "-o", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "right-hand-side calls" in err, err


def test_terminate_coarse_grid_is_a_configuration_error(tmp_path, capsys):
    # a 2001-point grid up to 1e60 brackets no root; this once exited 0 with
    # every order "trivial" though order 2 terminates at a = 3
    out = tmp_path / "never.csv"
    assert main(["terminate", "--u0", "1", "--delta1", "2", "--a-max", "1e60",
                 "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "step" in err, err


def test_simulate_and_closed_form_agree(tmp_path):
    argv_tail = ["--u0", "1", "--delta1", "2", "--t-start", "0",
                 "--t-end", str(2 * math.pi), "--samples", "101"]
    sim = tmp_path / "sim.csv"
    clo = tmp_path / "clo.csv"
    assert main(["simulate", "--model", "n2", *argv_tail, "-o", str(sim)]) == 0
    assert main(["closed-form", *argv_tail, "-o", str(clo)]) == 0
    _, hs, rs = read_csv(sim)
    _, hc, rc_rows = read_csv(clo)
    pop_sim = np.array(column(hs, rs, "pop2"))
    pop_clo = np.array(column(hc, rc_rows, "pop2"))
    assert np.max(np.abs(pop_sim - pop_clo)) < 1e-8
    norm = np.array(column(hs, rs, "norm"))
    assert np.max(np.abs(norm - 1.0)) < 1e-9


def test_closed_form_large_coupling(tmp_path):
    out = tmp_path / "clo.csv"
    assert main(["closed-form", "--u0", "300", "--delta1", "1.01", "--samples", "3",
                 "-o", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert all(math.isfinite(v) for v in column(header, rows, "pop2"))


def test_compare_verdict_pass(tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--u0", "3.5", "--delta1", "2", "--periods", "2",
               "--samples-per-period", "120", "--format", "json", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())["data"]
    assert data["verdict"] == ["PASS"]
    assert data["max_deviation"][0] <= 1e-8


@pytest.mark.parametrize("u0, delta1", [("1", "2"), ("5", "-6")])
def test_compare_long_window_pass(tmp_path, u0, delta1):
    # the oracle composes every period from one one-period solve, so its error
    # grows with the window; 200 periods still pass the default 1e-8
    out = tmp_path / "cmp_long.json"
    rc = main(["compare", "--u0", u0, "--delta1", delta1, "--periods", "200",
               "--format", "json", "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())["data"]
    assert data["verdict"] == ["PASS"] and data["tolerance"] == [1e-8]


def test_compare_verdict_fail_exit_code(tmp_path):
    out = tmp_path / "cmp_fail.json"
    rc = main(["compare", "--u0", "1", "--delta1", "2", "--periods", "1",
               "--samples-per-period", "50", "--tol", "1e-18",
               "--format", "json", "-o", str(out)])
    assert rc == 4
    assert json.loads(out.read_text())["data"]["verdict"] == ["FAIL"]


# ---------------------------------------------------------------- plumbing

def test_byte_stable_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "64"]
    assert main([*argv, "-o", str(a)]) == 0
    assert main([*argv, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_stdout_output(capsys):
    assert main(["detuning", "--model", "n2", "--u0", "1", "--delta1", "2",
                 "--samples", "2", "-o", "-"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# tool = twostate")
    assert "t,delta_t" in captured


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"u0": 1.0, "delta1": 3.0, "samples": 4}))
    out = tmp_path / "out.csv"
    rc = main(["detuning", "--model", "n2", "--config", str(cfg_file),
               "--delta1", "2", "-o", str(out)])   # flag wins over file
    assert rc == 0
    meta, header, rows = read_csv(out)
    assert meta["delta1-scaled"] == "2"
    assert len(rows) == 4


def test_json_structure(tmp_path):
    out = tmp_path / "d.json"
    assert main(["detuning", "--model", "n2", "--u0", "1", "--delta1", "2",
                 "--samples", "3", "--format", "json", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload.keys()) == {"meta", "data"}
    assert payload["meta"]["command"] == "detuning"
    assert len(payload["data"]["t"]) == 3


_GENERAL = ["--u0", "1", "--a", "2", "--delta1", "2", "--delta2", "1"]


@pytest.mark.parametrize("argv", [
    ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "3"],
    ["heun-map", *_GENERAL],
    ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "5"],
    ["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2", "--samples", "5"],
    ["detuning", "--model", "general", *_GENERAL, "--samples", "5"],
    ["simulate", "--model", "general", *_GENERAL, "--samples", "5"],
    ["closed-form", "--u0", "1", "--delta1", "-2.5", "--t0", "0.4", "--samples", "5"],
    ["floquet", "--u0", "1", "--delta1", "2"],
    ["compare", "--u0", "1", "--delta1", "2", "--periods", "1",
     "--samples-per-period", "10"],
], ids=["terminate", "heun-map", "detuning-n2", "detuning-n3", "detuning-general",
        "simulate", "closed-form", "floquet", "compare"])
def test_json_carries_the_csv_values(tmp_path, argv):
    # string columns (status, roots, sign, verdict) stay strings; the other
    # columns are the floats the CSV prints to 17 digits
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([*argv, "-o", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "-o", str(json_out)]) == 0
    meta, header, rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    # the same envelope in both formats, key for key and in order
    assert list(payload["meta"].items()) == list(meta.items())
    assert list(meta.items())[:3] == [("tool", "twostate"), ("version", __version__),
                                      ("command", argv[0])]
    assert list(payload["data"]) == header
    for name, values in payload["data"].items():
        texts = column(header, rows, name, as_float=False)
        assert len(values) == len(texts), name
        for got, text in zip(values, texts):
            if isinstance(got, str):
                assert got == text, name
            else:
                assert isinstance(got, float) and format(got, ".17g") == text, name


def test_config_error_exit_codes(tmp_path):
    # missing required options
    assert main(["detuning", "--model", "n2", "-o", "-"]) == 2
    # sub-threshold carrier (scaled |delta1| must exceed 1)
    assert main(["floquet", "--u0", "1", "--delta1", "0.5"]) == 2
    # non-normalized initial state
    assert main(["simulate", "--model", "n2", "--u0", "1", "--delta1", "2",
                 "--init", "1,0,1,0"]) == 2
    # unreadable config file
    assert main(["detuning", "--model", "n2", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_numeric_inputs_exit_2(tmp_path):
    general = ["--u0", "1", "--a", "2", "--delta1", "2", "--delta2", "1"]
    for argv in (["detuning", "--u0", "1", "--a", "2", "--delta1", "nan", "--delta2", "1"],
                 ["detuning", *general, "--delta2", "inf"],
                 ["detuning", *general, "--t0=-inf"],
                 ["detuning", *general, "--t-end", "inf"],
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "inf"],
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--delta", "nan"],
                 ["detuning", "--model", "n3", "--u0", "1", "--delta1", "nan"],
                 # the n3 field is in drive-scaled time; --delta was once ignored
                 ["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2", "--delta", "2"],
                 ["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2", "--t0", "inf",
                  "--t-start", "0", "--t-end", "1"],
                 ["floquet", "--u0", "inf", "--delta1", "2"],
                 ["terminate", "--u0", "nan", "--delta1", "2"],
                 ["terminate", "--u0", "1", "--delta1", "2", "--a-max", "inf"],
                 ["compare", "--u0", "1", "--delta1", "2", "--rtol", "nan"],
                 ["compare", "--u0", "1", "--delta1", "2", "--tol", "nan"],
                 # a non-positive tolerance once ran the whole comparison (-1: exit 4)
                 ["compare", "--u0", "1", "--delta1", "2", "--tol", "-1"],
                 ["compare", "--u0", "1", "--delta1", "2", "--tol", "0"],
                 ["compare", "--u0", "1", "--delta1", "2", "--periods", "0"],
                 ["simulate", "--model", "n2", "--u0", "1", "--delta1", "2", "--atol", "nan"],
                 # a zero atol once divided by zero in the oracle's error scale (exit 3)
                 ["simulate", "--model", "n2", "--u0", "2", "--delta1", "2", "--atol", "0"],
                 ["floquet", "--u0", "1", "--delta1", "2", "--rtol", "inf"],
                 # a NaN norm fails the normalization check; text is not a number
                 ["closed-form", "--u0", "1", "--delta1", "2", "--init", "nan,0,0,0"],
                 ["simulate", "--u0", "1", "--delta1", "2", "--init", "nan,0,0,0"],
                 ["compare", "--u0", "1", "--delta1", "2", "--init", "1,0,nan,0"],
                 ["closed-form", "--u0", "1", "--delta1", "2", "--init", "a,b,c,d"],
                 # sqrt(4 u0^2 + delta1^2) overflows
                 ["closed-form", "--u0", "1e200", "--delta1", "2"],
                 ["heun-map", "--u0", "1e200", "--a", "2", "--delta1", "2", "--delta2", "1"],
                 ["floquet", "--u0", "1e200", "--delta1", "2"],
                 ["compare", "--u0", "1e200", "--delta1", "2"],
                 # below the coupling floor the closed form's fundamental pair overflows
                 ["closed-form", "--u0", "5e-324", "--delta1", "2"],
                 ["closed-form", "--u0", "3e-308", "--delta1", "2"],
                 ["closed-form", "--u0", "1e-307", "--delta1", "2"],
                 # sqrt(a), a = (delta1 + 1)/(delta1 - 1), rounds to 1: the closed
                 # form divided by zero (a = 1 leaves the family)
                 ["closed-form", "--u0", "1", "--delta1", "1e16"],
                 ["closed-form", "--u0", "1", "--delta1", "1e17"],
                 ["closed-form", "--u0", "1", "--delta1=-1e16"],
                 ["closed-form", "--u0", "1", "--delta1", "9007199254740992"],
                 ["floquet", "--u0", "1", "--delta1", "1e16"],
                 # the general drive's sqrt(a) rounds to 1: its detuning divided by zero
                 ["detuning", "--model", "general", "--u0", "1", "--a", "1.0000000000000002",
                  "--delta1", "2", "--delta2", "1"],
                 ["simulate", "--model", "general", "--u0", "1", "--a", "1.0000000000000002",
                  "--delta1", "2", "--delta2", "1"],
                 # wrongly typed flags are reported, not raised as SystemExit
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "abc"],
                 ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "2.5"]):
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "-o", str(out)]) == 2, argv
        assert not out.exists()


def test_defaults_with_only_required_options(tmp_path):
    field = ["--u0", "1", "--delta1", "2"]
    general = [*field, "--a", "2", "--delta2", "1"]
    expected = {
        ("simulate", *field): {"model": "n2", "rtol": "1e-10", "atol": "9.9999999999999998e-13",
                               "init": "1,0,0,0", "samples": "1001"},
        ("closed-form", *field): {"init": "1,0,0,0", "samples": "1001"},
        ("floquet", *field): {"rtol": "9.9999999999999994e-12"},
        ("compare", *field): {"periods": "5", "samples-per-period": "200"},
        ("terminate", *field): {"n-max": "3", "a-max": "8"},
        ("heun-map", *general): {},
        ("detuning", *general): {"model": "general", "delta": "1", "t0": "0"},
        ("detuning", "--model", "n3", "--u0", "1", "--delta1", "-2"): {"branch": "plus",
                                                                         "t0": "0"},
    }
    for argv, want in expected.items():
        out = tmp_path / "out.csv"
        assert main([*argv, "-o", str(out)]) == 0, argv
        assert out.read_text().startswith("# tool = twostate\n"), argv   # CSV
        meta, header, rows = read_csv(out)
        assert {k: meta[k] for k in want} == want, argv
        if argv[0] == "compare":
            assert column(header, rows, "tolerance", as_float=False) == ["1e-08"]


def test_config_file_values_typed_like_flags(tmp_path):
    cfg_file = tmp_path / "run.json"
    for bad in ({"samples": "abc"}, {"samples": 2.5}, {"delta1": [2]}, {"format": "xml"}):
        cfg_file.write_text(json.dumps({"u0": 1.0, "delta1": 2.0, **bad}))
        assert main(["detuning", "--model", "n2", "--config", str(cfg_file)]) == 2, bad
    # strings convert as they would on the command line; null leaves an option unset
    cfg_file.write_text(json.dumps({"u0": "1", "delta1": "3", "samples": "4", "t0": None}))
    out = tmp_path / "out.csv"
    assert main(["detuning", "--model", "n2", "--config", str(cfg_file), "-o", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert meta["delta1-scaled"] == "3" and meta["t0"] == "0" and len(rows) == 4


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_partial_file_removed_on_failure(tmp_path):
    out = tmp_path / "never.csv"
    rc = main(["floquet", "--u0", "1", "--delta1", "0.5", "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "never.csv.partial").exists()


# ---------------------------------------------------------------- import boundary

# A fresh interpreter per case: this test process has scipy loaded already.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_RUN_AND_LIST_SCIPY = """
import json, os, sys
import twostate, twostate.cli
codes = [twostate.cli.main(argv + ["-o", os.devnull]) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh_cli_runs(*argvs):
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_scipy():
    # the oracle's DOP853 tableau is written out in oracle.py and no module
    # of the package imports scipy (test_oracle's AST test checks the source)
    out = _fresh_cli_runs(["closed-form", "--u0", "2", "--delta1", "2"],
                          ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2"],
                          ["heun-map", "--u0", "1", "--a", "2", "--delta1", "2", "--delta2", "1"],
                          ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "3"],
                          ["compare", "--u0", "1", "--delta1", "2", "--periods", "1"],
                          ["floquet", "--u0", "1", "--delta1", "2"],
                          ["simulate", "--model", "n2", "--u0", "2", "--delta1", "2"],
                          ["simulate", "--model", "general", "--u0", "1", "--a", "2",
                           "--delta1", "2", "--delta2", "1"])
    assert out == {"codes": [0] * 8, "scipy": []}
