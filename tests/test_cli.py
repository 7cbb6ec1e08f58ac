"""Command-line front door: outputs, formats, determinism, exit codes."""

import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate import __version__, cli, oracle
from twostate.cli import build_parser, main
from twostate.fields import _drive_field

import cli_corpus

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


# every argv of the byte corpus gives its pinned exit code and the SHA-256 of
# its stdout and stderr; `python3 tests/cli_corpus.py` regenerates the corpus
@pytest.mark.parametrize("record", cli_corpus.load(), ids=lambda rec: " ".join(rec["argv"][:-2]))
def test_output_bytes_are_pinned(record):
    assert cli_corpus.replay(record["argv"]) == record


@pytest.mark.parametrize("a_max", ["20", "50"])
def test_terminate_roots_ascend_as_numbers(tmp_path, a_max):
    # the roots once sorted as strings: 17.68 came before 6.88
    out = tmp_path / "term.csv"
    assert main(["terminate", "--u0", "1", "--delta1", "2", "--n-max", "8", "--a-max", a_max,
                 "-o", str(out)]) == 0
    _, header, rows = read_csv(out)
    cells = [cell for cell in column(header, rows, "roots", as_float=False) if cell != "none"]
    assert any(float(cell.split(";")[-1]) > 10.0 for cell in cells)
    for cell in cells:
        roots = [float(r) for r in cell.split(";")]
        assert roots == sorted(roots) and len(set(roots)) == len(roots), cell


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


@pytest.mark.parametrize("pair", [cli_corpus.INIT_ARGVS[:2], cli_corpus.INIT_ARGVS[2:]],
                         ids=["3", "1e6"])
def test_simulate_and_closed_form_agree_from_any_state_and_start(tmp_path, pair):
    # --init is the state at --t-start, with the drive phase 0 there, for both
    # sources; closed-form read the phase from the drive's origin instead, and
    # pop2 disagreed by 9.27e-2 from --t-start 3 and by 0.708 from 1e6
    pops = []
    for i, line in enumerate(pair):
        out = tmp_path / f"{i}.csv"
        assert main([*line.split(), "-o", str(out)]) == 0, line
        _, header, rows = read_csv(out)
        pops.append(np.array(column(header, rows, "pop2")))
    assert pops[0].size == 101 and np.max(np.abs(pops[0] - pops[1])) <= 1e-8


def test_closed_form_large_coupling(tmp_path):
    out = tmp_path / "clo.csv"
    assert main(["closed-form", "--u0", "300", "--delta1", "1.01", "--samples", "3",
                 "-o", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert all(math.isfinite(v) for v in column(header, rows, "pop2"))


@pytest.mark.parametrize("command", [["simulate", "--model", "n2"], ["closed-form"]],
                         ids=["simulate", "closed-form"])
def test_a_window_that_repeats_times_is_a_configuration_error(capsys, command):
    # at 1e15 doubles are 0.125 apart, so 201 samples over 12.6 repeat times:
    # simulate once exited 2 from the oracle and closed-form 0, printing 201
    # rows with 102 distinct times
    assert main([*command, "--u0", "2", "--delta1", "2", "--t-start", "1e15",
                 "--t-end", "1000000000000012.6", "--samples", "201", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    assert "201 distinct sample times" in captured.err, captured


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


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main([*argv, "-o", "-"])
    assert rc == 0, argv
    return out.getvalue()


def _solve_again():
    raise AssertionError("floquet solved the half period again")


@pytest.mark.parametrize("t0s", [("0", "0"), ("-0", "-0"), ("0.4", "0.4"), ("0", "-0"),
                                 ("-0", "0")])
@pytest.mark.parametrize("delta", ["1", "1.7"])
@pytest.mark.parametrize("delta1", ["2", "-2.5"])
def test_floquet_after_compare_prints_the_bytes_of_floquet_alone(monkeypatch, delta1, delta,
                                                                  t0s):
    # compare keeps its dense half-period solve, and floquet on an equal drive
    # at the same tolerances reads its end point without solving again; the
    # zeros of either sign make equal configurations, so one drive
    compare_t0, floquet_t0 = t0s
    field = ["--u0", "0.8", "--delta1", delta1, "--delta", delta]
    monkeypatch.setattr(oracle, "_last_dense", None)        # nothing kept from earlier runs
    _drive_field.cache_clear()
    alone = _stdout(["floquet", *field, "--t0", floquet_t0])
    _drive_field.cache_clear()
    _stdout(["compare", *field, "--t0", compare_t0])
    monkeypatch.setattr(oracle, "_dop853_step", _solve_again)
    assert _stdout(["floquet", *field, "--t0", floquet_t0]) == alone


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
# one argv per command and model
_EVERY_COMMAND = {
    "terminate": ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "3"],
    "heun-map": ["heun-map", *_GENERAL],
    "detuning-n2": ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "5"],
    "detuning-n3": ["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2",
                    "--samples", "5"],
    "detuning-general": ["detuning", "--model", "general", *_GENERAL, "--samples", "5"],
    "simulate": ["simulate", "--model", "general", *_GENERAL, "--samples", "5"],
    "closed-form": ["closed-form", "--u0", "1", "--delta1", "-2.5", "--t0", "0.4",
                    "--samples", "5"],
    "floquet": ["floquet", "--u0", "1", "--delta1", "2"],
    "compare": ["compare", "--u0", "1", "--delta1", "2", "--periods", "1",
                "--samples-per-period", "10"],
}


# every command, and a terminate run whose probes disagree on the root count
# at orders 5 and 6, so that its drift reads nan
_JSON_ARGVS = {**_EVERY_COMMAND,
               "terminate-nan": ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "10"]}


def _refuse(constant):
    raise ValueError(f"{constant} is no JSON number")


@pytest.mark.parametrize("argv", list(_JSON_ARGVS.values()), ids=list(_JSON_ARGVS))
def test_json_carries_the_csv_values(tmp_path, argv):
    # string columns (status, roots, sign, verdict) stay strings; the other
    # columns are the floats the CSV prints to 17 digits, null where it prints
    # nan: NaN and Infinity are no JSON (RFC 8259), so the parser refuses them
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([*argv, "-o", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "-o", str(json_out)]) == 0
    meta, header, rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text(), parse_constant=_refuse)
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
            elif got is None:
                assert text == "nan", name
            else:
                assert isinstance(got, float) and format(got, ".17g") == text, name


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in _EVERY_COMMAND.values()),
    (["compare", "--u0", "1", "--delta1", "2", "--periods", "1", "--samples-per-period", "50",
      "--tol", "1e-18"], 4),
], ids=[*_EVERY_COMMAND, "compare-fail"])
def test_command_returns_its_output_and_main_writes_it(tmp_path, capsys, argv, code):
    # a command is a function of its parsed arguments to (meta, columns): it
    # writes nothing and picks no exit code; main adds the envelope, writes
    # the output once and exits 4 on a FAIL verdict
    out = tmp_path / "out.csv"
    args = cli._parse([*argv, "-o", str(out)])
    meta, columns = args.run(args)
    assert isinstance(meta, dict) and isinstance(columns, dict)
    assert not out.exists() and not (tmp_path / "out.csv.partial").exists()
    assert capsys.readouterr() == ("", "")
    assert main([*argv, "-o", str(out)]) == code
    envelope = {"tool": "twostate", "version": __version__, "command": argv[0], **meta}
    assert out.read_bytes() == cli._render_csv(envelope, columns).encode("utf-8")


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


def test_config_file_not_utf8_is_a_configuration_error(tmp_path, capsys):
    # a UTF-16 byte-order mark once ended in a UnicodeDecodeError traceback (exit 1)
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_bytes(b'\xff\xfe{"u0": 1}')
    assert main(["detuning", "--model", "n2", "--config", str(cfg_file), "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    assert captured.err.startswith("twostate: configuration error: 'utf-8' codec"), captured


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
                 # rtol 1e300 once made a NaN monodromy with overflow warnings (exit 1
                 # under warnings as errors); from 1 on the tolerance is refused
                 ["compare", "--u0", "1e5", "--delta1", "2", "--rtol", "1e300", "--periods", "1"],
                 ["compare", "--u0", "1", "--delta1", "2", "--rtol", "1", "--periods", "1"],
                 ["floquet", "--u0", "1", "--delta1", "2", "--rtol", "1e300"],
                 ["floquet", "--u0", "1", "--delta1", "2", "--rtol", "1"],
                 ["simulate", "--model", "n2", "--u0", "1", "--delta1", "2", "--rtol", "1e300"],
                 ["simulate", "--model", "n2", "--u0", "1", "--delta1", "2", "--rtol", "1"],
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
                 # sample counts above 10^6 are refused before numpy allocates them
                 # (10^12 samples once ended in numpy's _ArrayMemoryError, exit 1)
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2",
                  "--samples", "1000000000000"],
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2",
                  "--samples", "1000001"],
                 ["compare", "--u0", "1", "--delta1", "2", "--periods", "100000000"],
                 ["compare", "--u0", "1", "--delta1", "2", "--periods", "5000"],
                 # found by the fuzz test below: a window past 2**53 periods of t0
                 # overflowed the closed form's phase, a window wider than a double
                 # overflowed numpy's linspace, and a drive whose detuning peak
                 # overflows printed -inf (each warned: exit 1 with warnings as
                 # errors) or, integrated, ran into the oracle's work bound (exit 3)
                 ["closed-form", "--u0", "1", "--delta1", "-2.5", "--t-end", "1e308"],
                 ["closed-form", "--u0", "1", "--delta1", "2", "--t-start=-1e308",
                  "--t-end", "1e308", "--t0=-1e308"],
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--t-start=-1e308",
                  "--t-end", "1e308"],
                 ["detuning", *general[:-1], "1e308"],
                 ["detuning", "--model", "n2", "--u0", "1e300", "--delta1", "1e308",
                  "--delta", "1e293"],
                 ["simulate", "--model", "general", *general[:-1], "1e308"],
                 # wrongly typed flags are reported, not raised as SystemExit
                 ["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "abc"],
                 ["terminate", "--u0", "1", "--delta1", "2", "--n-max", "2.5"]):
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "-o", str(out)]) == 2, argv
        assert not out.exists()


# ---------------------------------------------------------------- fuzzed options
# Each example is one command with two of its numeric options set to a value
# a user might type by mistake.  Counts (--samples, --periods,
# --samples-per-period, --n-max) also draw a huge integer, which the sample
# ceiling refuses before any array is allocated and the search's overflow
# check ends within about 80 orders.

_FUZZ_VALUES = ("nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "1e308", "-1e308", "0",
                "-0.0", "1.0000000000000002", "-1.0000000000000002", "abc", "")
_FUZZ_COUNTS = _FUZZ_VALUES + ("1000000000000", "-1000000000000")
_WINDOW = ("t-start", "t-end", "samples")
_FIELD = ("u0", "delta1", "delta", "t0")
_FUZZ_COMMANDS = [
    (["detuning", "--model", "n2", "--u0", "1", "--delta1", "2", "--samples", "5"],
     (*_FIELD, *_WINDOW)),
    (["detuning", "--model", "general", *_GENERAL, "--samples", "5"],
     (*_FIELD, "a", "delta2", *_WINDOW)),
    (["detuning", "--model", "n3", "--u0", "1", "--delta1", "-2", "--samples", "5"],
     (*_FIELD, *_WINDOW)),
    (["simulate", "--u0", "2", "--delta1", "2", "--samples", "5"],
     (*_FIELD, *_WINDOW, "rtol", "atol")),
    (["simulate", "--model", "general", *_GENERAL, "--samples", "5"],
     (*_FIELD, "a", "delta2", *_WINDOW, "rtol", "atol")),
    (["closed-form", "--u0", "1", "--delta1", "-2.5", "--samples", "5"], (*_FIELD, *_WINDOW)),
    (["floquet", "--u0", "1", "--delta1", "2"], (*_FIELD, "rtol")),
    (["heun-map", *_GENERAL], (*_FIELD, "a", "delta2")),
    (["terminate", "--u0", "1", "--delta1", "2", "--n-max", "3"],
     ("u0", "delta1", "n-max", "a-max")),
    (["compare", "--u0", "1", "--delta1", "2", "--periods", "1", "--samples-per-period", "10"],
     (*_FIELD, "periods", "samples-per-period", "tol", "rtol")),
]
_COUNT_OPTIONS = {"samples", "periods", "samples-per-period", "n-max"}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_numeric_options_exit_cleanly(data):
    base, options = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    names = data.draw(st.lists(st.sampled_from(options), min_size=2, max_size=2, unique=True))
    values = [data.draw(st.sampled_from(_FUZZ_COUNTS if name in _COUNT_OPTIONS else _FUZZ_VALUES))
              for name in names]
    flags = [f"--{name}={value}" for name, value in zip(names, values)]
    argv = [*base, *flags, "-o", "-"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)         # an exception or a warning fails the example
    assert rc in (0, 2, 3, 4), (argv, rc)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert bool(out.getvalue()) == (rc in (0, 4)), argv    # no output from a failed run


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


def test_output_to_a_pipe_is_written_in_place(tmp_path):
    # a path that is no regular file (a pipe here, os.devnull alike) is
    # written, not renamed over: the rename replaced /dev/null with a file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    assert main(["floquet", "--u0", "1", "--delta1", "2", "-o", str(pipe)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert got and got[0] == _stdout(["floquet", "--u0", "1", "--delta1", "2"])
    assert not (tmp_path / "pipe.partial").exists()


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
