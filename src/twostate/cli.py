"""Batch front door: sample drives, run oracle and analytic pipelines, emit data.

One command per invocation; plot-ready CSV or JSON goes to a file or stdout.
Every output carries a metadata block echoing the full parameter set (including
the internally used drive-scaled values) so runs are auditable and
reproducible byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 comparison verdict FAIL.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .closedform import StateVector, closed_form_states, floquet_analytic
from .errors import (ConvergenceError, DomainError, IntegrationError, ParameterError,
                     SingularSystemError)
from .fields import (FieldConfig, N2Config, detuning_general, detuning_n2, detuning_n3,
                     drive_field)
from .heun import map_to_heun, termination_search
from .oracle import exponent_pair_residual, integrate, monodromy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARE_FAIL = 4


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _render_csv(meta: dict, columns: dict) -> str:
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(columns.keys()))
    arrays = [np.atleast_1d(v) for v in columns.values()]
    n = len(arrays[0])
    for i in range(n):
        lines.append(",".join(a[i] if isinstance(a[i], str) else _fmt(a[i]) for a in arrays))
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, columns: dict) -> str:
    def clean(v):
        if isinstance(v, np.ndarray):
            return [clean(x) for x in v.tolist()]
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, (np.floating, float)):
            return float(v)
        if isinstance(v, (np.integer, int)):
            return int(v)
        return v
    payload = {"meta": clean(dict(meta)), "data": {k: clean(np.atleast_1d(v)) for k, v in columns.items()}}
    return json.dumps(payload, indent=2) + "\n"


def _emit(path, fmt: str, meta: dict, columns: dict) -> None:
    text = _render_csv(meta, columns) if fmt == "csv" else _render_json(meta, columns)
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    tmp = path + ".partial"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _base_meta(command: str) -> dict:
    return {"tool": "twostate", "version": __version__, "command": command}


def _meta_n2(cfg: N2Config) -> dict:
    return {"model": "n2", "u0-scaled": _fmt(cfg.u0), "delta1-scaled": _fmt(cfg.delta1),
            "delta": _fmt(cfg.delta), "t0": _fmt(cfg.t0)}


def _meta_general(cfg: FieldConfig) -> dict:
    s = cfg.scaled()
    return {"model": "general", "u0": _fmt(cfg.u0), "a": _fmt(cfg.a),
            "delta1": _fmt(cfg.delta1), "delta2": _fmt(cfg.delta2),
            "delta": _fmt(cfg.delta), "t0": _fmt(cfg.t0),
            "u0-scaled": _fmt(s.u0), "delta1-scaled": _fmt(s.delta1),
            "delta2-scaled": _fmt(s.delta2)}


def _meta_window(ts) -> dict:
    return {"t-start": _fmt(ts[0]), "t-end": _fmt(ts[-1]), "samples": str(len(ts))}


def _parse_init(text: str) -> StateVector:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ParameterError("--init expects 're_a1,im_a1,re_a2,im_a2'")
    state = StateVector(a1=parts[0] + 1j * parts[1], a2=parts[2] + 1j * parts[3])
    if abs(state.norm - 1.0) > 1e-9:
        raise ParameterError(f"--init state must be normalized, |state|^2 = {state.norm}")
    return state


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ParameterError("missing required option(s): " + ", ".join("--" + n for n in missing))


def _n2_config(args) -> N2Config:
    _require(args, ["u0", "delta1"])
    delta = args.delta if args.delta is not None else 1.0
    t0 = args.t0 if args.t0 is not None else 0.0
    # physical inputs; the analytic core works in drive-scaled units
    return N2Config(u0=args.u0 / delta, delta1=args.delta1 / delta, delta=delta, t0=t0)


def _general_config(args) -> FieldConfig:
    _require(args, ["u0", "a", "delta1", "delta2"])
    delta = args.delta if args.delta is not None else 1.0
    t0 = args.t0 if args.t0 is not None else 0.0
    return FieldConfig(u0=args.u0, a=args.a, delta1=args.delta1, delta2=args.delta2,
                       delta=delta, t0=t0)


def _window(args, t0: float, period: float, default_periods: float) -> np.ndarray:
    t_start = args.t_start if args.t_start is not None else t0
    t_end = args.t_end if args.t_end is not None else t_start + default_periods * period
    samples = args.samples if args.samples is not None else 1001
    if samples < 2:
        raise ParameterError("--samples must be >= 2")
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ParameterError("time window must be finite and satisfy t-end > t-start")
    return np.linspace(t_start, t_end, samples)


def _cmd_detuning(args) -> int:
    model = args.model or "general"
    meta = _base_meta("detuning")
    if model == "n2":
        cfg = _n2_config(args)
        ts = _window(args, cfg.t0, cfg.period, 1.0)
        vals = detuning_n2(cfg, ts)
        meta.update(_meta_n2(cfg))
    elif model == "n3":
        _require(args, ["u0", "delta1"])
        branch = +1 if (args.branch or "plus") == "plus" else -1
        t0 = args.t0 if args.t0 is not None else 0.0
        ts = _window(args, t0, 2.0 * math.pi, 1.0)
        vals = detuning_n3(args.u0, args.delta1, branch, ts)
        meta.update({"model": "n3", "u0": _fmt(args.u0), "delta1": _fmt(args.delta1),
                     "branch": "plus" if branch > 0 else "minus", "t0": _fmt(t0)})
    else:
        cfg = _general_config(args)
        ts = _window(args, cfg.t0, cfg.period, 1.0)
        vals = detuning_general(cfg, ts)
        meta.update(_meta_general(cfg))
    meta.update(_meta_window(ts))
    _emit(args.output, args.format, meta, {"t": ts, "delta_t": vals})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = args.model or "n2"
    if model == "n2":
        cfg = _n2_config(args)
        field_meta = _meta_n2(cfg)
    else:
        cfg = _general_config(args)
        field_meta = _meta_general(cfg)
    state0 = _parse_init(args.init or "1,0,0,0")
    ts = _window(args, cfg.t0, cfg.period, 5.0)
    rtol = args.rtol if args.rtol is not None else 1e-10
    atol = args.atol if args.atol is not None else 1e-12
    traj = integrate(drive_field(cfg), state0, (float(ts[0]), float(ts[-1])),
                     t_eval=ts, rtol=rtol, atol=atol)
    meta = _base_meta("simulate")
    meta.update(field_meta)
    meta.update(_meta_window(ts))
    meta.update({"init": args.init or "1,0,0,0", "rtol": _fmt(rtol), "atol": _fmt(atol),
                 "norm-drift": _fmt(traj.norm_drift)})
    _emit(args.output, args.format, meta, {
        "t": traj.times,
        "re_a1": traj.a1.real, "im_a1": traj.a1.imag,
        "re_a2": traj.a2.real, "im_a2": traj.a2.imag,
        "pop2": traj.pop2, "norm": traj.norm,
    })
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    cfg = _n2_config(args)
    state0 = _parse_init(args.init or "1,0,0,0")
    ts = _window(args, cfg.t0, cfg.period, 5.0)
    t_start = float(ts[0])
    a1, a2 = closed_form_states(cfg, state0, t_start, ts)
    meta = _base_meta("closed-form")
    meta.update(_meta_n2(cfg))
    meta.update(_meta_window(ts))
    meta.update({"init": args.init or "1,0,0,0"})
    _emit(args.output, args.format, meta, {
        "t": ts, "re_a2": a2.real, "im_a2": a2.imag, "pop2": np.abs(a2) ** 2,
    })
    return EXIT_OK


def _cmd_floquet(args) -> int:
    cfg = _n2_config(args)
    rtol = args.rtol if args.rtol is not None else 1e-11
    rep = floquet_analytic(cfg)
    mono = monodromy(drive_field(cfg), t_ref=cfg.t0, rtol=rtol, atol=1e-13)
    lam_phys = (rep.lambda1 * cfg.delta, rep.lambda2 * cfg.delta)
    residual = exponent_pair_residual(lam_phys, mono.exponents, cfg.delta)
    eig_mod_err = max(abs(abs(ev) - 1.0) for ev in mono.eigenvalues)
    meta = _base_meta("floquet")
    meta.update(_meta_n2(cfg))
    meta.update({"rtol": _fmt(rtol)})
    _emit(args.output, args.format, meta, {
        "lambda1": [rep.lambda1], "lambda2": [rep.lambda2],
        "mono_exp1": [mono.exponents[0]], "mono_exp2": [mono.exponents[1]],
        "residual_mod_delta": [residual], "eig_modulus_err": [eig_mod_err],
    })
    return EXIT_OK


def _cmd_heun_map(args) -> int:
    cfg = _general_config(args).scaled()
    rows = {"sign": [], "gamma": [], "delta": [], "epsilon": [], "alpha": [],
            "beta": [], "q": [], "alpha1": [], "fuchs_residual": []}
    for sign, name in ((+1, "plus"), (-1, "minus")):
        hp, alpha1 = map_to_heun(cfg, sign)
        rows["sign"].append(name)
        for key, val in (("gamma", hp.gamma), ("delta", hp.delta), ("epsilon", hp.epsilon),
                         ("alpha", hp.alpha), ("beta", hp.beta), ("q", hp.q)):
            rows[key].append(float(complex(val).real))
        rows["alpha1"].append(alpha1)
        rows["fuchs_residual"].append(hp.fuchs_residual())
    meta = _base_meta("heun-map")
    meta.update({"a": _fmt(cfg.a), "u0-scaled": _fmt(cfg.u0),
                 "delta1-scaled": _fmt(cfg.delta1), "delta2-scaled": _fmt(cfg.delta2)})
    _emit(args.output, args.format, meta, rows)
    return EXIT_OK


def _cmd_terminate(args) -> int:
    _require(args, ["u0", "delta1"])
    n_max = args.n_max if args.n_max is not None else 3
    a_max = args.a_max if args.a_max is not None else 8.0
    base = FieldConfig(u0=args.u0, a=2.0, delta1=args.delta1, delta2=1.0)
    records = termination_search(base, n_max, a_range=(1e-3, a_max))
    meta = _base_meta("terminate")
    meta.update({"u0": _fmt(args.u0), "delta1": _fmt(args.delta1),
                 "n-max": str(n_max), "a-max": _fmt(a_max)})
    cols = {"n": [], "status": [], "drift": [], "roots": []}
    for rec in records:
        cols["n"].append(float(rec.n))
        cols["status"].append(rec.status)
        cols["drift"].append(rec.drift if math.isfinite(rec.drift) else float("nan"))
        uniq = sorted({_fmt(r) for roots in rec.roots_by_u0.values() for r in roots})
        cols["roots"].append(";".join(uniq) if uniq else "none")
    _emit(args.output, args.format, meta, cols)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _n2_config(args)
    state0 = _parse_init(args.init or "1,0,0,0")
    periods = args.periods if args.periods is not None else 5
    spp = args.samples_per_period if args.samples_per_period is not None else 200
    tol = args.tol if args.tol is not None else 1e-8
    rtol = args.rtol if args.rtol is not None else 1e-11
    if periods < 1 or spp < 1 or not math.isfinite(tol):
        raise ParameterError("need --periods >= 1, --samples-per-period >= 1 and a finite --tol")
    ts = np.linspace(cfg.t0, cfg.t0 + periods * cfg.period, int(periods * spp) + 1)
    a1c, a2c = closed_form_states(cfg, state0, float(ts[0]), ts)
    traj = integrate(drive_field(cfg), state0, (float(ts[0]), float(ts[-1])),
                     t_eval=ts, rtol=rtol, atol=1e-13)
    deviation = float(np.max(np.abs(a2c - traj.a2)))
    verdict = "PASS" if deviation <= tol else "FAIL"
    meta = _base_meta("compare")
    meta.update(_meta_n2(cfg))
    meta.update({"init": args.init or "1,0,0,0", "periods": str(periods),
                 "samples-per-period": str(spp), "rtol": _fmt(rtol)})
    _emit(args.output, args.format, meta, {
        "max_deviation": [deviation], "tolerance": [tol], "verdict": [verdict],
    })
    return EXIT_OK if verdict == "PASS" else EXIT_COMPARE_FAIL


_COMMANDS = {
    "detuning": _cmd_detuning,
    "simulate": _cmd_simulate,
    "closed-form": _cmd_closed_form,
    "floquet": _cmd_floquet,
    "heun-map": _cmd_heun_map,
    "terminate": _cmd_terminate,
    "compare": _cmd_compare,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values (flags override)")
    p.add_argument("--output", "-o", default=None, help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"], default=None)


def _add_field_options(p: argparse.ArgumentParser, general: bool = False, n3: bool = False) -> None:
    p.add_argument("--u0", type=float, help="Rabi frequency (physical units)")
    p.add_argument("--delta1", type=float, help="carrier detuning (physical units)")
    p.add_argument("--delta", type=float, help="drive angular frequency (default 1)")
    p.add_argument("--t0", type=float, help="time offset (default 0)")
    if general:
        p.add_argument("--a", type=float, help="modulation shape parameter")
        p.add_argument("--delta2", type=float, help="modulation strength")
    if n3:
        p.add_argument("--branch", choices=["plus", "minus"], help="auxiliary-root sign")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-start", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--samples", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="twostate",
                                     description="Periodically driven two-state systems: "
                                                 "drives, exact solutions, oracle comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detuning", help="sample a detuning modulation curve")
    p.add_argument("--model", choices=["general", "n2", "n3"])
    _add_field_options(p, general=True, n3=True)
    _add_window(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="numerically integrate the amplitude equations")
    p.add_argument("--model", choices=["general", "n2"])
    _add_field_options(p, general=True)
    _add_window(p)
    p.add_argument("--init", help="initial state 're_a1,im_a1,re_a2,im_a2' (default 1,0,0,0)")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    _add_common(p)

    p = sub.add_parser("closed-form", help="matched analytic amplitude of the solvable model")
    _add_field_options(p)
    _add_window(p)
    p.add_argument("--init", help="initial state (default ground state 1,0,0,0)")
    _add_common(p)

    p = sub.add_parser("floquet", help="quasi-energies: analytic vs monodromy")
    _add_field_options(p)
    p.add_argument("--rtol", type=float)
    _add_common(p)

    p = sub.add_parser("heun-map", help="ODE constants of a drive configuration, both branches")
    _add_field_options(p, general=True)
    _add_common(p)

    p = sub.add_parser("terminate", help="termination hierarchy over the series order N")
    p.add_argument("--u0", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--n-max", type=int)
    p.add_argument("--a-max", type=float)
    _add_common(p)

    p = sub.add_parser("compare", help="closed form vs oracle with pass/fail verdict")
    _add_field_options(p)
    p.add_argument("--init", help="initial state (default ground state 1,0,0,0)")
    p.add_argument("--periods", type=int)
    p.add_argument("--samples-per-period", type=int)
    p.add_argument("--tol", type=float, help="verdict threshold on max |a2| deviation")
    p.add_argument("--rtol", type=float,
                   help="oracle relative tolerance (default 1e-11); it bounds the one-period "
                        "error, so the deviation k periods out grows like k*rtol")
    _add_common(p)

    return parser


def _config_value(key: str, action: argparse.Action, val):
    """A config-file value converted and checked as if given on the command line."""
    text = str(val)
    try:
        out = action.type(text) if action.type else text
    except (TypeError, ValueError):
        raise ParameterError(f"--config: invalid value for {key}: {val!r}") from None
    if action.choices is not None and out not in action.choices:
        raise ParameterError(f"--config: {key} must be one of {list(action.choices)}, got {val!r}")
    return out


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ParameterError("--config file must contain a JSON object")
    commands = next(a for a in parser._actions if a.dest == "command").choices
    options = {a.dest: a for a in commands[args.command]._actions if hasattr(args, a.dest)}
    for key, val in values.items():
        attr = key.replace("-", "_")
        if attr in options and getattr(args, attr) is None and val is not None:
            setattr(args, attr, _config_value(key, options[attr], val))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args)
        if args.format is None:
            args.format = "csv"
        return _COMMANDS[args.command](args)
    except (ParameterError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"twostate: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ConvergenceError, SingularSystemError, ArithmeticError) as exc:
        print(f"twostate: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
