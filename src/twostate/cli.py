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
    payload = {"meta": meta, "data": {k: np.atleast_1d(v).tolist() for k, v in columns.items()}}
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, meta: dict, columns: dict) -> None:
    """Write one command's output: the envelope, its own ``meta``, then ``columns``.

    A file is written to ``<path>.partial`` and renamed over ``path``, so a
    failed run leaves no partial output behind.
    """
    meta = {"tool": "twostate", "version": __version__, "command": args.command, **meta}
    text = _render_csv(meta, columns) if args.format == "csv" else _render_json(meta, columns)
    path = args.output
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


def _parse_init(text: str) -> StateVector:
    try:
        re_a1, im_a1, re_a2, im_a2 = (float(x) for x in text.split(","))
    except ValueError:
        raise ParameterError(f"--init expects 're_a1,im_a1,re_a2,im_a2', got {text!r}") from None
    state = StateVector(a1=re_a1 + 1j * im_a1, a2=re_a2 + 1j * im_a2)
    if not abs(state.norm - 1.0) <= 1e-9:     # NaN fails too
        raise ParameterError(f"--init state must be normalized, |state|^2 = {state.norm}")
    return state


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ParameterError("missing required option(s): " + ", ".join("--" + n for n in missing))


def _general_config(args) -> FieldConfig:
    _require(args, ["u0", "a", "delta1", "delta2"])
    return FieldConfig(u0=args.u0, a=args.a, delta1=args.delta1, delta2=args.delta2,
                       delta=args.delta, t0=args.t0)


def _drive(args) -> tuple[N2Config | FieldConfig, dict]:
    """The n2 drive (commands without ``--model``) or general drive, and its metadata."""
    if getattr(args, "model", "n2") == "n2":
        _require(args, ["u0", "delta1"])
        # physical inputs; the analytic core works in drive-scaled units
        cfg = N2Config(u0=args.u0 / args.delta, delta1=args.delta1 / args.delta,
                       delta=args.delta, t0=args.t0)
        return cfg, {"model": "n2", "u0-scaled": _fmt(cfg.u0), "delta1-scaled": _fmt(cfg.delta1),
                     "delta": _fmt(cfg.delta), "t0": _fmt(cfg.t0)}
    cfg = _general_config(args)
    s = cfg.scaled()
    return cfg, {"model": "general", "u0": _fmt(cfg.u0), "a": _fmt(cfg.a),
                 "delta1": _fmt(cfg.delta1), "delta2": _fmt(cfg.delta2),
                 "delta": _fmt(cfg.delta), "t0": _fmt(cfg.t0),
                 "u0-scaled": _fmt(s.u0), "delta1-scaled": _fmt(s.delta1),
                 "delta2-scaled": _fmt(s.delta2)}


def _window(args, t0: float, period: float, default_periods: float) -> tuple[np.ndarray, dict]:
    """The sample times the window options name, and their metadata."""
    t_start = args.t_start if args.t_start is not None else t0
    t_end = args.t_end if args.t_end is not None else t_start + default_periods * period
    if args.samples < 2:
        raise ParameterError("--samples must be >= 2")
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ParameterError("time window must be finite and satisfy t-end > t-start")
    ts = np.linspace(t_start, t_end, args.samples)
    return ts, {"t-start": _fmt(ts[0]), "t-end": _fmt(ts[-1]), "samples": str(len(ts))}


def _cmd_detuning(args) -> int:
    if args.model == "n3":
        _require(args, ["u0", "delta1"])
        # the n3 field is printed in drive-scaled time: its period is 2 pi
        if args.delta != 1.0 or not math.isfinite(args.t0):
            raise ParameterError("--model n3 needs --delta 1 and a finite --t0")
        ts, window = _window(args, args.t0, 2.0 * math.pi, 1.0)
        vals = detuning_n3(args.u0, args.delta1, +1 if args.branch == "plus" else -1,
                           ts - args.t0)
        meta = {"model": "n3", "u0": _fmt(args.u0), "delta1": _fmt(args.delta1),
                "branch": args.branch, "t0": _fmt(args.t0)}
    else:
        cfg, meta = _drive(args)
        ts, window = _window(args, cfg.t0, cfg.period, 1.0)
        vals = (detuning_n2 if args.model == "n2" else detuning_general)(cfg, ts)
    _emit(args, {**meta, **window}, {"t": ts, "delta_t": vals})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg, meta = _drive(args)
    state0 = _parse_init(args.init)
    ts, window = _window(args, cfg.t0, cfg.period, 5.0)
    traj = integrate(drive_field(cfg), state0, (float(ts[0]), float(ts[-1])),
                     t_eval=ts, rtol=args.rtol, atol=args.atol)
    _emit(args, {**meta, **window, "init": args.init, "rtol": _fmt(args.rtol),
                 "atol": _fmt(args.atol), "norm-drift": _fmt(traj.norm_drift)}, {
        "t": traj.times,
        "re_a1": traj.a1.real, "im_a1": traj.a1.imag,
        "re_a2": traj.a2.real, "im_a2": traj.a2.imag,
        "pop2": traj.pop2, "norm": traj.norm,
    })
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    cfg, meta = _drive(args)
    state0 = _parse_init(args.init)
    ts, window = _window(args, cfg.t0, cfg.period, 5.0)
    a1, a2 = closed_form_states(cfg, state0, float(ts[0]), ts)
    _emit(args, {**meta, **window, "init": args.init}, {
        "t": ts, "re_a2": a2.real, "im_a2": a2.imag, "pop2": np.abs(a2) ** 2,
    })
    return EXIT_OK


def _cmd_floquet(args) -> int:
    cfg, meta = _drive(args)
    rep = floquet_analytic(cfg)
    mono = monodromy(drive_field(cfg), t_ref=cfg.t0, rtol=args.rtol, atol=1e-13)
    lam_phys = (rep.lambda1 * cfg.delta, rep.lambda2 * cfg.delta)
    residual = exponent_pair_residual(lam_phys, mono.exponents, cfg.delta)
    eig_mod_err = max(abs(abs(ev) - 1.0) for ev in mono.eigenvalues)
    _emit(args, {**meta, "rtol": _fmt(args.rtol)}, {
        "lambda1": [rep.lambda1], "lambda2": [rep.lambda2],
        "mono_exp1": [mono.exponents[0]], "mono_exp2": [mono.exponents[1]],
        "residual_mod_delta": [residual], "eig_modulus_err": [eig_mod_err],
    })
    return EXIT_OK


def _cmd_heun_map(args) -> int:
    cfg = _general_config(args).scaled()
    maps = [(name, *map_to_heun(cfg, sign)) for sign, name in ((+1, "plus"), (-1, "minus"))]
    _emit(args, {"a": _fmt(cfg.a), "u0-scaled": _fmt(cfg.u0),
                 "delta1-scaled": _fmt(cfg.delta1), "delta2-scaled": _fmt(cfg.delta2)}, {
        "sign": [name for name, _, _ in maps],
        **{key: [float(complex(getattr(hp, key)).real) for _, hp, _ in maps]
           for key in ("gamma", "delta", "epsilon", "alpha", "beta", "q")},
        "alpha1": [alpha1 for _, _, alpha1 in maps],
        "fuchs_residual": [hp.fuchs_residual() for _, hp, _ in maps],
    })
    return EXIT_OK


def _cmd_terminate(args) -> int:
    _require(args, ["u0", "delta1"])
    base = FieldConfig(u0=args.u0, a=2.0, delta1=args.delta1, delta2=1.0)
    records = termination_search(base, args.n_max, a_max=args.a_max)
    roots = [sorted({_fmt(r) for rs in rec.roots_by_u0.values() for r in rs}) for rec in records]
    _emit(args, {"u0": _fmt(args.u0), "delta1": _fmt(args.delta1),
                 "n-max": str(args.n_max), "a-max": _fmt(args.a_max)}, {
        "n": [float(rec.n) for rec in records],
        "status": [rec.status for rec in records],
        "drift": [rec.drift if math.isfinite(rec.drift) else float("nan") for rec in records],
        "roots": [";".join(uniq) if uniq else "none" for uniq in roots],
    })
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg, meta = _drive(args)
    state0 = _parse_init(args.init)
    periods, spp, tol = args.periods, args.samples_per_period, args.tol
    if periods < 1 or spp < 1 or not 0.0 < tol < math.inf:
        raise ParameterError("need --periods >= 1, --samples-per-period >= 1 and "
                             "0 < --tol < inf")
    ts = np.linspace(cfg.t0, cfg.t0 + periods * cfg.period, int(periods * spp) + 1)
    a1c, a2c = closed_form_states(cfg, state0, float(ts[0]), ts)
    traj = integrate(drive_field(cfg), state0, (float(ts[0]), float(ts[-1])),
                     t_eval=ts, rtol=args.rtol, atol=1e-13)
    deviation = float(np.max(np.abs(a2c - traj.a2)))
    verdict = "PASS" if deviation <= tol else "FAIL"
    _emit(args, {**meta, "init": args.init, "periods": str(periods),
                 "samples-per-period": str(spp), "rtol": _fmt(args.rtol)}, {
        "max_deviation": [deviation], "tolerance": [tol], "verdict": [verdict],
    })
    return EXIT_OK if verdict == "PASS" else EXIT_COMPARE_FAIL


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values (flags override)")
    p.add_argument("--output", "-o", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="(default %(default)s)")


def _add_field_options(p: argparse.ArgumentParser, general: bool = False, n3: bool = False) -> None:
    p.add_argument("--u0", type=float, help="Rabi frequency (physical units)")
    p.add_argument("--delta1", type=float, help="carrier detuning (physical units)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="drive angular frequency (default %(default)g)")
    p.add_argument("--t0", type=float, default=0.0, help="time offset (default %(default)g)")
    if general:
        p.add_argument("--a", type=float, help="modulation shape parameter")
        p.add_argument("--delta2", type=float, help="modulation strength")
    if n3:
        p.add_argument("--branch", choices=["plus", "minus"], default="plus",
                       help="auxiliary-root sign (default %(default)s)")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-start", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--samples", type=int, default=1001, help="(default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="twostate", exit_on_error=False,
                                     description="Periodically driven two-state systems: "
                                                 "drives, exact solutions, oracle comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, exit_on_error=False)
        p.set_defaults(run=run)
        return p

    p = command("detuning", _cmd_detuning, "sample a detuning modulation curve")
    p.add_argument("--model", choices=["general", "n2", "n3"], default="general",
                   help="(default %(default)s)")
    _add_field_options(p, general=True, n3=True)
    _add_window(p)
    _add_common(p)

    p = command("simulate", _cmd_simulate, "numerically integrate the amplitude equations")
    p.add_argument("--model", choices=["general", "n2"], default="n2", help="(default %(default)s)")
    _add_field_options(p, general=True)
    _add_window(p)
    p.add_argument("--init", default="1,0,0,0",
                   help="initial state 're_a1,im_a1,re_a2,im_a2' (default %(default)s)")
    p.add_argument("--rtol", type=float, default=1e-10, help="(default %(default)g)")
    p.add_argument("--atol", type=float, default=1e-12, help="(default %(default)g)")
    _add_common(p)

    p = command("closed-form", _cmd_closed_form,
                "matched analytic amplitude of the solvable model")
    _add_field_options(p)
    _add_window(p)
    p.add_argument("--init", default="1,0,0,0",
                   help="initial state (default ground state %(default)s)")
    _add_common(p)

    p = command("floquet", _cmd_floquet, "quasi-energies: analytic vs monodromy")
    _add_field_options(p)
    p.add_argument("--rtol", type=float, default=1e-11, help="(default %(default)g)")
    _add_common(p)

    p = command("heun-map", _cmd_heun_map,
                "ODE constants of a drive configuration, both branches")
    _add_field_options(p, general=True)
    _add_common(p)

    p = command("terminate", _cmd_terminate, "termination hierarchy over the series order N")
    p.add_argument("--u0", type=float,
                   help="coupling echoed in the metadata only: the search probes u0 = 0.5, 1 "
                        "and 2 whatever its value, so the rows do not depend on it")
    p.add_argument("--delta1", type=float)
    p.add_argument("--n-max", type=int, default=3,
                   help="highest series order searched (default %(default)s); above 6 the "
                        "fixed a-grid can miss constraint roots near a = 1 at any --a-max")
    p.add_argument("--a-max", type=float, default=8.0,
                   help="top of the shape-parameter grid (default %(default)g); at most 50, "
                        "because a 2001-point grid from 1e-3 with a step above 0.025 loses roots")
    _add_common(p)

    p = command("compare", _cmd_compare, "closed form vs oracle with pass/fail verdict")
    _add_field_options(p)
    p.add_argument("--init", default="1,0,0,0",
                   help="initial state (default ground state %(default)s)")
    p.add_argument("--periods", type=int, default=5, help="(default %(default)s)")
    p.add_argument("--samples-per-period", type=int, default=200, help="(default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="verdict threshold on max |a2| deviation (default %(default)g)")
    p.add_argument("--rtol", type=float, default=1e-11,
                   help="oracle relative tolerance (default %(default)g); it bounds the "
                        "one-period error, so the deviation k periods out grows like k*rtol")
    _add_common(p)

    return parser


def _parse(argv) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ParameterError("--config file must contain a JSON object")
    # the --config file's values become flags before the command line's own, which
    # win as the later ones; keys naming no option of this command are ignored
    options = vars(args).keys() - {"command", "run"}
    flags = [f"--{key.replace('_', '-')}={val}" for key, val in values.items()
             if val is not None and key.replace("-", "_") in options]
    at = argv.index(args.command) + 1
    return build_parser().parse_args([*argv[:at], *flags, *argv[at:]])


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.run(args)
    except (argparse.ArgumentError, ParameterError, DomainError, OSError,
            json.JSONDecodeError) as exc:
        print(f"twostate: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ConvergenceError, SingularSystemError, ArithmeticError) as exc:
        print(f"twostate: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
