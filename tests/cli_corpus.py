"""The pinned CLI byte corpus: argvs, and the exit code and SHA-256 of each one's output.

``cli_corpus.json`` holds one record per argv and line: ``{"argv", "exit",
"stdout", "stderr"}``, the last two the SHA-256 of the text written.  ``tests/test_cli.py``
replays every record in-process through ``twostate.cli.main``.  A change that
moves output bytes on purpose regenerates the file and names each moved argv::

    python3 tests/cli_corpus.py

run from the repository root.  It rewrites ``cli_corpus.json`` and prints
every argv whose exit code or bytes moved, and every argv added or dropped.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PATH = Path(__file__).with_name("cli_corpus.json")
VALIDATE_SEED = 7
VALIDATE_INPUTS = 60

# the entry-point and error argvs of the CI workflow that need no file
CI_ARGVS = [
    "compare --u0 5 --delta1 -6 --periods 200",
    "compare --u0 5 --delta1 -6 --periods 1000",
    "compare --u0 5 --delta1 -6 --periods 1000 --rtol 1e-13",
    "simulate --model n2 --u0 2 --delta1 2",
    "simulate --model n2 --u0 2 --delta1 2 --samples 2 --t-end 6283185.307179586",
    "simulate --model general --u0 1 --a 2 --delta1 2 --delta2 1",
    "closed-form --u0 2 --delta1 2",
    "terminate --u0 1 --delta1 2 --n-max 3",
    "floquet --u0 1 --delta1 2",
    "detuning --model n2 --u0 1 --delta1 2",
    "heun-map --u0 1 --a 2 --delta1 2 --delta2 1",
    "terminate --u0 1 --delta1 2 --n-max 3 --format json",
    "heun-map --u0 1 --a 2 --delta1 2 --delta2 1 --format json",
    "compare --u0 0.8 --delta1 -2.5 --delta 1.7 --t0 0.4",
    "floquet --u0 0.8 --delta1 -2.5 --delta 1.7 --t0 0.4",
    "closed-form --u0 1 --delta1 2 --t-start 1e15 --t-end 1.0000001e15",
    "closed-form --u0 1e200 --delta1 2",
    "closed-form --u0 5e-324 --delta1 2",
    "closed-form --u0 1 --delta1 1e16",
    "floquet --u0 1 --delta1 1e5",
    "simulate --model n2 --u0 2 --delta1 2 --atol 0",
    "compare --u0 1e5 --delta1 2 --rtol 1e300 --periods 1",
    "detuning --model n2 --u0 1 --delta1 2 --samples 1000000000000",
    "terminate --u0 1 --delta1 2 --n-max 10 --format json",
    "terminate --u0 1 --delta1 2 --n-max 8 --a-max 20",
    "detuning --model n3 --u0 1 --delta1 -2 --delta 2",
    "compare --u0 800 --delta1 2",
]
# both trajectory sources from a state that is not the ground state, over four
# periods from two starts off the drive's origin: --init is the state at --t-start
INIT_ARGVS = [f"{command} --u0 2 --delta1 2 --init 0.6,0,0,0.8 --samples 101 "
              f"--t-start {t} --t-end {float(t) + 8 * math.pi!r}"
              for t in ("3", "1e6") for command in ("simulate --model n2", "closed-form")]
# every root, drift and status of the hierarchy up to order 40
TERMINATE_ARGVS = [f"terminate --u0 1 --delta1={d1} --n-max {n}"
                   for n in (3, 10, 40) for d1 in ("2", "-2.5", "6")]


def argvs() -> list[list[str]]:
    """Every argv of the corpus, each writing to stdout, in replay order."""
    from bench.workloads import make_inputs

    out = [line.split() for line in CI_ARGVS + INIT_ARGVS + TERMINATE_ARGVS]
    for u0, d1 in make_inputs("validate", VALIDATE_SEED)[:VALIDATE_INPUTS]:
        field = ["--u0", repr(u0), "--delta1", repr(d1)]
        out += [["compare", *field, "--periods", "5"],
                ["floquet", *field, "--format", "json"],
                ["simulate", "--model", "n2", *field, "--samples", "201"]]
    return [[*argv, "-o", "-"] for argv in out]


def replay(argv: list[str]) -> dict:
    """``argv`` run through ``twostate.cli.main``: its exit code and output digests."""
    from twostate import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code,
            **{name: hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
               for name, text in (("stdout", out), ("stderr", err))}}


def load() -> list[dict]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> int:
    sys.path[:0] = [str(PATH.parents[1] / "src"), str(PATH.parents[1])]
    old = {" ".join(rec["argv"]): rec for rec in load()} if PATH.exists() else {}
    new = [replay(argv) for argv in argvs()]
    PATH.write_text("[\n" + ",\n".join(map(json.dumps, new)) + "\n]\n", encoding="utf-8")
    for rec in new:
        key = " ".join(rec["argv"])
        if key not in old:
            print(f"added: {key}")
            continue
        was = old.pop(key)
        if rec["exit"] != was["exit"]:
            print(f"moved: {key} (exit {was['exit']} -> {rec['exit']})")
        elif rec != was:
            print(f"moved: {key}")
    for key in old:
        print(f"dropped: {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
