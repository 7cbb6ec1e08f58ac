"""In-memory spans around the benchmark's calls into the package's modules.

A span is recorded for each call the benchmark makes into a module's public
function (through :func:`workloads.library`), and, while
:meth:`Tracer.cli_boundary` is active, for each call ``twostate.cli`` makes
into the library modules.  Inside that boundary ``drive_field`` hands the
oracle a :class:`~twostate.fields.DriveField` whose ``delta_t`` counts and
times its own calls; the oracle evaluates ``delta_t`` exactly once per
right-hand-side call, so the count charged to an ``oracle.*`` span is that
solve's RHS-call count.  Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from twostate import cli
from twostate.fields import DriveField

from workloads import layer_name

# names twostate.cli resolves at call time, i.e. its calls into library layers
CLI_CALLEES = ("closed_form_states", "integrate", "floquet_analytic", "monodromy",
               "termination_search")
# time-sample count of a call, for layers whose work scales with it
SAMPLE_COUNT = {"closedform.closed_form_states": lambda args: len(args[3])}


class Span:
    __slots__ = ("index", "parent", "op", "name", "start", "end", "samples",
                 "rhs_calls", "rhs_s")

    def __init__(self, index: int, parent: int, op: int, name: str, samples: int):
        self.index, self.parent, self.op, self.name = index, parent, op, name
        self.samples = samples
        self.start = self.end = 0.0
        self.rhs_calls = 0
        self.rhs_s = 0.0


class Tracer:
    """Records spans in memory; ``op`` tags the spans of the op in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []

    def wrap(self, name: str, fn):
        samples = SAMPLE_COUNT.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1].index if self._stack else -1
            span = Span(len(self.spans), parent, self.op, name, samples(args) if samples else 0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
        return traced

    def counting_field(self, field: DriveField) -> DriveField:
        inner = field.delta_t

        def delta_t(t):
            start = perf_counter()
            value = inner(t)
            span = self._stack[-1]
            span.rhs_calls += 1
            span.rhs_s += perf_counter() - start
            return value
        return DriveField(u=field.u, delta_t=delta_t, period=field.period)

    @contextmanager
    def cli_boundary(self):
        """Trace the library calls ``twostate.cli`` makes, restoring its names afterwards."""
        saved = {name: getattr(cli, name) for name in CLI_CALLEES + ("drive_field",)}
        try:
            for name in CLI_CALLEES:
                setattr(cli, name, self.wrap(layer_name(saved[name]), saved[name]))
            cli.drive_field = lambda cfg: self.counting_field(saved["drive_field"](cfg))
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.index, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "samples": s.samples, "rhs_calls": s.rhs_calls,
                                     "rhs_s": s.rhs_s}) + "\n")

    def layer_totals(self) -> dict:
        """Per span name: busy seconds, calls, samples, RHS calls and RHS seconds.

        The ``cli.main`` entry also carries ``self_s``: its duration minus the
        library calls it made (its child spans), i.e. the CLI's own cost.
        """
        totals = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "samples": 0,
                                      "rhs_calls": 0, "rhs_s": 0.0, "self_s": 0.0})
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
        for s in self.spans:
            t = totals[s.name]
            t["busy_s"] += s.end - s.start
            t["calls"] += 1
            t["samples"] += s.samples
            t["rhs_calls"] += s.rhs_calls
            t["rhs_s"] += s.rhs_s
            t["self_s"] += s.end - s.start - child_s[s.index]
        return dict(totals)
