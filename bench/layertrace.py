"""In-memory tracing of the package's layers, installed from outside it.

``Tracer.installed`` wraps each public function in ``TRACED`` under every name
a module of the package binds it to (``cli`` and ``restrictions`` import
``edge_profile`` and ``bottom_cells`` by name, so patching only ``gasket``
would miss their calls), wraps the CLI command callbacks and the methods of
``QuadExt``, and swaps the ``math`` module that ``fractions`` sees for one
whose ``gcd`` counts; on leaving the block all is restored.

A span is (id, name, start, end, parent id, operation id).  Self time is a
span's duration minus the time of its direct children.  ``QuadExt`` calls
are not kept as spans (a closed form makes hundreds); their count and time
are summed, and their time is subtracted from the enclosing span's self time.
Each ``Fraction`` gcd call is attributed to the module of the innermost open
span, or to ``exactarith`` inside a ``QuadExt`` call.
"""

from __future__ import annotations

import contextlib
import fractions
import inspect
import itertools
import json
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import sgharmonic
from sgharmonic import cli, exactarith

TRACED = {
    "gasket": ("edge_profile", "eval_dyadic", "closed_form_lemma2", "bottom_cells"),
    "restrictions": ("classify_edge", "locate_extremum", "count_zero_junctions",
                     "junction_derivative", "triangle_sequence", "gamma_closed_form",
                     "beta_closed_form"),
    "oracle": ("build_graph", "solve_harmonic", "check_five_point"),
    "exactarith": ("parse_rational",),
}
CLI_COMMANDS = ("scan", "classify", "eval", "zero-search")
STATS = ("calls", "busy_s", "self_s")
COUNTERS = ("restrictions.count_zero_junctions.scanned",
            "restrictions.count_zero_junctions.zeros_found")
TRACE = ("trace.span_coverage", "trace.overhead")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self._ids = itertools.count()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, name, start, child_time]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self.gcd_calls = Counter()
        self.max_bits = Counter()
        self.top_level_s = 0.0
        self.in_quadext = False
        self.solved_levels: set[int] = set()
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = [next(self._ids), name, perf_counter(), 0.0]
        self.stack.append(span)
        return span

    def _exit(self, span: list) -> None:
        end = perf_counter()
        self.stack.pop()
        sid, name, start, child = span
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.top_level_s += dur
        else:
            parent[3] += dur
        self.spans.append((sid, name, start, end, parent and parent[0], self.op))

    def _span(self, name, fn, label=None, after=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._enter(label(*args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after:
                after(args, result)
            return result
        return wrapper

    def _quadext(self, fn):
        def wrapper(*args, **kwargs):
            if not self.active or self.in_quadext:
                return fn(*args, **kwargs)
            self.in_quadext = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.in_quadext = False
                st = self.stats["exactarith.quadext"]
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if self.stack:
                    self.stack[-1][3] += dur
                else:
                    self.top_level_s += dur
        return wrapper

    def _gcd(self, a, b):
        if self.active and (self.stack or self.in_quadext):
            mod = "exactarith" if self.in_quadext else self.stack[-1][1].split(".", 1)[0]
            self.gcd_calls[mod] += 1
            bits = max(a.bit_length(), b.bit_length())
            if bits > self.max_bits[mod]:
                self.max_bits[mod] = bits
        return math.gcd(a, b)

    def _solve_label(self, m, *_):
        if m in self.solved_levels:
            return "oracle.solve_harmonic.warm"
        self.solved_levels.add(m)
        return f"oracle.solve_harmonic.cold.L{m}"

    def _count_junctions(self, args, result):
        # the three vertex tests; edge junctions are counted from the walks
        self.counts["restrictions.count_zero_junctions.scanned"] += 3
        self.counts["restrictions.count_zero_junctions.zeros_found"] += result[0]

    def _count_walked_junctions(self, args, result):
        """A cell walk inside the zero scan: one junction between each pair of
        neighbouring cells it returns."""
        if self.stack and self.stack[-1][1] == "restrictions.count_zero_junctions":
            self.counts["restrictions.count_zero_junctions.scanned"] += len(result) - 1

    # -- patching ------------------------------------------------------------

    def _patch(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name while the block runs.  A traced function or
        command the package no longer has is an error, not a 0."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "sgharmonic" or name.startswith("sgharmonic.")]
        for mod, fns in TRACED.items():
            for fn in fns:
                orig = getattr(getattr(sgharmonic, mod), fn, None)
                if orig is None:
                    raise LookupError(f"the package has no {mod}.{fn} to trace")
                label = self._solve_label if fn == "solve_harmonic" else None
                after = {"count_zero_junctions": self._count_junctions,
                         "bottom_cells": self._count_walked_junctions}.get(fn)
                wrapped = self._span(f"{mod}.{fn}", orig, label, after)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapped)
        for cmd in CLI_COMMANDS:
            command = cli.cli.commands.get(cmd)
            if command is None:
                raise LookupError(f"the package's CLI has no {cmd} command to trace")
            self._patch(command, "callback", self._span(f"cli.{cmd}", command.callback))
        for attr, value in list(vars(exactarith.QuadExt).items()):
            if inspect.isfunction(value) and attr != "__setattr__":
                self._patch(exactarith.QuadExt, attr, self._quadext(value))
        counting_math = types.SimpleNamespace(**vars(math))
        counting_math.gcd = self._gcd
        self._patch(fractions, "math", counting_math)

    def _uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self, workload: str, names: list[str], coverage: float,
                overhead: float) -> dict[str, float]:
        """The declared metrics ``<workload>.<metric>`` in ``names``.  A name
        this tracer cannot measure, or a declared layer that was never
        called, is an error: it would otherwise read as a constant 0."""
        values, unknown = {}, []
        for full in names:
            name = full.removeprefix(f"{workload}.")
            layer, stat = name.rsplit(".", 1)
            if name in TRACE:
                values[full] = coverage if name == TRACE[0] else overhead
            elif name in COUNTERS:
                values[full] = self.counts[name]
            elif stat in STATS and self.stats[layer][0]:
                values[full] = self.stats[layer][STATS.index(stat)]
            elif stat in ("gcd_calls", "max_bits") and layer in (*TRACED, "cli"):
                values[full] = (self.gcd_calls if stat == "gcd_calls" else self.max_bits)[layer]
            else:
                unknown.append(full)
        if unknown:
            raise LookupError(f"declared metrics not measured on {workload} (a layer "
                              f"renamed or never called?): {', '.join(unknown)}")
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in sorted(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
