"""Command-line interface.

All machine-readable output carries exact fractions; floats appear only as
display companions.  Exit codes: 0 success, 1 verification failure,
2 usage or parse error.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import repeat
from operator import floordiv, truediv

import click

from . import restrictions, verify
from .exactarith import format_rational, parse_rational
from .gasket import (
    EDGES,
    MAX_EDGE_DEPTH,
    BoundaryValues,
    EdgePoint,
    edge_cell,
    edge_profile,
    eval_dyadic,
)
from .restrictions import MonotonicityClass


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


RATIONAL = RationalParam()

_triple_options = [
    click.option("-a", "--alpha", type=RATIONAL, required=True, help="value at p0"),
    click.option("-b", "--beta", type=RATIONAL, required=True, help="value at p1"),
    click.option("-g", "--gamma", type=RATIONAL, required=True, help="value at p2"),
]


def triple_options(fn):
    for opt in reversed(_triple_options):
        fn = opt(fn)
    return fn


def _format_option(fn):
    return click.option("--format", "fmt", type=click.Choice(["human", "json"]),
                        default="human", show_default=True)(fn)


def _echo(text: str) -> None:
    # with no file, click caches each sys.stdout it meets and keeps it alive
    click.echo(text, file=sys.stdout)


def _emit_json(command: str, inputs: dict, results: dict) -> None:
    _echo(json.dumps({"command": command, "inputs": inputs, "results": results},
                     indent=2))


def _display_floats(ps: list[int], q: int) -> list[float]:
    """The float nearest each p/q (q > 0), as float(Fraction(p, q)) gives it, or
    +-inf past a float's range.  Int true division is correctly rounded, so
    p/q need not be in lowest terms.  The values are divided one at a time
    only when some division overflows."""
    try:
        return list(map(truediv, ps, repeat(q)))
    except OverflowError:
        pass
    floats = []
    for p in ps:
        try:
            floats.append(p / q)
        except OverflowError:
            floats.append(math.inf if p > 0 else -math.inf)
    return floats


def _triple_inputs(bv: BoundaryValues) -> dict:
    return {"alpha": format_rational(bv.alpha),
            "beta": format_rational(bv.beta),
            "gamma": format_rational(bv.gamma)}


class ExactCommand(click.Command):
    """Runs without Python's int-to-str limit; options are parsed under it."""

    def invoke(self, ctx):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return super().invoke(ctx)
        finally:
            sys.set_int_max_str_digits(limit)


@click.group()
def cli():
    """Exact analysis of harmonic functions on the Sierpinski gasket."""


cli.command_class = ExactCommand


@cli.command("eval")
@triple_options
@click.option("--edge", type=click.Choice(EDGES), default="bottom", show_default=True)
@click.option("--point", type=RATIONAL, required=True,
              help="k/2^m or a sub-edge third point j/(3*2^m)")
@_format_option
def cmd_eval(alpha, beta, gamma, edge, point, fmt):
    """Evaluate the harmonic function at a point of an edge."""
    bv = BoundaryValues(alpha, beta, gamma)
    try:
        value = eval_dyadic(bv, EdgePoint(edge, point))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    approx, = _display_floats([value.numerator], value.denominator)
    if fmt == "json":
        inputs = {**_triple_inputs(bv), "edge": edge, "point": format_rational(point)}
        # JSON has no infinities: an out-of-range companion is null
        _emit_json("eval", inputs, {"value": format_rational(value),
                                    "value_float": approx if math.isfinite(approx) else None})
    else:
        _echo(f"{format_rational(value)} ({approx:g})")


@cli.command("classify")
@triple_options
@click.option("--depth", type=click.IntRange(1, restrictions.MAX_EXTREMUM_DEPTH), default=6,
              show_default=True, help="bisection depth for extremum brackets")
@_format_option
def cmd_classify(alpha, beta, gamma, depth, fmt):
    """Classify monotonicity on all three edges; bracket any extremum."""
    bv = BoundaryValues(alpha, beta, gamma)
    per_edge = {}
    for edge in EDGES:
        cls = restrictions.classify_edge(bv, edge)
        entry = {"class": cls.value}
        if cls is MonotonicityClass.NON_MONOTONE:
            res = restrictions.locate_extremum(bv, edge, depth)
            entry["extremum"] = {
                "kind": res.kind,
                "lo": format_rational(res.lo),
                "hi": format_rational(res.hi),
                "at_junction": format_rational(res.lo) if res.lo == res.hi else None,
            }
        per_edge[edge] = entry
    lengths = {}
    for edge in ("left", "right", "bottom"):  # the JSON key order
        (_, b, g), den, _ = edge_cell(bv, edge, 1)
        lengths[edge] = Fraction(abs(g - b), den)
    ordering = sorted(lengths, key=lambda e: (lengths[e], e), reverse=True)
    results = {
        "edges": per_edge,
        "simultaneous_monotone": (None if bv.is_constant()
                                  else restrictions.simultaneous_monotone(bv)),
        "edge_lengths": {e: format_rational(v) for e, v in lengths.items()},
        "length_ordering": ordering,
    }
    if fmt == "json":
        _emit_json("classify", _triple_inputs(bv), results)
        return
    for edge in EDGES:
        line = f"{edge}: {per_edge[edge]['class']}"
        ext = per_edge[edge].get("extremum")
        if ext:
            where = (f"at junction {ext['at_junction']}" if ext["at_junction"]
                     else f"in [{ext['lo']}, {ext['hi']}]")
            line += f" ({ext['kind']} {where})"
        _echo(line)
    _echo(f"simultaneous strictly monotone: {results['simultaneous_monotone']}")
    _echo("edge lengths (desc): "
          + ", ".join(f"{e}=|{lengths[e]}|" for e in ordering))


_SCAN_BLOCK_ROWS = 4096
_SCAN_HEADER = "x_num,x_den,f_num,f_den,f_float\r\n"
MAX_SCAN_BYTES = 2 ** 30  # 1 GiB; a scan whose _scan_bytes exceed it is refused


def _scan_bytes(t, den: int, depth: int) -> int:
    """A bound on the bytes scan writes for an edge whose whole-edge frame cell
    is t over den.  Each value is a convex combination of the corners, so over
    den * 5^depth its numerator is at most max|t| * 5^depth.  Each of the
    2^depth + 1 rows then holds at most: that with a sign, den * 5^depth, two
    x fields of at most 2^depth, a float repr of at most 24 characters and
    6 separator bytes."""
    p = 5 ** depth
    row = (len(str(max(map(abs, t)) * p)) + 1 + len(str(den * p))
           + 2 * len(str(2 ** depth)) + 24 + 6)
    return len(_SCAN_HEADER) + (2 ** depth + 1) * row


def _x_texts(start: int, stop: int, depth: int) -> list[str]:
    """"num,den" of x = k/2^depth in lowest terms for start <= k < stop, built
    level by level: (k >> j)/(2^depth >> j) for k = odd * 2^j; 0 is 0/1 and 1
    is 1/1."""
    n = 1 << depth
    xs = ["0,1"] * (stop - start)
    if stop > n:
        xs[-1] = "1,1"
    for j in range(depth):
        first = start + ((1 << j) - start) % (2 << j)  # least such k >= start
        tail = f",{n >> j}"
        xs[first - start::2 << j] = [f"{o}{tail}"
                                     for o in range(first >> j, ((stop - 1) >> j) + 1, 2)]
    return xs


@cli.command("scan")
@triple_options
@click.option("--edge", type=click.Choice(EDGES), default="bottom", show_default=True)
@click.option("--depth", type=click.IntRange(0, MAX_EDGE_DEPTH), default=8, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None,
              help="CSV path (stdout when omitted)")
def cmd_scan(alpha, beta, gamma, edge, depth, output):
    """Emit values at all k/2^depth along an edge as lossless CSV."""
    bv = BoundaryValues(alpha, beta, gamma)
    t, den, _ = edge_cell(bv, edge, 1)
    size = _scan_bytes(t, den, depth)
    if size > MAX_SCAN_BYTES:  # refused before the file is opened or any walk
        digits = max(len(str(abs(n))) for x in bv.as_tuple()
                     for n in (x.numerator, x.denominator))
        raise click.UsageError(
            f"scan would write about {size} bytes at --depth {depth} with inputs of "
            f"up to {digits} digits, above its bound of {MAX_SCAN_BYTES} bytes (1 GiB); "
            "lower --depth or the inputs' digits")
    # the file is opened before the walk, so that an unwritable path fails at
    # once; a failed open, write or close of it is a usage error, and the file
    # is closed whatever happens
    try:
        with open(output, "w", newline="") if output else nullcontext(sys.stdout) as stream:
            values, den = edge_profile(bv, depth, edge)
            # CSV as csv.writer writes it (no field needs quoting, \r\n ends each
            # row), written a block of rows at a time; each value in lowest terms.
            # A block is its columns, each made by C-level maps, interleaved.
            stream.write(_SCAN_HEADER)
            for start in range(0, len(values), _SCAN_BLOCK_ROWS):
                stop = min(start + _SCAN_BLOCK_ROWS, len(values))
                block = values[start:stop]
                gcds = list(map(math.gcd, block, repeat(den)))
                q_texts = {c: f",{den // c}," for c in set(gcds)}  # a few dozen
                cells = [None, ",", None, None, None, "\r\n"] * len(block)  # x,p,q,float
                cells[::6] = _x_texts(start, stop, depth)
                cells[2::6] = map(str, map(floordiv, block, gcds))
                cells[3::6] = map(q_texts.__getitem__, gcds)
                cells[4::6] = map(repr, _display_floats(block, den))
                stream.write("".join(cells))
    except OSError as exc:
        if not output:
            raise
        raise click.UsageError(f"cannot write --output {output}: {exc.strerror}")


@cli.command("verify")
@click.option("--suite", "suites", type=click.Choice(sorted(verify.SUITES)),
              multiple=True, help="suite to run (repeatable; default: all)")
@click.option("--trials", type=click.IntRange(1, 1_000_000), default=None)
@click.option("--depth", type=click.IntRange(min=1), default=None)
@click.option("--m-max", type=click.IntRange(1, 60), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
def cmd_verify(suites, trials, depth, m_max, seed, fmt):
    """Run cross-check suites; nonzero exit on any failure."""
    try:
        results = verify.run_suites(suites, seed=seed, trials=trials, depth=depth,
                                    m_max=m_max)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = {
            "command": "verify",
            "inputs": {"suites": [r.name for r in results], "trials": trials, "depth": depth,
                       "m_max": m_max, "seed": seed},
            "results": {"all_passed": all(r.passed for r in results)},
            "suites": [{"name": r.name, "status": r.status, "details": r.details,
                        "counterexample": r.counterexample, "elapsed_s": r.elapsed_s}
                       for r in results],
        }
        _echo(json.dumps(payload, indent=2))
    else:
        for r in results:
            _echo(f"{r.name}: {r.status} - {r.details} ({r.elapsed_s:.2f} s)")
            if r.counterexample:
                _echo(f"  counterexample: {r.counterexample}")
    if not all(r.passed for r in results):
        sys.exit(1)


@cli.command("zero-search")
@triple_options
@click.option("--depth", type=click.IntRange(1, restrictions.MAX_ZERO_DEPTH), default=4,
              show_default=True)
@click.option("--coeff-bound", type=click.IntRange(1, 50), default=5, show_default=True,
              help="bound on |n|, |m|, |k| in the rational-relation search")
@_format_option
def cmd_zero_search(alpha, beta, gamma, depth, coeff_bound, fmt):
    """Search junctions for Zero derivative classes and small integer
    relations n*alpha + m*beta + k*gamma = 0 with n + m + k = 0."""
    bv = BoundaryValues(alpha, beta, gamma)
    if bv.is_constant():
        raise click.UsageError("zero-search requires a nonconstant triple")
    count, zeros = restrictions.count_zero_junctions(bv, depth)
    relations = restrictions.corner_relations(bv, coeff_bound)
    zero_labels = [restrictions.format_zero(z) for z in zeros]
    results = {"zero_count": count, "zeros": zero_labels,
               "relations": [list(r) for r in relations]}
    if fmt == "json":
        _emit_json("zero-search", {**_triple_inputs(bv), "depth": depth,
                                   "coeff_bound": coeff_bound}, results)
        return
    if count:
        _echo(f"zero derivative classes at: {', '.join(zero_labels)}")
    else:
        _echo(f"no zero derivative classes up to depth {depth}")
    if relations:
        for n, m, k in relations:
            _echo(f"relation: {n}*alpha + {m}*beta + {k}*gamma = 0")
    else:
        _echo(f"no integer relation with coefficients up to {coeff_bound}")


if __name__ == "__main__":
    cli()
