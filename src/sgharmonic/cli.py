"""Command-line interface.

All machine-readable output carries exact fractions; floats appear only as
display companions.  Exit codes: 0 success, 1 verification failure,
2 usage or parse error.
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction
from math import gcd

import click

from . import restrictions, verify
from .exactarith import format_rational, parse_rational
from .gasket import (
    EDGES,
    BoundaryValues,
    EdgePoint,
    cell_word,
    edge_profile,
    eval_dyadic,
    is_dyadic,
    on_edge,
)
from .restrictions import MonotonicityClass


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ValueError:
            self.fail(f"{value!r} is not an exact rational (expected p/q)", param, ctx)


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


def _emit_json(command: str, inputs: dict, results: dict) -> None:
    click.echo(json.dumps({"command": command, "inputs": inputs, "results": results},
                          indent=2))


def _triple_inputs(bv: BoundaryValues) -> dict:
    return {"alpha": format_rational(bv.alpha),
            "beta": format_rational(bv.beta),
            "gamma": format_rational(bv.gamma)}


@click.group()
def cli():
    """Exact analysis of harmonic functions on the Sierpinski gasket."""


def _eval_point(bv: BoundaryValues, edge: str, x: Fraction) -> Fraction:
    if not (0 <= x <= 1):
        raise ValueError(f"point {x} outside [0, 1]")
    if is_dyadic(x):
        return eval_dyadic(bv, EdgePoint(edge, x))
    d = x.denominator
    if d % 3 == 0 and (d // 3) & (d // 3 - 1) == 0:
        # third point of a dyadic sub-edge: j/(3*2^m) with j not divisible by 3
        m = (d // 3).bit_length() - 1
        k, r = divmod(x.numerator, 3)
        _, value = restrictions.third_point_of_subedge(
            on_edge(bv, edge), cell_word(k, m), Fraction(r, 3))
        return value
    raise ValueError(f"point {x} is neither dyadic nor a sub-edge third point")


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
        value = _eval_point(bv, edge, point)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        inputs = {**_triple_inputs(bv), "edge": edge, "point": format_rational(point)}
        _emit_json("eval", inputs,
                   {"value": format_rational(value), "value_float": float(value)})
    else:
        click.echo(f"{format_rational(value)} ({float(value):g})")


@cli.command("classify")
@triple_options
@click.option("--depth", type=click.IntRange(1, 40), default=6, show_default=True,
              help="bisection depth for extremum brackets")
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
                "at_junction": (format_rational(res.junction)
                                if res.junction is not None else None),
            }
        per_edge[edge] = entry
    lengths = {
        "left": abs(bv.alpha - bv.beta),
        "right": abs(bv.alpha - bv.gamma),
        "bottom": abs(bv.beta - bv.gamma),
    }
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
        click.echo(line)
    click.echo(f"simultaneous strictly monotone: {results['simultaneous_monotone']}")
    click.echo("edge lengths (desc): "
               + ", ".join(f"{e}=|{lengths[e]}|" for e in ordering))


@cli.command("scan")
@triple_options
@click.option("--edge", type=click.Choice(EDGES), default="bottom", show_default=True)
@click.option("--depth", type=click.IntRange(0, 20), default=8, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None,
              help="CSV path (stdout when omitted)")
def cmd_scan(alpha, beta, gamma, edge, depth, output):
    """Emit values at all k/2^depth along an edge as lossless CSV."""
    bv = BoundaryValues(alpha, beta, gamma)
    profile = edge_profile(bv, depth, edge)
    stream = open(output, "w", newline="") if output else sys.stdout
    try:
        writer = csv.writer(stream)
        writer.writerow(["x_num", "x_den", "f_num", "f_den", "f_float"])
        den = 2 ** depth
        for k, value in enumerate(profile):
            x = Fraction(k, den)
            writer.writerow([x.numerator, x.denominator,
                             value.numerator, value.denominator,
                             repr(float(value))])
    finally:
        if output:
            stream.close()


@cli.command("verify")
@click.option("--suite", "suites", type=click.Choice(sorted(verify.SUITES)),
              multiple=True, help="suite to run (repeatable; default: all)")
@click.option("--trials", type=click.IntRange(1, 1_000_000), default=None)
@click.option("--depth", type=click.IntRange(1, 20), default=None)
@click.option("--m-max", type=click.IntRange(1, 60), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
def cmd_verify(suites, trials, depth, m_max, seed, fmt):
    """Run cross-check suites; nonzero exit on any failure."""
    names = list(suites) or list(verify.SUITES)
    try:
        results = verify.run_suites(names, seed=seed, trials=trials, depth=depth,
                                    m_max=m_max)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = {
            "command": "verify",
            "inputs": {"suites": names, "trials": trials, "depth": depth,
                       "m_max": m_max, "seed": seed},
            "results": {"all_passed": all(r.passed for r in results)},
            "suites": [{"name": r.name, "status": r.status, "details": r.details,
                        "counterexample": r.counterexample} for r in results],
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for r in results:
            click.echo(f"{r.name}: {r.status} - {r.details}")
            if r.counterexample:
                click.echo(f"  counterexample: {r.counterexample}")
    if not all(r.passed for r in results):
        sys.exit(1)


@cli.command("zero-search")
@triple_options
@click.option("--depth", type=click.IntRange(1, 12), default=4, show_default=True)
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
    relations = []
    for n in range(-coeff_bound, coeff_bound + 1):
        for m in range(-coeff_bound, coeff_bound + 1):
            k = -n - m
            if abs(k) > coeff_bound or gcd(n, m, k) != 1:
                continue  # out of bounds, all zero, or not primitive
            first = next(x for x in (n, m, k) if x != 0)
            if first < 0:
                continue  # sign-canonical representative only
            if n * bv.alpha + m * bv.beta + k * bv.gamma == 0:
                relations.append((n, m, k))
    zero_labels = [restrictions.format_zero(z) for z in zeros]
    results = {"zero_count": count, "zeros": zero_labels,
               "relations": [list(r) for r in relations]}
    if fmt == "json":
        _emit_json("zero-search", {**_triple_inputs(bv), "depth": depth,
                                   "coeff_bound": coeff_bound}, results)
        return
    if count:
        click.echo(f"zero derivative classes at: {', '.join(zero_labels)}")
    else:
        click.echo(f"no zero derivative classes up to depth {depth}")
    if relations:
        for n, m, k in relations:
            click.echo(f"relation: {n}*alpha + {m}*beta + {k}*gamma = 0")
    else:
        click.echo(f"no integer relation with coefficients up to {coeff_bound}")


if __name__ == "__main__":
    cli()
