"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload turns a seed into a list of cases.  A case is run as a fixed
sequence of operations; every operation's output is checked after it
returns, outside its timing.  Expected values come from the benchmark's own
re-derivation of the midpoint rule (``cell_forms``) wherever possible, so a
check stays independent of the package's walkers even when they share one
kernel.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from click.testing import CliRunner

from sgharmonic import cli, gasket, oracle, restrictions

EDGES = ("bottom", "left", "right")

# Corners (alpha', beta', gamma') of an edge's frame, as indices into the
# outer triple (alpha, beta, gamma); the edge maps onto [beta', gamma'].
_EDGE_CORNERS = {"bottom": (0, 1, 2), "left": (2, 0, 1), "right": (1, 0, 2)}

# Child 1 of a cell (a, b, g) is (p01, b, p12) and child 2 is (p02, p12, g);
# rows are 5x the corner's coefficients over the parent's corners.
_CHILD_ROWS = {1: ((2, 2, 1), (0, 5, 0), (1, 2, 2)),
               2: ((2, 1, 2), (1, 2, 2), (0, 0, 5))}


def cell_forms(edge: str, k: int, m: int) -> tuple[list[tuple[int, int, int]], int]:
    """Corners of the depth-m cell over [k/2^m, (k+1)/2^m] of an edge, as
    integer rows over the outer corner values, with their common denominator."""
    rows = [tuple(int(j == c) for j in range(3)) for c in _EDGE_CORNERS[edge]]
    for i in range(m - 1, -1, -1):
        step = _CHILD_ROWS[2 if (k >> i) & 1 else 1]
        rows = [tuple(sum(s[c] * rows[c][j] for c in range(3)) for j in range(3))
                for s in step]
    return rows, 5 ** m


def _apply(form, triple) -> Fraction:
    return sum(c * v for c, v in zip(form, triple))


def value_at(triple, edge: str, x: Fraction) -> Fraction:
    """Exact value at a dyadic point x of an edge: the left end of the cell
    starting there, or the edge's far end."""
    if x == 1:
        return triple[_EDGE_CORNERS[edge][2]]
    rows, den = cell_forms(edge, x.numerator, x.denominator.bit_length() - 1)
    return _apply(rows[1], triple) / den


def zero_forms(edge: str, k: int, m: int) -> tuple[tuple, tuple]:
    """Linear forms (left, right) over the outer triple whose sign is the
    one-sided derivative class at the junction k/2^m of an edge (0 < k < 2^m)."""
    (la, lb, lg), den = cell_forms(edge, k - 1, m)
    (ra, rb, rg), _ = cell_forms(edge, k, m)
    left = tuple(Fraction(2 * lg[j] - la[j] - lb[j], den) for j in range(3))
    right = tuple(Fraction(ra[j] + rg[j] - 2 * rb[j], den) for j in range(3))
    return left, right


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def rational(rng: random.Random, num_bits: int, den_bits: int) -> Fraction:
    """A random rational whose numerator and denominator have fixed bit-lengths."""
    num = rng.randrange(1 << (num_bits - 1), 1 << num_bits) * rng.choice((-1, 1))
    return Fraction(num, rng.randrange(1 << (den_bits - 1), 1 << den_bits))


def random_triple(rng, num_bits: int = 7, den_bits: int = 7) -> tuple:
    while True:
        t = tuple(rational(rng, num_bits, den_bits) for _ in range(3))
        if not t[0] == t[1] == t[2]:
            return t


def dyadic_point(rng, max_depth: int) -> Fraction:
    """k/2^m with k odd and 1 <= m <= max_depth."""
    m = rng.randint(1, max_depth)
    return Fraction(2 * rng.randrange(2 ** (m - 1)) + 1, 2 ** m)


@dataclass
class Case:
    """One generated input: a corner triple plus per-workload parameters."""

    triple: tuple
    params: dict = field(default_factory=dict)
    bv: gasket.BoundaryValues = field(init=False, repr=False)

    def __post_init__(self):
        self.bv = gasket.BoundaryValues(*self.triple)


@dataclass
class Op:
    """One operation: ``call(outs)`` is timed; ``check(result, outs)`` is not.
    ``outs`` maps the names of the case's earlier operations to their results."""

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]


def inputs_digest(cases: list[Case]) -> str:
    """Digest of everything the package receives, for seed determinism checks."""
    text = repr([(c.triple, sorted(c.params.items())) for c in cases])
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# cli-edge: deep whole-edge walks plus the CLI's CSV and JSON formatting.
# --------------------------------------------------------------------------

SCAN_DEPTH = 12
CLASSIFY_DEPTH = 40
ZERO_DEPTH = 6
SCAN_SAMPLES = 8
SCAN_HEADER = ["x_num", "x_den", "f_num", "f_den", "f_float"]


class CliEdge:
    name = "cli-edge"
    n_cases = 256
    n_trace = 6

    def __init__(self):
        self.runner = CliRunner()

    def generate(self, seed: int) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for _ in range(self.n_cases):
            t = random_triple(rng)
            third_edge = rng.choice(EDGES)
            third_at = rng.choice((Fraction(1, 3), Fraction(2, 3)))
            a, b, g = (t[i] for i in _EDGE_CORNERS[third_edge])
            if third_at == Fraction(1, 3):
                third_value = (5 * a + 15 * b + 7 * g) / 27
            else:
                third_value = (5 * a + 7 * b + 15 * g) / 27
            cases.append(Case(t, {
                "args": [f"--alpha={t[0]}", f"--beta={t[1]}", f"--gamma={t[2]}"],
                "dyadic_edge": rng.choice(EDGES),
                "dyadic_at": dyadic_point(rng, 20),
                "third_edge": third_edge,
                "third_at": third_at,
                "third_value": third_value,
                "scan_rows": sorted(rng.sample(range(1, 2 ** SCAN_DEPTH), SCAN_SAMPLES)),
            }))
        return cases

    def _invoke(self, args: list[str]):
        res = self.runner.invoke(cli.cli, args)
        return res.exit_code, res.output

    def ops(self, case: Case) -> list[Op]:
        p = case.params
        return [
            Op("scan", lambda outs: self._invoke(
                ["scan", "--depth", str(SCAN_DEPTH), *p["args"]]),
               lambda res, outs: self._check_scan(case, res)),
            Op("classify", lambda outs: self._invoke(
                ["classify", "--depth", str(CLASSIFY_DEPTH), "--format", "json", *p["args"]]),
               lambda res, outs: self._check_classify(case, res)),
            Op("eval-dyadic", lambda outs: self._invoke(
                ["eval", "--edge", p["dyadic_edge"], "--point", str(p["dyadic_at"]),
                 "--format", "json", *p["args"]]),
               lambda res, outs: self._check_eval_dyadic(case, res)),
            Op("eval-third", lambda outs: self._invoke(
                ["eval", "--edge", p["third_edge"], "--point", str(p["third_at"]),
                 *p["args"]]),
               lambda res, outs: self._check_eval_third(case, res)),
            Op("zero-search", lambda outs: self._invoke(
                ["zero-search", "--depth", str(ZERO_DEPTH), "--format", "json", *p["args"]]),
               lambda res, outs: self._check_zero_search(case, res)),
        ]

    @staticmethod
    def _check_scan(case: Case, res) -> bool:
        code, out = res
        rows = list(csv.reader(io.StringIO(out)))
        n = 2 ** SCAN_DEPTH
        if code != 0 or rows[0] != SCAN_HEADER or len(rows) != n + 2:
            return False
        body = rows[1:]
        for k in (0, n, *case.params["scan_rows"]):
            x_num, x_den, f_num, f_den, _ = body[k]
            x = Fraction(int(x_num), int(x_den))
            if x != Fraction(k, n) or Fraction(int(f_num), int(f_den)) != value_at(
                    case.triple, "bottom", x):
                return False
        return True

    @staticmethod
    def _check_classify(case: Case, res) -> bool:
        code, out = res
        if code != 0:
            return False
        edges = json.loads(out)["results"]["edges"]
        for edge in EDGES:
            entry = edges[edge]
            if entry["class"] != restrictions.classify_edge(case.bv, edge).value:
                return False
            ext = entry.get("extremum")
            if ext is not None:
                width = Fraction(ext["hi"]) - Fraction(ext["lo"])
                if width not in (0, Fraction(1, 2 ** CLASSIFY_DEPTH)):
                    return False
        return True

    @staticmethod
    def _check_eval_dyadic(case: Case, res) -> bool:
        code, out = res
        p = case.params
        return code == 0 and Fraction(json.loads(out)["results"]["value"]) == value_at(
            case.triple, p["dyadic_edge"], p["dyadic_at"])

    @staticmethod
    def _check_eval_third(case: Case, res) -> bool:
        code, out = res
        return code == 0 and Fraction(out.split()[0]) == case.params["third_value"]

    @staticmethod
    def _check_zero_search(case: Case, res) -> bool:
        code, out = res
        if code != 0:
            return False
        results = json.loads(out)["results"]
        a, b, g = case.triple
        return (results["zero_count"] == len(results["zeros"]) <= 1
                and all(n + m + k == 0 and n * a + m * b + k * g == 0
                        for n, m, k in results["relations"]))


# --------------------------------------------------------------------------
# junction-census: many short walks, the zero scan and the Q(sqrt13) forms.
# --------------------------------------------------------------------------

CENSUS_DEPTH = 6
JUNCTION_SAMPLES = 6
LEMMA2_MAX = 20
THIRD_MAX = 30
CENSUS_KINDS = ("random", "hyperplane", "wide")


def lemma2_points() -> list[tuple[int, str, Fraction]]:
    """(m, family, abscissa) for every closed form of lemma 2 with m <= LEMMA2_MAX."""
    pts = []
    for m in range(1, LEMMA2_MAX + 1):
        h = Fraction(1, 2 ** m)
        pts += [(m, "half_power", h), (m, "one_minus_half_power", 1 - h),
                (m, "l_m", (1 - h) / 2), (m, "r_m", (1 + h) / 2)]
    return pts


class JunctionCensus:
    name = "junction-census"
    n_cases = 768
    n_trace = 24

    def __init__(self):
        self.lemma2 = [(m, w, gasket.EdgePoint("bottom", x)) for m, w, x in lemma2_points()]

    def generate(self, seed: int) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for i in range(self.n_cases):
            kind = CENSUS_KINDS[i % len(CENSUS_KINDS)]
            expect = None
            if kind == "wide":
                t = random_triple(rng, num_bits=40, den_bits=8)
            elif kind == "random":
                t = random_triple(rng)
            else:
                t, expect = self._on_zero_hyperplane(rng)
            points = [(rng.choice(EDGES), dyadic_point(rng, CENSUS_DEPTH))
                      for _ in range(JUNCTION_SAMPLES)]
            if expect is not None and expect[0] != "vertex":
                points.append(expect)
            cases.append(Case(t, {"kind": kind, "expect_zero": expect, "points": points}))
        return cases

    @staticmethod
    def _on_zero_hyperplane(rng) -> tuple[tuple, tuple]:
        """A nonconstant triple with a Zero class at a chosen junction point."""
        while True:
            if rng.random() < 0.25:
                v = rng.randrange(3)
                form = tuple(Fraction(2 if j == v else -1) for j in range(3))
                where = ("vertex", f"p{v}")
            else:
                edge, x = rng.choice(EDGES), dyadic_point(rng, CENSUS_DEPTH)
                m = x.denominator.bit_length() - 1
                form = rng.choice(zero_forms(edge, x.numerator, m))
                where = (edge, x)
            solve = rng.choice([j for j in range(3) if form[j] != 0])
            t = [rational(rng, 7, 7) for _ in range(3)]
            t[solve] = -sum(form[j] * t[j] for j in range(3) if j != solve) / form[solve]
            if not t[0] == t[1] == t[2]:
                return tuple(t), where

    def ops(self, case: Case) -> list[Op]:
        bv = case.bv
        return [
            Op("zero-scan", lambda outs: restrictions.count_zero_junctions(bv, CENSUS_DEPTH),
               lambda res, outs: self._check_zero_scan(case, res)),
            Op("junction-derivative",
               lambda outs: [restrictions.junction_derivative(bv, e, x)
                             for e, x in case.params["points"]],
               lambda res, outs: self._check_junctions(case, res)),
            Op("lemma2",
               lambda outs: [(gasket.closed_form_lemma2(bv, m, w), gasket.eval_dyadic(bv, pt))
                             for m, w, pt in self.lemma2],
               lambda res, outs: all(closed == walked for closed, walked in res)),
            Op("triangle-sequence",
               lambda outs: [restrictions.triangle_sequence(bv, m)
                             for m in range(THIRD_MAX + 1)],
               lambda res, outs: all(
                   seq.m == m and 5 * seq.alpha_m + 15 * seq.beta_m + 7 * seq.gamma_m
                   == 5 * case.triple[0] + 15 * case.triple[1] + 7 * case.triple[2]
                   for m, seq in enumerate(res))),
            Op("closed-forms",
               lambda outs: [(restrictions.gamma_closed_form(bv, m),
                              restrictions.beta_closed_form(bv, m))
                             for m in range(THIRD_MAX + 1)],
               lambda res, outs: [(seq.gamma_m, seq.beta_m) for seq in
                                  outs["triangle-sequence"]] == res),
        ]

    @staticmethod
    def _check_zero_scan(case: Case, res) -> bool:
        count, zeros = res
        expect = case.params["expect_zero"]
        # theorem 5: at most one junction point carries a Zero class
        return count == len(zeros) <= 1 and (expect is None or list(zeros) == [expect])

    @staticmethod
    def _check_junctions(case: Case, res) -> bool:
        zero = restrictions.DerivClass.ZERO
        classes = {1: restrictions.DerivClass.PLUS_INFINITY,
                   -1: restrictions.DerivClass.MINUS_INFINITY, 0: zero}
        for (edge, x), got in zip(case.params["points"], res, strict=True):
            m = x.denominator.bit_length() - 1
            forms = zero_forms(edge, x.numerator, m)
            want = tuple(classes[_sign(_apply(f, case.triple))] for f in forms)
            if tuple(got) != want:
                return False
        expect = case.params["expect_zero"]
        if expect is not None and expect[0] != "vertex":
            if zero not in res[case.params["points"].index(expect)]:
                return False
        return True


# --------------------------------------------------------------------------
# oracle-check: the exact graph solve against the extension rule.
# --------------------------------------------------------------------------

ORACLE_LEVEL = 4


class OracleCheck:
    name = "oracle-check"
    n_cases = 2048
    n_trace = 48

    def __init__(self):
        self.graph = None

    def generate(self, seed: int) -> list[Case]:
        rng = _rng(self.name, seed)
        cases = []
        for _ in range(self.n_cases):
            t = random_triple(rng)
            cases.append(Case(t))
        return cases

    def ops(self, case: Case) -> list[Op]:
        if self.graph is None:
            self.graph = oracle.build_graph(ORACLE_LEVEL)
        return [Op("check-triple", lambda outs: self._check_triple(case.bv),
                   lambda res, outs: self._check_oracle(case, res))]

    def _check_triple(self, bv):
        """One operation: the warm level-4 solve, then its five-point check."""
        values = oracle.solve_harmonic(ORACLE_LEVEL, bv)
        return values, oracle.check_five_point(self.graph, values)

    def _check_oracle(self, case: Case, res) -> bool:
        """The solution fixes the corners, passes the five-point check, and
        equals ``gasket.cell_values`` on every level-4 cell (untimed)."""
        values, five_point = res
        return (five_point is True and check_solution(self.graph, case.triple, values)
                and all(gasket.cell_values(case.bv, addr).as_tuple()
                        == tuple(values[v] for v in corners)
                        for addr, corners in self.graph.triangles[ORACLE_LEVEL]))


def cold_solve_ops(case: Case) -> list[Op]:
    """The first solve at each level 1..ORACLE_LEVEL; cold in a fresh process,
    since the oracle caches its per-level elimination."""
    return [Op(f"cold-L{m}", lambda outs, m=m: oracle.solve_harmonic(m, case.bv),
               lambda res, outs, m=m: check_solution(oracle.build_graph(m), case.triple, res))
            for m in range(1, ORACLE_LEVEL + 1)]


def check_solution(graph, triple, values) -> bool:
    """A level-m solution: one value per vertex, the corner values fixed."""
    return (len(values) == len(graph.vertices)
            and all(values[v] == x for v, x in zip(graph.boundary, triple)))


WORKLOADS = {w.name: w for w in (CliEdge, JunctionCensus, OracleCheck)}
