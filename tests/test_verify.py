"""The linear harness of verify: the five identity suites are proven on the
unit triples, and their random sample checks that the code is linear."""

import ast
import dataclasses
import functools
import inspect
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import fraction_gcd_calls  # shared gcd counter
from sgharmonic import gasket, oracle, restrictions, verify
from sgharmonic.gasket import BoundaryValues, EdgePoint

UNITS = ("1,0,0", "0,1,0", "0,0,1")
EXACT = re.compile(r"-?\d+(/\d+)?")


def perturbed(monkeypatch, module, name, delta):
    """Replace module.name by itself plus delta(bv, m, *rest)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda bv, m, *rest: real(bv, m, *rest) + delta(bv, m, *rest))


def assert_fail(result, bv, m, at, lhs, rhs):
    assert result.status == "FAIL"
    ce = result.counterexample
    assert (ce["bv"], ce["m"], ce["at"]) == (bv, str(m), str(at))
    assert EXACT.fullmatch(ce["lhs"]) and EXACT.fullmatch(ce["rhs"])
    assert (Fraction(ce["lhs"]), Fraction(ce["rhs"])) == (lhs, rhs)


def test_default_suites_prove_on_unit_triples():
    for result in verify.run_suites(["lemma2", "lemma4", "eq16", "closedform", "oracle"]):
        assert result.status == "PASS"
        assert result.details.startswith("proven on the unit triples for every rational "
                                         "triple, ")


class TestOneWrongDirection:
    # each fault sits in one coordinate direction at one m, so the unit triple
    # of that direction is the certificate, and the others pass

    def test_lemma2(self, monkeypatch):
        perturbed(monkeypatch, gasket, "closed_form_lemma2",
                  lambda bv, m, which: bv.beta / 7 if m == 5 else 0)
        x = gasket.lemma2_abscissa(5, gasket.LEMMA2_POINTS[0])
        true = gasket.eval_dyadic(BoundaryValues(0, 1, 0), EdgePoint("bottom", x))
        result = verify.suite_lemma2(trials=3, m_max=6)
        assert_fail(result, "0,1,0", 5, 0, true + Fraction(1, 7), true)
        assert result.details == "closed form at half_power = eval_dyadic there"

    def test_lemma4(self, monkeypatch):
        perturbed(monkeypatch, gasket, "closed_form_lemma2",
                  lambda bv, m, which: bv.gamma if (m, which) == (3, "l_m") else 0)
        rise = gasket.lemma2_abscissa(3, "l_m") - Fraction(1, 2)
        true = Fraction(3, 5) * Fraction(6, 5) ** 3 + Fraction(2, 5) ** 3 / 5
        result = verify.suite_lemma4(trials=3, m_max=4)
        assert_fail(result, "0,0,1", 3, 0, true + 1 / rise, true)
        assert result.details == "left quotient at l_m = its dominant-term form"

    def test_eq16(self, monkeypatch):
        real = restrictions.triangle_sequence

        def drifted(bv, m):
            seq = real(bv, m)
            return dataclasses.replace(seq, alpha_m=seq.alpha_m + bv.alpha) if m == 4 else seq
        monkeypatch.setattr(restrictions, "triangle_sequence", drifted)
        result = verify.suite_eq16(trials=3, m_max=6)
        assert_fail(result, "1,0,0", 4, 0, 10, 5)
        assert result.details == "conserved combination drifted"

    def test_closed_form(self, monkeypatch):
        perturbed(monkeypatch, restrictions, "beta_closed_form",
                  lambda bv, m: bv.beta / 3 if m == 7 else 0)
        true = restrictions.triangle_sequence(BoundaryValues(0, 1, 0), 7).beta_m
        result = verify.suite_closed_form(trials=3, m_max=8)
        assert_fail(result, "0,1,0", 7, 1, true + Fraction(1, 3), true)
        assert result.details == "beta_m closed form = recursion"

    def test_oracle(self, monkeypatch):
        real = oracle.solve_harmonic

        def shifted(m, bv):
            solved = real(m, bv)
            if m == 2:  # vertex 3 is the first one past the corners
                nums = list(solved.numerators)
                nums[3] += int(bv.gamma * solved.den)  # den is a multiple of the corners'
                solved = oracle._Solution(tuple(nums), solved.den)
            return solved
        monkeypatch.setattr(oracle, "solve_harmonic", shifted)
        corners = [v for _, tri in oracle.build_graph(2).triangles[2] for v in tri]
        at = corners.index(3)
        addr, _ = oracle.build_graph(2).triangles[2][at // 3]
        true = gasket.cell_values(BoundaryValues(0, 0, 1), addr).as_tuple()[at % 3]
        result = verify.suite_oracle(depth=3, trials=3)
        assert_fail(result, "0,0,1", 2, at, true + 1, true)
        assert result.details == "graph solve = cell addressing"

    def test_oracle_five_point_side(self, monkeypatch):
        # a checker that rejects the solve reads 1 against 0, after the 81 corners
        monkeypatch.setattr(oracle, "check_five_point", lambda graph, values: graph.level < 3)
        result = verify.suite_oracle(depth=3, trials=3)
        assert_fail(result, "1,0,0", 3, 81, 1, 0)
        assert (result.counterexample["lhs"], result.counterexample["rhs"]) == ("1", "0")
        assert result.details == "check_five_point accepts the solve"


def test_sample_catches_fault_vanishing_on_unit_triples(monkeypatch):
    # alpha*beta*(alpha + beta + gamma) is 0 on every unit triple, so only the sample sees it:
    # it checks that the code computes a linear map at all
    perturbed(monkeypatch, restrictions, "gamma_closed_form",
              lambda bv, m: bv.alpha * bv.beta * sum(bv.as_tuple()))
    assert verify.suite_closed_form(trials=0, m_max=3).status == "PASS"
    result = verify.suite_closed_form(trials=3, m_max=3)
    assert result.status == "FAIL"
    assert result.counterexample["bv"] not in UNITS
    assert (result.counterexample["m"], result.counterexample["at"]) == ("0", "0")


def test_sample_certificate_is_the_exact_unit_combination():
    # alpha*beta vanishes on every unit triple and both sides share it, so only
    # the combination check sees it; its rhs is alpha*u0 + beta*u1 + gamma*u2
    coefficients = (Fraction(1, 7), Fraction(-2, 9), Fraction(5, 3))

    def sides(bv, m):
        value = sum(c * x for c, x in zip(coefficients, bv.as_tuple())) / m
        lhs = [0, value + (bv.alpha * bv.beta if m == 2 else 0)]
        return lhs, list(lhs), ["zero", "value"]
    result = verify._linear("t", sides, range(1, 4), "m <= 3", 5, 0)
    assert result.status == "FAIL"
    assert result.details == "sample is not the combination of its unit-triple values"
    ce = result.counterexample
    assert ce["bv"] not in UNITS and (ce["m"], ce["at"]) == ("2", "1")
    bv = BoundaryValues(*map(Fraction, ce["bv"].split(",")))
    combined = sum(c * x for c, x in zip(coefficients, bv.as_tuple())) / 2
    assert EXACT.fullmatch(ce["rhs"]) and Fraction(ce["rhs"]) == combined
    assert Fraction(ce["lhs"]) == combined + bv.alpha * bv.beta


def test_sides_of_unequal_length_fail():
    # a zip over both sides would stop at the shorter one and PASS; a missing
    # statement would leave a failing entry unnamed
    for lhs, rhs, statements in ((2, 1, 2), (2, 2, 1)):
        def sides(bv, m):
            return [bv.alpha, bv.beta][:lhs], [bv.alpha, bv.beta][:rhs], ["a", "b"][:statements]
        result = verify._linear("t", sides, range(1, 3), "m <= 2", 5, 0)
        assert (result.status, result.details) == ("FAIL", "sides differ in length")
        assert result.counterexample == {"bv": "1,0,0", "m": "1", "lhs": str(lhs),
                                         "rhs": str(rhs), "statements": str(statements)}


def test_passing_sample_check_builds_no_fraction(monkeypatch):
    # sides from prebuilt Fraction lists, mixed denominators and an integer
    # among them, and prebuilt draws: a passing run then makes no Fraction at all
    rng = random.Random(3)
    drawn = [verify.random_triple(rng) for _ in range(20)]
    rows = [(Fraction(1, 3), Fraction(-5, 4), Fraction(2, 7)), (7, Fraction(1, 10), 0)]
    table = {(bv, m): [sum(c * x for c, x in zip(row, bv.as_tuple())) * m for row in rows]
             + [0] for bv in (*verify.UNIT_TRIPLES, *drawn) for m in range(1, 4)}
    prebuilt = iter(drawn)
    monkeypatch.setattr(verify, "random_triple", lambda rng: next(prebuilt))
    with fraction_gcd_calls() as calls:
        result = verify._linear("t", lambda bv, m: (table[bv, m], table[bv, m], list("abc")),
                                range(1, 4), "m <= 3", len(drawn), 0)
    assert result.status == "PASS"
    assert calls[0] == 0


def test_passing_oracle_suite_builds_no_fraction(monkeypatch):
    # both sides are integer numerators over one denominator: with prebuilt
    # draws and the levels solved, a passing run makes no Fraction at all
    rng = random.Random(5)
    drawn = [verify.random_triple(rng) for _ in range(3)]
    for bv in (*verify.UNIT_TRIPLES, *drawn):
        gasket.to_numerators(bv)
    for m in range(1, 5):
        oracle.solve_harmonic(m, drawn[0])
    prebuilt = iter(drawn)
    monkeypatch.setattr(verify, "random_triple", lambda rng: next(prebuilt))
    with fraction_gcd_calls() as calls:
        result = verify.suite_oracle(depth=4, trials=len(drawn))
    assert result.status == "PASS"
    assert calls[0] == 0


def test_oracle_reads_cells_from_one_kernel_pass(monkeypatch):
    def refused(*args):
        raise AssertionError("the oracle suite re-derives a cell")
    monkeypatch.setattr(gasket, "cell_values", refused)
    monkeypatch.setattr(gasket, "_word_map", refused)
    assert verify.suite_oracle(depth=6, trials=2).status == "PASS"


def test_lemma1_draws_each_triple_when_it_checks_it(monkeypatch):
    draws, at_first_check = [0], []
    real_draw, real_check = verify.random_triple, restrictions.dsv_check

    def draw(rng):
        draws[0] += 1
        return real_draw(rng)

    def check(bv):
        if not at_first_check:
            at_first_check.append(draws[0])
        return real_check(bv)
    monkeypatch.setattr(verify, "random_triple", draw)
    monkeypatch.setattr(restrictions, "dsv_check", check)
    result = verify.suite_lemma1(trials=500, seed=4)
    assert result.details == "520 triples, exact agreement"  # and 10 saturating pairs
    assert at_first_check == [1] and draws[0] == 500


def test_unit_triples_are_the_basis():
    assert [bv.as_tuple() for bv in verify.UNIT_TRIPLES] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_fault_fails_every_linear_suite(monkeypatch):
    # the lcm of to_numerators replaced by max: equal on the unit triples, so
    # only the sample sees it.  lemma2 and closedform read the kernel on both
    # sides; the unit-triple combination still catches them.
    def max_numerators(bv):
        den = max(x.denominator for x in bv.as_tuple())
        return tuple(x.numerator * (den // x.denominator) for x in bv.as_tuple()), den
    monkeypatch.setattr(gasket, "to_numerators", max_numerators)
    monkeypatch.setattr(restrictions, "to_numerators", max_numerators)
    results = verify.run_suites(["lemma2", "lemma4", "eq16", "closedform", "oracle"],
                                trials=5)
    assert [r.status for r in results] == ["FAIL"] * 5
    assert all(r.counterexample["bv"] not in UNITS for r in results)


def test_oracle_independent_of_the_kernel():
    source = Path(oracle.__file__).read_text()
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for module, name in imported
            if "gasket" in (module or "") or "gasket" in name] == ["BoundaryValues"]
    assert "to_numerators" not in source
    cached = [name for name, attr in vars(BoundaryValues).items()
              if isinstance(attr, functools.cached_property)]
    assert cached and not any(name in source for name in cached)
    assert not re.search(r"5\s*\*\*", source)


def test_theorem6_walks_nested_triangles_once_per_triple(monkeypatch):
    # each word "12"*m is mapped once, whatever the number of triples: every
    # further quotient is one matrix-vector product on the cached word map
    steps = [0]

    def counted(real):
        def child(t, digit):
            steps[0] += 1
            return real(t, digit)
        return child
    # the binding _word_map folds; no other module steps the kernel here
    monkeypatch.setattr(gasket, "child_numerators", counted(gasket.child_numerators))
    counts = []
    for trials in (3, 30):
        steps[0] = 0
        gasket._word_map.cache_clear()
        assert verify.suite_theorem6(trials=trials, m_max=25).status == "PASS"
        counts.append(steps[0])
    assert counts[0] == counts[1] > 0


def test_theorem6_maps_each_word_once_per_triple(monkeypatch):
    # both sides of each quotient come from one product with the map of "12"*m
    calls = [0]
    real = restrictions.cell_numerators

    def counted(bv, word):
        calls[0] += 1
        return real(bv, word)
    monkeypatch.setattr(restrictions, "cell_numerators", counted)
    assert verify.suite_theorem6(trials=7, m_max=12).status == "PASS"
    assert calls[0] == 7 * (12 - 2)  # one per triple and m = 3..12


def test_theorem3_stops_drawing_once_both_quotas_are_met(monkeypatch):
    # the draw that fills the last quota is the last classified one
    calls = [0]
    real = restrictions.classify_edge

    def counted(bv, edge="bottom"):
        calls[0] += 1
        return real(bv, edge)
    monkeypatch.setattr(restrictions, "classify_edge", counted)
    full = ("40 increasing and 40 non-monotone triples sampled, each on a random edge; "
            "every extreme sample of a non-monotone depth-12 profile at an end of its "
            "extremum bracket")
    assert verify.suite_theorem3(trials=5000).details == full
    drawn, calls[0] = calls[0], 0
    assert drawn < 5000
    assert verify.suite_theorem3(trials=drawn).details == full
    assert verify.suite_theorem3(trials=drawn - 1).details != full
    assert calls[0] == 2 * drawn - 1


def _flipped_kind(real):
    def mutant(bv, edge, depth):
        r = real(bv, edge, depth)
        return dataclasses.replace(r, kind="min" if r.kind == "max" else "max")
    return mutant


def _moved_one_cell_right(real):
    def mutant(bv, edge, depth):
        r, cell = real(bv, edge, depth), Fraction(1, 2 ** depth)
        return dataclasses.replace(r, lo=r.lo + cell, hi=r.hi + cell)
    return mutant


def _right_for_left(real):
    return lambda bv, depth, edge="bottom": real(bv, depth, "right" if edge == "left" else edge)


def _never_zero(real):
    def mutant(bv, edge, position):
        return tuple(restrictions.DerivClass.PLUS_INFINITY
                     if c is restrictions.DerivClass.ZERO else c
                     for c in real(bv, edge, position))
    return mutant


@pytest.mark.parametrize("module, name, mutate, suite, trials", [
    (restrictions, "locate_extremum", _flipped_kind, "theorem3", 200),
    (restrictions, "locate_extremum", _moved_one_cell_right, "theorem3", 200),
    (gasket, "edge_profile", _right_for_left, "theorem3", 200),
    (restrictions, "junction_derivative", _never_zero, "theorem5", 100),
], ids=["extremum-kind-flipped", "extremum-bracket-one-cell-right",
        "profile-reads-right-for-left", "junction-derivative-never-zero"])
def test_mutant_table(monkeypatch, module, name, mutate, suite, trials):
    # a fault in a result the CLI prints, or in the derivative classes, FAILs
    # the one suite whose statement it breaks
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    (result,) = verify.run_suites([suite], trials=trials)
    assert result.status == "FAIL", result


M_SUITES = ("lemma2", "lemma4", "eq16", "closedform", "theorem6")


def test_m_indexed_suites_bound_trials_times_m_max(monkeypatch):
    # each suite is replaced by a stub that keeps its signature, so the
    # admitted runs are instant; a refused run calls no suite, even the
    # unbounded lemma1 named before it
    ran = []
    for name in ("lemma1", *M_SUITES):
        @functools.wraps(verify.SUITES[name])
        def stub(name=name, **kwargs):
            ran.append((name, kwargs))
            return verify.SuiteResult(name, "PASS")
        monkeypatch.setitem(verify.SUITES, name, stub)
    results = verify.run_suites(M_SUITES, trials=5000, m_max=60)
    assert [r.name for r in results] == list(M_SUITES)
    assert ran == [(name, {"seed": 0, "trials": 5000, "m_max": 60}) for name in M_SUITES]
    ran.clear()
    for name in M_SUITES:
        with pytest.raises(ValueError, match=re.escape(
                f"suite {name} takes --trials * --m-max up to 300000, got 5001 * 60")):
            verify.run_suites(["lemma1", name], trials=5001, m_max=60)
        # the default m_max counts too
        m_max = inspect.signature(verify.SUITES[name]).parameters["m_max"].default
        with pytest.raises(ValueError, match=re.escape(f"got 300000 * {m_max}")):
            verify.run_suites([name], trials=300_000)
    assert ran == []


def test_theorem5_checks_the_premise_of_the_one_edge_scan(monkeypatch):
    # the zero scan walks only an edge whose end forms change sign; the suite
    # fails when more than one edge does, with each edge's (x, y) in integers
    passed = verify.suite_theorem5(trials=20)
    assert passed.status == "PASS"
    assert ("premise of the one-edge zero scan checked: at most one edge per triple has "
            "end forms of opposite sign; 192 planted Zero lines") in passed.details
    real = restrictions._ends

    def forged(t):
        x, y = real(t)
        return -abs(x) - 1, abs(y) + 1  # every edge changes sign
    monkeypatch.setattr(restrictions, "_ends", forged)
    result = verify.suite_theorem5(trials=20)
    assert (result.status, result.details) == (
        "FAIL", "more than one edge with end forms of opposite sign")
    ce = result.counterexample
    bv = BoundaryValues(*map(Fraction, ce["bv"].split(",")))
    assert ce == {"bv": ce["bv"], **{edge: str(forged(gasket.edge_cell(bv, edge, 1)[0]))
                                     for edge in gasket.EDGES}}
    assert all(re.fullmatch(r"\(-\d+, \d+\)", ce[edge]) for edge in gasket.EDGES)


@pytest.mark.parametrize("depth, lines", [(1, 6), (2, 12), (3, 24), (6, 192)])
def test_theorem5_plants_every_zero_line(depth, lines):
    # the three vertex lines, and 2^(d-1) junction lines per edge at each d
    result = verify.suite_theorem5(trials=5, depth=depth)
    assert result.status == "PASS"
    assert result.details.endswith(
        f"; {lines} planted Zero lines to depth {min(depth, 6)}, each with exactly its one "
        "zero, found by the scan, and at a junction with Zero classes and the extremum "
        "descent stopping there")


@pytest.mark.parametrize("depth", [1, 6, 12])
def test_theorem5_proves_every_zero_form_non_proportional(depth):
    # the 3 vertex forms and 2^d - 1 junction forms per edge
    result = verify.suite_theorem5(trials=1, depth=depth)
    assert result.status == "PASS"
    assert (f"; {3 + 3 * (2 ** depth - 1)} Zero forms to depth {depth} pairwise "
            "non-proportional; ") in result.details


def test_theorem5_names_both_proportional_zero_forms(monkeypatch):
    # the left edge read as the bottom one: left:1/2 has bottom:1/2's form
    real = gasket.bottom_cells
    monkeypatch.setattr(gasket, "bottom_cells", lambda bv, depth, edge: real(
        bv, depth, "bottom" if edge == "left" else edge))
    result = verify.suite_theorem5(trials=5)
    assert (result.status, result.details) == ("FAIL", "two Zero forms are proportional")
    ce = result.counterexample
    assert re.fullmatch(r"\(-?\d+, -?\d+, -?\d+\)", ce["first_form"])
    assert ce == {"first": "bottom:1/2", "first_form": ce["first_form"],
                  "second": "left:1/2", "second_form": ce["first_form"]}
    # every junction form 0: a constant cell
    monkeypatch.setattr(gasket, "bottom_cells", lambda bv, depth, edge: [(1, 1, 1)] * 2 ** depth)
    result = verify.suite_theorem5(trials=5)
    assert (result.status, result.details, result.counterexample) == (
        "FAIL", "a Zero form vanishes on every triple",
        {"zero": "bottom:1/2", "form": "(0, 0, 0)"})


def test_theorem5_certificates_name_the_planted_zero(monkeypatch):
    # random triples carry no zero, so each fault is seen first on a planted
    # line: p0's is (0, -3, 3), bottom:1/2's is (-6, 3, 3)
    with monkeypatch.context() as m:
        m.setattr(restrictions, "count_zero_junctions", lambda bv, depth: (0, []))
        result = verify.suite_theorem5(trials=5)
    assert (result.status, result.details, result.counterexample) == (
        "FAIL", "the zero scan does not find exactly the planted zero",
        {"bv": "0,-3,3", "planted": "p0", "zeros": ""})
    with monkeypatch.context() as m:
        m.setattr(restrictions, "junction_derivative",
                  _never_zero(restrictions.junction_derivative))
        result = verify.suite_theorem5(trials=5)
    assert (result.status, result.details, result.counterexample) == (
        "FAIL", "derivative classes at the planted zero are not Zero",
        {"bv": "-6,3,3", "planted": "bottom:1/2", "left": "PlusInfinity",
         "right": "PlusInfinity"})
    with monkeypatch.context() as m:
        m.setattr(restrictions, "locate_extremum",
                  _moved_one_cell_right(restrictions.locate_extremum))
        result = verify.suite_theorem5(trials=5)
    assert (result.status, result.details, result.counterexample) == (
        "FAIL", "the extremum descent does not stop at the planted zero",
        {"bv": "-6,3,3", "planted": "bottom:1/2", "lo": "33/64", "hi": "33/64"})


def test_certificate_renders_any_list_by_str():
    result = verify._fail("x", "m", indices=[1, 2])
    assert (result.status, result.counterexample) == ("FAIL", {"indices": "[1, 2]"})


def test_theorem4_plants_every_relation_line(monkeypatch):
    # random triples almost never satisfy a relation; the planted ones make a
    # simultaneous_monotone that tests one relation only fail
    passed = verify.suite_theorem4()
    related, unrelated = map(int, re.findall(r"(\d+) on", passed.details))
    assert passed.status == "PASS" and related >= 300 and unrelated > 0
    monkeypatch.setattr(restrictions, "simultaneous_monotone",
                        lambda bv: 2 * bv.gamma == bv.alpha + bv.beta)
    result = verify.suite_theorem4()
    assert (result.status, result.details) == (
        "FAIL", "vertex relations disagree with edge classes")


def test_eq16_reads_the_third_points_of_every_edge(monkeypatch):
    # eval_dyadic off by 10^-6 at third points only: the m = 0 entries see it
    # on the first unit triple, at 1/3 of the bottom edge, 27 f(1/3) = 5
    real = gasket.eval_dyadic
    monkeypatch.setattr(gasket, "eval_dyadic", lambda bv, pt: real(bv, pt) + (
        Fraction(1, 10 ** 6) if pt.position.denominator % 3 == 0 else 0))
    result = verify.suite_eq16(trials=3, m_max=2)
    assert_fail(result, "1,0,0", 0, 1, 5 + Fraction(27, 10 ** 6), 5)
    assert result.details == "27 f(1/3) of bottom = 5a + 15b + 7g of its corners"


def test_eq16_reads_each_edge_through_its_permutation(monkeypatch):
    # an edge_cell that reads the left edge for the right fails at the right
    # edge's 1/3 point, entry 5, first on (0, 1, 0): the right edge's apex
    # p1 is the left edge's second end
    real = gasket.edge_cell
    monkeypatch.setattr(gasket, "edge_cell", lambda bv, edge, x: real(
        bv, "left" if edge == "right" else edge, x))
    result = verify.suite_eq16(trials=3, m_max=2)
    assert_fail(result, "0,1,0", 0, 5, 7, 5)
    assert result.details == "27 f(1/3) of right = 5a + 15b + 7g of its corners"


def test_theorem4_checks_the_corner_relations(monkeypatch):
    # corner_relations with its signs flipped gives each line's relation with
    # its first coefficient negative
    real = restrictions.corner_relations
    monkeypatch.setattr(restrictions, "corner_relations", lambda bv, bound: [
        tuple(-c for c in r) for r in real(bv, bound)])
    result = verify.suite_theorem4(trials=50)
    assert (result.status, result.details) == (
        "FAIL", "corner relation is not the relation line's")
    ce = result.counterexample
    bv = BoundaryValues(*map(Fraction, ce["bv"].split(",")))
    assert ce == {"bv": ce["bv"], "relations": str([tuple(-c for c in r)
                                                    for r in real(bv, 5)]),
                  "line": str(real(bv, 5))}
    assert ce["line"] in ("[(2, -1, -1)]", "[(1, -2, 1)]", "[(1, 1, -2)]")


def test_theorem4_counts_the_non_monotone_edges(monkeypatch):
    # exactly one NonMonotone edge off the relation lines, none on them
    real = restrictions.classify_edge
    non = restrictions.MonotonicityClass.NON_MONOTONE
    monkeypatch.setattr(restrictions, "classify_edge",
                        lambda bv, edge: non if edge != "bottom" else real(bv, edge))
    monkeypatch.setattr(restrictions, "simultaneous_monotone", lambda bv: False)
    result = verify.suite_theorem4(trials=50)
    assert (result.status, result.details) == (
        "FAIL", "wrong count of NonMonotone edges: 0 on a relation line, 1 off it")
    assert result.counterexample["non_monotone"] in ("2", "3")


def test_theorem4_reads_inconclusive_with_an_empty_category(monkeypatch):
    monkeypatch.setattr(verify, "_relation_triple",
                        lambda rng, line: verify.random_nonconstant_triple(rng))
    result = verify.suite_theorem4(trials=200, seed=1)
    assert result.status == "INCONCLUSIVE"
    assert result.details.startswith("230 nonconstant triples: 0 on a relation line")


def test_theorem5_checks_the_ends_the_scan_reads(monkeypatch):
    # the zero scan reads _edge_ends on the vertex forms; forged forms that
    # leave the frame cells' premise intact fail with both pairs in integers
    real = restrictions._vertex_forms

    def forged(bv):
        v0, v1, v2 = real(bv)
        return v0 + 1, v1, v2 - 1
    monkeypatch.setattr(restrictions, "_vertex_forms", forged)
    result = verify.suite_theorem5(trials=20)
    assert (result.status, result.details) == (
        "FAIL", "vertex forms disagree with the whole-edge frame cell")
    ce = result.counterexample
    bv = BoundaryValues(*map(Fraction, ce["bv"].split(",")))
    edge = ce["edge"]
    assert ce == {"bv": ce["bv"], "edge": edge,
                  "vertex_forms": str(restrictions._edge_ends(bv, edge)),
                  "frame_cell": str(restrictions._ends(gasket.edge_cell(bv, edge, 1)[0]))}
    assert ce["vertex_forms"] != ce["frame_cell"]
    assert all(re.fullmatch(r"\(-?\d+, -?\d+\)", ce[k]) for k in ("vertex_forms", "frame_cell"))
