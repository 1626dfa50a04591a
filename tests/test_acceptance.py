"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison below is exact (Fraction or QuadExt equality); there are
no floating tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from sgharmonic import gasket, oracle, restrictions, verify
from sgharmonic.exactarith import QuadExt
from sgharmonic.gasket import (
    LEMMA2_POINTS,
    BoundaryValues,
    EdgePoint,
    edge_profile,
    eval_dyadic,
)
from sgharmonic.restrictions import MonotonicityClass

INC = MonotonicityClass.STRICTLY_INCREASING
NON = MonotonicityClass.NON_MONOTONE


def rand_rat(rng, bound=100):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_triple(rng, bound=100):
    return BoundaryValues(*(rand_rat(rng, bound) for _ in range(3)))


def rand_nonconstant(rng, bound=100):
    while True:
        bv = rand_triple(rng, bound)
        if not bv.is_constant():
            return bv


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_extension_rule_exactness():
    basis = [BoundaryValues(1, 0, 0), BoundaryValues(0, 1, 0),
             BoundaryValues(0, 0, 1)]
    rows = [gasket.extend_once(bv) for bv in basis]
    # columns of the three midpoint values over the basis = coefficient rows
    assert [r[0] for r in rows] == [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]
    assert [r[1] for r in rows] == [Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)]
    assert [r[2] for r in rows] == [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    report(1, "extension-rule exactness")


def test_criterion_02_oracle_equivalence():
    rng = random.Random(102)
    for m in range(1, 5):
        graph = oracle.build_graph(m)
        for bv in (*verify.UNIT_TRIPLES, *(rand_triple(rng) for _ in range(100))):
            solved = oracle.solve_harmonic(m, bv)
            for addr, (i, j, k) in graph.triangles[m]:
                assert (solved[i], solved[j], solved[k]) == \
                    gasket.cell_values(bv, addr).as_tuple()
    report(2, "oracle equivalence (m <= 4, unit triples and 100 triples)")


def test_criterion_03_lemma2_identity():
    rng = random.Random(103)
    for bv in (*verify.UNIT_TRIPLES, *(rand_triple(rng) for _ in range(100))):
        for m in range(1, 21):
            for which in LEMMA2_POINTS:
                x = gasket.lemma2_abscissa(m, which)
                assert gasket.closed_form_lemma2(bv, m, which) == eval_dyadic(
                    bv, EdgePoint("bottom", x))
    report(3, "closed forms vs recursion (m <= 20, unit triples and 100 triples)")


def test_criterion_04_lemma1_equivalence():
    rng = random.Random(104)
    triples = [rand_triple(rng) for _ in range(10_000)]
    for _ in range(200):
        b, g = rand_rat(rng), rand_rat(rng)
        triples.append(BoundaryValues(2 * g - b, b, g))  # saturates alpha = 2g-b
        triples.append(BoundaryValues(2 * b - g, b, g))
    for bv in triples:
        a, b, g = bv.as_tuple()
        assert restrictions.dsv_check(bv) == (
            b < g and 2 * b - g <= a <= 2 * g - b)
    report(4, "ratio conditions equivalent to inequality form (10^4 triples)")


def test_criterion_05_monotonicity_behavior():
    rng = random.Random(105)
    inc_checked = non_checked = 0
    while inc_checked < 25 or non_checked < 25:
        bv = rand_triple(rng, 30)
        cls = restrictions.classify_edge(bv, "bottom")
        if cls is INC and inc_checked < 25:
            # numerators over one positive denominator: the values' order
            prof, den = edge_profile(bv, 10)
            assert len(prof) == 1025 and den > 0
            assert all(x < y for x, y in zip(prof, prof[1:]))
            inc_checked += 1
        elif cls is NON and non_checked < 25:
            a, b, g = bv.as_tuple()
            if min(abs(a - (2 * b - g)), abs(a - (2 * g - b))) < 1 and b != g:
                continue  # keep margin >= 1 from the boundary hyperplanes
            prof, den = edge_profile(bv, 12)
            assert den > 0
            diffs = [y - x for x, y in zip(prof, prof[1:])]
            assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
            non_checked += 1
    report(5, "classification matches sampled behavior (25 + 25 triples)")


def relation_line_triple(rng, line):
    """A nonconstant triple with 2x = y + z, x its corner `line`."""
    while True:
        y, z = rand_rat(rng), rand_rat(rng)
        if y != z:
            t = [y, z]
            t.insert(line, (y + z) / 2)
            return BoundaryValues(*t)


def test_criterion_06_simultaneous_monotonicity():
    rng = random.Random(106)
    strict = (MonotonicityClass.STRICTLY_INCREASING,
              MonotonicityClass.STRICTLY_DECREASING)
    # random triples almost never satisfy a relation: then 100 on each line
    for i in range(10_300):
        bv = rand_nonconstant(rng) if i < 10_000 else relation_line_triple(rng, i % 3)
        by_edges = all(restrictions.classify_edge(bv, e) in strict
                       for e in gasket.EDGES)
        assert restrictions.simultaneous_monotone(bv) == by_edges
        assert by_edges or i < 10_000
    report(6, "vertex relations iff three-edge strictness (10^4 + 300 triples)")


def test_criterion_07_extremum_bracketing():
    rng = random.Random(107)
    cases = [BoundaryValues(5, 0, 1)]
    while len(cases) < 15:
        bv = rand_nonconstant(rng, 20)
        if restrictions.classify_edge(bv, "bottom") is NON:
            cases.append(bv)
    for bv in cases:
        prev = None
        final = None
        for depth in range(1, 11):
            res = restrictions.locate_extremum(bv, "bottom", depth)
            final = res
            if res.lo == res.hi:  # the extremum sits at a junction point
                break
            assert res.hi - res.lo == Fraction(1, 2 ** depth)
            if prev is not None:
                assert prev.lo <= res.lo and res.hi <= prev.hi
            prev = res
        prof, den = edge_profile(bv, 10)
        assert den > 0
        n = 1024
        before = [v for k, v in enumerate(prof) if Fraction(k, n) <= final.lo]
        after = [v for k, v in enumerate(prof) if Fraction(k, n) >= final.hi]
        if final.kind == "max":
            assert all(x < y for x, y in zip(before, before[1:]))
            assert all(x > y for x, y in zip(after, after[1:]))
        else:
            assert all(x > y for x, y in zip(before, before[1:]))
            assert all(x < y for x, y in zip(after, after[1:]))
    report(7, "extremum brackets halve and flanks are monotone (15 triples)")


def test_criterion_08_dominant_term_identity():
    rng = random.Random(108)
    half = Fraction(1, 2)
    for bv in (*verify.UNIT_TRIPLES, *(rand_triple(rng) for _ in range(100))):
        a, b, g = bv.as_tuple()
        f_half = eval_dyadic(bv, EdgePoint("bottom", half))
        for m in range(1, 16):
            lm = gasket.lemma2_abscissa(m, "l_m")
            quot = (eval_dyadic(bv, EdgePoint("bottom", lm)) - f_half) / (lm - half)
            assert quot == (Fraction(3, 5) * Fraction(6, 5) ** m * (g - b)
                            + Fraction(2, 5) ** m * (2 * a - 3 * b + g) / 5)
    report(8, "left-quotient dominant-term identity (m <= 15, unit triples and "
              "100 triples)")


def test_criterion_09_single_zero_junction():
    rng = random.Random(109)
    for _ in range(1000):
        bv = rand_nonconstant(rng)
        count, _ = restrictions.count_zero_junctions(bv, 6)
        assert count <= 1
    # triples saturating exactly one vertex relation
    expected_vertex = {"p0": lambda b, g: BoundaryValues((b + g) / 2, b, g),
                       "p1": lambda a, g: BoundaryValues(a, (a + g) / 2, g),
                       "p2": lambda a, b: BoundaryValues(a, b, (a + b) / 2)}
    for vertex, make in expected_vertex.items():
        for _ in range(50):
            x, y = rand_rat(rng), rand_rat(rng)
            if x == y:
                continue
            count, zeros = restrictions.count_zero_junctions(make(x, y), 6)
            assert count == 1
            assert zeros == [("vertex", vertex)]
    report(9, "at most one zero junction; relation pins the vertex (10^3 triples)")


def test_criterion_10_conserved_combination():
    rng = random.Random(110)
    for bv in (*verify.UNIT_TRIPLES, *(rand_triple(rng) for _ in range(100))):
        c = restrictions.conserved_combination(bv)
        for m in range(31):
            seq = restrictions.triangle_sequence(bv, m)
            assert 5 * seq.alpha_m + 15 * seq.beta_m + 7 * seq.gamma_m == c
    report(10, "5a+15b+7g conserved (m <= 30, unit triples and 100 triples)")


def test_criterion_11_quadratic_closed_forms():
    rng = random.Random(111)
    for bv in (*verify.UNIT_TRIPLES, *(rand_triple(rng) for _ in range(100))):
        for m in range(31):
            seq = restrictions.triangle_sequence(bv, m)
            # closed forms from the s-projector and (7 + sqrt13)^m, not the walk
            assert restrictions.gamma_closed_form(bv, m) == seq.gamma_m
            assert restrictions.beta_closed_form(bv, m) == seq.beta_m
    report(11, "Q(sqrt13) closed forms match recursion (m <= 30, unit triples and "
               "100 triples)")


def test_criterion_12_quotient_decay():
    # The quotients toward 1/3 are -3(C(4s)^m + D(4h)^m) on the left and
    # (3/2)(A(4h)^m + B(4s)^m) on the right.  While the fast term (D or A) is
    # of opposite sign to the slow one (C or B) and not yet small, the two can
    # nearly cancel, and the step ratio just past that point exceeds any
    # bound below 1, so no per-step margin holds from a fixed m.  From the
    # exact onset m0 of third_point_onset the step ratio is at most
    # (100s + 4h)/24 < 9/10; the 9/10 margin is asserted on every step that
    # starts at m >= m0, and the steps before it are printed.
    bv = BoundaryValues(0, 0, 1)
    assert restrictions.third_point_quotients(bv, 1) == (Fraction(32, 45), Fraction(38, 45))
    assert restrictions.third_point_quotients(bv, 2) == (Fraction(3472, 5625),
                                                         Fraction(776, 1125))
    # (100s + 4h)/24 with s, h = (7 +- sqrt13)/50, by parts: (728 + 96 sqrt13)/1200
    rational, root13 = Fraction(100 * 7 + 4 * 7, 50 * 24), Fraction(100 - 4, 50 * 24)
    assert (rational, root13) == (Fraction(728, 1200), Fraction(96, 1200))
    assert restrictions.THIRD_POINT_STEP_BOUND == QuadExt(rational, root13)
    assert restrictions.THIRD_POINT_STEP_BOUND == QuadExt(Fraction(91, 150), Fraction(2, 25))
    # below 9/10: (2/25) sqrt13 < 9/10 - 91/150 = 22/75 is sqrt13 < 11/3, as 13 * 9 < 121
    assert (Fraction(9, 10) - rational) / root13 == Fraction(11, 3)
    assert 13 * 3 ** 2 < 11 ** 2
    rng = random.Random(112)
    checked = 0
    passed_over = []
    violations = []
    for _ in range(100):
        bv = rand_nonconstant(rng)
        quotients = {m: restrictions.third_point_quotients(bv, m) for m in range(3, 26)}
        for at, (side, m0) in enumerate(zip(("left", "right"),
                                            restrictions.third_point_onset(bv))):
            assert m0 <= 21  # at least the steps from m = 21 on are checked
            for m in range(3, 25):
                prev, cur = abs(quotients[m][at]), abs(quotients[m + 1][at])
                step = (",".join(map(str, bv.as_tuple())), side, m, m0,
                        str(cur / prev) if prev else "inf")
                if m < m0:
                    passed_over.append(step)
                else:
                    checked += 1
                    if 10 * cur > 9 * prev:  # |q(m+1)| <= (9/10)|q(m)| violated
                        violations.append(step)
    for bv_text, side, m, m0, ratio in passed_over:
        print(f"  before onset: ({bv_text}) {side} step {m}->{m + 1} "
              f"(m0={m0}): ratio {ratio}")
    if violations:
        print(f"ACCEPTANCE 12 quotient decay toward 1/3 (ratio <= 9/10 from "
              f"onset m0): FAIL ({len(violations)} step-ratio violations, "
              f"first: {violations[0]})")
    else:
        report(12, f"quotient decay toward 1/3 (ratio <= 9/10 from onset m0, "
                   f"100 triples, {checked} steps checked, "
                   f"{len(passed_over)} before onset)")
    assert not violations


def test_criterion_13_normal_derivative():
    rng = random.Random(113)
    for _ in range(100):
        bv = rand_triple(rng)
        nd = gasket.normal_derivative(bv)
        assert nd == 2 * bv.alpha - bv.beta - bv.gamma
        for m in range(1, 11):
            assert gasket.renormalized_vertex_difference(bv, m) == nd
    for _ in range(100):
        b, g = rand_rat(rng), rand_rat(rng)
        assert gasket.normal_derivative(
            BoundaryValues((b + g) / 2, b, g)) == 0
    report(13, "renormalized vertex difference constant and equals 2a-b-g")
