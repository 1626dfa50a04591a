import random
import re
from fractions import Fraction
from itertools import count, permutations, product
from math import gcd

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import (  # shared strategies, gcd counter and reference classes
    GCD_TRIPLES,
    constant_triples,
    corners,
    fraction_gcd_calls,
    refuse_on_edge,
    sign13,
    sign_class,
    triples,
)

from sgharmonic import gasket, restrictions
from sgharmonic.exactarith import QuadExt
from sgharmonic.gasket import (
    EDGES,
    BoundaryValues,
    EdgePoint,
    bottom_cells,
    cell_values,
    cell_word,
    child_numerators,
    edge_profile,
    eval_dyadic,
    extend_once,
    on_edge,
    to_numerators,
)
from sgharmonic.restrictions import (
    THIRD_POINT_STEP_BOUND,
    VERTICES,
    DerivClass,
    ExtremumResult,
    MonotonicityClass,
    beta_closed_form,
    classify_edge,
    conserved_combination,
    corner_relations,
    count_zero_junctions,
    dsv_check,
    gamma_closed_form,
    junction_derivative,
    locate_extremum,
    simultaneous_monotone,
    third_point_onset,
    third_point_quotients,
    triangle_sequence,
)

INC = MonotonicityClass.STRICTLY_INCREASING
DEC = MonotonicityClass.STRICTLY_DECREASING
NON = MonotonicityClass.NON_MONOTONE
CONST = MonotonicityClass.CONSTANT


def rand_triple(rng, bound=100):
    return BoundaryValues(*(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)) for _ in range(3)))


def rand_nonconstant(rng, bound=100):
    while True:
        bv = rand_triple(rng, bound)
        if not bv.is_constant():
            return bv


def in_frame(edge, a, b, g):
    """The triple that on_edge maps onto (a, b, g) for this edge."""
    return next(bv for p in permutations((a, b, g))
                if on_edge(bv := BoundaryValues(*p), edge).as_tuple() == (a, b, g))


def fraction_dsv(bv, edge):
    """The midpoint-ratio test on Fractions: on_edge, then extend_once."""
    t = on_edge(bv, edge)
    mid = extend_once(t)[0]
    if not (t.beta < mid < t.gamma):
        return False
    return Fraction(1, 4) <= (t.gamma - mid) / (mid - t.beta) <= 4


class TestClassifyEdge:
    @pytest.mark.parametrize("triple,expected", [
        ((1, 0, 2), INC),
        ((5, 0, 1), NON),
        ((0, 0, 0), CONST),
        ((2, 0, 1), INC),   # boundary case alpha = 2*gamma - beta
        ((1, 2, 0), DEC),
        ((0, 0, 1), INC),
    ])
    def test_examples(self, triple, expected):
        assert classify_edge(BoundaryValues(*triple), "bottom") is expected

    def test_remark2_product_form_agrees(self):
        rng = random.Random(10)
        for _ in range(2000):
            bv = rand_nonconstant(rng)
            a, b, g = bv.as_tuple()
            d = sum(bv.as_tuple())
            strict = classify_edge(bv, "bottom") in (INC, DEC)
            assert strict == ((3 * b - d) * (3 * g - d) <= 0)

    def test_mirror_symmetry(self):
        rng = random.Random(11)
        flipped = {INC: DEC, DEC: INC, NON: NON, CONST: CONST}
        for _ in range(500):
            bv = rand_triple(rng)
            mirrored = BoundaryValues(bv.alpha, bv.gamma, bv.beta)
            assert classify_edge(mirrored, "bottom") is flipped[
                classify_edge(bv, "bottom")]


class TestDsvCheck:
    def test_examples(self):
        assert dsv_check(BoundaryValues(1, 0, 2)) is True
        assert dsv_check(BoundaryValues(5, 0, 1)) is False
        assert dsv_check(BoundaryValues(0, 0, 0)) is False

    def test_equivalent_to_inequality_form(self):
        rng = random.Random(12)
        for _ in range(2000):
            bv = rand_triple(rng)
            a, b, g = bv.as_tuple()
            assert dsv_check(bv) == (b < g and 2 * b - g <= a <= 2 * g - b)

    @settings(deadline=None)
    @given(triples(), st.sampled_from(EDGES))
    def test_matches_the_fraction_form(self, frame, edge):
        # triples() reaches the two boundary lines; in_frame puts them on each edge
        bv = in_frame(edge, *frame.as_tuple())
        assert dsv_check(bv, edge) is fraction_dsv(bv, edge)

    @pytest.mark.parametrize("edge", EDGES)
    def test_ratio_endpoints(self, edge):
        # alpha = 2 gamma - beta puts the ratio at 1/4, alpha = 2 beta - gamma at 4
        for b, g in ((Fraction(0), Fraction(1)), (Fraction(-3, 7), Fraction(2, 9)),
                     (Fraction(-(2 ** 70), 3), Fraction(5, 2 ** 61 - 1))):
            for a, ratio in ((2 * g - b, Fraction(1, 4)), (2 * b - g, 4)):
                mid = extend_once(BoundaryValues(a, b, g))[0]
                assert (g - mid) / (mid - b) == ratio
                assert dsv_check(in_frame(edge, a, b, g), edge) is True
                # the same lines with beta > gamma: decreasing, so not this test
                assert dsv_check(in_frame(edge, 2 * b - g, g, b), edge) is False
                assert dsv_check(in_frame(edge, 2 * g - b, g, b), edge) is False
            for a in (b, g, b - 1, g + 1, 2 * g - b):
                assert dsv_check(in_frame(edge, a, g, g), edge) is False


class TestSimultaneousMonotone:
    def test_examples(self):
        assert simultaneous_monotone(BoundaryValues(1, 0, 2)) is True
        assert simultaneous_monotone(BoundaryValues(0, 0, 1)) is False
        assert simultaneous_monotone(BoundaryValues(0, 1, 2)) is True

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_monotone(BoundaryValues(1, 1, 1))

    def test_agrees_with_three_edge_classification(self):
        rng = random.Random(13)
        for _ in range(2000):
            bv = rand_nonconstant(rng)
            by_edges = all(classify_edge(bv, e) in (INC, DEC)
                           for e in ("bottom", "left", "right"))
            assert simultaneous_monotone(bv) == by_edges


class TestLocateExtremum:
    def test_depth_one_example(self):
        res = locate_extremum(BoundaryValues(5, 0, 1), "bottom", 1)
        assert (res.kind, res.lo, res.hi) == ("max", Fraction(1, 2), Fraction(1))

    def test_monotone_rejected(self):
        with pytest.raises(ValueError):
            locate_extremum(BoundaryValues(1, 0, 2), "bottom", 3)

    def test_bracket_halves_and_nests(self):
        bv = BoundaryValues(5, 0, 1)
        prev = None
        for depth in range(1, 9):
            res = locate_extremum(bv, "bottom", depth)
            if res.lo == res.hi:  # the extremum sits at a junction point
                break
            assert res.hi - res.lo == Fraction(1, 2 ** depth)
            if prev is not None:
                assert prev.lo <= res.lo and res.hi <= prev.hi
            prev = res

    def test_sampling_confirms_bracket(self):
        bv = BoundaryValues(5, 0, 1)
        res = locate_extremum(bv, "bottom", 4)
        assert res.hi - res.lo == Fraction(1, 16)
        prof, den = edge_profile(bv, 8)  # numerators over den > 0: the values' order
        assert den > 0
        n = 256
        before = [v for k, v in enumerate(prof) if Fraction(k, n) <= res.lo]
        after = [v for k, v in enumerate(prof) if Fraction(k, n) >= res.hi]
        assert all(x < y for x, y in zip(before, before[1:]))
        assert all(x > y for x, y in zip(after, after[1:]))

    @settings(deadline=None)
    @given(triples(), st.integers(2, 12))
    def test_kind_from_centre(self, bv, depth):
        # a max iff alpha is above (beta + gamma)/2 on the edge; the values
        # rise into the bracket from x = 0 (or leave it toward x = 1) for a max
        for edge in EDGES:
            if classify_edge(bv, edge) is not NON:
                continue
            t = on_edge(bv, edge)
            res = locate_extremum(bv, edge, depth)
            assert res.kind == ("max" if 2 * t.alpha - t.beta - t.gamma > 0 else "min")
            if res.lo > 0:
                rises = eval_dyadic(bv, EdgePoint(edge, res.lo)) > t.beta
            else:
                rises = eval_dyadic(bv, EdgePoint(edge, res.hi)) > t.gamma
            assert res.kind == ("max" if rises else "min")

    def test_junction_extremum_symmetric_triple(self):
        # beta == gamma forces the extremum onto the midpoint by symmetry
        res = locate_extremum(BoundaryValues(5, 0, 0), "bottom", 10)
        assert res.lo == res.hi == Fraction(1, 2)
        assert res.kind == "max"

    def test_depth_past_the_guard_refused_before_any_walk(self, monkeypatch):
        assert restrictions.MAX_EXTREMUM_DEPTH == 4096
        bv = BoundaryValues(5, 0, 1)
        res = locate_extremum(bv, "bottom", restrictions.MAX_EXTREMUM_DEPTH)
        assert res.hi - res.lo == Fraction(1, 2 ** 4096)

        def ends(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(restrictions, "_edge_ends", ends)
        with pytest.raises(AssertionError, match="^walked$"):  # the guard's own depth
            locate_extremum(bv, "bottom", restrictions.MAX_EXTREMUM_DEPTH)
        for depth in (4097, 10 ** 6):
            # the depth is checked before the edge name and the monotone test
            for t, edge in ((bv, "bottom"), (bv, "top"), (BoundaryValues(1, 0, 2), "bottom")):
                with pytest.raises(ValueError, match=f"^depth {depth} exceeds guard 4096$"):
                    locate_extremum(t, edge, depth)
        with pytest.raises(ValueError, match="^depth must be >= 1$"):
            locate_extremum(bv, "bottom", 0)


class TestJunctionDerivative:
    def test_interior_monotone_increasing(self):
        left, right = junction_derivative(
            BoundaryValues(0, 0, 1), "bottom", Fraction(1, 2))
        assert left is DerivClass.PLUS_INFINITY
        assert right is DerivClass.PLUS_INFINITY

    def test_zero_at_left_endpoint(self):
        assert junction_derivative(BoundaryValues(-2, 0, 2), "bottom",
                                   Fraction(0)) == (None, DerivClass.ZERO)

    def test_infinite_at_left_endpoint(self):
        assert junction_derivative(BoundaryValues(1, 0, 2), "bottom",
                                   Fraction(0)) == (None, DerivClass.PLUS_INFINITY)

    def test_right_endpoint_one_sided(self):
        left, right = junction_derivative(
            BoundaryValues(0, 0, 1), "bottom", Fraction(1))
        assert right is None
        assert left is DerivClass.PLUS_INFINITY

    def test_non_dyadic_rejected(self):
        # sub-edge third points are decoded, and are not junctions
        for x in (Fraction(1, 3), Fraction(2, 3), Fraction(5, 12)):
            with pytest.raises(ValueError, match=f"^point {x} is not dyadic$"):
                junction_derivative(BoundaryValues(0, 0, 1), "bottom", x)
        with pytest.raises(ValueError, match="^point 5/7 is neither dyadic nor a sub-edge "
                           "third point$"):
            junction_derivative(BoundaryValues(0, 0, 1), "bottom", Fraction(5, 7))

    def test_constant_rejected(self):
        for x in (Fraction(0), Fraction(1, 2), Fraction(1)):
            with pytest.raises(ArithmeticError, match="^derivative classes are undefined "
                               "for constant functions$") as exc:
                junction_derivative(BoundaryValues(1, 1, 1), "bottom", x)
            assert exc.type is ArithmeticError

    def test_direction_matches_monotonicity_at_half(self):
        rng = random.Random(14)
        for _ in range(300):
            bv = rand_nonconstant(rng)
            cls = classify_edge(bv, "bottom")
            if cls not in (INC, DEC):
                continue
            want = DerivClass.PLUS_INFINITY if cls is INC else DerivClass.MINUS_INFINITY
            assert junction_derivative(bv, "bottom", Fraction(1, 2)) == (want, want)

    def test_classes_without_the_permuted_triple(self, monkeypatch):
        # the cell is read from bv through the edge's digit map: on_edge is
        # never called, and the classes are those of on_edge's cells
        rng = random.Random(16)
        bvs = [rand_nonconstant(rng) for _ in range(20)]
        bvs += [BoundaryValues(0, 0, 1), BoundaryValues(-2, 0, 2), BoundaryValues(1, 0, 2)]
        want = {}
        for bv in bvs:
            for edge in EDGES:
                t = on_edge(bv, edge)
                for m in range(4):
                    n = 2 ** m
                    cells = [cell_values(t, cell_word(k, m)) for k in range(n)]
                    for k in range(n + 1):
                        left = right = None
                        if k > 0:
                            c = cells[k - 1]
                            left = sign_class(2 * c.gamma - c.alpha - c.beta)
                        if k < n:
                            c = cells[k]
                            right = sign_class(c.alpha + c.gamma - 2 * c.beta)
                        want[bv, edge, Fraction(k, n)] = (left, right)

        refuse_on_edge(monkeypatch)
        assert {key: junction_derivative(*key) for key in want} == want
        with pytest.raises(ValueError, match="^unknown edge 'top'$"):
            junction_derivative(bvs[0], "top", Fraction(1, 2))
        with pytest.raises(ArithmeticError, match="^derivative classes are undefined"):
            junction_derivative(BoundaryValues(2, 2, 2), "left", Fraction(1, 2))

    def test_class_depth_invariance(self):
        # evaluating the same junction as k/2^m or 2k/2^(m+1) must agree
        rng = random.Random(15)
        for _ in range(100):
            bv = rand_nonconstant(rng)
            pos = Fraction(3, 8)
            assert junction_derivative(bv, "bottom", pos) == junction_derivative(
                bv, "bottom", Fraction(6, 16))


class TestCountZeroJunctions:
    def test_exception_at_p1(self):
        count, zeros = count_zero_junctions(BoundaryValues(-2, 0, 2), 4)
        assert count == 1
        assert zeros == [("vertex", "p1")]

    def test_no_zeros(self):
        assert count_zero_junctions(BoundaryValues(5, 0, 1), 6) == (0, [])

    def test_depth_past_the_guard_refused_before_any_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(gasket, "_bottom_level", walk)
        assert restrictions.MAX_ZERO_DEPTH == 12
        bv = BoundaryValues(0, 0, 1)  # its left edge is walked at every depth
        with pytest.raises(AssertionError, match="^walked$"):  # the guard's own depth
            count_zero_junctions(bv, restrictions.MAX_ZERO_DEPTH)
        for depth in (13, 30, 10 ** 6):
            for t in (bv, BoundaryValues(1, 1, 1)):  # the depth is checked first
                with pytest.raises(ValueError, match=f"^depth {depth} exceeds guard 12$"):
                    count_zero_junctions(t, depth)

    def test_symmetric_triple_zero_at_edge_midpoint(self):
        # alpha == beta makes the restriction to [p0, p1] symmetric about its
        # midpoint; the extremum sits there and both one-sided classes vanish
        count, zeros = count_zero_junctions(BoundaryValues(0, 0, 1), 4)
        assert count == 1
        assert zeros == [("left", Fraction(1, 2))]
        left, right = junction_derivative(
            BoundaryValues(0, 0, 1), "left", Fraction(1, 2))
        assert left is DerivClass.ZERO and right is DerivClass.ZERO

    def test_exception_at_p0(self):
        count, zeros = count_zero_junctions(BoundaryValues(1, 0, 2), 4)
        assert count == 1
        assert zeros == [("vertex", "p0")]

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            count_zero_junctions(BoundaryValues(2, 2, 2), 4)

    def test_at_most_one_zero_on_random_triples(self):
        rng = random.Random(16)
        for _ in range(200):
            count, _ = count_zero_junctions(rand_nonconstant(rng), 5)
            assert count <= 1


def zero_line_triple(edge, k, m, corners):
    """A triple on the Zero line of the right class at junction k/2^m of an
    edge, built as bench/workloads.py builds one: the form's coefficients from
    the unit triples, then the last corner with a nonzero one solved for."""
    units = [BoundaryValues(*(int(i == j) for i in range(3))) for j in range(3)]
    form = [c.alpha + c.gamma - 2 * c.beta
            for c in (cell_values(on_edge(u, edge), cell_word(k, m)) for u in units)]
    solve = max(j for j in range(3) if form[j])
    t = list(corners)
    t[solve] = -sum(form[j] * t[j] for j in range(3) if j != solve) / form[solve]
    return BoundaryValues(*t)


ZERO_LINE_TRIPLE = zero_line_triple("right", 3, 3, GCD_TRIPLES[0].as_tuple())


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def reference_zeros(bv, depth):
    """count_zero_junctions on the permuted triples and Fraction vertex tests."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if bv.is_constant():
        raise ValueError("derivative classes are undefined for constant functions")
    t = bv.as_tuple()
    zeros = [("vertex", v) for v, x in zip(VERTICES, t) if 3 * x == sum(t)]
    for edge in EDGES:
        cells = bottom_cells(on_edge(bv, edge), depth)
        zeros += [(edge, Fraction(k, 2 ** depth)) for k, (a, b, g) in enumerate(cells)
                  if k and a + g == 2 * b]
    return len(zeros), zeros


def frame_ends(bv, edge):
    """(x, y) = (a + g - 2b, 2g - a - b) of on_edge's permuted Fraction triple."""
    a, b, g = on_edge(bv, edge).as_tuple()
    return a + g - 2 * b, 2 * g - a - b


@st.composite
def zero_scan_triples(draw):
    """Nonconstant triples: free ones, ones on the Zero line of a junction
    k/2^m, m <= 8, of any edge, and ones on the Zero line 3 t_v = sum(t) of a
    vertex."""
    t = [draw(corners) for _ in range(3)]
    kind = draw(st.sampled_from(("free", "edge", "vertex")))
    if kind == "edge":
        m = draw(st.integers(1, 8))
        bv = zero_line_triple(draw(st.sampled_from(EDGES)), draw(st.integers(1, 2 ** m - 1)),
                              m, t)
    else:
        if kind == "vertex":
            v = draw(st.integers(0, 2))
            t[v] = (sum(t) - t[v]) / 2
        bv = BoundaryValues(*t)
    assume(not bv.is_constant())
    return bv


class TestOneEdgeZeroScan:
    # count_zero_junctions walks only an edge whose end forms change sign

    @settings(deadline=None)
    @given(zero_scan_triples(), st.integers(1, 8))
    def test_equals_the_three_edge_scan(self, bv, depth):
        walked = []
        real = restrictions.bottom_cells

        def walk(bv, depth, edge):
            walked.append(edge)
            return real(bv, depth, edge)
        want = reference_zeros(bv, depth)  # every edge, through bottom_cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(restrictions, "bottom_cells", walk)
            assert count_zero_junctions(bv, depth) == want
        # at most one edge is walked, and it holds every edge zero there is
        assert len(walked) <= 1
        assert {z[0] for z in want[1] if z[0] != "vertex"} <= set(walked)

    def test_walks_exactly_the_edge_whose_ends_change_sign(self, monkeypatch):
        rng = random.Random(31)
        corners3 = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
        bvs = [rand_nonconstant(rng) for _ in range(200)]
        bvs += [zero_line_triple(edge, k, 3, corners3) for edge in EDGES for k in range(1, 8)]
        vertex_zero = [BoundaryValues(*(sum(t) - t[v] if j == v else 2 * t[j]
                                        for j in range(3)))
                       for t in ((1, 0, 2), corners3, (4, -5, 9)) for v in range(3)]
        calls = counted_calls(monkeypatch, "bottom_cells")
        walks = []
        for bv in bvs + vertex_zero:
            changes = [edge for edge in EDGES
                       if (ends := frame_ends(bv, edge))[0] * ends[1] < 0]
            assert len(changes) <= 1
            calls.clear()
            count_zero_junctions(bv, 6)
            assert calls == ["bottom_cells"] * len(changes)
            walks.append(len(calls))
        # the vertex forms sum to zero: with none of them 0, two share a sign
        assert walks == [1] * len(bvs) + [0] * len(vertex_zero)


def reference_extremum(bv, edge, depth):
    if depth < 1:  # before the edge is read
        raise ValueError("depth must be >= 1")
    return locate_extremum(on_edge(bv, edge), "bottom", depth)


class TestEdgeFrame:
    # every edge analysis reads the edge's frame, from the vertex forms
    # (classify_edge, locate_extremum, the zero scan's edge choice) or from
    # gasket.edge_cell (dsv_check, edge_profile, bottom_cells): each equals the
    # bottom-edge analysis of on_edge's permuted triple, with the same errors
    # in the same order, and none calls on_edge
    def test_no_permuted_triple(self, monkeypatch):
        rng = random.Random(19)
        bvs = [rand_triple(rng) for _ in range(20)]
        b, g = Fraction(-3, 7), Fraction(2, 9)
        bvs += [in_frame(edge, a, *bg) for edge in EDGES for bg in ((b, g), (g, b))
                for a in (2 * b - g, 2 * g - b)]
        bvs += [ZERO_LINE_TRIPLE, BoundaryValues(0, 0, 1), BoundaryValues(-2, 0, 2),
                BoundaryValues(Fraction(7, 3), Fraction(7, 3), Fraction(7, 3))]
        calls = []
        for bv in bvs:
            for edge in (*EDGES, "top"):
                calls += [(classify_edge, (bv, edge), lambda bv, e: classify_edge(
                              on_edge(bv, e), "bottom")),
                          (dsv_check, (bv, edge), fraction_dsv)]
                calls += [(locate_extremum, (bv, edge, d), reference_extremum)
                          for d in (0, 1, 6, 40)]
                calls += [(edge_profile, (bv, d, edge), lambda bv, d, e: edge_profile(
                              on_edge(bv, e), d)) for d in (-1, 0, 1, 3, 7)]
                calls += [(bottom_cells, (bv, d, edge), lambda bv, d, e: bottom_cells(
                              on_edge(bv, e), d)) for d in (-1, 0, 5)]
            calls += [(count_zero_junctions, (bv, d), reference_zeros) for d in (0, 1, 4, 8)]
        want = [outcome(ref, *args) for _, args, ref in calls]
        assert (ValueError, "unknown edge 'top'") in want
        assert ((1, [("right", Fraction(3, 8))])
                == outcome(count_zero_junctions, ZERO_LINE_TRIPLE, 4))
        refuse_on_edge(monkeypatch)
        assert [outcome(f, *args) for f, args, _ in calls] == want


@st.composite
def relation_triples(draw):
    """Triples on a chosen relation n*alpha + m*beta + k*gamma = 0, n + m + k = 0,
    |n|, |m|, |k| <= 50: alpha = gamma + t*m and beta = gamma - t*n, t != 0."""
    n = draw(st.integers(-50, 50))
    m = draw(st.integers(max(-50, -50 - n), min(50, 50 - n)).filter(lambda m: n or m))
    g, t = draw(corners), draw(corners.filter(bool))
    return BoundaryValues(g + t * m, g - t * n, g)


class TestCornerRelations:
    @staticmethod
    def brute_force(bv, bound):
        box = range(-bound, bound + 1)
        return [(n, m, k) for n, m, k in product(box, box, box)
                if n + m + k == 0 and gcd(n, m, k) == 1
                and next(x for x in (n, m, k) if x) > 0
                and n * bv.alpha + m * bv.beta + k * bv.gamma == 0]

    # the last two lie on (50, -49, -1) and (51, -50, -1)
    @pytest.mark.parametrize("triple", [(-2, 0, 2), (0, 0, 1), (1, 2, 3), (5, 0, 1),
                                        (Fraction(3, 7), Fraction(-1, 2), 5),
                                        (Fraction(-348, 5), -71, -1),
                                        (Fraction(83, 11), Fraction(84, 11), 3)])
    @pytest.mark.parametrize("bound", [1, 2, 5, 50])
    def test_matches_brute_force(self, triple, bound):
        bv = BoundaryValues(*triple)
        assert corner_relations(bv, bound) == self.brute_force(bv, bound)

    @settings(deadline=None)
    @given(st.one_of(triples(), relation_triples()), st.integers(0, 12))
    def test_matches_brute_force_drawn(self, bv, bound):
        if not bv.is_constant():
            assert corner_relations(bv, bound) == self.brute_force(bv, bound)

    @given(relation_triples(), st.integers(0, 60))
    def test_relation_built_on_is_found(self, bv, bound):
        rel = corner_relations(bv, 50)
        assert len(rel) == 1
        n, m, k = rel[0]
        assert n * bv.alpha + m * bv.beta + k * bv.gamma == 0 and n + m + k == 0
        assert corner_relations(bv, bound) == (rel if bound >= max(map(abs, rel[0])) else [])

    @pytest.mark.parametrize("value", [4, Fraction(-7, 3), 0])
    def test_constant_rejected(self, value):
        with pytest.raises(ValueError):
            corner_relations(BoundaryValues(value, value, value), 5)


def bit_triple(rng, bits):
    n = 2 ** bits
    return BoundaryValues(*(Fraction(rng.randint(-n, n), rng.randint(1, n)) for _ in range(3)))


def inequality_class(a, b, g):
    """The class by classify_edge's docstring inequalities on corners (a, b, g)."""
    if a == b == g:
        return CONST
    if b < g and 2 * b - g <= a <= 2 * g - b:
        return INC
    if b > g and 2 * g - b <= a <= 2 * b - g:
        return DEC
    return NON


def reference_descent(bv, edge, depth):
    """locate_extremum over whole child triples: both children of each cell
    classified by the inequality form, into the non-monotone one or, when both
    are monotone, onto the midpoint junction."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t = to_numerators(on_edge(bv, edge))[0]
    if inequality_class(*t) is not NON:
        raise ValueError("restriction is monotone; no extremum to locate")
    a, b, g = t
    kind = "max" if 2 * a > b + g else "min"
    k = 0
    for i in range(depth):
        left, right = child_numerators(t, "1"), child_numerators(t, "2")
        classes = inequality_class(*left), inequality_class(*right)
        if classes[0] is NON:
            assert classes[1] in (INC, DEC)
            t, k = left, 2 * k
        elif classes[1] is NON:
            assert classes[0] in (INC, DEC)
            t, k = right, 2 * k + 1
        else:
            assert classes in ((INC, DEC), (DEC, INC))
            mid = Fraction(2 * k + 1, 2 ** (i + 1))
            return ExtremumResult(kind, mid, mid)
    return ExtremumResult(kind, Fraction(k, 2 ** depth), Fraction(k + 1, 2 ** depth))


def theorem4_triple(n, m, bits=40):
    """A relation triple, as relation_triples builds one, on (n, m, -n - m)."""
    g, t = Fraction(2 ** bits - 3, 7), Fraction(-(2 ** bits) - 1, 3)
    return BoundaryValues(g + t * m, g - t * n, g)


class TestEnds:
    # the two end forms decide the classes, the extremum descent and the
    # derivative classes; the child rule is what the descent rests on
    @given(st.tuples(*[st.integers(-2 ** 200, 2 ** 200)] * 3))
    def test_child_rule(self, t):
        x, y = restrictions._ends(t)
        assert restrictions._ends(child_numerators(t, "1")) == (3 * x, x + y)
        assert restrictions._ends(child_numerators(t, "2")) == (x + y, 3 * y)

    def test_descent_matches_child_triple_walk(self):
        rng = random.Random(23)
        bvs = []
        for bits in (7, 40, 200):
            bvs += [bit_triple(rng, bits) for _ in range(40)]
            bvs += [BoundaryValues(bv.alpha, bv.beta, bv.beta)  # beta = gamma
                    for bv in (bit_triple(rng, bits) for _ in range(10))]
            for _ in range(20):  # on the Zero line of a random junction
                m = rng.randint(1, 8)
                bvs.append(zero_line_triple(rng.choice(EDGES), rng.randrange(1, 2 ** m), m,
                                            bit_triple(rng, bits).as_tuple()))
        at_junction = 0
        for bv in bvs:
            for edge in (*EDGES, "top"):
                for depth in (0, 1, 6, 40, 60):
                    got = outcome(locate_extremum, bv, edge, depth)
                    assert got == outcome(reference_descent, bv, edge, depth)
                    at_junction += isinstance(got, ExtremumResult) and got.lo == got.hi
        assert at_junction > 100

    def test_no_child_triples_in_restrictions(self):
        assert not hasattr(restrictions, "child_numerators")

    @given(relation_triples())
    @example(theorem4_triple(2, -1))
    @example(theorem4_triple(-1, 2))
    @example(theorem4_triple(-1, -1))
    def test_simultaneous_monotone_is_the_relation_form(self, bv):
        a, b, g = bv.as_tuple()
        assert simultaneous_monotone(bv) == (2 * a == b + g or 2 * b == a + g or 2 * g == a + b)


class TestVertexForms:
    # v_i = 3 t_i - sum(t) over L, the corner normal derivatives: the one
    # source of every whole-edge decision
    @given(st.one_of(triples(), relation_triples(), constant_triples))
    @example(GCD_TRIPLES[2])  # 200-bit corners
    def test_forms_sum_to_zero_and_are_the_normal_derivatives(self, bv):
        v, den = restrictions._vertex_forms(bv), to_numerators(bv)[1]
        assert sum(v) == 0
        for edge in EDGES:
            k = gasket._EDGE_PERMUTATION[edge][0]  # the apex of the edge's frame
            assert Fraction(v[k], den) == gasket.normal_derivative(on_edge(bv, edge))

    @given(st.one_of(triples(), relation_triples(), constant_triples))
    @example(GCD_TRIPLES[2])
    def test_edge_ends_are_the_frame_cell_ends(self, bv):
        for edge in EDGES:
            assert (restrictions._edge_ends(bv, edge)
                    == restrictions._ends(gasket.edge_cell(bv, edge, 1)[0]))

    def test_unknown_edge(self):
        bv = GCD_TRIPLES[0]
        want = outcome(gasket.edge_cell, bv, "top", 1)
        assert want == (ValueError, "unknown edge 'top'")
        assert outcome(restrictions._edge_ends, bv, "top") == want


class TestThirdPoint:
    def test_value_examples(self):
        # f(1/3) = (5 alpha + 15 beta + 7 gamma)/27, eq. 16
        third = EdgePoint("bottom", Fraction(1, 3))
        assert eval_dyadic(BoundaryValues(0, 0, 1), third) == Fraction(7, 27)
        assert eval_dyadic(BoundaryValues(1, 1, 1), third) == 1
        assert eval_dyadic(BoundaryValues(1, 0, 0), third) == Fraction(5, 27)

    def test_triangle_sequence_one_step(self):
        bv = BoundaryValues(0, 0, 1)
        seq = triangle_sequence(bv, 1)
        assert (seq.alpha_m, seq.beta_m, seq.gamma_m) == (
            Fraction(6, 25), Fraction(1, 5), Fraction(2, 5))
        # the beta and gamma corners of cell "12" sit at 1/4 and 1/2
        assert eval_dyadic(bv, EdgePoint("bottom", Fraction(1, 4))) == seq.beta_m
        assert eval_dyadic(bv, EdgePoint("bottom", Fraction(1, 2))) == seq.gamma_m

    def test_triangle_sequence_two_steps(self):
        seq = triangle_sequence(BoundaryValues(0, 0, 1), 2)
        assert (seq.alpha_m, seq.beta_m, seq.gamma_m) == (
            Fraction(161, 625), Fraction(154, 625), Fraction(36, 125))
        assert 5 * seq.alpha_m + 15 * seq.beta_m + 7 * seq.gamma_m == 7

    def test_triangle_sequence_constant(self):
        seq = triangle_sequence(BoundaryValues(1, 1, 1), 7)
        assert (seq.alpha_m, seq.beta_m, seq.gamma_m) == (1, 1, 1)

    def test_corner_values_match_cell_descent(self):
        from sgharmonic.gasket import cell_values
        rng = random.Random(17)
        for _ in range(20):
            bv = rand_triple(rng)
            for m in range(5):
                seq = triangle_sequence(bv, m)
                cell = cell_values(bv, "12" * m)
                assert cell.as_tuple() == (seq.alpha_m, seq.beta_m, seq.gamma_m)

    def test_corner_positions_match_dyadic_eval(self):
        rng = random.Random(18)
        for _ in range(10):
            bv = rand_triple(rng)
            for m in range(1, 6):
                # 1/3 - (1/3)(1/4)^m and 1/3 + (2/3)(1/4)^m
                seq, q = triangle_sequence(bv, m), 4 ** m
                p1, p2 = Fraction(q - 1, 3 * q), Fraction(q + 2, 3 * q)
                assert p2 - p1 == Fraction(1, q)
                assert eval_dyadic(bv, EdgePoint("bottom", p1)) == seq.beta_m
                assert eval_dyadic(bv, EdgePoint("bottom", p2)) == seq.gamma_m

    def test_closed_form_examples(self):
        bv = BoundaryValues(0, 0, 1)
        assert gamma_closed_form(bv, 0) == 1
        assert gamma_closed_form(bv, 2) == Fraction(36, 125)
        assert gamma_closed_form(BoundaryValues(1, 1, 1), 5) == 1

    def test_closed_forms_match_recursion(self):
        rng = random.Random(19)
        for _ in range(15):
            bv = rand_triple(rng)
            # 255, 256 and 300 reach past the maxsize of _root13_power's cache
            for m in [*range(12), 255, 256, 300]:
                seq = triangle_sequence(bv, m)
                assert gamma_closed_form(bv, m) == seq.gamma_m
                assert beta_closed_form(bv, m) == seq.beta_m

    def test_root13_power_matches_stepwise_product(self):
        # binary powering against m single steps (x, y) -> (7x + 13y, x + 7y),
        # from a cold cache filled past its bound
        from sgharmonic.restrictions import _root13_power
        _root13_power.cache_clear()
        maxsize = _root13_power.cache_info().maxsize
        x, y = 1, 0
        for m in range(maxsize + 65):
            got = _root13_power(m)
            assert got == (x, y) and all(type(v) is int for v in got)
            x, y = 7 * x + 13 * y, x + 7 * y
        assert _root13_power.cache_info().currsize <= maxsize

    def test_closed_forms_reject_negative_m(self):
        for form in (gamma_closed_form, beta_closed_form, triangle_sequence):
            for bv in (BoundaryValues(0, 0, 1), BoundaryValues(2, 2, 2)):
                with pytest.raises(ValueError, match=f"^{re.escape('m must be >= 0')}$") as exc:
                    form(bv, -1)
                assert exc.type is ValueError

    def test_quotient_examples(self):
        bv = BoundaryValues(0, 0, 1)
        assert third_point_quotients(bv, 1) == (Fraction(32, 45), Fraction(38, 45))
        assert third_point_quotients(bv, 2) == (Fraction(3472, 5625), Fraction(776, 1125))
        assert third_point_quotients(BoundaryValues(1, 1, 1), 4) == (0, 0)

    def test_quotient_geometric_envelope(self):
        # sound form of the decay: |q_right(m)| <= (3/2)(|A|+|B|)(4s)^m and
        # 4s < 9/10 exactly, so the quotients tend to zero geometrically
        # even across transient cancellations of the two terms
        def envelope(coef, factor, m, x, y):
            # factor (|coef| + |conj coef|)(4s)^m as parts, where
            # (4s)^m = (2/25)^m (x + y sqrt13) and, for conjugates,
            # |a + b sqrt13| + |a - b sqrt13| = 2 max(|a|, |b| sqrt13)
            a, b = abs(coef.rational_part), abs(coef.root13_part)
            k = 2 * factor * Fraction(2, 25) ** m
            return (k * a * x, k * a * y) if sign13(a, -b) >= 0 else (13 * k * b * y, k * b * x)

        assert sign13(17, -4) == 1  # 4s = (28 + 4 sqrt13)/50 < 9/10: 170 > 40 sqrt13
        rng = random.Random(21)
        for _ in range(30):
            bv = rand_nonconstant(rng)
            _, den, slow_b, slow_c = restrictions._slow_pairs(bv)
            slow = [restrictions._slow_coefficient(den, pair) for pair in (slow_c, slow_b)]
            x, y = 7, 1  # (7 + sqrt13)^m
            for m in range(1, 16):
                quotients = third_point_quotients(bv, m)
                for q, coef, factor in zip(quotients, slow, (3, Fraction(3, 2))):
                    env_r, env_s = envelope(coef, factor, m, x, y)
                    assert sign13(env_r - abs(q), env_s) >= 0
                x, y = 7 * x + 13 * y, x + 7 * y

    def test_onset_bounds_every_later_step(self):
        # a triple whose two terms nearly cancel: a left step ratio of ~2.78
        # before the onset, and every step from the onset on is within the
        # exact bound (100s + 4h)/24
        bound = THIRD_POINT_STEP_BOUND
        bv = BoundaryValues(Fraction(19, 27), Fraction(-17, 13), Fraction(-79, 41))
        assert third_point_onset(bv) == (7, 8)
        assert (third_point_quotients(bv, 5)[0]
                / third_point_quotients(bv, 4)[0]) == Fraction(7187284, 2582575)
        quotients = {m: third_point_quotients(bv, m) for m in range(1, 31)}
        for side, m0 in enumerate(third_point_onset(bv)):
            for m in range(max(m0, 1), 30):
                ratio = quotients[m + 1][side] / quotients[m][side]
                assert sign13(bound.rational_part - abs(ratio), bound.root13_part) >= 0

    def test_onset_edge_cases(self):
        assert third_point_onset(BoundaryValues(1, 1, 1)) == (0, 0)

    def test_quotient_arguments_checked_before_the_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked before the arguments were checked")

        for name in ("cell_numerators", "_slow_pairs"):
            monkeypatch.setattr(restrictions, name, walk)
        for m in (0, -10 ** 6):
            with pytest.raises(ValueError, match=f"^{re.escape('m must be >= 1')}$"):
                third_point_quotients(BoundaryValues(0, 0, 1), m)

    def test_subedge_examples(self):
        # the j/3 point of the sub-edge of cell_word(k, m) is (k + j/3)/2^m
        # (1/3, 1/6 and 5/6 here)
        unit, const = BoundaryValues(0, 0, 1), BoundaryValues(1, 1, 1)
        for (k, m, j), bv, value in (((0, 0, 1), unit, Fraction(7, 27)),
                                     ((0, 1, 1), unit, Fraction(19, 135)),
                                     ((1, 1, 2), const, 1)):
            position = (k + Fraction(j, 3)) / 2 ** m
            assert eval_dyadic(bv, EdgePoint("bottom", position)) == value

    def test_subedge_quotient_decay_transfers(self):
        # sub-edge third points inherit the zero derivative at every scale:
        # the 1/3 point of cell "21", k = 2 and m = 2, is its cell's f(1/3)
        bv = BoundaryValues(4, -1, 3)
        from sgharmonic.gasket import cell_values
        position = (2 + Fraction(1, 3)) / 4
        assert eval_dyadic(bv, EdgePoint("bottom", position)) == (
            conserved_combination(cell_values(bv, "21")) / 27)


small = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 100))
third_point_triples = st.one_of(triples(), st.builds(BoundaryValues, small, small, small),
                                constant_triples)


def onset_by_mpmath(pair):
    """The onset's definition by brute force: the least m with
    |conj slow| h^m <= |slow| s^m / 25, h, s = (7 -+ sqrt13)/50, in mpmath.

    With slow = (a + b sqrt13)/D, (a, b) its integer pair from _slow_pairs
    and D = 3510L, both sides times 25 50^m D are 25|conj z| and |z| for
    z = (a + b sqrt13)(7 + sqrt13)^m, whose integers stay below 2^(bits + 5m).
    Their difference +-z -+ 25 conj z is x + y sqrt13 with integers below
    2^(bits + 5m + 5), nonzero unless slow = 0 as sqrt13 is irrational, and
    |x + y sqrt13| >= 1/(|x| + 4|y|) for such integers, so
    2 (bits + 5m + 8) + 64 bits decide each step."""
    a, b = pair
    bits = max(abs(a), abs(b)).bit_length()
    for m in count():
        with mpmath.workprec(2 * (bits + 5 * m + 8) + 64):
            root = mpmath.sqrt(13)
            if (25 * abs(a - b * root) * (7 - root) ** m
                    <= abs(a + b * root) * (7 + root) ** m):
                return m


class TestClosedFormDifferential:
    # 200-bit numerators, coprime mixed denominators, both monotonicity
    # hyperplanes, small corners (m0 from 0 to about 7) and constant triples
    @settings(deadline=None, max_examples=12)
    @given(third_point_triples)
    def test_closed_forms_match_walk(self, bv):
        c, den, _, _ = restrictions._slow_pairs(bv)
        assert Fraction(c, den) == conserved_combination(bv)
        third = Fraction(1, 3)
        for m in range(41):
            seq = triangle_sequence(bv, m)
            assert gamma_closed_form(bv, m) == seq.gamma_m
            assert beta_closed_form(bv, m) == seq.beta_m
            # the corners sit at 1/3 - (1/3)(1/4)^m and 1/3 + (2/3)(1/4)^m
            p1, p2 = third - third * Fraction(1, 4) ** m, third + 2 * third * Fraction(1, 4) ** m
            assert eval_dyadic(bv, EdgePoint("bottom", p1)) == seq.beta_m
            assert eval_dyadic(bv, EdgePoint("bottom", p2)) == seq.gamma_m

    @settings(deadline=None, max_examples=12)
    @given(third_point_triples)
    def test_quotients_match_fraction_derivation(self, bv):
        # the integer form against the quotients' definition on Fractions
        f_third = conserved_combination(bv) / 27
        for m in range(1, 41):
            seq, step = triangle_sequence(bv, m), Fraction(1, 4) ** m
            # the corners sit at 1/3 - (1/3)(1/4)^m and 1/3 + (2/3)(1/4)^m
            assert third_point_quotients(bv, m) == (
                (seq.beta_m - f_third) / (-step / 3),
                (seq.gamma_m - f_third) / (2 * step / 3))

    @settings(deadline=None, max_examples=60)
    @given(third_point_triples)
    def test_slow_pairs_match_fraction_derivation(self, bv):
        # x = (beta - c/27, gamma - c/27), y = (50K - 7)x, Px = x/2 + y sqrt13/26
        c = 5 * bv.alpha + 15 * bv.beta + 7 * bv.gamma
        xb, xg = bv.beta - c / 27, bv.gamma - c / 27
        yb, yg = xb - Fraction(6, 5) * xg, -10 * xb - xg
        num, den, slow_b, slow_c = restrictions._slow_pairs(bv)
        assert Fraction(num, den) == c
        assert restrictions._slow_coefficient(den, slow_b) == QuadExt(xg / 2, yg / 26)
        assert restrictions._slow_coefficient(den, slow_c) == QuadExt(xb / 2, yb / 26)

    @settings(deadline=None, max_examples=120)
    @given(third_point_triples)
    @example(BoundaryValues(-3, 3, -2))  # right m0 = 3; it would be 2 with 1/24
    @example(BoundaryValues(-3, 3, 2))   # right m0 = 3; it would be 4 with 1/26
    @example(BoundaryValues(-3, 1, 0))   # x_g = 0: B = -1350 sqrt13/3510, right m0 = 3
    def test_onset_is_least_m_of_the_margin(self, bv):
        _, _, slow_b, slow_c = restrictions._slow_pairs(bv)
        assert third_point_onset(bv) == (onset_by_mpmath(slow_c), onset_by_mpmath(slow_b))

    @pytest.mark.parametrize("k, left_m0, right_m0", [
        (1, 15, 16), (2, 28, 28), (3, 41, 41), (4, 53, 54),
        (5, 66, 66), (6, 78, 79), (7, 91, 91), (8, 104, 104)])
    def test_onset_where_the_terms_nearly_cancel(self, k, left_m0, right_m0):
        # c = 0, x_g = 10p and x_b = 13q - p for (649 + 180 sqrt13)^k = p + q sqrt13
        # make B = 650 (p - q sqrt13)/3510L, of size about 1/p against its
        # conjugate A, so the fast term dominates for about 12.5 k steps
        p, q = 1, 0
        for _ in range(k):
            p, q = 649 * p + 2340 * q, 180 * p + 649 * q
        xg, xb = 10 * p, 13 * q - p
        bv = BoundaryValues(Fraction(-(15 * xb + 7 * xg), 135), Fraction(xb, 27),
                            Fraction(xg, 27))
        assert conserved_combination(bv) == 0
        _, _, slow_b, slow_c = restrictions._slow_pairs(bv)
        assert third_point_onset(bv) == (left_m0, right_m0)
        assert (onset_by_mpmath(slow_c), onset_by_mpmath(slow_b)) == (left_m0, right_m0)


def counted_calls(monkeypatch, *names):
    """Wrap each named function of restrictions to record its name per call."""
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call
    for name in names:
        monkeypatch.setattr(restrictions, name, counted(name, getattr(restrictions, name)))
    return calls


class TestGcdCounts:
    # exact counts of Fraction gcd calls (see test_gasket.TestGcdCounts)
    def test_triangle_sequence_one_fraction_per_value(self):
        # three corners, and the two positions the first time an m is seen
        for bv in GCD_TRIPLES:
            for m in (0, 1, 5, 30):
                with fraction_gcd_calls() as calls:
                    triangle_sequence(bv, m)
                assert calls[0] <= 5

    def test_third_point_quotients_one_fraction(self):
        # one Fraction per side
        for bv in GCD_TRIPLES:
            for m in (1, 5, 30):
                with fraction_gcd_calls() as calls:
                    third_point_quotients(bv, m)
                assert calls[0] == 2

    def test_onset_makes_no_fraction(self):
        for bv in GCD_TRIPLES:
            with fraction_gcd_calls() as calls:
                third_point_onset(bv)
            assert calls[0] == 0

    def test_third_point_closed_forms_make_three_fractions(self):
        # two for the parts of the one slow coefficient (B or C), one for the value
        for bv in GCD_TRIPLES:
            _, den, slow_b, slow_c = restrictions._slow_pairs(bv)
            for pair in (slow_b, slow_c):
                with fraction_gcd_calls() as calls:
                    restrictions._slow_coefficient(den, pair)
                assert calls[0] == 2
            for m in (0, 1, 5, 7, 30, 60):
                for form in (gamma_closed_form, beta_closed_form):
                    with fraction_gcd_calls() as calls:
                        form(bv, m)
                    assert calls[0] == 3

    def test_each_closed_form_and_quotient_reads_slow_pairs_once(self, monkeypatch):
        calls = counted_calls(monkeypatch, "_slow_pairs")
        for bv in GCD_TRIPLES:
            for m in (0, 1, 5, 30):
                for form in (gamma_closed_form, beta_closed_form,
                             lambda bv, m: third_point_quotients(bv, m + 1),
                             lambda bv, m: third_point_onset(bv)):
                    calls.clear()
                    form(bv, m)
                    assert calls == ["_slow_pairs"]

    def test_quotient_pair_maps_the_word_once(self, monkeypatch):
        # both sides from one product with the map of "12"*m and one _slow_pairs
        calls = counted_calls(monkeypatch, "cell_numerators", "_slow_pairs")
        for bv in GCD_TRIPLES:
            for m in (1, 5, 30):
                calls.clear()
                third_point_quotients(bv, m)
                assert sorted(calls) == ["_slow_pairs", "cell_numerators"]

    def test_corner_relations_count_independent_of_bound(self):
        # one solve, whatever the bound: no candidate coefficients are tried
        for bv in GCD_TRIPLES[:-1]:  # the last one is constant
            counts = []
            for bound in (1, 50):
                with fraction_gcd_calls() as calls:
                    corner_relations(bv, bound)
                counts.append(calls[0])
            assert counts[0] == counts[1]

    def test_edge_classes_divide_nothing(self):
        for bv in GCD_TRIPLES:
            for edge in EDGES:
                for check in (classify_edge, dsv_check):
                    with fraction_gcd_calls() as calls:
                        check(bv, edge)
                    assert calls[0] == 0

    def test_zero_scan_one_fraction_per_edge_zero(self):
        # the vertex tests compare integers; each edge zero is one Fraction
        seen = set()
        for bv in [*GCD_TRIPLES[:-1], ZERO_LINE_TRIPLE]:  # the last one is constant
            for depth in (1, 5):
                with fraction_gcd_calls() as calls:
                    _, zeros = count_zero_junctions(bv, depth)
                assert calls[0] == sum(z[0] != "vertex" for z in zeros)
                seen.update(z[0] == "vertex" for z in zeros)
        assert seen == {False, True}

    def test_simultaneous_monotone_divides_nothing(self):
        rng = random.Random(29)
        bvs = [*GCD_TRIPLES[:-1], *(bit_triple(rng, 40) for _ in range(5)),
               theorem4_triple(2, -1), theorem4_triple(-1, 2), theorem4_triple(-1, -1)]
        seen = set()
        for bv in bvs:
            with fraction_gcd_calls() as calls:
                seen.add(simultaneous_monotone(bv))
            assert calls[0] == 0
        assert seen == {False, True}

    def test_junction_derivative_divides_nothing(self):
        for bv in GCD_TRIPLES[:-1]:  # the last one is constant
            for edge in EDGES:
                for x in (Fraction(0), Fraction(3, 8), Fraction(1), Fraction(1, 2 ** 20)):
                    with fraction_gcd_calls() as calls:
                        junction_derivative(bv, edge, x)
                    assert calls[0] == 0
