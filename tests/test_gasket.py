import contextlib
import dataclasses
import fractions
import math
import pickle
import random
import re
import types
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgharmonic import gasket
from sgharmonic.cli import cli
from sgharmonic.gasket import (
    EDGES,
    LEMMA2_POINTS,
    BoundaryValues,
    EdgePoint,
    _frame_map,
    _lemma2_row,
    _word_map,
    bottom_cells,
    cell_numerators,
    cell_values,
    cell_word,
    child_numerators,
    closed_form_lemma2,
    decode_edge_point,
    edge_cell,
    edge_profile,
    eval_dyadic,
    extend_once,
    lemma2_abscissa,
    normal_derivative,
    on_edge,
    renormalized_vertex_difference,
    to_numerators,
)
from sgharmonic.restrictions import (
    DerivClass,
    conserved_combination,
    junction_derivative,
    triangle_sequence,
)


def rand_triple(rng, bound=100):
    return BoundaryValues(*(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)) for _ in range(3)))


class TestExtendOnce:
    def test_instantiation(self):
        assert extend_once(BoundaryValues(0, 0, 1)) == (
            Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
        assert extend_once(BoundaryValues(1, 0, 0)) == (
            Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))

    def test_constant(self):
        assert extend_once(BoundaryValues(1, 1, 1)) == (1, 1, 1)


class TestCellValues:
    def test_empty_address(self):
        bv = BoundaryValues(0, 0, 1)
        assert cell_values(bv, "") == bv

    def test_single_step(self):
        assert cell_values(BoundaryValues(0, 0, 1), "1").as_tuple() == (
            Fraction(1, 5), 0, Fraction(2, 5))

    def test_two_steps(self):
        assert cell_values(BoundaryValues(0, 0, 1), "12").as_tuple() == (
            Fraction(6, 25), Fraction(1, 5), Fraction(2, 5))

    def test_bad_address(self):
        with pytest.raises(ValueError):
            cell_values(BoundaryValues(0, 0, 1), "13")

    def test_composition_law(self):
        rng = random.Random(1)
        for _ in range(50):
            bv = rand_triple(rng)
            u = "".join(rng.choice("012") for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice("012") for _ in range(rng.randint(0, 4)))
            assert cell_values(bv, u + v) == cell_values(cell_values(bv, u), v)

    def test_min_max_principle(self):
        rng = random.Random(2)
        for _ in range(50):
            bv = rand_triple(rng)
            lo, hi = min(bv.as_tuple()), max(bv.as_tuple())
            addr = "".join(rng.choice("012") for _ in range(6))
            for val in cell_values(bv, addr).as_tuple():
                assert lo <= val <= hi


def step_by_step(bv, addr):
    """Reference cell triple: the midpoint rule in Fractions, one digit at a time."""
    for digit in addr:
        p12, p02, p01 = extend_once(bv)
        a, b, g = bv.as_tuple()
        bv = {"0": BoundaryValues(a, p01, p02), "1": BoundaryValues(p01, b, p12),
              "2": BoundaryValues(p02, p12, g)}[digit]
    return bv


BIG = 2 ** 200
# pairwise coprime, so a triple's common denominator is a product of them
COPRIME_DENOMINATORS = (1, 7, 11 * 13, 5 ** 9, 3 ** 40, 2 ** 61, 2 ** 61 - 1)
corners = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(COPRIME_DENOMINATORS)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def triples(draw):
    """Corner triples, some on the hyperplanes alpha = 2*beta - gamma and
    alpha = 2*gamma - beta that bound the monotone classes."""
    b, g = draw(corners), draw(corners)
    a = draw(st.one_of(corners, st.just(2 * b - g), st.just(2 * g - b)))
    return BoundaryValues(a, b, g)


constant_triples = st.builds(lambda x: BoundaryValues(x, x, x), corners)


@contextlib.contextmanager
def fraction_gcd_calls():
    """Count the gcd calls Fraction makes inside the block, by swapping the
    math module that fractions sees for one whose gcd counts."""
    counted = [0]

    def gcd(a, b):
        counted[0] += 1
        return math.gcd(a, b)

    counting_math = types.SimpleNamespace(**vars(math))
    counting_math.gcd = gcd
    saved, fractions.math = fractions.math, counting_math
    try:
        yield counted
    finally:
        fractions.math = saved


# 7-bit, 40-bit and 200-bit corners, a hyperplane triple and a constant one
GCD_TRIPLES = [
    BoundaryValues(Fraction(-93, 71), Fraction(115, 67), Fraction(-88, 101)),
    BoundaryValues(Fraction(2 ** 40 - 87, 211), Fraction(-(2 ** 39) - 5, 179), 3),
    BoundaryValues(Fraction(3 ** 126, 2 ** 200 - 1), Fraction(-(5 ** 86), 7 ** 71), 0),
    BoundaryValues(Fraction(-9, 5), Fraction(1, 5), Fraction(11, 5)),
    BoundaryValues(Fraction(7, 3), Fraction(7, 3), Fraction(7, 3)),
]


def sign_class(x):
    return {1: DerivClass.PLUS_INFINITY, -1: DerivClass.MINUS_INFINITY,
            0: DerivClass.ZERO}[(x > 0) - (x < 0)]


class TestKernelDifferential:
    @settings(deadline=None)
    @given(triples(), st.text("012", max_size=12))
    def test_cell_values_match_step_by_step(self, bv, addr):
        assert cell_values(bv, addr) == step_by_step(bv, addr)

    @settings(deadline=None)
    @given(triples(), st.sampled_from(EDGES), st.integers(0, 6))
    def test_walkers_agree_with_cell_values(self, bv, edge, m):
        t = on_edge(bv, edge)
        n = 2 ** m
        cells = [cell_values(t, cell_word(k, m)) for k in range(n)]
        den = to_numerators(t)[1] * 5 ** m
        assert bottom_cells(t, m) == [tuple(x * den for x in c.as_tuple()) for c in cells]
        assert bottom_cells(t, 0) == [to_numerators(t)[0]]
        values, pden = edge_profile(bv, m, edge)
        assert pden == den
        assert [Fraction(v, pden) for v in values] == (
            [c.beta for c in cells] + [cells[-1].gamma])
        for k in range(n + 1):
            x = Fraction(k, n)
            assert eval_dyadic(bv, EdgePoint(edge, x)) == (
                cells[k].beta if k < n else cells[-1].gamma)
            if bv.is_constant():
                with pytest.raises(ArithmeticError):
                    junction_derivative(bv, edge, x)
                continue
            # a depth-m cell at x descends from the minimal-depth one there
            left = right = None
            if k > 0:
                c = cells[k - 1]
                left = sign_class(2 * c.gamma - c.alpha - c.beta)
            if k < n:
                c = cells[k]
                right = sign_class(c.alpha + c.gamma - 2 * c.beta)
            assert junction_derivative(bv, edge, x) == (left, right)

    @settings(deadline=None)
    @given(triples())
    def test_junction_forms_match(self, bv):
        # the matching condition: at junction k of depth m, the left form
        # on cell k - 1 equals the right form on cell k
        for edge in EDGES:
            t = on_edge(bv, edge)
            for m in range(1, 9):
                cells = bottom_cells(t, m)
                for (a, b, g), (a2, b2, g2) in zip(cells, cells[1:]):
                    assert 2 * g - a - b == a2 + g2 - 2 * b2


def fold(t, addr):
    """Reference cell numerators: child_numerators one digit at a time."""
    for digit in addr:
        t = child_numerators(t, digit)
    return t


def frame_cell(bv, edge, k, m):
    """The cell cell_word(k, m) of the edge's frame: the cached bottom-edge map
    of (k, m) on the numerators in the edge's corner order."""
    rows, scale = _frame_map(k, m)
    t, den = to_numerators(bv)
    t = [t[i] for i in gasket._EDGE_PERMUTATION[edge]]
    return tuple(sum(r * x for r, x in zip(row, t)) for row in rows), den * scale


def plain_cell_word(k, m):
    """Reference cell word: the binary digits of 2^m + k after its leading 1."""
    return format(2 ** m + k, "b")[1:].translate(str.maketrans("01", "12"))


words = st.text("012", max_size=80)


@st.composite
def cells(draw):
    m = draw(st.integers(0, 80))
    return draw(st.integers(0, 2 ** m - 1)), m


class TestCaches:
    # the word maps and the bottom-edge cells' frame maps, which all three
    # edges share, are cached; a cached answer must equal the plain one, cold,
    # warm and after the cache has evicted

    @settings(deadline=None)
    @given(triples(), words)
    def test_cell_numerators_fold_child_numerators(self, bv, addr):
        t, den = to_numerators(bv)
        want = (fold(t, addr), den * 5 ** len(addr))
        assert cell_numerators(bv, addr) == want
        _word_map.cache_clear()
        assert cell_numerators(bv, addr) == want  # built on this call
        assert cell_numerators(bv, addr) == want  # read from the cache

    @settings(deadline=None, max_examples=10)
    @given(triples(), words)
    def test_word_map_bounded(self, bv, addr):
        maxsize = _word_map.cache_parameters()["maxsize"]
        filler = [cell_word(k, 11) for k in range(maxsize + 1)]
        for w in filler:
            cell_numerators(bv, w)
        assert _word_map.cache_info().currsize <= maxsize
        t, den = to_numerators(bv)
        for w in (addr, filler[0], filler[-1]):  # filler[0] was evicted
            assert cell_numerators(bv, w) == (fold(t, w), den * 5 ** len(w))

    @settings(deadline=None)
    @given(cells())
    def test_cell_word_is_plain(self, cell):
        want = plain_cell_word(*cell)
        assert cell_word(*cell) == want
        assert cell_word(*cell) == want

    @settings(deadline=None)
    @given(triples(), st.sampled_from(EDGES), cells())
    def test_frame_map_is_the_permuted_cell(self, bv, edge, cell):
        want = cell_numerators(on_edge(bv, edge), cell_word(*cell))
        _frame_map.cache_clear()
        assert frame_cell(bv, edge, *cell) == want  # built on this call
        assert frame_cell(bv, edge, *cell) == want  # read from the cache
        k, m = cell
        if k % 2:  # k/2^m is in lowest terms: edge_cell reads this very cell
            assert edge_cell(bv, edge, Fraction(k, 2 ** m))[:2] == want

    @settings(deadline=None, max_examples=10)
    @given(triples(), st.sampled_from(EDGES), cells())
    def test_frame_map_bounded(self, bv, edge, cell):
        maxsize = _frame_map.cache_parameters()["maxsize"]
        filler = [(k, 12) for k in range(maxsize + 1)]
        for key in filler:
            frame_cell(bv, edge, *key)
        assert _frame_map.cache_info().currsize <= maxsize
        for k, m in (cell, filler[0], filler[-1]):  # filler[0] was evicted
            for e in EDGES:  # one entry serves every edge
                assert frame_cell(bv, e, k, m) == cell_numerators(on_edge(bv, e),
                                                                  cell_word(k, m))

    def test_seen_words_walk_no_step(self, monkeypatch):
        # a new triple on words already seen is matrix-vector products only
        steps = [0]
        real = gasket.child_numerators

        def counted(t, digit):
            steps[0] += 1
            return real(t, digit)
        monkeypatch.setattr(gasket, "child_numerators", counted)
        pt = EdgePoint("left", Fraction(37, 64))
        _word_map.cache_clear()
        _frame_map.cache_clear()
        triangle_sequence(BoundaryValues(1, -2, 5), 30)
        eval_dyadic(BoundaryValues(1, -2, 5), pt)
        assert steps[0] == 3 * (60 + 6)  # each word built once, on three columns
        steps[0] = 0
        bv = BoundaryValues(Fraction(-3, 7), Fraction(2, 9), 4)
        seq, value = triangle_sequence(bv, 30), eval_dyadic(bv, pt)
        assert steps[0] == 0
        assert (seq.alpha_m, seq.beta_m, seq.gamma_m) == step_by_step(bv, "12" * 30).as_tuple()
        assert value == step_by_step(on_edge(bv, "left"), cell_word(37, 6)).beta


class TestEvalDyadic:
    def test_endpoints(self):
        bv = BoundaryValues(0, 0, 1)
        assert eval_dyadic(bv, EdgePoint("bottom", Fraction(0))) == 0
        assert eval_dyadic(bv, EdgePoint("bottom", Fraction(1))) == 1

    def test_midpoint(self):
        assert eval_dyadic(BoundaryValues(0, 0, 1),
                           EdgePoint("bottom", Fraction(1, 2))) == Fraction(2, 5)

    def test_quarter(self):
        assert eval_dyadic(BoundaryValues(0, 0, 1),
                           EdgePoint("bottom", Fraction(1, 4))) == Fraction(1, 5)

    def test_non_dyadic_rejected(self):
        # a sub-edge third point evaluates; any other non-dyadic point is named
        assert eval_dyadic(BoundaryValues(0, 0, 1),
                           EdgePoint("bottom", Fraction(1, 3))) == Fraction(7, 27)
        for x in (Fraction(5, 7), Fraction(1, 9)):
            with pytest.raises(ValueError, match=f"^point {x} is neither dyadic nor a "
                               "sub-edge third point$"):
                eval_dyadic(BoundaryValues(0, 0, 1), EdgePoint("bottom", x))

    def test_edge_cell_reads_the_edge_frame(self):
        rng = random.Random(18)
        places = {Fraction(0): 0, Fraction(5, 8): 0, Fraction(1, 2 ** 9): 0, Fraction(1): 1,
                  Fraction(1, 3): Fraction(1, 3), Fraction(2, 3): Fraction(2, 3),
                  Fraction(5, 12): Fraction(2, 3)}
        for _ in range(20):
            bv = rand_triple(rng)
            for edge in EDGES:
                for x, want in places.items():
                    k, m, place = decode_edge_point(x)
                    t, den, got_place = edge_cell(bv, edge, x)
                    assert den > 0 and got_place == place == want
                    assert BoundaryValues(*(Fraction(v, den) for v in t)) == (
                        cell_values(on_edge(bv, edge), cell_word(k, m)))
        # the point is decoded before the edge is read
        with pytest.raises(ValueError, match="5/7 is neither dyadic"):
            edge_cell(bv, "top", Fraction(5, 7))

    def test_every_point_matches_the_permuted_cell(self):
        # x = 1 and every (k + j/3)/2^m, m <= 6, on every edge: the left corner
        # of on_edge's cell over [k/2^m, (k+1)/2^m], its f(1/3), or the f(1/3)
        # of the mirrored cell at 2/3
        rng = random.Random(24)
        for bound in (100, 2 ** 40):
            for _ in range(4):
                bv = rand_triple(rng, bound)
                for edge in EDGES:
                    t = on_edge(bv, edge)
                    assert eval_dyadic(bv, EdgePoint(edge, Fraction(1))) == t.gamma
                    for m in range(7):
                        for k in range(2 ** m):
                            c = cell_values(t, cell_word(k, m))
                            want = (c.beta, conserved_combination(c) / 27, conserved_combination(
                                BoundaryValues(c.alpha, c.gamma, c.beta)) / 27)
                            for j in range(3):
                                x = (k + Fraction(j, 3)) / 2 ** m
                                assert eval_dyadic(bv, EdgePoint(edge, x)) == want[j]
        with pytest.raises(ValueError, match="^unknown edge 'top'$"):
            edge_cell(bv, "top", Fraction(1, 2))

    def test_shared_vertex_well_defined(self):
        # 1/2 is the gamma corner of cell "1" and the beta corner of cell "2"
        rng = random.Random(3)
        for _ in range(20):
            bv = rand_triple(rng)
            left = cell_values(bv, "1").gamma
            right = cell_values(bv, "2").beta
            assert left == right == eval_dyadic(bv, EdgePoint("bottom", Fraction(1, 2)))

    def test_other_edges_via_permutation(self):
        bv = BoundaryValues(3, -1, 7)
        # position 0 maps to the first-named endpoint of each edge
        assert eval_dyadic(bv, EdgePoint("left", Fraction(0))) == 3   # p0
        assert eval_dyadic(bv, EdgePoint("left", Fraction(1))) == -1  # p1
        assert eval_dyadic(bv, EdgePoint("right", Fraction(0))) == 3  # p0
        assert eval_dyadic(bv, EdgePoint("right", Fraction(1))) == 7  # p2
        mid = eval_dyadic(bv, EdgePoint("left", Fraction(1, 2)))
        assert mid == extend_once(bv)[2]  # f(p01)


class TestDecodeEdgePoint:
    def test_round_trip(self):
        thirds = (0, Fraction(1, 3), Fraction(2, 3))
        for m in range(7):
            for k in range(2 ** m):
                for j in range(3):
                    x = (k + Fraction(j, 3)) / 2 ** m
                    k2, m2, place = decode_edge_point(x)
                    assert (k2 + place) / 2 ** m2 == x
                    assert 0 <= k2 < 2 ** m2 and m2 <= m
                    assert place in thirds[1:] if j else place == 0
                    if not j:  # the coarsest cell that starts at x
                        assert k2 % 2 or m2 == 0
                        assert decode_edge_point(x) == (k2, m2, 0)
        assert decode_edge_point(Fraction(1)) == (0, 0, 1)

    def test_twelfth_is_third_point_of_cell_11(self):
        k, m, place = decode_edge_point(Fraction(1, 12))
        assert (cell_word(k, m), place) == ("11", Fraction(1, 3))

    @pytest.mark.parametrize("x", [Fraction(5, 7), Fraction(1, 9), Fraction(3, 2),
                                   Fraction(-1, 2)])
    def test_invalid_points_named(self, x):
        with pytest.raises(ValueError, match=re.escape(f"point {x} ")):
            decode_edge_point(x)


class TestCellWord:
    def test_examples(self):
        assert cell_word(0, 0) == ""
        assert cell_word(0, 3) == "111"
        assert cell_word(5, 3) == "212"
        assert cell_word(7, 3) == "222"

    def test_out_of_range_rejected(self):
        for k, m in ((1, 0), (8, 3), (-1, 3)):
            with pytest.raises(ValueError):
                cell_word(k, m)


class TestEdgeProfile:
    def test_matches_pointwise_eval(self):
        bv = BoundaryValues(5, 0, 1)
        for edge in EDGES:
            prof, den = edge_profile(bv, 4, edge)
            assert len(prof) == 17
            for k, val in enumerate(prof):
                assert Fraction(val, den) == eval_dyadic(
                    bv, EdgePoint(edge, Fraction(k, 16)))

    @settings(deadline=None, max_examples=40)
    @given(triples(), st.integers(0, 8))
    @example(BoundaryValues(2, -3, 7), 0)
    @example(BoundaryValues(Fraction(-9, 5), Fraction(1, 5), Fraction(11, 5)), 8)
    def test_numerators_match_eval_dyadic(self, bv, d):
        # every k/2^d, k = 0..2^d, on every edge, over one positive denominator
        for edge in EDGES:
            values, den = edge_profile(bv, d, edge)
            assert len(values) == 2 ** d + 1 and den > 0
            for k, v in enumerate(values):
                assert Fraction(v, den) == eval_dyadic(bv, EdgePoint(edge, Fraction(k, 2 ** d)))

    def test_bottom_cells_cover_profile(self):
        bv = BoundaryValues(2, -3, 5)
        cells = bottom_cells(bv, 3)
        den = to_numerators(bv)[1] * 5 ** 3
        prof, pden = edge_profile(bv, 3)
        for k, cell in enumerate(cells):
            assert Fraction(cell[1], den) == Fraction(prof[k], pden)
            assert Fraction(cell[2], den) == Fraction(prof[k + 1], pden)


class TestBottomLevel:
    # the level walk behind bottom_cells and edge_profile, against the word
    # maps: cell k at depth d of an edge is cell_word(k, d) of the triple
    # permuted into the edge's frame
    TRIPLES = [
        BoundaryValues(Fraction(-93, 71), Fraction(115, 67), Fraction(-88, 101)),
        BoundaryValues(Fraction(2 ** 40 - 87, 211), Fraction(-(2 ** 39) - 5, 179),
                       Fraction(3 ** 25, 2 ** 40 + 15)),
    ]

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("subedge_levels", [gasket._SUBEDGE_LEVELS, 2])
    def test_cells_are_the_word_map_cells(self, edge, subedge_levels, monkeypatch):
        # at 2 levels, edge_profile walks depth 8 as 32 sub-edges of 4 cells
        monkeypatch.setattr(gasket, "_SUBEDGE_LEVELS", subedge_levels)
        for bv in self.TRIPLES:
            for d in range(9):
                cells = [cell_numerators(on_edge(bv, edge), cell_word(k, d))
                         for k in range(2 ** d)]
                want, den = [t for t, _ in cells], cells[0][1]
                assert bottom_cells(bv, d, edge) == want
                assert edge_profile(bv, d, edge) == (
                    [b for _, b, _ in want] + [want[-1][2]], den)

    def test_depth_zero_is_the_whole_edge(self):
        bv = BoundaryValues(2, Fraction(-3, 2), 7)  # numerators (4, -3, 14) over 2
        assert bottom_cells(bv, 0) == [(4, -3, 14)]
        assert bottom_cells(bv, 0, "left") == [(14, 4, -3)]
        assert bottom_cells(bv, 0, "right") == [(-3, 4, 14)]
        assert edge_profile(bv, 0) == ([-3, 14], 2)
        assert edge_profile(bv, 0, "left") == ([4, -3], 2)
        assert edge_profile(bv, 0, "right") == ([4, 14], 2)

    @pytest.mark.parametrize("depth", [-1, -2, -20])
    def test_negative_depth_raises_at_the_call(self, depth):
        for edge in EDGES:
            for walk in (bottom_cells, edge_profile):
                with pytest.raises(ValueError, match=r"^depth must be >= 0$"):
                    walk(self.TRIPLES[0], depth, edge)

    def test_depth_past_the_guard_refused_before_any_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(gasket, "_bottom_level", walk)
        assert gasket.MAX_EDGE_DEPTH == 20
        for edge in EDGES:
            for fn in (bottom_cells, edge_profile):
                with pytest.raises(AssertionError, match="^walked$"):  # the guard's own depth
                    fn(self.TRIPLES[0], gasket.MAX_EDGE_DEPTH, edge)
                for depth in (21, 30, 10 ** 6):
                    with pytest.raises(ValueError, match=f"^depth {depth} exceeds guard 20$"):
                        fn(self.TRIPLES[0], depth, edge)


class TestLemma2:
    def test_half_power_m2(self):
        assert closed_form_lemma2(BoundaryValues(0, 0, 1), 2,
                                  "half_power") == Fraction(1, 5)

    def test_lm_alpha_coefficient(self):
        assert closed_form_lemma2(BoundaryValues(1, 0, 0), 2,
                                  "l_m") == Fraction(24, 125)

    def test_lm_m1_equals_quarter_point(self):
        bv = BoundaryValues(0, 0, 1)
        assert closed_form_lemma2(bv, 1, "l_m") == eval_dyadic(
            bv, EdgePoint("bottom", Fraction(1, 4)))

    def test_m_below_one_rejected(self):
        # the depth is checked before the family
        bv = BoundaryValues(0, 0, 1)
        for m, which in ((0, "half_power"), (-3, "r_m"), (0, "middle")):
            for call in (lambda: closed_form_lemma2(bv, m, which),
                         lambda: _lemma2_row(m, which)):
                with pytest.raises(ValueError, match="^m must be >= 1$") as exc:
                    call()
                assert exc.type is ValueError

    def test_unknown_family_rejected(self):
        bv = BoundaryValues(0, 0, 1)
        for call in (lambda: closed_form_lemma2(bv, 2, "middle"),
                     lambda: _lemma2_row(2, "middle"),
                     lambda: lemma2_abscissa(2, "middle")):
            with pytest.raises(ValueError, match="^unknown point family 'middle'$") as exc:
                call()
            assert exc.type is ValueError

    def test_coefficient_rows_sum_to_one(self):
        # the integer row sums to its denominator
        for m in range(1, 21):
            for which in LEMMA2_POINTS:
                row, q = _lemma2_row(m, which)
                assert sum(row) == q

    def test_coefficients_match_stated_rows(self):
        # the rows as stated for 1/2^m and l_m; the other two swap beta, gamma
        for m in range(1, 31):
            p3, p5 = 3 ** m, 5 ** m
            half = (Fraction(p3 - 1, 2 * p5), 1 - Fraction(p3, p5), Fraction(p3 + 1, 2 * p5))
            l_m = (Fraction(p5 - 1, 5 * p5), Fraction(3 * p3 + 4 * p5 + 3, 10 * p5),
                   Fraction(4 * p5 - 3 * p3 - 1, 10 * p5))
            for which, row in (("half_power", half), ("l_m", l_m),
                               ("one_minus_half_power", (half[0], half[2], half[1])),
                               ("r_m", (l_m[0], l_m[2], l_m[1]))):
                got, q = _lemma2_row(m, which)
                assert tuple(Fraction(x, q) for x in got) == row

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(triples(), constant_triples))
    def test_closed_form_is_coefficient_sum(self, bv):
        for m in range(1, 31):
            for which in LEMMA2_POINTS:
                row, q = _lemma2_row(m, which)
                assert closed_form_lemma2(bv, m, which) == sum(
                    c * x for c, x in zip(row, bv.as_tuple())) / q

    def test_matches_recursion_up_to_depth_20(self):
        rng = random.Random(4)
        for _ in range(10):
            bv = rand_triple(rng)
            for m in range(1, 21):
                for which in LEMMA2_POINTS:
                    x = lemma2_abscissa(m, which)
                    assert closed_form_lemma2(bv, m, which) == eval_dyadic(
                        bv, EdgePoint("bottom", x))


class TestNormalDerivative:
    def test_examples(self):
        assert normal_derivative(BoundaryValues(1, 0, 0)) == 2
        assert normal_derivative(BoundaryValues(1, 1, 1)) == 0
        assert normal_derivative(BoundaryValues(1, 0, 2)) == 0

    def test_renormalization_constant_in_depth(self):
        rng = random.Random(5)
        for _ in range(20):
            bv = rand_triple(rng)
            nd = normal_derivative(bv)
            for m in range(1, 11):
                assert renormalized_vertex_difference(bv, m) == nd


class TestBoundaryValues:
    def test_fraction_part_kept(self):
        parts = (Fraction(19, 27), Fraction(-17, 13), Fraction(-79, 41))
        bv = BoundaryValues(*parts)
        assert all(x is y for x, y in zip(bv.as_tuple(), parts))
        assert all(x is y for x, y in zip(on_edge(bv, "left").as_tuple(),
                                           (parts[2], parts[0], parts[1])))

    def test_other_parts_converted(self):
        class Sub(Fraction):
            pass

        bv = BoundaryValues(1, "3/4", Sub(1, 2))
        assert bv.as_tuple() == (Fraction(1), Fraction(3, 4), Fraction(1, 2))
        assert all(type(x) is Fraction for x in bv.as_tuple())

    def test_cached_numerators_are_not_state(self):
        bv = BoundaryValues(Fraction(1, 6), Fraction(-2, 9), 4)
        fresh = BoundaryValues(Fraction(1, 6), Fraction(-2, 9), 4)
        before = repr(bv), hash(bv), pickle.dumps(bv)
        assert to_numerators(bv) == ((3, -4, 72), 18)
        assert to_numerators(bv) is to_numerators(bv)  # computed once
        assert (repr(bv), hash(bv), pickle.dumps(bv)) == before
        assert repr(bv) == ("BoundaryValues(alpha=Fraction(1, 6), beta=Fraction(-2, 9), "
                            "gamma=Fraction(4, 1))")
        assert bv == fresh and hash(bv) == hash(fresh)
        assert [f.name for f in dataclasses.fields(bv)] == ["alpha", "beta", "gamma"]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(bv, protocol) == pickle.dumps(fresh, protocol)
            copy = pickle.loads(pickle.dumps(bv, protocol))
            assert copy == bv and vars(copy) == vars(fresh)
            assert to_numerators(copy) == to_numerators(bv)


class TestOnEdge:
    def test_permutations(self):
        bv = BoundaryValues(1, 2, 3)
        assert on_edge(bv, "bottom").as_tuple() == (1, 2, 3)
        assert on_edge(bv, "left").as_tuple() == (3, 1, 2)
        assert on_edge(bv, "right").as_tuple() == (2, 1, 3)

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            on_edge(BoundaryValues(1, 2, 3), "top")


class TestGcdCounts:
    # Fraction gcd calls are exact counts, so these bounds cannot flake: the
    # integer walks and closed forms form one Fraction per value they return
    def test_eval_dyadic_makes_one_fraction(self):
        for bv in GCD_TRIPLES:
            for edge in EDGES:
                for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(37, 64),
                          Fraction(2 ** 20 - 1, 2 ** 20)):
                    pt = EdgePoint(edge, x)
                    with fraction_gcd_calls() as calls:
                        eval_dyadic(bv, pt)
                    assert calls[0] == 1

    def test_lemma2_closed_form_makes_one_fraction(self):
        for bv in GCD_TRIPLES:
            for m in (1, 2, 7, 20, 30):
                for which in LEMMA2_POINTS:
                    with fraction_gcd_calls() as calls:
                        closed_form_lemma2(bv, m, which)
                    assert calls[0] == 1

    def test_edge_profile_makes_no_fraction(self):
        for bv in GCD_TRIPLES:
            for edge in EDGES:
                for depth in (0, 1, 5, 9):
                    with fraction_gcd_calls() as calls:
                        edge_profile(bv, depth, edge)
                    assert calls[0] == 0

    def test_scan_count_independent_of_depth(self):
        # what scan divides in Fractions (parsing its options) does not grow
        # with the 2^depth + 1 rows it prints
        for bv in GCD_TRIPLES:
            args = ["scan", *(f"--{name}={x}" for name, x in
                              zip(("alpha", "beta", "gamma"), bv.as_tuple()))]
            counts = []
            for depth in ("2", "12"):
                with fraction_gcd_calls() as calls:
                    assert CliRunner().invoke(cli, [*args, "--depth", depth]).exit_code == 0
                counts.append(calls[0])
            assert counts[0] == counts[1]
