import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgharmonic.gasket import (
    EDGES,
    LEMMA2_POINTS,
    BoundaryValues,
    EdgePoint,
    bottom_cells,
    cell_values,
    cell_word,
    closed_form_lemma2,
    edge_profile,
    eval_dyadic,
    extend_once,
    lemma2_abscissa,
    lemma2_coefficients,
    normal_derivative,
    on_edge,
    renormalized_vertex_difference,
)
from sgharmonic.restrictions import DerivClass, junction_derivative


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


def sign_class(x):
    return {1: DerivClass.PLUS_INFINITY, -1: DerivClass.MINUS_INFINITY,
            0: DerivClass.ZERO}[(x > 0) - (x < 0)]


class TestKernelDifferential:
    @settings(deadline=None)
    @given(triples(), st.text("012", max_size=12))
    def test_cell_values_match_step_by_step(self, bv, addr):
        assert cell_values(bv, addr) == step_by_step(bv, addr)

    @settings(deadline=None)
    @given(triples(), st.sampled_from(EDGES), st.integers(0, 4))
    def test_walkers_agree_with_cell_values(self, bv, edge, m):
        t = on_edge(bv, edge)
        n = 2 ** m
        cells = [cell_values(t, cell_word(k, m)) for k in range(n)]
        assert bottom_cells(t, m) == cells
        assert edge_profile(bv, m, edge) == [c.beta for c in cells] + [cells[-1].gamma]
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
        with pytest.raises(ValueError):
            eval_dyadic(BoundaryValues(0, 0, 1), EdgePoint("bottom", Fraction(1, 3)))

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
            prof = edge_profile(bv, 4, edge)
            assert len(prof) == 17
            for k, val in enumerate(prof):
                assert val == eval_dyadic(bv, EdgePoint(edge, Fraction(k, 16)))

    def test_bottom_cells_cover_profile(self):
        bv = BoundaryValues(2, -3, 5)
        cells = bottom_cells(bv, 3)
        prof = edge_profile(bv, 3)
        for k, cell in enumerate(cells):
            assert cell.beta == prof[k]
            assert cell.gamma == prof[k + 1]


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
        with pytest.raises(ValueError):
            closed_form_lemma2(BoundaryValues(0, 0, 1), 0, "half_power")

    def test_coefficient_rows_sum_to_one(self):
        for m in range(1, 21):
            for which in LEMMA2_POINTS:
                assert sum(lemma2_coefficients(m, which)) == 1

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


class TestOnEdge:
    def test_permutations(self):
        bv = BoundaryValues(1, 2, 3)
        assert on_edge(bv, "bottom").as_tuple() == (1, 2, 3)
        assert on_edge(bv, "left").as_tuple() == (3, 1, 2)
        assert on_edge(bv, "right").as_tuple() == (2, 1, 3)

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            on_edge(BoundaryValues(1, 2, 3), "top")
