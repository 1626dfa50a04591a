import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gasket import (  # the kernel test's corner strategy and gcd counter
    GCD_TRIPLES,
    fraction_gcd_calls,
    triples,
)

from sgharmonic.gasket import BoundaryValues, cell_values
from sgharmonic.oracle import (
    build_graph,
    check_five_point,
    check_mean_value,
    solve_harmonic,
)


def rand_triple(rng, bound=100):
    return BoundaryValues(*(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)) for _ in range(3)))


def extension_values(graph, bv):
    """An assignment built purely from the midpoint extension rule."""
    values = {}
    for addr, corners in graph.triangles[graph.level]:
        values.update(zip(corners, cell_values(bv, addr).as_tuple()))
    return values


class TestBuildGraph:
    def test_level_zero(self):
        g = build_graph(0)
        assert len(g.vertices) == 3
        assert len(g.triangles[0]) == 1

    def test_vertex_counts(self):
        assert len(build_graph(1).vertices) == 6
        assert len(build_graph(3).vertices) == 42

    def test_interior_degree_four(self):
        g = build_graph(3)
        for i, ns in enumerate(g.neighbors):
            assert len(ns) == (2 if i in g.boundary else 4)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            build_graph(9)
        with pytest.raises(ValueError):
            build_graph(-1)


class TestSolveHarmonic:
    def test_level_one_midpoints(self):
        g = build_graph(1)
        sol = solve_harmonic(1, BoundaryValues(0, 0, 1))
        interior = sorted(sol[i] for i in range(6) if i not in g.boundary)
        assert interior == [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]

    def test_level_two_quarter_point(self):
        g = build_graph(2)
        sol = solve_harmonic(2, BoundaryValues(0, 0, 1))
        quarter = g.index[(Fraction(1, 4), Fraction(0))]
        assert sol[quarter] == Fraction(1, 5)

    def test_constant(self):
        sol = solve_harmonic(1, BoundaryValues(1, 1, 1))
        assert set(sol.values()) == {Fraction(1)}

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_harmonic(0, BoundaryValues(0, 0, 1))

    def test_maximum_principle(self):
        rng = random.Random(30)
        for _ in range(10):
            bv = rand_triple(rng)
            sol = solve_harmonic(3, bv)
            lo, hi = min(bv.as_tuple()), max(bv.as_tuple())
            assert all(lo <= v <= hi for v in sol.values())

    def test_linearity(self):
        rng = random.Random(31)
        for _ in range(5):
            bv1, bv2 = rand_triple(rng), rand_triple(rng)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            combined = BoundaryValues(a * bv1.alpha + bv2.alpha,
                                      a * bv1.beta + bv2.beta,
                                      a * bv1.gamma + bv2.gamma)
            s1 = solve_harmonic(2, bv1)
            s2 = solve_harmonic(2, bv2)
            sc = solve_harmonic(2, combined)
            assert all(sc[i] == a * s1[i] + s2[i] for i in sc)

    def test_agrees_with_cell_addressing(self):
        rng = random.Random(32)
        for m in (1, 2, 3):
            g = build_graph(m)
            for _ in range(5):
                bv = rand_triple(rng)
                sol = solve_harmonic(m, bv)
                for addr, (i, j, k) in g.triangles[m]:
                    assert (sol[i], sol[j], sol[k]) == cell_values(bv, addr).as_tuple()

    # 200-bit numerators, coprime mixed denominators, both monotonicity hyperplanes
    @settings(deadline=None)
    @given(triples(), st.integers(1, 4))
    def test_matches_cell_values_on_every_cell(self, bv, m):
        sol = solve_harmonic(m, bv)
        for addr, corners in build_graph(m).triangles[m]:
            assert tuple(sol[v] for v in corners) == cell_values(bv, addr).as_tuple()

    def test_level_six_every_cell(self):
        bv = BoundaryValues(Fraction(19, 27), Fraction(-17, 13), Fraction(-79, 41))
        g = build_graph(6)
        sol = solve_harmonic(6, bv)
        assert len(g.triangles[6]) == 729
        for addr, corners in g.triangles[6]:
            assert tuple(sol[v] for v in corners) == cell_values(bv, addr).as_tuple()


class TestCheckFivePoint:
    def test_accepts_solver_output(self):
        g = build_graph(3)
        assert check_five_point(g, solve_harmonic(3, BoundaryValues(0, 0, 1)))

    def test_accepts_extension_values(self):
        g = build_graph(3)
        assert check_five_point(g, extension_values(g, BoundaryValues(2, -1, 4)))

    def test_rejects_perturbation(self):
        g = build_graph(2)
        values = solve_harmonic(2, BoundaryValues(0, 0, 1))
        victim = next(i for i in values if i not in g.boundary)
        values[victim] += 1
        assert not check_five_point(g, values)

    @pytest.mark.parametrize("victim", [3, 41], ids=["level-1", "level-3"])
    def test_rejects_perturbation_at_any_level(self, victim):
        # build_graph numbers vertices by the level that created them: 3..5
        # are the level-1 midpoints, 15..41 those of level 3
        g = build_graph(3)
        values = solve_harmonic(3, BoundaryValues(2, -1, 4))
        values[victim] += Fraction(1, 7)
        assert not check_five_point(g, values)

    def test_missing_vertex_rejected(self):
        g = build_graph(2)
        values = solve_harmonic(2, BoundaryValues(0, 0, 1))
        values.pop(next(iter(values)))
        with pytest.raises(ValueError):
            check_five_point(g, values)


class TestIntegerPath:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_one_fraction_per_vertex_and_none_in_the_checks(self, m):
        g = build_graph(m)
        solve_harmonic(m, GCD_TRIPLES[0])  # warm the level's cached basis
        for bv in GCD_TRIPLES:
            with fraction_gcd_calls() as calls:
                values = solve_harmonic(m, bv)
            assert calls[0] == len(g.vertices)
            with fraction_gcd_calls() as calls:
                assert check_five_point(g, values)
                assert check_mean_value(g, values)
            assert calls[0] == 0

    def test_checks_accept_int_values(self):
        # (0, 0, 25) has integer values at level 2, whose basis is over 25
        g = build_graph(2)
        values = {v: int(x) for v, x in solve_harmonic(2, BoundaryValues(0, 0, 25)).items()}
        assert all(type(x) is int for x in values.values())
        assert check_five_point(g, values) and check_mean_value(g, values)
        values[7] += 1
        assert not check_five_point(g, values) and not check_mean_value(g, values)

    def test_checks_accept_mixed_denominators(self):
        g = build_graph(3)
        values = solve_harmonic(3, BoundaryValues(4, Fraction(1, 3), Fraction(-2, 7)))
        assert len({x.denominator for x in values.values()}) > 1
        values[0] = 4  # corner p0 as an int among Fractions
        assert check_five_point(g, values) and check_mean_value(g, values)


class TestCheckMeanValue:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_accepts_solver_and_extension_values(self, m):
        g = build_graph(m)
        bv = BoundaryValues(Fraction(19, 27), Fraction(-17, 13), Fraction(-79, 41))
        assert check_mean_value(g, solve_harmonic(m, bv))
        assert check_mean_value(g, extension_values(g, bv))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_rejects_tiny_perturbation(self, m):
        # the first midpoint and the last vertex, made at level 1 and level m
        g = build_graph(m)
        for victim in (3, len(g.vertices) - 1):
            values = solve_harmonic(m, BoundaryValues(2, -1, 4))
            values[victim] += Fraction(1, 10 ** 40)
            assert not check_mean_value(g, values)

    def test_missing_vertex_rejected(self):
        g = build_graph(2)
        values = solve_harmonic(2, BoundaryValues(0, 0, 1))
        values.pop(len(g.vertices) - 1)
        with pytest.raises(ValueError):
            check_mean_value(g, values)
