import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gasket import triples  # the kernel test's corner strategy

from sgharmonic.gasket import BoundaryValues, cell_values
from sgharmonic.oracle import build_graph, check_five_point, solve_harmonic


def rand_triple(rng, bound=100):
    return BoundaryValues(*(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)) for _ in range(3)))


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
        # values assembled purely from the midpoint extension rule
        g = build_graph(3)
        bv = BoundaryValues(2, -1, 4)
        values = {}
        for addr, (i, j, k) in g.triangles[3]:
            t = cell_values(bv, addr)
            values[i], values[j], values[k] = t.alpha, t.beta, t.gamma
        assert check_five_point(g, values)

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
