import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (  # shared corner strategy and gcd counter
    GCD_TRIPLES,
    fraction_gcd_calls,
    triples,
)
from sgharmonic import oracle
from sgharmonic.gasket import BoundaryValues, cell_values
from sgharmonic.oracle import (
    MAX_LEVEL,
    GasketGraph,
    _basis_solutions,
    build_graph,
    check_five_point,
    check_mean_value,
    solve_harmonic,
)
from sgharmonic.verify import UNIT_TRIPLES


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
        assert g.neighbors == ((1, 2), (0, 2), (0, 1))

    def test_vertex_counts(self):
        assert len(build_graph(1).vertices) == 6
        assert len(build_graph(3).vertices) == 42
        for m in range(MAX_LEVEL + 1):  # every midpoint is a new point
            vertices = build_graph(m).vertices
            assert len(set(vertices)) == len(vertices) == 3 * (3 ** m + 1) // 2

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
        quarter = g.vertices.index((Fraction(1, 4), Fraction(0)))
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
        values = dict(solve_harmonic(2, BoundaryValues(0, 0, 1)))
        victim = next(i for i in values if i not in g.boundary)
        values[victim] += 1
        assert not check_five_point(g, values)

    @pytest.mark.parametrize("victim", [3, 41], ids=["level-1", "level-3"])
    def test_rejects_perturbation_at_any_level(self, victim):
        # build_graph numbers vertices by the level that created them: 3..5
        # are the level-1 midpoints, 15..41 those of level 3
        g = build_graph(3)
        values = dict(solve_harmonic(3, BoundaryValues(2, -1, 4)))
        values[victim] += Fraction(1, 7)
        assert not check_five_point(g, values)

    def test_missing_vertex_rejected(self):
        g = build_graph(2)
        values = dict(solve_harmonic(2, BoundaryValues(0, 0, 1)))
        values.pop(next(iter(values)))
        with pytest.raises(ValueError):
            check_five_point(g, values)


class TestIntegerPath:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_one_fraction_per_vertex_and_none_in_the_checks(self, m):
        g = build_graph(m)
        solve_harmonic(m, GCD_TRIPLES[0])  # warm the level's cached basis
        for bv in GCD_TRIPLES:
            # the solve and both checks stay in integers; each read makes one Fraction
            with fraction_gcd_calls() as calls:
                values = solve_harmonic(m, bv)
                assert check_five_point(g, values)
                assert check_mean_value(g, values)
            assert calls[0] == 0
            for v in (0, len(g.vertices) - 1, 3, 3):  # a read is not kept
                with fraction_gcd_calls() as calls:
                    assert isinstance(values[v], Fraction)
                assert calls[0] == 1
            with fraction_gcd_calls() as calls:
                list(values.values())
            assert calls[0] == len(g.vertices)

    @pytest.mark.parametrize("m", range(1, MAX_LEVEL + 1))
    def test_elimination_makes_no_fraction(self, m):
        build_graph(m)
        _basis_solutions.cache_clear()
        with fraction_gcd_calls() as calls:
            _basis_solutions(m)
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
        values = dict(solve_harmonic(3, BoundaryValues(4, Fraction(1, 3), Fraction(-2, 7))))
        assert len({x.denominator for x in values.values()}) > 1
        values[0] = 4  # corner p0 as an int among Fractions
        assert check_five_point(g, values) and check_mean_value(g, values)


BV = BoundaryValues(Fraction(19, 27), Fraction(-17, 13), Fraction(-79, 41))


class TestSolutionMapping:
    """solve_harmonic returns a read-only mapping equal to the dict of its values."""

    @pytest.mark.parametrize("m", range(1, MAX_LEVEL + 1))
    def test_equals_the_basis_rows_in_fractions(self, m):
        den, rows = _basis_solutions(m)
        ref = {v: sum(c * x for c, x in zip(row, BV.as_tuple())) / den
               for v, row in enumerate(rows)}
        values = solve_harmonic(m, BV)
        assert values == ref and ref == values
        assert len(values) == len(ref) == len(build_graph(m).vertices)
        assert list(values) == list(ref)
        assert repr(values) == repr(ref)

    def test_keys_outside_the_vertices_raise_key_error(self):
        values = solve_harmonic(2, BV)
        for key in (-1, len(values), "0"):
            with pytest.raises(KeyError):
                values[key]
        assert -1 not in values
        ref = dict(values)
        for key in (-1, 0, 3, len(values) - 1, len(values), "0", None, 1.5, 3.0, True):
            assert (key in values) == (key in ref)
            assert values.get(key) == ref.get(key)

    def test_read_only(self):
        values = solve_harmonic(2, BV)
        with pytest.raises(TypeError):
            values[3] = Fraction(0)
        with pytest.raises(TypeError):
            del values[3]
        assert values == solve_harmonic(2, BV)


class TestCheckersOnEveryPath:
    """A solve checked on its own level's graph is read as held; any other
    input goes through the generic path, and both give one answer."""

    @staticmethod
    def answers(graph, values):
        return check_five_point(graph, values), check_mean_value(graph, values)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("graph_level", ["same", "coarser"])
    def test_solution_and_its_dict_agree(self, m, graph_level):
        # the first vertices of level m are those of level m - 1, where the
        # level-m solution is harmonic too
        graph = build_graph(m if graph_level == "same" else m - 1)
        solved = solve_harmonic(m, BV)
        assert self.answers(graph, solved) == self.answers(graph, dict(solved)) == (True, True)
        for victim in (3, len(graph.vertices) - 1):
            perturbed = dict(solved)
            perturbed[victim] += Fraction(1, 10 ** 40)
            assert self.answers(graph, perturbed) == (False, False)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_coarser_solution_misses_the_finest_vertices(self, m):
        graph = build_graph(m)
        solved = solve_harmonic(m - 1, BV)
        first = len(solved)  # the first vertex made at level m
        for values in (solved, dict(solved)):
            for check in (check_five_point, check_mean_value):
                with pytest.raises(ValueError, match=rf"^values missing for vertices "
                                                     rf"\[{first}, {first + 1}, "):
                    check(graph, values)


# sha256 of each level's graph fields and (D, rows) as computed in Fraction
# arithmetic: the integer graph and elimination change no coordinate, vertex
# number or coefficient.  Levels 7 and 8 are from the two-pass build that kept
# coordinate triangles, so the one-pass build is pinned at every level it accepts
GOLDEN_LEVELS = {
    0: "778e18c5c1b2483a39e4192c45c26997902e78d10c3210315ebf4c148db9fe30",
    1: "e1c993df6111a7b76251decb370ab00b911ce76efbe509100462b841160cc065",
    2: "35bbc4342a68ca30c578907ad1a1989d3af78884c5c405507637fd55db89a353",
    3: "038cdde58e6bdc518d5b327815e0482a0033d9910fbd81c966c92c20dcaad64c",
    4: "7c0672ac16eb40ab4d4531f1983a6c10d10c47bf34f4b3d4f21afc4d914e6629",
    5: "dc67139c42f2872dc110a694b9606a65324ee1968466e240fe82d2e895712f47",
    6: "cb513839312a6aafc8305cf4713eb3b5ca2a2094483465a66a95b6357e35df01",
    7: "70ccfd253e4a2d52eaa42248e89b0712c56bd40cf9a7bc6c3506593edd697b74",
    8: "2de1d84b328233970bbb97a13b04c6efe4bfa948b4b4bc06c30ea79926c6a292",
}


def dense_solve(graph):
    """The level's harmonic values on the unit triples, by Gauss-Jordan on the
    whole mean-value system in Fractions, in vertex order: one row per
    vertex, boundary vertices pinned, three right-hand sides."""
    n = len(graph.vertices)
    system = []
    for v in range(n):
        row = [Fraction(0)] * (n + 3)
        if v in graph.boundary:
            row[v] = row[n + graph.boundary.index(v)] = Fraction(1)
        else:
            row[v] = Fraction(4)
            for u in graph.neighbors[v]:
                row[u] -= 1
        system.append(row)
    for col in range(n):
        piv = next(r for r in range(col, n) if system[r][col] != 0)
        system[col], system[piv] = system[piv], system[col]
        lead = system[col][col]
        system[col] = [x / lead for x in system[col]]
        for r in range(n):
            if r != col and system[r][col] != 0:
                f = system[r][col]
                system[r] = [x - f * y for x, y in zip(system[r], system[col])]
    return [tuple(row[n:]) for row in system]


def level_digest(m):
    g = build_graph(m)
    digest = hashlib.sha256()
    digest.update(repr((g.vertices, g.triangles, g.boundary, g.neighbors)).encode())
    digest.update(repr(_basis_solutions(m)).encode())
    return digest.hexdigest()


class TestBasisSolutions:
    @pytest.mark.parametrize("m", sorted(GOLDEN_LEVELS))
    def test_golden_graph_and_rows(self, m):
        assert level_digest(m) == GOLDEN_LEVELS[m]

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_dense_gauss_jordan(self, m):
        den, rows = _basis_solutions(m)
        assert [tuple(Fraction(c, den) for c in row) for row in rows] == \
            dense_solve(build_graph(m))

    @pytest.mark.parametrize("m", range(1, MAX_LEVEL + 1))
    def test_unit_triples_pass_both_checks(self, m):
        g = build_graph(m)
        for bv in UNIT_TRIPLES:
            values = solve_harmonic(m, bv)
            assert check_mean_value(g, values) and check_five_point(g, values)

    def test_singular_system_raises(self, monkeypatch):
        # no gasket graph is singular, so a fake one: three boundary vertices
        # with no edges and five interior ones forming K5, whose system
        # 4*x_v = the sum of the other four is 5I - J, singular
        k5 = tuple(tuple(u for u in range(3, 8) if u != v) for v in range(3, 8))
        fake = GasketGraph(1, (None,) * 8, {}, (0, 1, 2), ((),) * 3 + k5)
        monkeypatch.setattr(oracle, "build_graph", lambda m: fake)
        with pytest.raises(ArithmeticError, match="^singular harmonicity system$"):
            _basis_solutions.__wrapped__(1)  # uncached: the level's real rows stay
        monkeypatch.undo()
        for m in (0, 1):
            assert level_digest(m) == GOLDEN_LEVELS[m]

    def test_denominator_grows_at_each_vertex_that_needs_it(self, monkeypatch):
        # each gasket level grows D once, by 5, so a fake graph on level 0's
        # boundary: the chain p0 - 3 - 4 - p1, where vertex 3 is 4/15 p0 +
        # 1/15 p1, and vertex 5 joined to p2 alone, a quarter of it.  D grows
        # 1 -> 15 at vertex 3 and 15 -> 60 at vertex 5, where the rows of
        # vertices 3 and 4, solved over 15, are put over 60
        nbrs = ((3,), (4,), (5,), (0, 4), (1, 3), (2,))
        fake = GasketGraph(1, (None,) * 6, {}, (0, 1, 2), nbrs)
        monkeypatch.setattr(oracle, "build_graph", lambda m: fake)
        den, rows = _basis_solutions.__wrapped__(1)  # uncached: the level's real rows stay
        assert den == 60
        assert [tuple(Fraction(c, den) for c in row) for row in rows] == dense_solve(fake)

    @pytest.mark.parametrize("m", [2, 5, MAX_LEVEL])
    def test_coarse_rows_are_checked(self, m, monkeypatch):
        # vertex 3, the first interior one, with one coefficient off in level
        # m - 1's rows: the new vertices are solved from it, and its own
        # level-m equation is the first to fail
        den, rows = _basis_solutions(m - 1)
        (c0, c1, c2), off = rows[3], list(rows)
        off[3] = (c0 + 1, c1, c2)
        monkeypatch.setattr(oracle, "_basis_solutions", lambda k: (den, tuple(off)))
        with pytest.raises(AssertionError, match=rf"^vertex 3 breaks its level-{m} "
                                                 "mean-value equation"):
            _basis_solutions.__wrapped__(m)  # uncached, as the level's real rows are

    def test_level_above_the_guard_solves_no_level(self):
        _basis_solutions.cache_clear()
        with pytest.raises(ValueError, match=f"^level {MAX_LEVEL + 1} exceeds guard"):
            solve_harmonic(MAX_LEVEL + 1, BV)
        assert _basis_solutions.cache_info().currsize == 0

    @pytest.mark.parametrize("m", [0, 1, 4, MAX_LEVEL])
    def test_each_level_solved_once_from_the_one_below(self, m):
        _basis_solutions.cache_clear()
        _basis_solutions(m)
        info = _basis_solutions.cache_info()
        assert (info.currsize, info.misses, info.hits) == (m + 1, m + 1, 0)
        for k in range(m + 1):  # levels 0..m are the ones cached
            _basis_solutions(k)
        info = _basis_solutions.cache_info()
        assert (info.currsize, info.misses, info.hits) == (m + 1, m + 1, m + 1)


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
            values = dict(solve_harmonic(m, BoundaryValues(2, -1, 4)))
            values[victim] += Fraction(1, 10 ** 40)
            assert not check_mean_value(g, values)

    def test_missing_vertex_rejected(self):
        g = build_graph(2)
        values = dict(solve_harmonic(2, BoundaryValues(0, 0, 1)))
        values.pop(len(g.vertices) - 1)
        with pytest.raises(ValueError):
            check_mean_value(g, values)
