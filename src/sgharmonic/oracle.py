"""Independent verification path: the level-m graph and its exact linear solve.

Vertices carry exact rational coordinates (u, v) in the affine frame
p1 = (0,0), p2 = (1,0), p0 = (0,1).  A function is harmonic on the level-m
graph iff every interior vertex equals the mean of its four neighbors, a
system solved by exact sparse elimination, finest vertices first, that never
uses the extension rule.  The elimination is cached per level as integer
rows over one denominator, so a warm solve is one integer dot product, and
one Fraction, per vertex.  Two checkers test an assignment on integer
numerators over one denominator: the mean-value equation at every interior
vertex, and the five-point relation per minimal triangle, kept apart from
the solve so the two formulations cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .gasket import BoundaryValues

Point = tuple[Fraction, Fraction]

MAX_LEVEL = 8  # 9843 vertices; guard against accidental blowup


@dataclass(frozen=True)
class GasketGraph:
    level: int
    vertices: tuple[Point, ...]
    index: dict
    # level -> tuple of (cell address, (apex, left, right) vertex indices).
    # Triangle p = (i, j, k) of a level has children 3p, 3p+1, 3p+2 on the
    # next: (i, m_ij, m_ik), (m_ij, j, m_jk), (m_ik, m_jk, k), m the midpoints.
    triangles: dict
    boundary: tuple[int, int, int]
    neighbors: tuple[tuple[int, ...], ...]


def _midpoint(p: Point, q: Point) -> Point:
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


@lru_cache(maxsize=None)
def build_graph(m: int) -> GasketGraph:
    """Exact level-m graph with per-level triangle incidence."""
    if m < 0:
        raise ValueError("level must be >= 0")
    if m > MAX_LEVEL:
        raise ValueError(f"level {m} exceeds guard {MAX_LEVEL}")
    p0: Point = (Fraction(0), Fraction(1))
    p1: Point = (Fraction(0), Fraction(0))
    p2: Point = (Fraction(1), Fraction(0))
    tris_by_level: dict[int, list[tuple[str, tuple[Point, Point, Point]]]] = {
        0: [("", (p0, p1, p2))]
    }
    for lvl in range(1, m + 1):
        nxt = []
        for addr, (a, b, c) in tris_by_level[lvl - 1]:
            mab, mac, mbc = _midpoint(a, b), _midpoint(a, c), _midpoint(b, c)
            nxt.append((addr + "0", (a, mab, mac)))
            nxt.append((addr + "1", (mab, b, mbc)))
            nxt.append((addr + "2", (mac, mbc, c)))
        tris_by_level[lvl] = nxt

    index: dict[Point, int] = {}
    vertices: list[Point] = []

    def idx(p: Point) -> int:
        i = index.get(p)
        if i is None:
            i = len(vertices)
            index[p] = i
            vertices.append(p)
        return i

    for corner in (p0, p1, p2):
        idx(corner)
    triangles = {}
    for lvl, tris in tris_by_level.items():
        triangles[lvl] = tuple(
            (addr, (idx(a), idx(b), idx(c))) for addr, (a, b, c) in tris
        )

    expected = 3 * (3 ** m + 1) // 2
    if len(vertices) != expected:
        raise AssertionError(f"vertex count {len(vertices)} != {expected}")

    nbr: list[set[int]] = [set() for _ in vertices]
    for _, (i, j, k) in triangles[m]:
        nbr[i].update((j, k))
        nbr[j].update((i, k))
        nbr[k].update((i, j))
    boundary = (index[p0], index[p1], index[p2])
    for i, ns in enumerate(nbr):
        want = 2 if i in boundary else 4
        if m >= 1 and len(ns) != want:
            raise AssertionError(f"vertex {i} has {len(ns)} neighbors, expected {want}")

    return GasketGraph(
        level=m,
        vertices=tuple(vertices),
        index=index,
        triangles=triangles,
        boundary=boundary,
        neighbors=tuple(tuple(sorted(ns)) for ns in nbr),
    )


@lru_cache(maxsize=None)
def _basis_solutions(m: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Per-vertex coefficients of the solution on the three unit boundary
    triples, as integer rows over one denominator D: (D, rows).

    Row v reads x_v = sum of c * x_u over its items (u, c), at first the mean
    of the four neighbors.  Eliminating interior vertices finest first (reverse
    build_graph index, an order from the graph alone) is a Kron reduction whose
    fill stays inside a cell, as a cell meets the rest only at its corners;
    back-substitution then runs coarsest first onto the boundary columns.  The
    exact coefficients are then put over D, the lcm of their denominators."""
    g = build_graph(m)
    quarter = Fraction(1, 4)
    interior = [v for v in range(len(g.vertices)) if v not in g.boundary]
    rows = {v: dict.fromkeys(g.neighbors[v], quarter) for v in interior}
    for w in reversed(interior):
        row = rows[w]
        pivot = 1 - row.pop(w, 0)
        if pivot == 0:
            raise ArithmeticError("singular harmonicity system")
        for u in row:
            row[u] /= pivot
        for v in row:
            if v in rows:  # an interior vertex not yet eliminated
                vrow = rows[v]
                f = vrow.pop(w)
                for u, c in row.items():
                    vrow[u] = vrow.get(u, 0) + f * c
    coeffs: list[tuple[Fraction, Fraction, Fraction]] = [None] * len(g.vertices)
    for j, b in enumerate(g.boundary):
        coeffs[b] = tuple(Fraction(int(i == j)) for i in range(3))
    for v in interior:
        coeffs[v] = tuple(sum(c * coeffs[u][i] for u, c in rows[v].items())
                          for i in range(3))
    den = lcm(*(c.denominator for row in coeffs for c in row))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                      for row in coeffs)


def solve_harmonic(m: int, boundary: BoundaryValues) -> dict[int, Fraction]:
    """Unique exact solution of the discrete harmonicity constraints on the
    level-m graph with the three corner values fixed: one integer dot product
    of the cached basis rows with the corner numerators per vertex."""
    if m < 1:
        raise ValueError("m must be >= 1")
    den, rows = _basis_solutions(m)
    corners = boundary.as_tuple()
    scale = lcm(*(x.denominator for x in corners))
    a, b, g = (x.numerator * (scale // x.denominator) for x in corners)
    den *= scale
    return {i: Fraction(c0 * a + c1 * b + c2 * g, den) for i, (c0, c1, c2) in enumerate(rows)}


def _numerators(graph: GasketGraph, values: dict) -> list[int]:
    """Integer numerators of values[v] for every vertex v of graph, over the
    lcm of their denominators (ints are accepted)."""
    missing = [i for i in range(len(graph.vertices)) if i not in values]
    if missing:
        raise ValueError(f"values missing for vertices {missing[:5]}")
    vals = [values[i] for i in range(len(graph.vertices))]
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals]


def check_five_point(graph: GasketGraph, values: dict[int, Fraction]) -> bool:
    """True iff the five-point relation holds exactly for every minimal
    triangle of every level below graph.level."""
    n = _numerators(graph, values)
    for lvl in range(graph.level):
        children = graph.triangles[lvl + 1]
        for p, (_, (i, j, k)) in enumerate(graph.triangles[lvl]):
            _, (_, mij, mik) = children[3 * p]
            _, (_, _, mjk) = children[3 * p + 1]
            if (n[i] + n[j] + n[mik] + n[mjk] != 4 * n[mij]
                    or n[j] + n[k] + n[mij] + n[mik] != 4 * n[mjk]
                    or n[i] + n[k] + n[mij] + n[mjk] != 4 * n[mik]):
                return False
    return True


def check_mean_value(graph: GasketGraph, values: dict[int, Fraction]) -> bool:
    """True iff every interior vertex of the level-m graph equals the mean of
    its four neighbors exactly: the residual of every equation the solve
    eliminates is zero."""
    n = _numerators(graph, values)
    return all(4 * n[v] == sum(n[u] for u in nbrs)
               for v, nbrs in enumerate(graph.neighbors) if v not in graph.boundary)
