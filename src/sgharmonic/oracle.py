"""Independent verification path: the level-m graph and its exact linear solve.

Vertices carry exact rational coordinates (u, v) in the affine frame
p1 = (0,0), p2 = (1,0), p0 = (0,1), built as integers in units of 2^-m.  The
graph is built in one pass, level by level: each triangle (i, j, k) of a
level, in level order, appends its midpoints ij, ik, jk as new vertices and
makes its three children as vertex-index triples.  Cells meet only at their
corners, so no midpoint repeats, which the build checks.  A
function is harmonic on the level-m graph iff every interior vertex equals
the mean of its four neighbors.  That system is solved level by level and
never uses the extension rule: level m keeps level m - 1's solution on the
vertices the two share, as the harmonic structure is compatible across
levels, and solves only the vertices new at level m, by fraction-free sparse
elimination on integer rows, finest first, with the coarse vertices as known
columns.  The reuse is proven, not assumed: every coarse interior vertex must
then satisfy its level-m mean-value equation, or the solve raises
AssertionError.  The solution is cached per level as integer rows over one
denominator, so a warm solve is one integer dot product per vertex, kept
as a read-only mapping of integer numerators over one denominator that builds
a Fraction only when a value is read.  Two checkers test an assignment on
integer numerators over one denominator, read straight from a solve of the
graph's level: the mean-value equation at every interior vertex, and the
five-point relation per minimal triangle, kept apart from the solve so the
two formulations cross-validate each other.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .gasket import BoundaryValues

Point = tuple[Fraction, Fraction]

MAX_LEVEL = 8  # 9843 vertices; guard against accidental blowup


@dataclass(frozen=True)
class GasketGraph:
    level: int
    vertices: tuple[Point, ...]
    # level -> tuple of (cell address, (apex, left, right) vertex indices).
    # Triangle p = (i, j, k) of a level has children 3p, 3p+1, 3p+2 on the
    # next: (i, m_ij, m_ik), (m_ij, j, m_jk), (m_ik, m_jk, k), m the midpoints.
    triangles: dict
    boundary: tuple[int, int, int]
    neighbors: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def build_graph(m: int) -> GasketGraph:
    """Exact level-m graph with per-level triangle incidence, in one pass: each
    level's vertex-index triangles are made from the level above's, and each
    midpoint, integers in units of 2^-m, takes the next index.  Points become
    Fraction pairs once per vertex at the end."""
    if m < 0:
        raise ValueError("level must be >= 0")
    if m > MAX_LEVEL:
        raise ValueError(f"level {m} exceeds guard {MAX_LEVEL}")
    unit = 1 << m
    points = [(0, unit), (0, 0), (unit, 0)]  # p0, p1, p2, the boundary

    def mid(i: int, j: int) -> int:
        (ax, ay), (bx, by) = points[i], points[j]
        points.append(((ax + bx) >> 1, (ay + by) >> 1))
        return len(points) - 1

    triangles = {0: (("", (0, 1, 2)),)}
    for lvl in range(1, m + 1):
        nxt = []
        for addr, (i, j, k) in triangles[lvl - 1]:
            ij, ik, jk = mid(i, j), mid(i, k), mid(j, k)
            nxt += ((addr + "0", (i, ij, ik)), (addr + "1", (ij, j, jk)),
                    (addr + "2", (ik, jk, k)))
        triangles[lvl] = tuple(nxt)
    if not len(points) == len(set(points)) == (expected := 3 * (3 ** m + 1) // 2):
        raise AssertionError(f"{len(set(points))} distinct of {len(points)} points, "
                             f"expected {expected}")
    nbr: list[set[int]] = [set() for _ in points]
    for _, (i, j, k) in triangles[m]:
        nbr[i].update((j, k))
        nbr[j].update((i, k))
        nbr[k].update((i, j))
    boundary = (0, 1, 2)
    for i, ns in enumerate(nbr):
        want = 2 if i in boundary else 4
        if len(ns) != want:
            raise AssertionError(f"vertex {i} has {len(ns)} neighbors, expected {want}")
    coord = [Fraction(k, unit) for k in range(unit + 1)]
    return GasketGraph(m, tuple((coord[x], coord[y]) for x, y in points), triangles,
                       boundary, tuple(tuple(sorted(ns)) for ns in nbr))


@lru_cache(maxsize=None)
def _basis_solutions(m: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Per-vertex coefficients of the solution on the three unit boundary
    triples, as integer rows over one denominator D: (D, rows).

    Level 0 is the boundary's identity.  Level m takes level m - 1's rows for
    its first vertices, numbered as at level m - 1, and
    solves only the vertices new at level m, with the coarse ones as known
    columns.  Row v of a new vertex is an integer weight s and coefficients
    n_u with s*x_v = sum of n_u*x_u, at first 4*x_v = the sum of the four
    neighbors.  Eliminating new vertices finest first (reverse build_graph
    index, an order from the graph alone) is a Kron reduction whose fill
    stays inside a cell, as a cell meets the rest only at its corners.  It is
    fraction-free: eliminating w takes the pivot p = s_w - n_ww, divides row
    w by the gcd of p and its coefficients, once, when it becomes the pivot,
    and updates each row v that meets w in place to p*row_v + f*row_w, f row
    v's coefficient of w.  Back-substitution then runs over the new vertices
    in index order, one gcd-reduced (denominator, numerators) pair each, and
    every row is put over D, the lcm of those denominators and level m - 1's.

    The reuse is proven, not assumed: every coarse interior vertex must then
    satisfy its level-m mean-value equation on the three columns, and the new
    vertices satisfy theirs by the elimination, so the rows solve the whole
    level-m system, whose solution is unique."""
    if m == 0:
        return 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    g = build_graph(m)  # the level's guard, before any lower level is solved
    coarse_den, coarse = _basis_solutions(m - 1)
    new = range(len(coarse), len(g.vertices))
    rows = {v: [4, dict.fromkeys(g.neighbors[v], 1)] for v in new}
    for w in reversed(new):
        s, row = entry = rows[w]
        pivot = s - row.pop(w, 0)
        if pivot == 0:
            raise ArithmeticError("singular harmonicity system")
        if (d := gcd(pivot, *row.values())) > 1:
            pivot //= d
            for u in row:
                row[u] //= d
        entry[0] = pivot
        for v in row:
            # a coarse vertex is a known column and has no row; rows keeps
            # eliminated rows too, but the pattern is symmetric, so a pivot
            # row holds only vertices not yet eliminated
            if (ventry := rows.get(v)) is not None:
                vrow = ventry[1]
                f = vrow.pop(w)
                if pivot != 1:
                    ventry[0] *= pivot
                    for u in vrow:
                        vrow[u] *= pivot
                for u, c in row.items():
                    vrow[u] = vrow.get(u, 0) + f * c
    coeffs = [(coarse_den, r) for r in coarse]
    for v in new:
        pivot, row = rows[v]
        den = lcm(*(coeffs[u][0] for u in row))
        n0 = n1 = n2 = 0
        for u, c in row.items():
            d, (a0, a1, a2) = coeffs[u]
            k = c * (den // d)
            n0, n1, n2 = n0 + k * a0, n1 + k * a1, n2 + k * a2
        den *= pivot
        d = gcd(den, n0, n1, n2)
        coeffs.append((den // d, (n0 // d, n1 // d, n2 // d)))
    den = lcm(coarse_den, *(d for d, _ in coeffs[len(coarse):]))
    out = tuple([(a0 * (k := den // d), a1 * k, a2 * k) for d, (a0, a1, a2) in coeffs])
    for v in range(len(coarse)):
        if v not in g.boundary:
            s0 = s1 = s2 = 0
            for u in g.neighbors[v]:
                a0, a1, a2 = out[u]
                s0, s1, s2 = s0 + a0, s1 + a1, s2 + a2
            r0, r1, r2 = out[v]
            if (4 * r0, 4 * r1, 4 * r2) != (s0, s1, s2):
                raise AssertionError(f"vertex {v} breaks its level-{m} mean-value "
                                     f"equation on level {m - 1}'s rows")
    return den, out


class _Solution(Mapping):
    """A level's solved values: vertex v maps to numerators[v] / den.  Read
    only; reading values[v] builds that one Fraction, and the checkers read
    the numerators as they are."""

    __slots__ = ("numerators", "den", "_keys")

    def __init__(self, numerators: tuple[int, ...], den: int):
        self.numerators, self.den = numerators, den
        self._keys = range(len(numerators))

    def __getitem__(self, v) -> Fraction:
        # a range tests membership as a dict does (by ==), and -1 or len is not
        # in it, so no index wraps around or raises IndexError
        if v not in self._keys:
            raise KeyError(v)
        return Fraction(self.numerators[int(v)], self.den)

    def __contains__(self, v) -> bool:
        return v in self._keys

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self.numerators)

    def __repr__(self) -> str:
        return repr(dict(self))


def solve_harmonic(m: int, boundary: BoundaryValues) -> Mapping[int, Fraction]:
    """Unique exact solution of the discrete harmonicity constraints on the
    level-m graph with the three corner values fixed: one integer dot product
    of the cached basis rows with the corner numerators per vertex, returned
    as a read-only mapping from vertex index to value that keeps those
    numerators over their one denominator and builds a Fraction per read."""
    if m < 1:
        raise ValueError("m must be >= 1")
    den, rows = _basis_solutions(m)
    corners = boundary.as_tuple()
    scale = lcm(*(x.denominator for x in corners))
    a, b, g = (x.numerator * (scale // x.denominator) for x in corners)
    return _Solution(tuple([c0 * a + c1 * b + c2 * g for c0, c1, c2 in rows]), den * scale)


def _numerators(graph: GasketGraph, values: Mapping) -> Sequence[int]:
    """Integer numerators of values[v] for every vertex v of graph, over one
    denominator: a solve of graph's level as it is held, any other mapping
    (ints are accepted) over the lcm of its values' denominators."""
    if isinstance(values, _Solution) and len(values) == len(graph.vertices):
        return values.numerators
    missing = [i for i in range(len(graph.vertices)) if i not in values]
    if missing:
        raise ValueError(f"values missing for vertices {missing[:5]}")
    vals = [values[i] for i in range(len(graph.vertices))]
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals]


def check_five_point(graph: GasketGraph, values: Mapping) -> bool:
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


def check_mean_value(graph: GasketGraph, values: Mapping) -> bool:
    """True iff every interior vertex of the level-m graph equals the mean of
    its four neighbors exactly: the residual of every equation the solve
    eliminates is zero."""
    n = _numerators(graph, values)
    return all(4 * n[v] == sum(n[u] for u in nbrs)
               for v, nbrs in enumerate(graph.neighbors) if v not in graph.boundary)
