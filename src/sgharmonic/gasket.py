"""Cell structure of the Sierpinski gasket and exact harmonic evaluation.

A harmonic function on the gasket is determined by its values
(alpha, beta, gamma) at the corners (p0, p1, p2) of the outer triangle.
The midpoint extension rule

    f(p12) = (alpha + 2*beta + 2*gamma) / 5
    f(p02) = (2*alpha + beta + 2*gamma) / 5
    f(p01) = (2*alpha + 2*beta + gamma) / 5

applied recursively gives the exact value at every junction point.  Cells
(sub-triangles) are addressed by words over {0,1,2}: the word w+i names the
child of cell w containing corner i.  A child's corner triple keeps the
(apex, left, right) ordering of its parent, so the bottom edge of every
{1,2}-word cell is a sub-segment of [p1, p2].

Every cell walk runs on one integer kernel.  The rule is linear, so with L
the lcm of the corner denominators, the corners of cell w are integer
numerators over L*5^|w|; :func:`child_numerators` maps a parent's to a
child's.  So cell w is a fixed integer 3x3 map, over 5^|w|, of the outer
numerators: :func:`cell_numerators` applies it, built from child_numerators
once per word and kept in a bounded cache, and each triple computes its
numerators once.  An edge's restriction is the bottom edge's of the triple
with its corners relabelled, so :func:`edge_cell` applies the map of a
bottom-edge cell, cached per (k, m) for all three edges, to the permuted
numerators.  The closed forms of lemma 2 are integer rows over 2*5^m
or 10*5^m applied to the same numerators.  Every walk and closed form
divides only for the values it returns: one ``Fraction`` per value.
:func:`edge_profile` returns its values as integer numerators over one
denominator and divides for none.

The walk along a whole edge, behind :func:`edge_profile` and
:func:`bottom_cells`, goes level by level.  A level is its cells' apexes and
the ends they share, two lists of about 2^depth ints, and each level is made
from the one above in one loop, so about 3 * 2^depth ints are alive while
the last level is made.  :func:`edge_profile` walks one sub-edge of at most
2^11 cells at a time, so beside the 2^depth + 1 values it returns it holds
about 10^4 ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

EDGES = ("bottom", "left", "right")

# Relabelings mapping each edge of G0 onto the bottom edge [p1, p2] of the
# permuted triple, first-named endpoint at position 0.
_EDGE_PERMUTATION = {
    "bottom": (0, 1, 2),  # [p1, p2]
    "left": (2, 0, 1),    # [p0, p1]
    "right": (1, 0, 2),   # [p0, p2]
}

CellAddress = str  # word over "012"; "" is the whole gasket


@dataclass(frozen=True)
class BoundaryValues:
    """Corner values (alpha at p0, beta at p1, gamma at p2) of a harmonic function."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        # a part that already is exactly a Fraction is kept as it is
        for name, x in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if type(x) is not Fraction:
                object.__setattr__(self, name, Fraction(x))

    def is_constant(self) -> bool:
        return self.alpha == self.beta == self.gamma

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma)

    @cached_property
    def _corner_numerators(self) -> tuple[Numerators, int]:
        """What :func:`to_numerators` returns, computed once per triple.  Not a
        field: repr, ==, hash and pickling see the three corners only."""
        den = lcm(*(x.denominator for x in self.as_tuple()))
        return tuple(x.numerator * (den // x.denominator) for x in self.as_tuple()), den

    def __getstate__(self):
        # pickle the corners, not the cached numerators
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}


@dataclass(frozen=True)
class EdgePoint:
    """A point (k + j/3)/2^m, j = 0, 1 or 2, along an edge of G0; 0 is its first-named end."""

    edge: str
    position: Fraction

    def __post_init__(self):
        if self.edge not in EDGES:
            raise ValueError(f"unknown edge {self.edge!r}")
        object.__setattr__(self, "position", Fraction(self.position))


def on_edge(bv: BoundaryValues, edge: str) -> BoundaryValues:
    """Permute the triple so that `edge` is the bottom edge [p1', p2']: the tests' reference."""
    try:
        perm = _EDGE_PERMUTATION[edge]
    except KeyError:
        raise ValueError(f"unknown edge {edge!r}") from None
    t = bv.as_tuple()
    return BoundaryValues(t[perm[0]], t[perm[1]], t[perm[2]])


def extend_once(bv: BoundaryValues) -> tuple[Fraction, Fraction, Fraction]:
    """Midpoint values (f(p12), f(p02), f(p01)) by the extension rule: the tests' reference."""
    a, b, g = bv.alpha, bv.beta, bv.gamma
    return ((a + 2 * b + 2 * g) / 5,
            (2 * a + b + 2 * g) / 5,
            (2 * a + 2 * b + g) / 5)


Numerators = tuple[int, int, int]


def to_numerators(bv: BoundaryValues) -> tuple[Numerators, int]:
    """Integer corner numerators over one common denominator L, and L; each
    triple computes them once."""
    return bv._corner_numerators


def child_numerators(t: Numerators, digit: str) -> Numerators:
    """Numerators of the child cell containing corner `digit`, over 5 times
    the parent's denominator."""
    a, b, g = t
    if digit == "0":
        return (5 * a, 2 * a + 2 * b + g, 2 * a + b + 2 * g)
    if digit == "1":
        return (2 * a + 2 * b + g, 5 * b, a + 2 * b + 2 * g)
    if digit == "2":
        return (2 * a + b + 2 * g, a + 2 * b + 2 * g, 5 * g)
    raise ValueError(f"cell digit must be 0, 1 or 2, got {digit!r}")


def cell_word(k: int, m: int) -> CellAddress:
    """Word of the depth-m cell over [k/2^m, (k+1)/2^m] of the bottom edge:
    the m binary digits of k, most significant first, with 0 -> 1, 1 -> 2."""
    if not 0 <= k < 2 ** m:
        raise ValueError(f"cell index {k} outside [0, 2^{m})")
    return "".join("2" if (k >> i) & 1 else "1" for i in range(m - 1, -1, -1))


def decode_edge_point(x: Fraction) -> tuple[int, int, int | Fraction]:
    """(k, m, place) with x = (k + place)/2^m, at `place` along the bottom edge
    of cell_word(k, m): 0 for a dyadic x < 1, 1 for x = 1 (the whole edge) and
    1/3 or 2/3 for a sub-edge third point (k + j/3)/2^m; else ValueError."""
    n, d = x.numerator, x.denominator  # d > 0
    if not 0 <= n <= d:
        raise ValueError(f"point {x} outside [0, 1]")
    if d & (d - 1) == 0:  # the coarsest cell starting at x, or the whole edge
        return (0, 0, 1) if n == d else (n, d.bit_length() - 1, 0)
    if d % 3 == 0 and (d // 3) & (d // 3 - 1) == 0:
        return n // 3, (d // 3).bit_length() - 1, Fraction(n % 3, 3)
    raise ValueError(f"point {x} is neither dyadic nor a sub-edge third point")


def _bottom_level(t: Numerators, depth: int) -> tuple[list[int], list[int]]:
    """(apexes, ends): the 2^depth cells tiling the bottom edge of the frame of
    the corner numerators t, left to right, over 5^depth times t's
    denominator.  Cell k is (apexes[k], ends[k], ends[k + 1]); neighbours
    share an end, so a level is two lists of about 2^depth ints.

    The walk goes level by level.  Each cell (x, l, r) makes both bottom
    children, the rows "1" and "2" of :func:`child_numerators`, from their
    shared corner p = x + 2(l + r): apexes p + x - r and p + x - l, and
    ends 5l, p, 5r."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    apexes, ends = [t[0]], [t[1], t[2]]
    for _ in range(depth):
        nxt, new_ends = [], [5 * ends[0]]
        apex, end = nxt.append, new_ends.append
        for x, l, r in zip(apexes, ends, ends[1:]):
            p = x + 2 * (l + r)
            apex(p + x - r)
            apex(p + x - l)
            end(p)
            end(5 * r)
        apexes, ends = nxt, new_ends
    return apexes, ends


@lru_cache(maxsize=1024)
def _word_map(addr: CellAddress) -> tuple[Numerators, Numerators, Numerators]:
    """Rows of the integer 3x3 map, over 5^|addr|, from a triple's corner
    numerators to those of the cell `addr`: child_numerators folded over the
    word on each unit column.  Built once per word."""
    cols = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for digit in addr:
        cols = tuple(child_numerators(c, digit) for c in cols)
    return tuple(zip(*cols))


def cell_numerators(bv: BoundaryValues, addr: CellAddress) -> tuple[Numerators, int]:
    """Integer corner numerators of the cell named by `addr` (composition of
    children), and their one denominator to_numerators(bv)[1] * 5^|addr|: the
    word's map applied to the triple's numerators."""
    (a, b, g), den = to_numerators(bv)
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = _word_map(addr)
    return ((x0 * a + y0 * b + z0 * g, x1 * a + y1 * b + z1 * g, x2 * a + y2 * b + z2 * g),
            den * 5 ** len(addr))


def cell_values(bv: BoundaryValues, addr: CellAddress) -> BoundaryValues:
    """Exact corner triple of the cell named by `addr`."""
    t, den = cell_numerators(bv, addr)
    return BoundaryValues(*(Fraction(x, den) for x in t))


@lru_cache(maxsize=1024)
def _frame_map(k: int, m: int) -> tuple[tuple[Numerators, Numerators, Numerators], int]:
    """Rows of the integer map, over 5^m, from a triple's corner numerators to
    those of its bottom-edge cell cell_word(k, m), and 5^m.  Built once per
    (k, m); every edge reads it, on its permuted numerators."""
    return _word_map(cell_word(k, m)), 5 ** m


def edge_cell(bv: BoundaryValues, edge: str,
              x: Fraction) -> tuple[Numerators, int, int | Fraction]:
    """((a, b, g), den, place): the integer corner numerators, in the frame of
    on_edge(bv, edge), over one positive denominator, of the cell
    decode_edge_point(x) names, and x's place 0, 1, 1/3 or 2/3 along its
    bottom edge.  At x = 1 the cell is the whole edge, over L = to_numerators(bv)[1].

    The point is decoded first, then the edge is read: the cached _frame_map
    of (k, m), and its nine integer products with the triple's numerators in
    the edge's corner order."""
    k, m, place = decode_edge_point(x)
    try:
        i, j, l = _EDGE_PERMUTATION[edge]
    except KeyError:
        raise ValueError(f"unknown edge {edge!r}") from None
    ((x0, y0, z0), (x1, y1, z1), (x2, y2, z2)), scale = _frame_map(k, m)
    t, den = to_numerators(bv)
    a, b, g = t[i], t[j], t[l]
    return ((x0 * a + y0 * b + z0 * g, x1 * a + y1 * b + z1 * g, x2 * a + y2 * b + z2 * g),
            den * scale, place)


def eval_dyadic(bv: BoundaryValues, pt: EdgePoint) -> Fraction:
    """Exact value of the harmonic function at an edge point: on its edge_cell
    (a, b, g), b at place 0, g at place 1, (5a + 15b + 7g)/27 at 1/3 (eq. 16)
    and at 2/3 the same with b and g swapped (the 1/3 point of the mirrored cell)."""
    (a, b, g), den, place = edge_cell(bv, pt.edge, pt.position)
    if place in (0, 1):
        return Fraction(g if place else b, den)
    b, g = (g, b) if place.numerator == 2 else (b, g)
    return Fraction(5 * a + 15 * b + 7 * g, 27 * den)


# edge_profile walks one sub-edge of at most 2^_SUBEDGE_LEVELS cells at a
# time, so that its lists stay small beside the values it returns
_SUBEDGE_LEVELS = 11
MAX_EDGE_DEPTH = 20  # 2^20 + 1 values; guard of edge_profile and bottom_cells


def edge_profile(bv: BoundaryValues, depth: int,
                 edge: str = "bottom") -> tuple[list[int], int]:
    """Values at all points k/2^depth, k = 0..2^depth, along an edge: their
    2^depth + 1 integer numerators over one positive denominator, and that
    denominator L * 5^depth (L = to_numerators(bv)[1]).

    The walk starts from the whole edge, edge_cell(bv, edge, 1), and goes to
    depth - 1, one sub-edge of at most 2^11 cells at a time.  Its ends, times
    5, are the values at the even k; the midpoint p12 = a + 2b + 2g of each
    of its cells (a, b, g) is the value at the odd k between them, over
    L * 5^depth."""
    if depth > MAX_EDGE_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard {MAX_EDGE_DEPTH}")
    t, den, _ = edge_cell(bv, edge, 1)
    if not depth:
        return [t[1], t[2]], den
    top = max(depth - 1 - _SUBEDGE_LEVELS, 0)
    xs, tops = _bottom_level(t, top)
    values = []
    for cell in zip(xs, tops, tops[1:]):
        apexes, ends = _bottom_level(cell, depth - 1 - top)
        part = [0] * (2 * len(apexes))
        part[::2] = [5 * e for e in ends[:-1]]
        part[1::2] = [a + 2 * (b + g) for a, b, g in zip(apexes, ends, ends[1:])]
        values += part
    values.append(5 * ends[-1])
    return values, den * 5 ** depth


def bottom_cells(bv: BoundaryValues, depth: int, edge: str = "bottom") -> list[Numerators]:
    """Integer corner numerators, in the edge's frame, of the 2^depth cells
    tiling an edge, left to right, all over the one denominator
    to_numerators(bv)[1] * 5^depth; the walk starts from edge_cell(bv, edge, 1)."""
    if depth > MAX_EDGE_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard {MAX_EDGE_DEPTH}")
    apexes, ends = _bottom_level(edge_cell(bv, edge, 1)[0], depth)
    return list(zip(apexes, ends, ends[1:]))


LEMMA2_POINTS = ("half_power", "one_minus_half_power", "l_m", "r_m")


def lemma2_abscissa(m: int, which: str) -> Fraction:
    """The edge coordinate the closed form refers to."""
    if which == "half_power":
        return Fraction(1, 2 ** m)
    if which == "one_minus_half_power":
        return 1 - Fraction(1, 2 ** m)
    if which == "l_m":
        return Fraction(1, 2) - Fraction(1, 2 ** (m + 1))
    if which == "r_m":
        return Fraction(1, 2) + Fraction(1, 2 ** (m + 1))
    raise ValueError(f"unknown point family {which!r}")


@lru_cache(maxsize=256)
def _lemma2_row(m: int, which: str) -> tuple[Numerators, int]:
    """Integer (alpha, beta, gamma) row of the closed form at depth m, and its
    denominator 2*5^m or 10*5^m.

    The r_m row is the beta/gamma swap of the l_m row; the printed version
    of that formula is inconsistent (its coefficients do not sum to 1), but
    the four rows are equivalent under the edge symmetry, which pins it down.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p3, p5 = 3 ** m, 5 ** m
    if which in ("half_power", "one_minus_half_power"):
        (a, b, g), q = (p3 - 1, 2 * p5 - 2 * p3, p3 + 1), 2 * p5
    elif which in ("l_m", "r_m"):
        (a, b, g), q = (2 * p5 - 2, 3 * p3 + 4 * p5 + 3, 4 * p5 - 3 * p3 - 1), 10 * p5
    else:
        raise ValueError(f"unknown point family {which!r}")
    return ((a, g, b) if which in ("one_minus_half_power", "r_m") else (a, b, g)), q


def closed_form_lemma2(bv: BoundaryValues, m: int, which: str) -> Fraction:
    """Closed-form value at 1/2^m, 1 - 1/2^m, l_m or r_m on the bottom edge."""
    (ca, cb, cg), q = _lemma2_row(m, which)
    (a, b, g), den = to_numerators(bv)
    return Fraction(ca * a + cb * b + cg * g, q * den)


def normal_derivative(bv: BoundaryValues) -> Fraction:
    """Normal derivative at the apex p0, standard normalization: 2*alpha - beta - gamma."""
    return 2 * bv.alpha - bv.beta - bv.gamma


def renormalized_vertex_difference(bv: BoundaryValues, m: int) -> Fraction:
    """(5/3)^m * (2 f(p0) - sum of the two level-m neighbors of p0).

    Constant in m and equal to :func:`normal_derivative`; each descent into
    the apex cell scales the raw difference by exactly 3/5.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    (a, b, g), den = cell_numerators(bv, "0" * m)  # den = L * 5^m
    return Fraction(2 * a - b - g, den // 5 ** m * 3 ** m)
