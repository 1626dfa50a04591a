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
child's, and a walk divides only for the values it returns.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
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
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    @property
    def delta(self) -> Fraction:
        return self.alpha + self.beta + self.gamma

    def is_constant(self) -> bool:
        return self.alpha == self.beta == self.gamma

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class EdgePoint:
    """A dyadic point k/2^m along an edge of G0 (0 maps to the first-named endpoint)."""

    edge: str
    position: Fraction

    def __post_init__(self):
        if self.edge not in EDGES:
            raise ValueError(f"unknown edge {self.edge!r}")
        object.__setattr__(self, "position", Fraction(self.position))


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def on_edge(bv: BoundaryValues, edge: str) -> BoundaryValues:
    """Permute the triple so that `edge` becomes the bottom edge [p1', p2']."""
    try:
        perm = _EDGE_PERMUTATION[edge]
    except KeyError:
        raise ValueError(f"unknown edge {edge!r}") from None
    t = bv.as_tuple()
    return BoundaryValues(t[perm[0]], t[perm[1]], t[perm[2]])


def extend_once(bv: BoundaryValues) -> tuple[Fraction, Fraction, Fraction]:
    """Midpoint values (f(p12), f(p02), f(p01)) from the extension rule."""
    a, b, g = bv.alpha, bv.beta, bv.gamma
    return ((a + 2 * b + 2 * g) / 5,
            (2 * a + b + 2 * g) / 5,
            (2 * a + 2 * b + g) / 5)


Numerators = tuple[int, int, int]


def to_numerators(bv: BoundaryValues) -> tuple[Numerators, int]:
    """Integer corner numerators over one common denominator L, and L."""
    den = lcm(*(x.denominator for x in bv.as_tuple()))
    return tuple(x.numerator * (den // x.denominator) for x in bv.as_tuple()), den


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


def _bottom_walk(bv: BoundaryValues, depth: int) -> Iterator[tuple[Numerators, int]]:
    """(numerators, denominator) of the 2^depth cells tiling the bottom edge,
    left to right; depth-first, so only one path from the root is held."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    root, den = to_numerators(bv)
    den *= 5 ** depth
    stack = [(root, depth)]
    while stack:
        t, d = stack.pop()
        if d:
            stack.append((child_numerators(t, "2"), d - 1))
            stack.append((child_numerators(t, "1"), d - 1))
        else:
            yield t, den


def cell_values(bv: BoundaryValues, addr: CellAddress) -> BoundaryValues:
    """Exact corner triple of the cell named by `addr` (composition of children)."""
    t, den = to_numerators(bv)
    for digit in addr:
        t = child_numerators(t, digit)
    den *= 5 ** len(addr)
    return BoundaryValues(*(Fraction(x, den) for x in t))


def eval_dyadic(bv: BoundaryValues, pt: EdgePoint) -> Fraction:
    """Exact value of the harmonic function at a dyadic edge point."""
    x = pt.position
    if not (0 <= x <= 1):
        raise ValueError(f"position {x} outside [0, 1]")
    if not is_dyadic(x):
        raise ValueError(f"position {x} is not dyadic")
    t = on_edge(bv, pt.edge)
    if x == 1:
        return t.gamma
    # x = k/2^m is the left (beta) corner of the cell over [k/2^m, (k+1)/2^m]
    return cell_values(t, cell_word(x.numerator, x.denominator.bit_length() - 1)).beta


def edge_profile(bv: BoundaryValues, depth: int, edge: str = "bottom") -> list[Fraction]:
    """Values at all points k/2^depth, k = 0..2^depth, along an edge."""
    t = on_edge(bv, edge)
    return [Fraction(c[1], den) for c, den in _bottom_walk(t, depth)] + [t.gamma]


def bottom_cells(bv: BoundaryValues, depth: int) -> list[BoundaryValues]:
    """Corner triples of the 2^depth cells tiling the bottom edge, left to right."""
    return [BoundaryValues(*(Fraction(x, den) for x in t))
            for t, den in _bottom_walk(bv, depth)]


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


def lemma2_coefficients(m: int, which: str) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (alpha, beta, gamma) coefficients of the closed forms at depth m.

    The r_m row is the beta/gamma swap of the l_m row; the printed version
    of that formula is inconsistent (its coefficients do not sum to 1), but
    the four rows are equivalent under the edge symmetry, which pins it down.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p3, p5 = 3 ** m, 5 ** m
    if which == "half_power":
        return (Fraction(p3 - 1, 2 * p5),
                1 - Fraction(p3, p5),
                Fraction(p3 + 1, 2 * p5))
    if which == "one_minus_half_power":
        ca, cb, cg = lemma2_coefficients(m, "half_power")
        return (ca, cg, cb)
    if which == "l_m":
        return (Fraction(p5 - 1, 5 * p5),
                Fraction(3 * p3 + 4 * p5 + 3, 10 * p5),
                Fraction(4 * p5 - 3 * p3 - 1, 10 * p5))
    if which == "r_m":
        ca, cb, cg = lemma2_coefficients(m, "l_m")
        return (ca, cg, cb)
    raise ValueError(f"unknown point family {which!r}")


def closed_form_lemma2(bv: BoundaryValues, m: int, which: str) -> Fraction:
    """Closed-form value at 1/2^m, 1 - 1/2^m, l_m or r_m on the bottom edge."""
    ca, cb, cg = lemma2_coefficients(m, which)
    return ca * bv.alpha + cb * bv.beta + cg * bv.gamma


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
    t = cell_values(bv, "0" * m)
    return Fraction(5, 3) ** m * (2 * t.alpha - t.beta - t.gamma)
