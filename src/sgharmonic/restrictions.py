"""Monotonicity, extrema and one-sided derivatives of edge restrictions.

Everything here works on the restriction of a harmonic function to an edge
of the outer triangle, mapped onto [0, 1] and read in the edge's frame from
:func:`sgharmonic.gasket.edge_cell`; every whole-edge decision reads the
three corner normal derivatives, the vertex forms.  The classifications are
decided by exact rational or integer comparisons only; the third-point onset
compares integers standing for elements of Z[sqrt13].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactarith import QuadExt
from .gasket import (
    _EDGE_PERMUTATION,
    EDGES,
    BoundaryValues,
    bottom_cells,
    cell_numerators,
    edge_cell,
    to_numerators,
)


class MonotonicityClass(enum.Enum):
    CONSTANT = "Constant"
    STRICTLY_INCREASING = "StrictlyIncreasing"
    STRICTLY_DECREASING = "StrictlyDecreasing"
    NON_MONOTONE = "NonMonotone"


class DerivClass(enum.Enum):
    PLUS_INFINITY = "PlusInfinity"
    MINUS_INFINITY = "MinusInfinity"
    ZERO = "Zero"


def _ends(t) -> tuple[int, int]:
    """(x, y) = (a + g - 2b, 2g - a - b) on corners t = (a, b, g): up to a positive
    factor, the normal derivatives at the ends of the bottom edge, the left one
    negated.  Children 1 and 2 have ends (3x, x + y) and (x + y, 3y), over 5
    times the denominator."""
    a, b, g = t
    return a + g - 2 * b, 2 * g - a - b


def _vertex_forms(bv: BoundaryValues) -> tuple[int, int, int]:
    """(v0, v1, v2), v_i = 3 t_i - sum(t) on the corner numerators t over
    L = to_numerators(bv)[1]: the normal derivatives at the corners, over L.
    They sum to zero."""
    t = to_numerators(bv)[0]
    s = sum(t)
    return 3 * t[0] - s, 3 * t[1] - s, 3 * t[2] - s


def _edge_ends(bv: BoundaryValues, edge: str) -> tuple[int, int]:
    """(-v_i, v_j) for the edge [p_i, p_j]: the _ends of its whole-edge frame
    cell edge_cell(bv, edge, 1), with no scale factor.  That cell is
    (t_k, t_i, t_j) over L, k the apex, and its ends are
    (t_k + t_j - 2t_i, 2t_j - t_k - t_i) = (-v_i, v_j).  So the ends are
    (-v1, v2) on the bottom edge, (-v0, v1) on the left and (-v0, v2) on the
    right, and x y = -v_i v_j: the ends strictly change sign iff v_i and v_j
    share a strict sign.  As the forms sum to zero, exactly one pair does
    when no form is 0, and none when one is (the other two are then
    opposite): at most one edge has ends of strictly opposite signs."""
    _, i, j = _EDGE_PERMUTATION[edge]
    v = _vertex_forms(bv)
    return -v[i], v[j]


def classify_edge(bv: BoundaryValues, edge: str = "bottom") -> MonotonicityClass:
    """Monotonicity of the restriction to an edge: the increasing case is
    exactly beta < gamma together with 2*beta - gamma <= alpha <= 2*gamma - beta
    (closed inequalities), on the numerators of the edge's frame.  On the
    _edge_ends (x, y) these read x >= 0, y >= 0 and x + y = 3(gamma - beta) > 0:
    the edge [p_i, p_j] is NonMonotone iff v_i v_j > 0."""
    x, y = _edge_ends(bv, edge)
    if x * y < 0:
        return MonotonicityClass.NON_MONOTONE
    if x + y > 0:
        return MonotonicityClass.STRICTLY_INCREASING
    return MonotonicityClass.STRICTLY_DECREASING if x + y else MonotonicityClass.CONSTANT


def dsv_check(bv: BoundaryValues, edge: str = "bottom") -> bool:
    """The midpoint-ratio sufficient conditions for a strictly increasing
    restriction: beta < f(mid) < gamma and (gamma - f(mid))/(f(mid) - beta)
    in [1/4, 4].  Equivalent to the closed-form test in classify_edge.

    On the frame numerators (a, b, g) over L, beta, f(mid) and gamma are
    lo = 5b, mid = a + 2b + 2g and hi = 5g over 5L.  As 3(mid - lo) = 4x + y
    and 3(hi - mid) = x + 4y on the _ends (x, y), the ratio conditions read
    y >= 0 and x >= 0, and lo < mid < hi then asks (x, y) != (0, 0)."""
    (a, b, g), _, _ = edge_cell(bv, edge, 1)
    lo, mid, hi = 5 * b, a + 2 * b + 2 * g, 5 * g
    return lo < mid < hi and mid - lo <= 4 * (hi - mid) and hi - mid <= 4 * (mid - lo)


def simultaneous_monotone(bv: BoundaryValues) -> bool:
    """True iff the restrictions to all three edges are strictly monotone:
    one of 2a = b+g, 2b = a+g, 2g = a+b holds, that is some vertex form is 0.
    By _edge_ends no edge is then NonMonotone, and exactly one is otherwise."""
    if bv.is_constant():
        raise ValueError("simultaneous monotonicity is defined for nonconstant functions")
    return 0 in _vertex_forms(bv)


@dataclass(frozen=True)
class ExtremumResult:
    """Bracket for the unique extremum of a non-monotone edge restriction.

    When the extremum sits exactly at a junction point, lo == hi is that
    point; otherwise [lo, hi] is a dyadic interval of width 2^-depth.
    """

    kind: str  # "max" or "min"
    lo: Fraction
    hi: Fraction


MAX_EXTREMUM_DEPTH = 4096  # x and y triple in size each step; guard of locate_extremum


def locate_extremum(bv: BoundaryValues, edge: str, depth: int) -> ExtremumResult:
    """Bisect a non-monotone edge restriction down to its unique extremum, on
    the _edge_ends (x, y) of the whole edge, x y < 0, then on the _ends of the
    cell walked.  At s = x + y = 0 both halves are monotone, in opposite
    directions: the extremum is the midpoint junction.  Else the half whose
    ends change sign holds it, (3x, s) if x s < 0, else (s, 3y)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_EXTREMUM_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard {MAX_EXTREMUM_DEPTH}")
    x, y = _edge_ends(bv, edge)
    if x * y >= 0:
        raise ValueError("restriction is monotone; no extremum to locate")
    # x - y = 2a - b - g: alpha is above the monotone interval's centre (b + g)/2
    kind = "max" if x > y else "min"
    k = 0  # the cell walked at step i lies over [k/2^i, (k+1)/2^i]
    for i in range(depth):
        s = x + y
        if not s:
            mid = Fraction(2 * k + 1, 2 ** (i + 1))
            return ExtremumResult(kind, mid, mid)
        x, y, k = (3 * x, s, 2 * k) if x * s < 0 else (s, 3 * y, 2 * k + 1)
    return ExtremumResult(kind, Fraction(k, 2 ** depth), Fraction(k + 1, 2 ** depth))


def junction_derivative(
    bv: BoundaryValues, edge: str, position: Fraction
) -> tuple[DerivClass | None, DerivClass | None]:
    """One-sided derivative classes (left, right) at a dyadic edge point.

    On the cell (a, b, g) approached from either side, the difference
    quotients toward the point behave like (6/5)^j times a form plus a
    (2/5)^j term: 2g - a - b on the left cell (the point is its right
    corner), a + g - 2b on the right one (its left corner).  The class is
    the sign of that form (Zero when it vanishes), kept by positive scaling
    and by each further descent (a factor 3/5), so the depth may be minimal.
    The forms are the two cells' normal derivatives at the point, the right
    one negated; by the matching condition for harmonic functions those sum
    to zero.  So both sides take the class of one cell: the minimal one that
    starts at the point, or the whole edge at x = 1.
    """
    x = Fraction(position)
    t, _, place = edge_cell(bv, edge, x)  # over a positive denominator
    if place not in (0, 1):
        raise ValueError(f"point {x} is not dyadic")
    if bv.is_constant():  # the child maps are invertible and keep constants
        raise ArithmeticError("derivative classes are undefined for constant functions")
    form = _ends(t)[place]  # x starts the cell (place 0) or ends the whole edge (1)
    cls = (DerivClass.ZERO if form == 0 else
           DerivClass.PLUS_INFINITY if form > 0 else DerivClass.MINUS_INFINITY)
    return (None if x == 0 else cls, None if x == 1 else cls)


#: Stable labels for the corners of the outer triangle.
VERTICES = ("p0", "p1", "p2")

ZeroJunction = tuple  # ("vertex", "p0") or (edge_name, Fraction position)

MAX_ZERO_DEPTH = 12  # 2^12 cells on the one edge walked; guard of count_zero_junctions


def format_zero(z: ZeroJunction) -> str:
    """Exact text of a zero junction: "p0" for a vertex, "left:1/2" otherwise."""
    return z[1] if z[0] == "vertex" else f"{z[0]}:{z[1]}"


def count_zero_junctions(
    bv: BoundaryValues, depth: int
) -> tuple[int, list[ZeroJunction]]:
    """Scan every junction point of the contour up to `depth` for a Zero
    one-sided derivative class; geometric points are counted once.

    Only an edge whose _ends (x, y) strictly change sign, x y < 0, is walked;
    the others hold no interior Zero junction at any depth.  Each interior
    junction's form a + g - 2b is, up to a positive factor, the midpoint form
    x + y of the cell above it with that midpoint, and a cell's children
    have ends (3x, x + y) and (x + y, 3y):
    - if x y > 0, x + y and both children keep that strict sign;
    - if x = 0 != y, the children are (0, y) and (y, 3y), so every midpoint
      form below is a positive multiple of y (and so for y = 0 != x);
    - x = y = 0 means a = b = g on the edge, a constant triple, rejected above.
    By _edge_ends at most one edge is walked, and none when a vertex is Zero,
    that is when its vertex form is 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_ZERO_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard {MAX_ZERO_DEPTH}")
    if bv.is_constant():
        raise ValueError("derivative classes are undefined for constant functions")
    zeros: list[ZeroJunction] = [("vertex", name) for name, v in
                                 zip(VERTICES, _vertex_forms(bv)) if not v]
    n = 2 ** depth
    for edge in EDGES:
        x, y = _edge_ends(bv, edge)
        if x * y >= 0:  # no interior Zero junction on this edge
            continue
        cells = bottom_cells(bv, depth, edge)  # integer numerators
        # junction k/n starts cell k: Zero iff a + g = 2b there (junction_derivative)
        zeros += [(edge, Fraction(k, n)) for k, (a, b, g) in enumerate(cells)
                  if k and a + g == 2 * b]
    return len(zeros), zeros


def corner_relations(bv: BoundaryValues, bound: int) -> list[tuple[int, int, int]]:
    """The primitive relation n*alpha + m*beta + k*gamma = 0 with n + m + k = 0
    and first nonzero coefficient positive: [(n, m, k)] if |n|, |m|, |k| <= bound,
    else [].  With u = alpha - gamma, v = beta - gamma it reads n*u + m*v = 0,
    so for a nonconstant triple every relation is a multiple of (v, -u)."""
    if bv.is_constant():
        raise ValueError("corner relations are defined for nonconstant functions")
    (a, b, g), _ = to_numerators(bv)
    n, m = b - g, g - a
    d = gcd(n, m) if (n or m) > 0 else -gcd(n, m)  # first nonzero one positive
    n, m = n // d, m // d
    return [(n, m, -n - m)] if max(abs(n), abs(m), abs(n + m)) <= bound else []


# --------------------------------------------------------------------------
# Third-point machinery: the nested triangles closing in on x = 1/3 of the
# bottom edge, their exact recursion, and the Q(sqrt13) closed forms.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleSequence:
    """Corner data of the m-th nested triangle approaching x = 1/3."""

    m: int
    alpha_m: Fraction
    beta_m: Fraction
    gamma_m: Fraction


def conserved_combination(bv: BoundaryValues) -> Fraction:
    """5*alpha + 15*beta + 7*gamma, invariant along the nested triangles."""
    return 5 * bv.alpha + 15 * bv.beta + 7 * bv.gamma


def triangle_sequence(bv: BoundaryValues, m: int) -> TriangleSequence:
    """Exact corner values of the m-th nested triangle (each step is the
    right third of the left third, i.e. the cell step "12"): the cached map
    of the word "12"*m applied to the triple's numerators, so no step is
    walked once that word has been seen."""
    if m < 0:
        raise ValueError("m must be >= 0")
    t, den = cell_numerators(bv, "12" * m)
    return TriangleSequence(m, *(Fraction(x, den) for x in t))


#: (100s + 4h)/24 = 91/150 + (2/25)sqrt13 ~ 0.8951, with s, h = (7 +- sqrt13)/50
#: the eigenvalues of the third-point step: bound on the step ratio of
#: third_point_quotients from the onset of third_point_onset on.
THIRD_POINT_STEP_BOUND = QuadExt(Fraction(91, 150), Fraction(2, 25))


def _slow_pairs(bv: BoundaryValues) -> tuple[int, int, tuple[int, int], tuple[int, int]]:
    """(c, L, B, C): the conserved combination c over L, the lcm of the corner
    denominators, and the slow coefficients B and C as integer pairs (u, v)
    for (u + v sqrt13) / 3510L.  In Q(sqrt13), gamma_m = A h^m + B s^m + c/27
    and beta_m = C s^m + D h^m + c/27, with A and D the conjugates of B and C."""
    # The step "12" takes beta, gamma to (4 alpha + 16 beta + 5 gamma)/25 and
    # (alpha + 2 beta + 2 gamma)/5.  With alpha = (c - 15 beta - 7 gamma)/5
    # these are (4c + 20 beta - 3 gamma)/125 and (c - 5 beta + 3 gamma)/25,
    # fixed at beta = gamma = c/27.  On x = (beta - c/27, gamma - c/27) the
    # step is K = [[4/25, -3/125], [-1/5, 3/25]], of trace 7/25 = s + h and
    # determinant 9/625 = s h, so K^m x = s^m Px + h^m (x - Px) with the
    # projector P = (K - h)/(s - h).  As (50K - 7)^2 = 13 and s - h = sqrt13/25,
    # Px = x/2 + y sqrt13/26 with y = (50K - 7)x.  C and B are the entries of Px.
    # In integers: with c = 5a + 15b + 7g on the numerators (a, b, g) over L,
    # x = (27b - c, 27g - c)/27L and y = ((5x_b - 6x_g)/5, -10x_b - x_g)/27L.
    (a, b, g), den = to_numerators(bv)
    c = 5 * a + 15 * b + 7 * g
    xb, xg = 27 * b - c, 27 * g - c
    return c, den, (65 * xg, -5 * (10 * xb + xg)), (65 * xb, 5 * xb - 6 * xg)


def _slow_coefficient(den: int, pair: tuple[int, int]) -> QuadExt:
    """The slow coefficient B or C as a QuadExt, from its integer pair (u, v)
    of _slow_pairs over 3510L, with den = L."""
    u, v = pair
    # a QuadExt, not the pair: bench/layertrace.py stops when QuadExt is never called
    return QuadExt(Fraction(u, 3510 * den), Fraction(v, 3510 * den))


def third_point_onset(bv: BoundaryValues) -> tuple[int, int]:
    """(left, right): on each side, the least m >= 0 from which the quotients
    toward 1/3 provably decay per step.

    The quotients are -3(C(4s)^m + D(4h)^m) on the left and
    (3/2)(A(4h)^m + B(4s)^m) on the right: a slow term (C or B, rate
    4s ~ 0.8485) and a fast one (D or A, rate 4h ~ 0.3515).  The onset m0
    is the least m with |fast| h^m <= (1/25)|slow| s^m; fast and slow are
    conjugates, so both vanish together (beta = gamma = c/27, m0 = 0).  As
    h < s this stays true for every m >= m0, and with
    r = fast h^m / (slow s^m), |r| <= 1/25,

        |q(m+1)| / |q(m)| = 4|s + r h| / |1 + r|
                          <= (100s + 4h)/24 = THIRD_POINT_STEP_BOUND < 9/10.

    Before m0 the two terms can nearly cancel, and the step ratio there
    exceeds any bound below 1.

    Decided in integers: with slow = (u + v sqrt13)/3510L from _slow_pairs
    and 50s = 7 + sqrt13, the condition times 25 * 3510L * 50^m > 0 reads
    25|conj z| <= |z| with z = u + v sqrt13 after m steps
    (u, v) -> (7u + 13v, u + 7v), each a product by 7 + sqrt13.  It holds
    when u = v = 0.  Otherwise it needs u v > 0 (else |z| <= |conj z|, and
    conj z != 0 as sqrt13 is irrational).  Then squaring once gives
    624(u^2 + 13v^2) <= 1252 u v sqrt13, both sides positive, and squaring
    again (624(u^2 + 13v^2))^2 <= 1252^2 * 13 u^2 v^2: an equivalence on
    integers, with no rounding.
    """
    _, _, slow_b, slow_c = _slow_pairs(bv)
    onsets = []
    for u, v in (slow_c, slow_b):
        m = 0
        while u or v:
            uv = u * v
            if uv > 0 and (624 * (u * u + 13 * v * v)) ** 2 <= 1252 ** 2 * 13 * uv * uv:
                break
            u, v, m = 7 * u + 13 * v, u + 7 * v, m + 1
        onsets.append(m)
    return tuple(onsets)


@lru_cache(maxsize=256)
def _root13_power(m: int) -> tuple[int, int]:
    """Integers (X, Y) with (7 + sqrt13)^m = X + Y sqrt13, by binary powering."""
    x, y, bx, by = 1, 0, 7, 1
    while m:
        if m & 1:
            x, y = x * bx + 13 * y * by, x * by + y * bx
        bx, by = bx * bx + 13 * by * by, 2 * bx * by
        m >>= 1
    return x, y


def _closed_form(bv: BoundaryValues, m: int, side: str) -> Fraction:
    """conj(slow) h^m + slow s^m + c/27 = 2 (slow s^m).rational_part + c/27,
    with slow = B ("right", gamma_m) or C ("left", beta_m), from one call of
    _slow_pairs: c over L and slow's parts u/3510L and v/3510L.  As
    50^m s^m = X + Y sqrt13 (_root13_power) and 3510 = 27 * 130, it is the
    one Fraction (130 c 50^m + 2(u X + 13 v Y)) / (3510 L 50^m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    c, den, slow_b, slow_c = _slow_pairs(bv)
    slow = _slow_coefficient(den, slow_b if side == "right" else slow_c)
    x, y = _root13_power(m)
    r, s, q = slow.rational_part, slow.root13_part, 3510 * den
    u, v = r.numerator * (q // r.denominator), s.numerator * (q // s.denominator)
    p50 = 50 ** m
    return Fraction(130 * c * p50 + 2 * (u * x + 13 * v * y), q * p50)


def gamma_closed_form(bv: BoundaryValues, m: int) -> Fraction:
    """gamma_m = A*h^m + B*s^m + c/27 with A the conjugate of B, evaluated
    from integers; the result matches the integer recursion.  Of the slow
    coefficients it builds B only: two Fractions, and one for the value."""
    return _closed_form(bv, m, "right")


def beta_closed_form(bv: BoundaryValues, m: int) -> Fraction:
    """beta_m = C*s^m + D*h^m + c/27, evaluated as gamma_closed_form is,
    from C only."""
    return _closed_form(bv, m, "left")


def third_point_quotients(bv: BoundaryValues, m: int) -> tuple[Fraction, Fraction]:
    """Difference quotients (left, right) toward x = 1/3 along the nested
    triangle corners, which sit at 1/3 - (1/3)(1/4)^m (beta_m) and
    1/3 + (2/3)(1/4)^m (gamma_m): (beta_m - f(1/3))/(-(1/3)(1/4)^m) and
    (gamma_m - f(1/3))/((2/3)(1/4)^m).

    With (a_m, b_m, g_m) over L 25^m the numerators of the m-th triangle and
    c = 5a + 15b + 7g over L, so f(1/3) = c/27L, these are the Fractions
    (25^m c - 27 b_m) 4^m / (9 L 25^m) and (27 g_m - 25^m c) 4^m / (18 L 25^m),
    from one product with the cached map of "12"*m."""
    if m < 1:  # before the walk
        raise ValueError("m must be >= 1")
    (_, b, g), den = cell_numerators(bv, "12" * m)  # den = L 25^m
    c, p = _slow_pairs(bv)[0] * 25 ** m, 4 ** m
    return Fraction((c - 27 * b) * p, 9 * den), Fraction((27 * g - c) * p, 18 * den)
