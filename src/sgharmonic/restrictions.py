"""Monotonicity, extrema and one-sided derivatives of edge restrictions.

Everything here works on the restriction of a harmonic function to an edge
of the outer triangle, mapped onto [0, 1] via the edge permutations of
:mod:`sgharmonic.gasket`.  The classifications are decided by exact
rational (or Q(sqrt13)) comparisons only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exactarith import QuadExt, format_rational
from .gasket import (
    BoundaryValues,
    CellAddress,
    bottom_cells,
    cell_values,
    cell_word,
    child_numerators,
    extend_once,
    is_dyadic,
    on_edge,
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


def _classify_triple(a, b, g) -> MonotonicityClass:
    """Bottom-edge class of corners (a, b, g), unchanged by positive scaling."""
    if a == b == g:
        return MonotonicityClass.CONSTANT
    if b < g and 2 * b - g <= a <= 2 * g - b:
        return MonotonicityClass.STRICTLY_INCREASING
    if b > g and 2 * g - b <= a <= 2 * b - g:
        return MonotonicityClass.STRICTLY_DECREASING
    return MonotonicityClass.NON_MONOTONE


def classify_edge(bv: BoundaryValues, edge: str = "bottom") -> MonotonicityClass:
    """Monotonicity of the restriction to an edge: the increasing case is
    exactly beta < gamma together with 2*beta - gamma <= alpha <= 2*gamma - beta
    (closed inequalities), after mapping the edge onto [0, 1]."""
    return _classify_triple(*on_edge(bv, edge).as_tuple())


def dsv_check(bv: BoundaryValues, edge: str = "bottom") -> bool:
    """The midpoint-ratio sufficient conditions for a strictly increasing
    restriction: beta < f(mid) < gamma and (gamma - f(mid))/(f(mid) - beta)
    in [1/4, 4].  Equivalent to the closed-form test in classify_edge."""
    t = on_edge(bv, edge)
    mid = extend_once(t)[0]
    if not (t.beta < mid < t.gamma):
        return False
    ratio = (t.gamma - mid) / (mid - t.beta)
    return Fraction(1, 4) <= ratio <= 4


def simultaneous_monotone(bv: BoundaryValues) -> bool:
    """True iff the restrictions to all three edges are strictly monotone:
    one of 2a = b+g, 2b = a+g, 2g = a+b holds."""
    if bv.is_constant():
        raise ValueError("simultaneous monotonicity is defined for nonconstant functions")
    a, b, g = bv.as_tuple()
    return 2 * a == b + g or 2 * b == a + g or 2 * g == a + b


@dataclass(frozen=True)
class ExtremumResult:
    """Bracket for the unique extremum of a non-monotone edge restriction.

    When the extremum sits exactly at a junction point, lo == hi == junction;
    otherwise [lo, hi] is a dyadic interval of width 2^-depth.
    """

    kind: str  # "max" or "min"
    lo: Fraction
    hi: Fraction
    junction: Fraction | None = None


def locate_extremum(bv: BoundaryValues, edge: str, depth: int) -> ExtremumResult:
    """Bisect a non-monotone edge restriction down to its unique extremum."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t, _ = to_numerators(on_edge(bv, edge))
    if _classify_triple(*t) is not MonotonicityClass.NON_MONOTONE:
        raise ValueError("restriction is monotone; no extremum to locate")
    k = 0  # the cell walked at step i lies over [k/2^i, (k+1)/2^i]
    kind = None
    inc = MonotonicityClass.STRICTLY_INCREASING
    dec = MonotonicityClass.STRICTLY_DECREASING
    non = MonotonicityClass.NON_MONOTONE
    for i in range(depth):
        left, right = child_numerators(t, "1"), child_numerators(t, "2")
        cl, cr = _classify_triple(*left), _classify_triple(*right)
        if cl is non and cr in (inc, dec):
            kind = kind or ("max" if cr is dec else "min")
            t, k = left, 2 * k
        elif cr is non and cl in (inc, dec):
            kind = kind or ("max" if cl is inc else "min")
            t, k = right, 2 * k + 1
        elif (cl, cr) in ((inc, dec), (dec, inc)):
            mid = Fraction(2 * k + 1, 2 ** (i + 1))
            return ExtremumResult("max" if cl is inc else "min", mid, mid, mid)
        else:
            raise ArithmeticError(f"children {cl.value} and {cr.value} below the cell "
                                  f"over [{k}/2^{i}, {k + 1}/2^{i}]")
    return ExtremumResult(kind, Fraction(k, 2 ** depth), Fraction(k + 1, 2 ** depth))


def _sign_class(diff: Fraction) -> DerivClass:
    if diff == 0:
        return DerivClass.ZERO
    return DerivClass.PLUS_INFINITY if diff > 0 else DerivClass.MINUS_INFINITY


def junction_derivative(
    bv: BoundaryValues, edge: str, position: Fraction
) -> tuple[DerivClass | None, DerivClass | None]:
    """One-sided derivative classes (left, right) at a dyadic edge point.

    With (a, b, c) the corner triple of the cell approached on the right of
    the point (the point being its bottom-left corner), the successive
    difference quotients toward the point behave like
    (6/5)^j * (a + c - 2b) plus a (2/5)^j term, so the right class is the
    sign of a + c - 2b (Zero when it vanishes).  Mirrored on the left side:
    the class is the sign of 2c - a - b on the cell whose bottom-right
    corner is the point.  The sign is invariant under descending further
    (each level scales it by 3/5), so the cell depth may be taken minimal.
    """
    x = Fraction(position)
    if not (0 <= x <= 1):
        raise ValueError(f"position {x} outside [0, 1]")
    if not is_dyadic(x):
        raise ValueError(f"position {x} is not dyadic")
    t = on_edge(bv, edge)
    k, m = x.numerator, x.denominator.bit_length() - 1
    left = right = None
    if x < 1:
        c = cell_values(t, cell_word(k, m))
        if c.is_constant():
            raise ArithmeticError("restriction constant on the right approach cell")
        right = _sign_class(c.alpha + c.gamma - 2 * c.beta)
    if x > 0:
        c = cell_values(t, cell_word(k - 1, m))
        if c.is_constant():
            raise ArithmeticError("restriction constant on the left approach cell")
        left = _sign_class(2 * c.gamma - c.alpha - c.beta)
    return (left, right)


#: Stable labels for the corners of the outer triangle.
VERTICES = ("p0", "p1", "p2")

ZeroJunction = tuple  # ("vertex", "p0") or (edge_name, Fraction position)


def format_zero(z: ZeroJunction) -> str:
    """Exact text of a zero junction: "p0" for a vertex, "left:1/2" otherwise."""
    return z[1] if z[0] == "vertex" else f"{z[0]}:{format_rational(z[1])}"


def count_zero_junctions(
    bv: BoundaryValues, depth: int
) -> tuple[int, list[ZeroJunction]]:
    """Scan every junction point of the contour up to `depth` for a Zero
    one-sided derivative class; geometric points are counted once."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if bv.is_constant():
        raise ValueError("derivative classes are undefined for constant functions")
    # at a vertex of value x the Zero condition 2x = (sum of the others) is 3x = delta
    zeros: list[ZeroJunction] = [("vertex", v) for v, x in zip(VERTICES, bv.as_tuple())
                                 if 3 * x == bv.delta]
    n = 2 ** depth
    for edge in ("bottom", "left", "right"):
        cells = bottom_cells(on_edge(bv, edge), depth)
        for k in range(1, n):
            lc, rc = cells[k - 1], cells[k]
            if (2 * lc.gamma == lc.alpha + lc.beta
                    or rc.alpha + rc.gamma == 2 * rc.beta):
                zeros.append((edge, Fraction(k, n)))
    return len(zeros), zeros


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
    p1_m: Fraction  # position of the beta_m corner: 1/3 - (1/3)(1/4)^m
    p2_m: Fraction  # position of the gamma_m corner: 1/3 + (2/3)(1/4)^m


def conserved_combination(bv: BoundaryValues) -> Fraction:
    """5*alpha + 15*beta + 7*gamma, invariant along the nested triangles."""
    return 5 * bv.alpha + 15 * bv.beta + 7 * bv.gamma


def third_point_value(bv: BoundaryValues) -> Fraction:
    """f(1/3) on the bottom edge: (5*alpha + 15*beta + 7*gamma)/27."""
    return conserved_combination(bv) / 27


def triangle_sequence(bv: BoundaryValues, m: int) -> TriangleSequence:
    """Exact corner values of the m-th nested triangle (each step is the
    right third of the left third, i.e. the cell step "12")."""
    if m < 0:
        raise ValueError("m must be >= 0")
    t = cell_values(bv, "12" * m)
    q = Fraction(1, 4 ** m)
    third = Fraction(1, 3)
    return TriangleSequence(m, *t.as_tuple(), third - third * q, third + 2 * third * q)


@dataclass(frozen=True)
class ThirdPointContext:
    """Constants of the Q(sqrt13) solution of the nested-triangle recursion."""

    c: Fraction
    u: Fraction
    v: QuadExt
    s: QuadExt
    h: QuadExt
    w: QuadExt
    t0: QuadExt
    l: QuadExt
    k: QuadExt
    A: QuadExt  # coefficient of h^m in gamma_m
    B: QuadExt  # coefficient of s^m in gamma_m, = k/(s-h)


def third_point_context(bv: BoundaryValues) -> ThirdPointContext:
    c = conserved_combination(bv)
    u = Fraction(10)
    v = QuadExt(1, -1)
    s = QuadExt(Fraction(7, 50), Fraction(1, 50))
    h = (v + 6) / 50
    w = QuadExt(Fraction(9, 25), Fraction(-1, 25)) * c
    t0 = 10 * bv.beta + v * bv.gamma
    l = QuadExt(c) / 25 + w / ((s - 1) * 50)
    k = -(w / (s - 1) + t0) / 50
    B = k / (s - h)
    A = l / (h - 1) - B + bv.gamma
    return ThirdPointContext(c, u, v, s, h, w, t0, l, k, A, B)


def _beta_coefficients(ctx: ThirdPointContext) -> tuple[QuadExt, QuadExt]:
    """(C, D) with beta_m = C*s^m + D*h^m + c/27."""
    C = (ctx.w / (ctx.s - 1) - ctx.v * ctx.B + ctx.t0) / ctx.u
    D = -(ctx.v / QuadExt(ctx.u)) * ctx.A
    return C, D


#: (100s + 4h)/24 = 91/150 + (2/25)sqrt13 ~ 0.8951: bound on the step ratio
#: of third_point_quotients from the onset of third_point_onset on.
THIRD_POINT_STEP_BOUND = QuadExt(Fraction(91, 150), Fraction(2, 25))


def _qabs(x: QuadExt) -> QuadExt:
    return x if x.sign() >= 0 else -x


def third_point_onset(bv: BoundaryValues, side: str) -> int:
    """Least m >= 0 from which the quotients toward 1/3 provably decay per step.

    The quotients are (3/2)(A(4h)^m + B(4s)^m) on the right and
    -3(C(4s)^m + D(4h)^m) on the left: a slow term (B or C, rate
    4s ~ 0.8485) and a fast one (A or D, rate 4h ~ 0.3515).  The onset m0
    is the least m with |fast| h^m <= (1/25)|slow| s^m, or 0 when
    slow = 0 (the step ratio is then exactly 4h).  As h < s this stays true
    for every m >= m0, and with r = fast h^m / (slow s^m), |r| <= 1/25,

        |q(m+1)| / |q(m)| = 4|s + r h| / |1 + r|
                          <= (100s + 4h)/24 = THIRD_POINT_STEP_BOUND < 9/10.

    Before m0 the two terms can nearly cancel, and the step ratio there
    exceeds any bound below 1.
    """
    ctx = third_point_context(bv)
    if side == "right":
        fast, slow = ctx.A, ctx.B
    elif side == "left":
        slow, fast = _beta_coefficients(ctx)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not slow:
        return 0
    fast_term, slow_term = _qabs(fast), _qabs(slow) / 25
    m = 0
    while fast_term > slow_term:
        fast_term, slow_term, m = fast_term * ctx.h, slow_term * ctx.s, m + 1
    return m


def gamma_closed_form(bv: BoundaryValues, m: int) -> Fraction:
    """gamma_m = A*h^m + B*s^m + c/27, evaluated in Q(sqrt13); the sqrt13
    part cancels exactly and the result matches the integer recursion."""
    if m < 0:
        raise ValueError("m must be >= 0")
    ctx = third_point_context(bv)
    val = ctx.A * ctx.h ** m + ctx.B * ctx.s ** m + QuadExt(ctx.c) / 27
    if val.root13_part != 0:
        raise ArithmeticError(f"sqrt13 part failed to cancel: {val}")
    return val.rational_part


def beta_closed_form(bv: BoundaryValues, m: int) -> Fraction:
    if m < 0:
        raise ValueError("m must be >= 0")
    ctx = third_point_context(bv)
    C, D = _beta_coefficients(ctx)
    val = C * ctx.s ** m + D * ctx.h ** m + QuadExt(ctx.c) / 27
    if val.root13_part != 0:
        raise ArithmeticError(f"sqrt13 part failed to cancel: {val}")
    return val.rational_part


def third_point_quotients(bv: BoundaryValues, m: int, side: str) -> Fraction:
    """Difference quotient toward x = 1/3 along the nested triangle corners."""
    if m < 1:
        raise ValueError("m must be >= 1")
    seq = triangle_sequence(bv, m)
    f_third = third_point_value(bv)
    third = Fraction(1, 3)
    if side == "right":
        return (seq.gamma_m - f_third) / (seq.p2_m - third)
    if side == "left":
        return (seq.beta_m - f_third) / (seq.p1_m - third)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def third_point_of_subedge(
    bv: BoundaryValues, addr: CellAddress, which: Fraction
) -> tuple[Fraction, Fraction]:
    """Global position and exact value of the 1/3 (or 2/3) point of the
    bottom sub-edge of a {1,2}-word cell; the restriction's derivative
    vanishes there at every scale."""
    if any(ch not in "12" for ch in addr):
        raise ValueError(f"address must be a word over {{1,2}}, got {addr!r}")
    which = Fraction(which)
    if which not in (Fraction(1, 3), Fraction(2, 3)):
        raise ValueError("which must be 1/3 or 2/3")
    k = int("0" + addr.replace("1", "0").replace("2", "1"), 2)  # inverse of cell_word
    position = (k + which) / 2 ** len(addr)
    t = cell_values(bv, addr)
    if which == Fraction(1, 3):
        value = third_point_value(t)
    else:
        value = (5 * t.alpha + 7 * t.beta + 15 * t.gamma) / 27
    return (position, value)
