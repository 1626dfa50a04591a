"""Exact arithmetic substrate: rationals and the real quadratic field Q(sqrt(13)).

Rationals are plain :class:`fractions.Fraction` (arbitrary precision, always
canonical, denominator positive), read and written in the text form "p/q".
``QuadExt`` holds numbers a + b*sqrt(13) with rational a, b and gives the
ring operations (sums, products, non-negative powers), the conjugate, and an
exact sign and total order; since sqrt(13) is irrational the representation
is unique and comparisons are decided without any floating point.  It has
no division: the third-point closed forms state their projector without one.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import total_ordering

#: A decimal mantissa and an exponent, in the grammar Fraction reads them by.
_EXPONENT_FORM = re.compile(r"\s*([-+]?[\d_.]*)e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse the text form "p/q" (q omitted when 1) into an exact Fraction.

    A numerator or denominator with more decimal digits than Python's
    int-to-str limit is rejected, also when the text reaches it through an
    exponent ("1e5000"), as a literal that long already is.  The exponent is
    read before any power of ten is built."""
    limit = sys.get_int_max_str_digits()
    too_long = False
    exp_form = _EXPONENT_FORM.fullmatch(text)
    try:
        if exp_form:
            q, exponent = Fraction(exp_form[1]), int(exp_form[2])
            # |exponent| > limit + len(mantissa): numerator or denominator too long
            too_long = q != 0 and 0 < limit < abs(exponent) - len(exp_form[1])
            if q and not too_long:
                q *= Fraction(10) ** exponent
        else:
            q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{text!r} is not an exact rational (expected p/q)") from exc
    size = max(abs(q.numerator), q.denominator)
    # 2^(3*limit) < 10^limit: within 3*limit bits no value has too many digits
    if too_long or limit and size.bit_length() > 3 * limit and size >= 10 ** limit:
        raise ValueError(f"{text!r} has more than {limit} digits in its numerator "
                         "or denominator (the int-to-str limit)")
    return q


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; "p/q" with q omitted when 1."""
    return str(q)


@total_ordering
class QuadExt:
    """An element a + b*sqrt(13) of the field Q(sqrt(13)).

    Immutable.  All arithmetic is exact; the sign (and hence every
    comparison) is decided by integer reasoning on a^2 versus 13*b^2,
    never by floating evaluation.
    """

    __slots__ = ("rational_part", "root13_part")

    def __init__(self, rational_part=0, root13_part=0):
        object.__setattr__(self, "rational_part", Fraction(rational_part))
        object.__setattr__(self, "root13_part", Fraction(root13_part))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @staticmethod
    def _coerce(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.rational_part + other.rational_part,
                       self.root13_part + other.root13_part)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rational_part, -self.root13_part)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.rational_part, self.root13_part
        c, d = other.rational_part, other.root13_part
        return QuadExt(a * c + 13 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.rational_part, -self.root13_part)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = QuadExt(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- ordering -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(13): -1, 0 or +1."""
        a, b = self.rational_part, self.root13_part
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt13, i.e. a^2 vs 13 b^2
        bigger_rational = a * a > 13 * b * b
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.rational_part == other.rational_part
                and self.root13_part == other.root13_part)

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return hash((self.rational_part, self.root13_part))

    def __bool__(self):
        return self.rational_part != 0 or self.root13_part != 0

    def __repr__(self):
        return f"QuadExt({self.rational_part!r}, {self.root13_part!r})"
