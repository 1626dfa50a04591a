"""Exact arithmetic substrate: rationals and the real quadratic field Q(sqrt(13)).

Rationals are plain :class:`fractions.Fraction` (arbitrary precision, always
canonical, denominator positive), read in the "p/q" form that ``str`` writes.
``QuadExt`` is a value type for numbers a + b*sqrt(13) with rational a, b:
construction, equality and hashing, and no ring operations or order.
Sums, products, conjugates and signs in Q(sqrt13) are taken on integer pairs
where they are needed (the third-point closed forms and onset in
:mod:`sgharmonic.restrictions`), without any floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

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


class QuadExt:
    """An element a + b*sqrt(13) of the field Q(sqrt(13)), as a value.

    Immutable, with exact rational parts; since sqrt(13) is irrational the
    pair (a, b) is unique, so equality and hashing compare the parts.  It has
    no arithmetic and no order: the package decides signs and comparisons in
    Z[sqrt13] on integer pairs (see restrictions.third_point_onset).
    """

    __slots__ = ("rational_part", "root13_part")

    def __init__(self, rational_part=0, root13_part=0):
        # a part that already is exactly a Fraction is kept as it is
        for name, x in (("rational_part", rational_part), ("root13_part", root13_part)):
            object.__setattr__(self, name, x if type(x) is Fraction else Fraction(x))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (self.rational_part == other.rational_part
                and self.root13_part == other.root13_part)

    def __hash__(self):
        return hash((self.rational_part, self.root13_part))

    def __repr__(self):
        return f"QuadExt({self.rational_part!r}, {self.root13_part!r})"
