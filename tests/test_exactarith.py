import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sign13  # exact sign of a + b sqrt13, apart from the package
from sgharmonic.exactarith import QuadExt, parse_rational

fractions_st = st.fractions(max_denominator=10 ** 6)

S = QuadExt(Fraction(7, 50), Fraction(1, 50))   # (7 + sqrt13)/50
H = QuadExt(Fraction(7, 50), Fraction(-1, 50))  # (7 - sqrt13)/50


class TestRational:
    def test_small_denominator_addition(self):
        assert Fraction(1, 5) + Fraction(2, 5) == Fraction(3, 5)

    def test_integer_power(self):
        assert Fraction(3, 5) ** 2 == Fraction(9, 25)

    def test_conserved_combination_value(self):
        # frozen from the exact nested-triangle recursion at depth 2 for (0,0,1)
        assert (Fraction(161, 625) * 5 + Fraction(154, 625) * 15
                + Fraction(36, 125) * 7) == 7

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(fractions_st, fractions_st, fractions_st)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(fractions_st)
    def test_text_round_trip(self, a):
        assert parse_rational(str(a)) == a

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "x", "1.5.2"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_parse_bounds_digits_not_text(self):
        # the int-to-str limit bounds the parsed numerator and denominator,
        # also when an exponent writes them in a few characters
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert parse_rational("9" * limit) == 10 ** limit - 1
        assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        for big in (f"1e{limit}", f"-1e{limit}", f"1e-{limit}", "1e5000"):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                parse_rational(big)
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10 ** 5000
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text", ["1e3000000", "1e-3000000", "0e3000000"])
    def test_huge_exponent_read_first(self, text):
        # the exponent decides before any power of ten is built
        limit = sys.get_int_max_str_digits()
        start = time.perf_counter()
        if text.startswith("0"):
            assert parse_rational(text) == 0
        else:
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                parse_rational(text)
        assert time.perf_counter() - start < 0.1


class TestQuadExt:
    # a value type: parts, equality and hash; signs and the facts
    # about s and h are decided on the parts with sign13

    def test_norm_of_one_plus_sqrt13(self):
        x = QuadExt(1, 1)
        # (1 + sqrt13)(1 - sqrt13) = 1 - 13 < 0: the conjugates differ in sign
        assert x.rational_part ** 2 - 13 * x.root13_part ** 2 == -12
        assert (sign13(1, 1), sign13(1, -1)) == (1, -1)

    def test_s_plus_h(self):
        # trace 7/25 and determinant 9/625 of the third-point step, by parts
        assert S.rational_part + H.rational_part == Fraction(7, 25)
        assert S.root13_part + H.root13_part == 0
        assert S.rational_part ** 2 - 13 * S.root13_part ** 2 == Fraction(9, 625)

    def test_s_minus_h_positive(self):
        d = (S.rational_part - H.rational_part, S.root13_part - H.root13_part)
        assert d == (0, Fraction(1, 25))
        assert sign13(*d) == 1

    def test_s_and_h_between_zero_and_quarter(self):
        # 0 < (7 -+ sqrt13)/50 < 1/4, i.e. 7 -+ sqrt13 > 0 and 11 -+ 2 sqrt13 > 0
        for root in (1, -1):
            assert sign13(7, root) == 1
            assert sign13(11, 2 * root) == 1

    def test_division_and_power(self):
        x = QuadExt(Fraction(3, 7), Fraction(-2, 5))
        for op in (lambda: x ** 3, lambda: x ** -1, lambda: x / x, lambda: 1 / x):
            with pytest.raises(TypeError):
                op()

    def test_sign_matches_high_precision_float(self):
        rng = random.Random(13)
        pairs = [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
                 for _ in range(2000)]
        p, q = 1, 0
        for _ in range(12):  # p -+ q sqrt13 = (649 -+ 180 sqrt13)^k, within 1/(2p) of 0
            p, q = 649 * p + 2340 * q, 180 * p + 649 * q
            pairs += [(p, -q), (-p, q), (p + 1, -q), (p - 1, -q), (-p - 1, q)]
        for a, b in pairs:
            # |a + b sqrt13| >= 1/(|a| + 4|b|), so twice the bits and 64 more decide it
            with mpmath.workprec(2 * max(abs(a), abs(b)).bit_length() + 64):
                approx = a + b * mpmath.sqrt(13)
                assert sign13(a, b) == (1 if approx > 0 else -1)
        assert sign13(0, 0) == 0

    def test_no_ring_and_no_order(self):
        ops = (lambda: S + H, lambda: S - H, lambda: S * H, lambda: 2 * S, lambda: -S,
               lambda: S < H, lambda: S >= 0, lambda: sorted([S, H]))
        for op in ops:
            with pytest.raises(TypeError):
                op()
        assert QuadExt(3) != 3  # no coercion from rationals either
        assert len({S, QuadExt(S.rational_part, S.root13_part), H}) == 2
        assert repr(H) == "QuadExt(Fraction(7, 50), Fraction(-1, 50))"
        with pytest.raises(AttributeError):
            S.rational_part = 0


def test_every_exported_name_resolves():
    import sgharmonic
    assert [name for name in sgharmonic.__all__ if not hasattr(sgharmonic, name)] == []
