import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgharmonic.exactarith import QuadExt, format_rational, parse_rational

fractions_st = st.fractions(max_denominator=10 ** 6)

SQRT13 = QuadExt(0, 1)
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
        assert parse_rational(format_rational(a)) == a

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
    def test_norm_of_one_plus_sqrt13(self):
        assert (1 + SQRT13) * (1 - SQRT13) == QuadExt(-12)

    def test_s_plus_h(self):
        assert S + H == QuadExt(Fraction(7, 25))

    def test_s_minus_h_positive(self):
        d = S - H
        assert d == QuadExt(0, Fraction(1, 25))
        assert d.sign() == 1

    def test_s_and_h_between_zero_and_quarter(self):
        quarter = QuadExt(Fraction(1, 4))
        assert QuadExt(0) < H < quarter
        assert QuadExt(0) < S < quarter

    def test_division_and_power(self):
        x = QuadExt(Fraction(3, 7), Fraction(-2, 5))
        assert x ** 3 == x * x * x
        with pytest.raises(TypeError):  # no division, so no negative powers
            x ** -1

    def test_sign_matches_high_precision_float(self):
        rng = random.Random(13)
        checked = 0
        with mpmath.workprec(128):
            root = mpmath.sqrt(13)
            while checked < 2000:
                a = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.randint(1, 10 ** 6))
                b = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.randint(1, 10 ** 6))
                approx = mpmath.mpf(a.numerator) / a.denominator \
                    + root * b.numerator / b.denominator
                if abs(approx) <= mpmath.mpf("1e-10"):
                    continue
                assert QuadExt(a, b).sign() == (1 if approx > 0 else -1)
                checked += 1

    @given(fractions_st, fractions_st, fractions_st, fractions_st)
    def test_mul_consistent_with_conjugate(self, a, b, c, d):
        x, y = QuadExt(a, b), QuadExt(c, d)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_total_order(self):
        vals = [QuadExt(0), H, S, QuadExt(Fraction(1, 4)), 1 + SQRT13]
        assert sorted(vals, reverse=True) == list(reversed(vals))


def test_every_exported_name_resolves():
    import sgharmonic
    assert [name for name in sgharmonic.__all__ if not hasattr(sgharmonic, name)] == []
