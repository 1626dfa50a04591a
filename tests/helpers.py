"""Helpers shared by the test modules: corner strategies, a gcd counter,
reference classes and signs.  This module imports from the package only
BoundaryValues, DerivClass and the modules refuse_on_edge patches, so a
renamed kernel name stops only the test modules that read it."""

import contextlib
import fractions
import math
import types
from fractions import Fraction

from hypothesis import strategies as st

from sgharmonic import cli, gasket, restrictions
from sgharmonic.gasket import BoundaryValues
from sgharmonic.restrictions import DerivClass

BIG = 2 ** 200
# pairwise coprime, so a triple's common denominator is a product of them
COPRIME_DENOMINATORS = (1, 7, 11 * 13, 5 ** 9, 3 ** 40, 2 ** 61, 2 ** 61 - 1)
corners = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(COPRIME_DENOMINATORS)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def triples(draw):
    """Corner triples, some on the hyperplanes alpha = 2*beta - gamma and
    alpha = 2*gamma - beta that bound the monotone classes."""
    b, g = draw(corners), draw(corners)
    a = draw(st.one_of(corners, st.just(2 * b - g), st.just(2 * g - b)))
    return BoundaryValues(a, b, g)


constant_triples = st.builds(lambda x: BoundaryValues(x, x, x), corners)


@contextlib.contextmanager
def fraction_gcd_calls():
    """Count the gcd calls Fraction makes inside the block, by swapping the
    math module that fractions sees for one whose gcd counts."""
    counted = [0]

    def gcd(a, b):
        counted[0] += 1
        return math.gcd(a, b)

    counting_math = types.SimpleNamespace(**vars(math))
    counting_math.gcd = gcd
    saved, fractions.math = fractions.math, counting_math
    try:
        yield counted
    finally:
        fractions.math = saved


# 7-bit, 40-bit and 200-bit corners, a hyperplane triple and a constant one
GCD_TRIPLES = [
    BoundaryValues(Fraction(-93, 71), Fraction(115, 67), Fraction(-88, 101)),
    BoundaryValues(Fraction(2 ** 40 - 87, 211), Fraction(-(2 ** 39) - 5, 179), 3),
    BoundaryValues(Fraction(3 ** 126, 2 ** 200 - 1), Fraction(-(5 ** 86), 7 ** 71), 0),
    BoundaryValues(Fraction(-9, 5), Fraction(1, 5), Fraction(11, 5)),
    BoundaryValues(Fraction(7, 3), Fraction(7, 3), Fraction(7, 3)),
]


def sign_class(x):
    return {1: DerivClass.PLUS_INFINITY, -1: DerivClass.MINUS_INFINITY,
            0: DerivClass.ZERO}[(x > 0) - (x < 0)]


def sign13(a, b) -> int:
    """Exact sign of a + b*sqrt13 for integers (or rationals) a and b, apart
    from the package: when the terms differ in sign, a^2 against 13 b^2."""
    if a * b >= 0:  # the terms agree in sign, or one is 0
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return (1 if a > 0 else -1) if a * a > 13 * b * b else (1 if b > 0 else -1)


def refuse_on_edge(monkeypatch):
    """Make the package's on_edge raise from here on, in gasket and in any
    module that would import it by name; a test module keeps its own binding."""
    def refuse(*args):
        raise AssertionError("on_edge called")
    monkeypatch.setattr(gasket, "on_edge", refuse)
    for module in (restrictions, cli):
        monkeypatch.setattr(module, "on_edge", refuse, raising=False)
