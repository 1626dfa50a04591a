"""Cross-checking suites wiring the closed forms, recursions and the graph
solver against each other.  Each suite returns a structured result so the
CLI can render human or JSON reports; any counterexample is carried in the
details."""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import gasket, oracle, restrictions
from .exactarith import format_rational
from .gasket import BoundaryValues, EdgePoint


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: str = ""
    counterexample: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def random_rational(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_triple(rng: random.Random, bound: int = 100) -> BoundaryValues:
    return BoundaryValues(*(random_rational(rng, bound) for _ in range(3)))


def random_nonconstant_triple(rng: random.Random, bound: int = 100) -> BoundaryValues:
    while True:
        bv = random_triple(rng, bound)
        if not bv.is_constant():
            return bv


def _text(value) -> str:
    """Exact text of a certificate value; a triple reads "alpha,beta,gamma",
    a list of zero junctions as zero-search prints it."""
    if isinstance(value, BoundaryValues):
        return ",".join(format_rational(x) for x in value.as_tuple())
    if isinstance(value, list):
        return ", ".join(restrictions.format_zero(z) for z in value)
    return str(value)


def _fail(name: str, msg: str, **ce) -> SuiteResult:
    return SuiteResult(name, False, msg, {k: _text(v) for k, v in ce.items()})


def suite_lemma1(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """Midpoint-ratio conditions agree with the closed inequality form."""
    rng = random.Random(seed)
    triples = [random_triple(rng) for _ in range(trials)]
    # saturate both boundary hyperplanes explicitly
    for _ in range(max(trials // 100, 10)):
        b, g = random_rational(rng), random_rational(rng)
        triples.append(BoundaryValues(2 * g - b, b, g))
        triples.append(BoundaryValues(2 * b - g, b, g))
    for bv in triples:
        a, b, g = bv.as_tuple()
        expected = b < g and 2 * b - g <= a <= 2 * g - b
        if restrictions.dsv_check(bv) != expected:
            return _fail("lemma1", "ratio form disagrees with inequality form", bv=bv)
    return SuiteResult("lemma1", True, f"{len(triples)} triples, exact agreement")


def suite_lemma2(trials: int = 100, m_max: int = 20, seed: int = 0) -> SuiteResult:
    """Closed forms at 1/2^m, 1-1/2^m, l_m, r_m equal recursive evaluation."""
    rng = random.Random(seed)
    for _ in range(trials):
        bv = random_triple(rng)
        for m in range(1, m_max + 1):
            for which in gasket.LEMMA2_POINTS:
                x = gasket.lemma2_abscissa(m, which)
                lhs = gasket.closed_form_lemma2(bv, m, which)
                rhs = gasket.eval_dyadic(bv, EdgePoint("bottom", x))
                if lhs != rhs:
                    return _fail("lemma2", "closed form != recursion",
                                 bv=bv, m=m, which=which, closed=lhs, recursive=rhs)
    return SuiteResult("lemma2", True, f"{trials} triples, m <= {m_max}, all four families")


def suite_theorem3(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Sampled behavior matches the monotonicity classification."""
    rng = random.Random(seed)
    inc = restrictions.MonotonicityClass.STRICTLY_INCREASING
    non = restrictions.MonotonicityClass.NON_MONOTONE
    checked_inc = checked_non = 0
    for _ in range(trials):
        bv = random_triple(rng, 30)
        cls = restrictions.classify_edge(bv, "bottom")
        if cls is inc and checked_inc < 40:
            prof = gasket.edge_profile(bv, 10)
            if any(x >= y for x, y in zip(prof, prof[1:])):
                return _fail("theorem3", "increasing class not strictly increasing", bv=bv)
            checked_inc += 1
        elif cls is non and checked_non < 40:
            a, b, g = bv.as_tuple()
            margin = max(abs(a - (2 * b - g)), abs(a - (2 * g - b)), abs(b - g))
            if margin < 1:
                continue  # near-boundary triples need unbounded depth
            prof = gasket.edge_profile(bv, 12)
            diffs = [y - x for x, y in zip(prof, prof[1:])]
            if not (any(d > 0 for d in diffs) and any(d < 0 for d in diffs)):
                return _fail("theorem3", "non-monotone class looks monotone at depth 12", bv=bv)
            checked_non += 1
    return SuiteResult(
        "theorem3", True,
        f"{checked_inc} increasing and {checked_non} non-monotone triples sampled")


def suite_theorem4(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """Vertex relations agree with strict classification on all three edges."""
    rng = random.Random(seed)
    strict = (restrictions.MonotonicityClass.STRICTLY_INCREASING,
              restrictions.MonotonicityClass.STRICTLY_DECREASING)
    for _ in range(trials):
        bv = random_nonconstant_triple(rng)
        by_edges = all(
            restrictions.classify_edge(bv, e) in strict for e in gasket.EDGES)
        if restrictions.simultaneous_monotone(bv) != by_edges:
            return _fail("theorem4", "vertex relations disagree with edge classes", bv=bv)
    return SuiteResult("theorem4", True, f"{trials} nonconstant triples")


def suite_lemma4(trials: int = 100, m_max: int = 15, seed: int = 0) -> SuiteResult:
    """Exact left difference quotient at l_m equals its dominant-term form."""
    rng = random.Random(seed)
    half = Fraction(1, 2)
    for _ in range(trials):
        bv = random_triple(rng)
        a, b, g = bv.as_tuple()
        f_half = gasket.eval_dyadic(bv, EdgePoint("bottom", half))
        for m in range(1, m_max + 1):
            lm = gasket.lemma2_abscissa(m, "l_m")
            quot = (gasket.closed_form_lemma2(bv, m, "l_m") - f_half) / (lm - half)
            expected = (Fraction(3, 5) * Fraction(6, 5) ** m * (g - b)
                        + Fraction(2, 5) ** m * (2 * a - 3 * b + g) / 5)
            if quot != expected:
                return _fail("lemma4", "dominant-term identity broken", bv=bv, m=m,
                             quotient=quot, expected=expected)
    return SuiteResult("lemma4", True, f"{trials} triples, m <= {m_max}")


def suite_theorem5(trials: int = 1000, depth: int = 6, seed: int = 0) -> SuiteResult:
    """At most one contour junction point carries a Zero derivative class."""
    rng = random.Random(seed)
    worst = 0
    for _ in range(trials):
        bv = random_nonconstant_triple(rng)
        count, zeros = restrictions.count_zero_junctions(bv, depth)
        worst = max(worst, count)
        if count > 1:
            return _fail("theorem5", "more than one zero junction", bv=bv, zeros=zeros)
    return SuiteResult("theorem5", True,
                       f"{trials} triples, depth {depth}, max zero-count {worst}")


def suite_eq16(trials: int = 100, m_max: int = 30, seed: int = 0) -> SuiteResult:
    """5*alpha_m + 15*beta_m + 7*gamma_m is conserved along the nesting."""
    rng = random.Random(seed)
    for _ in range(trials):
        bv = random_triple(rng)
        c = restrictions.conserved_combination(bv)
        for m in range(m_max + 1):
            seq = restrictions.triangle_sequence(bv, m)
            got = 5 * seq.alpha_m + 15 * seq.beta_m + 7 * seq.gamma_m
            if got != c:
                return _fail("eq16", "conserved combination drifted", bv=bv, m=m, got=got)
    return SuiteResult("eq16", True, f"{trials} triples, m <= {m_max}")


def suite_closed_form(trials: int = 100, m_max: int = 30, seed: int = 0) -> SuiteResult:
    """Q(sqrt13) closed forms match the exact recursion with full cancellation."""
    rng = random.Random(seed)
    for _ in range(trials):
        bv = random_triple(rng)
        for m in range(m_max + 1):
            seq = restrictions.triangle_sequence(bv, m)
            if restrictions.gamma_closed_form(bv, m) != seq.gamma_m:
                return _fail("closedform", "gamma closed form mismatch", bv=bv, m=m)
            if restrictions.beta_closed_form(bv, m) != seq.beta_m:
                return _fail("closedform", "beta closed form mismatch", bv=bv, m=m)
    return SuiteResult("closedform", True, f"{trials} triples, m <= {m_max}")


def suite_theorem6(trials: int = 100, m_max: int = 25, seed: int = 0) -> SuiteResult:
    """Difference quotients toward 1/3 shrink by at least 9/10 per step from
    their exact onset: every step m -> m+1 with max(m0, 3) <= m < m_max,
    where m0 = restrictions.third_point_onset.  Steps before m0, where the
    two geometric terms can nearly cancel, are counted and passed over."""
    rng = random.Random(seed)
    ratio = Fraction(9, 10)
    checked = passed_over = worst_m0 = 0
    table = []
    for t in range(trials):
        bv = random_nonconstant_triple(rng)
        for side in ("left", "right"):
            m0 = restrictions.third_point_onset(bv, side)
            worst_m0 = max(worst_m0, m0)
            prev = abs(restrictions.third_point_quotients(bv, 3, side))
            for m in range(3, m_max):
                q = abs(restrictions.third_point_quotients(bv, m + 1, side))
                if m < m0:
                    passed_over += 1
                elif q > ratio * prev:
                    return _fail("theorem6", "quotient step ratio above 9/10 after onset m0",
                                 bv=bv, side=side, m=m, m0=m0, prev=prev, current=q,
                                 ratio=q / prev if prev else "inf")
                else:
                    checked += 1
                prev = q
                if t == 0 and side == "right":
                    table.append(f"m={m + 1}: |q|={float(q):.3e}")
    return SuiteResult("theorem6", True,
                       f"{trials} triples, both sides, 3 <= m <= {m_max}: {checked} steps "
                       f"checked from onset m0 (max m0 {worst_m0}), {passed_over} before "
                       f"onset passed over; sample decay: " + ", ".join(table[:6]))


def suite_oracle(depth: int = 3, trials: int = 25, seed: int = 0) -> SuiteResult:
    """Graph solve agrees with cell addressing at every vertex, and the
    five-point checker accepts both."""
    rng = random.Random(seed)
    for m in range(1, depth + 1):
        graph = oracle.build_graph(m)
        for _ in range(trials):
            bv = random_triple(rng)
            solved = oracle.solve_harmonic(m, bv)
            for addr, (i, j, k) in graph.triangles[m]:
                t = gasket.cell_values(bv, addr)
                if (solved[i], solved[j], solved[k]) != t.as_tuple():
                    return _fail("oracle", "solver disagrees with cell addressing",
                                 bv=bv, m=m, addr=addr)
            if not oracle.check_five_point(graph, solved):
                return _fail("oracle", "five-point relation violated", bv=bv, m=m)
    return SuiteResult("oracle", True, f"m <= {depth}, {trials} triples per level")


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "theorem3": suite_theorem3,
    "theorem4": suite_theorem4,
    "lemma4": suite_lemma4,
    "theorem5": suite_theorem5,
    "eq16": suite_eq16,
    "closedform": suite_closed_form,
    "theorem6": suite_theorem6,
    "oracle": suite_oracle,
}


def run_suites(names=None, seed: int = 0, **overrides) -> list[SuiteResult]:
    """Run the named suites (all by default), each with the overrides among
    its parameters; an override that no named suite takes is a ValueError."""
    names = list(names or SUITES)
    given = {key: value for key, value in overrides.items() if value is not None}
    params = {name: inspect.signature(SUITES[name]).parameters for name in names}
    for key in given:
        if not any(key in p for p in params.values()):
            raise ValueError(f"no selected suite ({', '.join(names)}) takes "
                             f"--{key.replace('_', '-')}")
    return [SUITES[name](seed=seed, **{k: v for k, v in given.items() if k in params[name]})
            for name in names]
