"""Cross-checking suites wiring the closed forms, recursions and the graph
solver against each other.  Each suite returns a structured result so the
CLI can render human or JSON reports; any counterexample is carried in the
details."""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from time import perf_counter

from . import gasket, oracle, restrictions
from .gasket import BoundaryValues, EdgePoint


@dataclass
class SuiteResult:
    name: str
    status: str  # "PASS", "FAIL", or "INCONCLUSIVE": a sampled category checked nothing
    details: str = ""
    counterexample: dict = field(default_factory=dict)
    elapsed_s: float = 0.0  # wall time of the suite, set by run_suites

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


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
    """Exact text of a certificate value: a triple reads "alpha,beta,gamma", else its str."""
    if isinstance(value, BoundaryValues):
        return ",".join(map(str, value.as_tuple()))
    return str(value)


def _fail(name: str, msg: str, **ce) -> SuiteResult:
    return SuiteResult(name, "FAIL", msg, {k: _text(v) for k, v in ce.items()})


def _pass(name: str, details: str, *checked: int) -> SuiteResult:
    """PASS, or INCONCLUSIVE when a sampled category's count of checked cases is 0."""
    return SuiteResult(name, "PASS" if all(checked) else "INCONCLUSIVE", details)


#: The corner basis.  Two maps linear in (alpha, beta, gamma) that agree on
#: these three triples agree on every rational triple.
UNIT_TRIPLES = (BoundaryValues(1, 0, 0), BoundaryValues(0, 1, 0), BoundaryValues(0, 0, 1))


def _over(side) -> tuple[list, int]:
    """A side as integer numerators over one positive denominator: a pair
    (numerators, denominator) as it is given, a list of values over the lcm of
    their denominators."""
    if isinstance(side, tuple):
        return side
    den = lcm(*(x.denominator for x in side))
    return [x.numerator * (den // x.denominator) for x in side], den


def _linear(name: str, sides, ms, scope: str, trials: int, seed: int) -> SuiteResult:
    """Check sides(bv, m) -> (lhs, rhs, statements), two maps linear in the
    triple and one short statement per entry, for each m in ms.  A side is a
    list of values or a pair (numerators, denominator).  The three lists must
    have one length; a failing entry's statement is the FAIL's message.
    Values are compared as integers, by cross-multiplication, and a Fraction
    is built only for a failure's certificate.  The check runs on
    UNIT_TRIPLES, which proves the identity for every rational triple, then
    on `trials` random triples, which checks that the code computes those
    linear maps: each sampled value must also equal alpha*u0 + beta*u1 +
    gamma*u2 of its unit-triple values u, in integers apart from the kernel,
    so a fault both sides share is seen too."""
    rng = random.Random(seed)
    units = {m: [] for m in ms}  # m -> the unit triples' lhs sides, then (d, numerators over d)
    for i, bv in enumerate((*UNIT_TRIPLES, *(random_triple(rng) for _ in range(trials)))):
        den = lcm(*(x.denominator for x in bv.as_tuple()))  # the triple over den
        a, b, g = (x.numerator * (den // x.denominator) for x in bv.as_tuple())
        for m in ms:
            lhs, rhs, statements = sides(bv, m)
            (lhs, lden), (rhs, rden) = _over(lhs), _over(rhs)
            if not len(lhs) == len(rhs) == len(statements):
                return _fail(name, "sides differ in length", bv=bv, m=m, lhs=len(lhs),
                             rhs=len(rhs), statements=len(statements))
            for at, (x, y) in enumerate(zip(lhs, rhs)):
                if x * rden != y * lden:
                    return _fail(name, statements[at], bv=bv, m=m, at=at,
                                 lhs=Fraction(x, lden), rhs=Fraction(y, rden))
            if i < 3:
                units[m].append((lhs, lden))
                continue
            if i == 3:  # the unit-triple values over the lcm d of their denominators
                d = lcm(*(ud for _, ud in units[m]))
                units[m] = d, [[u * (d // ud) for u in us] for us, ud in units[m]]
            d, us = units[m]
            for at, (x, u0, u1, u2) in enumerate(zip(lhs, *us)):
                n = a * u0 + b * u1 + g * u2  # x / lden must be n / (den * d)
                if x * den * d != n * lden:
                    return _fail(name, "sample is not the combination of its unit-triple "
                                 "values", bv=bv, m=m, at=at, lhs=Fraction(x, lden),
                                 rhs=Fraction(n, den * d))
    return _pass(name, f"proven on the unit triples for every rational triple, {scope}; "
                 f"{trials} random triples agree")


def suite_lemma1(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """Midpoint-ratio conditions agree with the closed inequality form."""
    rng = random.Random(seed)
    pairs = max(trials // 100, 10)  # then pairs (b, g) saturating both boundary hyperplanes
    for bv in chain((random_triple(rng) for _ in range(trials)),  # each drawn when checked
                    (BoundaryValues(a, b, g) for _ in range(pairs)
                     for b, g in [(random_rational(rng), random_rational(rng))]
                     for a in (2 * g - b, 2 * b - g))):
        a, b, g = bv.as_tuple()
        expected = b < g and 2 * b - g <= a <= 2 * g - b
        if restrictions.dsv_check(bv) != expected:
            return _fail("lemma1", "ratio form disagrees with inequality form", bv=bv)
    return _pass("lemma1", f"{trials + 2 * pairs} triples, exact agreement")


def suite_lemma2(trials: int = 100, m_max: int = 20, seed: int = 0) -> SuiteResult:
    """Closed forms at 1/2^m, 1-1/2^m, l_m, r_m equal recursive evaluation."""
    statements = [f"closed form at {w} = eval_dyadic there" for w in gasket.LEMMA2_POINTS]

    def sides(bv, m):
        return ([gasket.closed_form_lemma2(bv, m, w) for w in gasket.LEMMA2_POINTS],
                [gasket.eval_dyadic(bv, EdgePoint("bottom", gasket.lemma2_abscissa(m, w)))
                 for w in gasket.LEMMA2_POINTS], statements)
    return _linear("lemma2", sides, range(1, m_max + 1),
                   f"m <= {m_max}, all four families", trials, seed)


def suite_theorem3(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Sampled behavior matches the monotonicity classification, each triple
    on an edge drawn at random.  On a NonMonotone edge, every sample of the
    depth-12 profile that attains its max (or min, by the bracket's kind)
    sits at an end of locate_extremum's depth-12 bracket [lo, hi], at that
    one point when lo = hi: the restriction is strictly monotone on each side
    of its extremum, which the bracket holds."""
    rng = random.Random(seed)
    inc = restrictions.MonotonicityClass.STRICTLY_INCREASING
    non = restrictions.MonotonicityClass.NON_MONOTONE
    checked_inc = checked_non = 0
    for _ in range(trials):
        if checked_inc == checked_non == 40:
            break
        bv = random_triple(rng, 30)
        edge = rng.choice(gasket.EDGES)
        cls = restrictions.classify_edge(bv, edge)
        if cls is inc and checked_inc < 40:
            # numerators over one positive denominator, in the values' order
            prof, _ = gasket.edge_profile(bv, 10, edge)
            if any(x >= y for x, y in zip(prof, prof[1:])):
                return _fail("theorem3", "increasing class not strictly increasing",
                             bv=bv, edge=edge)
            checked_inc += 1
        elif cls is non and checked_non < 40:
            (a, b, g), den, _ = gasket.edge_cell(bv, edge, 1)  # the edge's frame
            margin = max(abs(a - (2 * b - g)), abs(a - (2 * g - b)), abs(b - g))
            if margin < den:
                continue  # near-boundary triples need unbounded depth
            prof, _ = gasket.edge_profile(bv, 12, edge)
            diffs = [y - x for x, y in zip(prof, prof[1:])]
            if not (any(d > 0 for d in diffs) and any(d < 0 for d in diffs)):
                return _fail("theorem3", "non-monotone class looks monotone at depth 12",
                             bv=bv, edge=edge)
            bracket = restrictions.locate_extremum(bv, edge, 12)
            best = (max if bracket.kind == "max" else min)(prof)
            at = [k for k, v in enumerate(prof) if v == best]
            if any(k not in (bracket.lo * 2 ** 12, bracket.hi * 2 ** 12) for k in at):
                return _fail("theorem3", f"profile's {bracket.kind} outside the extremum "
                             "bracket at depth 12", bv=bv, edge=edge, kind=bracket.kind,
                             lo=bracket.lo, hi=bracket.hi, indices=at)
            checked_non += 1
    return _pass("theorem3", f"{checked_inc} increasing and {checked_non} non-monotone "
                 "triples sampled, each on a random edge; every extreme sample of a "
                 "non-monotone depth-12 profile at an end of its extremum bracket",
                 checked_inc, checked_non)


def _relation_triple(rng: random.Random, line: int) -> BoundaryValues:
    """A nonconstant triple on the relation line 2x = y + z, x its corner `line`."""
    while True:
        y, z = random_rational(rng), random_rational(rng)
        if y != z:
            t = [y, z]
            t.insert(line, (y + z) / 2)
            return BoundaryValues(*t)


def suite_theorem4(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """Vertex relations agree with strict classification on all three edges,
    and exactly one edge is NonMonotone when no relation holds.  On a
    relation line, corner_relations gives that line's relation."""
    rng = random.Random(seed)
    cls = restrictions.MonotonicityClass
    strict = (cls.STRICTLY_INCREASING, cls.STRICTLY_DECREASING)
    per_line = max(trials // 100, 10)  # then triples planted on each relation line
    related = unrelated = 0
    for bv in chain((random_nonconstant_triple(rng) for _ in range(trials)),
                    (_relation_triple(rng, line) for line in range(3)
                     for _ in range(per_line))):
        classes = [restrictions.classify_edge(bv, e) for e in gasket.EDGES]
        if restrictions.simultaneous_monotone(bv) != all(c in strict for c in classes):
            return _fail("theorem4", "vertex relations disagree with edge classes", bv=bv)
        a, b, g = bv.as_tuple()
        lines = [2 * a == b + g, 2 * b == a + g, 2 * g == a + b]
        relation = any(lines)
        if relation:  # a nonconstant triple is on one line at most
            want = [((2, -1, -1), (1, -2, 1), (1, 1, -2))[lines.index(True)]]
            got = restrictions.corner_relations(bv, 5)
            if got != want:
                return _fail("theorem4", "corner relation is not the relation line's",
                             bv=bv, relations=got, line=want)
        non = classes.count(cls.NON_MONOTONE)
        if non != (0 if relation else 1):
            return _fail("theorem4", "wrong count of NonMonotone edges: 0 on a relation "
                         "line, 1 off it", bv=bv, non_monotone=non)
        related += relation
        unrelated += not relation
    return _pass("theorem4", f"{trials + 3 * per_line} nonconstant triples: {related} on a "
                 "relation line with that line's corner relation and no NonMonotone edge, "
                 f"{unrelated} on none with exactly one", related, unrelated)


def suite_lemma4(trials: int = 100, m_max: int = 15, seed: int = 0) -> SuiteResult:
    """Exact left difference quotient at l_m equals its dominant-term form."""
    half = Fraction(1, 2)

    def sides(bv, m):
        a, b, g = bv.as_tuple()
        rise = (gasket.closed_form_lemma2(bv, m, "l_m")
                - gasket.eval_dyadic(bv, EdgePoint("bottom", half)))
        return ([rise / (gasket.lemma2_abscissa(m, "l_m") - half)],
                [Fraction(3, 5) * Fraction(6, 5) ** m * (g - b)
                 + Fraction(2, 5) ** m * (2 * a - 3 * b + g) / 5],
                ["left quotient at l_m = its dominant-term form"])
    return _linear("lemma4", sides, range(1, m_max + 1),
                   f"m <= {m_max}", trials, seed)


def suite_theorem5(trials: int = 1000, depth: int = 6, seed: int = 0) -> SuiteResult:
    """At most one contour junction point carries a Zero derivative class.
    Each triple is first checked for the premise of the zero scan, which walks
    only an edge whose end forms have strictly opposite signs: at most one
    edge has them.  Then the end forms the scan reads, restrictions._edge_ends
    on the vertex forms, must equal those of each whole-edge frame cell.

    The proof reads every Zero form to `depth` on UNIT_TRIPLES, as integer
    rows f: the three vertex forms, and the form a + g - 2b of cell k of
    gasket.bottom_cells(u, d, edge), which count_zero_junctions tests at
    junction k/2^d (k odd, d <= depth, a junction's row over 5^d).  Each
    form vanishes on the constants, and two that are not proportional vanish
    together only there, so when no form is 0 and no two are proportional,
    no nonconstant real triple has two Zero junctions to `depth` (Stanley,
    "An introduction to hyperplane arrangements", 2004, lecture 1).

    Random triples almost never carry a zero, so a triple is then planted on
    each Zero line up to depth min(depth, 6).  The triple f x (1, 1, 1) =
    (f1 - f2, f2 - f0, f0 - f1) is on the line f = 0.  The zero scan must
    find exactly that zero on it; at a junction, both derivative classes must
    be Zero and the extremum descent must stop there."""
    def text(zeros):
        return ", ".join(map(restrictions.format_zero, zeros))
    rng = random.Random(seed)
    worst = 0
    for _ in range(trials):
        bv = random_nonconstant_triple(rng)
        ends = {edge: restrictions._ends(gasket.edge_cell(bv, edge, 1)[0])
                for edge in gasket.EDGES}
        if sum(x * y < 0 for x, y in ends.values()) > 1:
            return _fail("theorem5", "more than one edge with end forms of opposite sign",
                         bv=bv, **ends)
        for edge, frame in ends.items():  # the ends the zero scan reads
            forms = restrictions._edge_ends(bv, edge)
            if forms != frame:
                return _fail("theorem5", "vertex forms disagree with the whole-edge frame "
                             "cell", bv=bv, edge=edge, vertex_forms=forms, frame_cell=frame)
        count, zeros = restrictions.count_zero_junctions(bv, depth)
        worst = max(worst, count)
        if count > 1:
            return _fail("theorem5", "more than one zero junction", bv=bv, zeros=text(zeros))
    lines = [(("vertex", name), tuple(restrictions._vertex_forms(u)[i] for u in UNIT_TRIPLES))
             for i, name in enumerate(restrictions.VERTICES)]
    for edge in gasket.EDGES:
        for d in range(1, depth + 1):
            cells = list(zip(*(gasket.bottom_cells(u, d, edge) for u in UNIT_TRIPLES)))
            lines += [((edge, Fraction(k, 2 ** d)),
                       tuple(a + g - 2 * b for a, b, g in cells[k])) for k in range(1, 2 ** d, 2)]
    seen = {}  # a form's primitive multiple, first nonzero part positive -> (zero, form)
    for zero, form in lines:
        lead = next((f for f in form if f), 0)
        if not lead:
            return _fail("theorem5", "a Zero form vanishes on every triple",
                         zero=restrictions.format_zero(zero), form=form)
        g = gcd(*form) if lead > 0 else -gcd(*form)
        other, other_form = seen.setdefault(tuple(f // g for f in form), (zero, form))
        if other != zero:
            return _fail("theorem5", "two Zero forms are proportional",
                         first=restrictions.format_zero(other), first_form=other_form,
                         second=restrictions.format_zero(zero), second_form=form)
    top = min(depth, 6)
    shallow = [(zero, form) for zero, form in lines
               if zero[0] == "vertex" or zero[1].denominator <= 2 ** top]
    for zero, (f0, f1, f2) in shallow:
        bv, planted = BoundaryValues(f1 - f2, f2 - f0, f0 - f1), restrictions.format_zero(zero)
        count, zeros = restrictions.count_zero_junctions(bv, depth)
        if (count, zeros) != (1, [zero]):
            return _fail("theorem5", "the zero scan does not find exactly the planted zero",
                         bv=bv, planted=planted, zeros=text(zeros))
        if zero[0] == "vertex":
            continue
        edge, x = zero
        left, right = restrictions.junction_derivative(bv, edge, x)
        if (left, right) != (restrictions.DerivClass.ZERO,) * 2:
            return _fail("theorem5", "derivative classes at the planted zero are not Zero",
                         bv=bv, planted=planted, left=left.value, right=right.value)
        bracket = restrictions.locate_extremum(bv, edge, depth)
        if bracket.lo != x or bracket.hi != x:
            return _fail("theorem5", "the extremum descent does not stop at the planted "
                         "zero", bv=bv, planted=planted, lo=bracket.lo, hi=bracket.hi)
    return _pass("theorem5", f"{trials} triples, depth {depth}, max zero-count {worst}; "
                 f"{len(lines)} Zero forms to depth {depth} pairwise non-proportional; "
                 "vertex-form end pairs equal to the frame cells' on every edge; premise "
                 "of the one-edge zero scan checked: at most one edge per triple has end "
                 f"forms of opposite sign; {len(shallow)} planted Zero lines to depth {top}, "
                 "each with exactly its one zero, found by the scan, and at a junction "
                 "with Zero classes and the extremum descent stopping there", len(shallow))


def suite_eq16(trials: int = 100, m_max: int = 30, seed: int = 0) -> SuiteResult:
    """5*alpha_m + 15*beta_m + 7*gamma_m is conserved along the nesting.  At
    m = 0, also 27 f(1/3) of each edge is 5a + 15b + 7g of the edge's corners
    (a, b, g), read through gasket._EDGE_PERMUTATION, and 27 f(2/3) is the
    same with b and g swapped."""
    def sides(bv, m):
        seq = restrictions.triangle_sequence(bv, m)
        lhs = [5 * seq.alpha_m + 15 * seq.beta_m + 7 * seq.gamma_m]
        rhs = [restrictions.conserved_combination(bv)]
        statements = ["conserved combination drifted"]
        if m:
            return lhs, rhs, statements
        t = bv.as_tuple()
        for edge, (i, j, l) in gasket._EDGE_PERMUTATION.items():
            lhs += [27 * gasket.eval_dyadic(bv, EdgePoint(edge, Fraction(n, 3)))
                    for n in (1, 2)]
            rhs += [5 * t[i] + 15 * t[j] + 7 * t[l], 5 * t[i] + 7 * t[j] + 15 * t[l]]
            statements += [f"27 f(1/3) of {edge} = 5a + 15b + 7g of its corners",
                           f"27 f(2/3) of {edge} = 5a + 7b + 15g of its corners"]
        return lhs, rhs, statements
    return _linear("eq16", sides, range(m_max + 1),
                   f"m <= {m_max}, and f(1/3), f(2/3) of every edge at m = 0", trials, seed)


def suite_closed_form(trials: int = 100, m_max: int = 30, seed: int = 0) -> SuiteResult:
    """Q(sqrt13) closed forms (gamma, beta), from integer powers of 7 + sqrt13,
    match the exact recursion."""
    def sides(bv, m):
        seq = restrictions.triangle_sequence(bv, m)
        return ([restrictions.gamma_closed_form(bv, m), restrictions.beta_closed_form(bv, m)],
                [seq.gamma_m, seq.beta_m],
                ["gamma_m closed form = recursion", "beta_m closed form = recursion"])
    return _linear("closedform", sides, range(m_max + 1),
                   f"m <= {m_max}", trials, seed)


def suite_theorem6(trials: int = 100, m_max: int = 25, seed: int = 0) -> SuiteResult:
    """Difference quotients toward 1/3 shrink by at least 9/10 per step from
    their exact onset: every step m -> m+1 with max(m0, 3) <= m < m_max,
    where m0 = restrictions.third_point_onset.  Steps before m0, where the
    two geometric terms can nearly cancel, are counted and passed over; a
    side with no step checked leaves the suite INCONCLUSIVE."""
    rng = random.Random(seed)
    ratio = Fraction(9, 10)
    passed_over = worst_m0 = 0
    checked = {"left": 0, "right": 0}
    table = []
    for t in range(trials):
        bv = random_nonconstant_triple(rng)
        onsets = restrictions.third_point_onset(bv)
        worst_m0 = max(worst_m0, *onsets)
        # |q(m)| for m = 3..m_max, one row per side
        rows = zip(*(map(abs, restrictions.third_point_quotients(bv, m))
                     for m in range(3, m_max + 1)))
        for side, m0, row in zip(("left", "right"), onsets, rows):
            for m, prev, q in zip(range(3, m_max), row, row[1:]):
                if m < m0:
                    passed_over += 1
                elif q > ratio * prev:
                    return _fail("theorem6", "quotient step ratio above 9/10 after onset m0",
                                 bv=bv, side=side, m=m, m0=m0, prev=prev, current=q,
                                 ratio=q / prev if prev else "inf")
                else:
                    checked[side] += 1
                if t == 0 and side == "right":
                    table.append(f"m={m + 1}: |q|={float(q):.3e}")
    return _pass("theorem6", f"{trials} triples, both sides, 3 <= m <= {m_max}: "
                 f"{sum(checked.values())} steps checked from onset m0 (max m0 {worst_m0}), "
                 f"{passed_over} before onset passed over; sample decay: "
                 + ", ".join(table[:6]), *checked.values())


def suite_oracle(depth: int = 3, trials: int = 25, seed: int = 0) -> SuiteResult:
    """Graph solve agrees with cell addressing at every corner of every level-m
    cell, and the five-point and mean-value checkers accept the solve.  Both
    sides are integer numerators over one denominator: the solve's as it
    holds them, the kernel's over L*5^m.  A checker's entry is 0 when it
    accepts the solve and 1 when it rejects it, against 0."""
    def sides(bv, m):
        *cells, den = gasket.to_numerators(bv)  # the root cell, over L
        for _ in range(m):  # the level-m cells, in graph.triangles' order
            cells = [gasket.child_numerators(t, d) for t in cells for d in "012"]
        graph = oracle.build_graph(m)
        solved = oracle.solve_harmonic(m, bv)
        nums = solved.numerators
        corners = [nums[v] for _, tri in graph.triangles[m] for v in tri]
        return ((corners + [0 if check(graph, solved) else solved.den
                            for check in (oracle.check_five_point, oracle.check_mean_value)],
                 solved.den),
                ([x for t in cells for x in t] + [0, 0], den * 5 ** m),
                ["graph solve = cell addressing"] * len(corners)
                + ["check_five_point accepts the solve", "check_mean_value accepts the solve"])
    return _linear("oracle", sides, range(1, depth + 1), f"levels m <= {depth}", trials, seed)


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


#: Largest --depth per suite: the guards of the oracle's level and of the zero scan.
MAX_DEPTH = {"oracle": oracle.MAX_LEVEL, "theorem5": restrictions.MAX_ZERO_DEPTH}
#: Largest trials * base^depth per suite, as (base, bound): the defaults at the
#: deepest depth, so every default runs and hours of work are refused.
MAX_WORK = {"oracle": (3, 25 * 3 ** MAX_DEPTH["oracle"]),
            "theorem5": (2, 1000 * 2 ** MAX_DEPTH["theorem5"])}
#: Largest trials * m_max of each suite that takes m_max; about 15 s or less at it.
_MAX_M_WORK = 300_000


def run_suites(names=None, seed: int = 0, **overrides) -> list[SuiteResult]:
    """Run the named suites (all by default), each with the overrides among
    its parameters.  An override that no named suite takes, or a depth or work
    above a named suite's MAX_DEPTH, MAX_WORK or _MAX_M_WORK, is a ValueError
    raised before any suite runs; with no names it also says which suites refuse.
    A suite that raises FAILs with the exception as its certificate, and the
    others still run."""
    every, names = not names, list(names or SUITES)
    given = {key: value for key, value in overrides.items() if value is not None}
    params = {name: inspect.signature(SUITES[name]).parameters for name in names}
    for key in given:
        if not any(key in p for p in params.values()):
            raise ValueError(f"no selected suite ({', '.join(names)}) takes "
                             f"--{key.replace('_', '-')}")
    refused = {}
    for name in (name for name in names if "m_max" in params[name]):
        trials, m_max = (given.get(k, params[name][k].default) for k in ("trials", "m_max"))
        if trials * m_max > _MAX_M_WORK:
            refused[name] = (f"suite {name} takes --trials * --m-max up to {_MAX_M_WORK}, "
                             f"got {trials} * {m_max}")
    for name in (name for name in names if name in MAX_DEPTH):
        depth, trials = (given.get(k, params[name][k].default) for k in ("depth", "trials"))
        base, bound = MAX_WORK[name]
        if depth > MAX_DEPTH[name]:
            refused[name] = f"suite {name} takes --depth up to {MAX_DEPTH[name]}, got {depth}"
        elif trials * base ** depth > bound:
            refused[name] = (f"suite {name} takes --trials * {base}^--depth up to "
                              f"{bound}, got {trials} * {base}^{depth}")
    if refused:
        message = "; ".join(refused.values())
        if every:
            message += (f". With no --suite every suite runs, and {' and '.join(refused)} "
                        f"refuse{'s' if len(refused) == 1 else ''} these options: pick "
                        "the others with --suite")
        raise ValueError(message)
    results = []
    for name in names:
        start = perf_counter()
        kwargs = {k: v for k, v in given.items() if k in params[name]}
        try:
            result = SUITES[name](seed=seed, **kwargs)
        except Exception as exc:  # a fault in the program, not in the options
            error = f"{type(exc).__name__}: {exc}"
            result = _fail(name, f"raised {error}", error=error)
        result.elapsed_s = perf_counter() - start
        results.append(result)
    return results
