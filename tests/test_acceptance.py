"""End-to-end acceptance run: one test and one printed line per criterion.

Everything is exact rational arithmetic, so every comparison below is
equality with zero tolerance; the only stated bounds are case counts and
wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from tropcurve.complexes import intersect
from tropcurve.curve import Curve, disjoint_union
from tropcurve.errors import TropError
from tropcurve.gluing import Embedding, glue, glue_function
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.morphism import Morphism, pullback, weight_check, weight_from_generators
from tropcurve.plfunction import PLFunction, module_degree, principal_divisor, pseudodirect_tuple
from tropcurve.randgen import CONIC_POLY, DOUBLE_LINE_POLY, LINE_POLY
from tropcurve.realization import fit_tropical_polynomial
from tropcurve.selftest import (suite_complex_round_trip, suite_disconnection, suite_fit,
                                suite_function_axioms, suite_generator_identities,
                                suite_germ_axioms, suite_intersections, suite_localization,
                                suite_module_degree, suite_restrict_extend, suite_scalar_axioms)
from tropcurve.semifield import Germ, TropPoly


def report(number: int, text: str):
    print(f"criterion {number:2d} pass: {text}")


def the_line() -> Curve:
    return Curve.doubly_infinite_line()


def line_fn(c: Curve, k: int) -> PLFunction:
    return PLFunction.from_edge_data(c, {"right": ([(0, 0)], k), "left": ([(0, 0)], -k)})


def test_criterion_01_semifield_axiom_suites():
    start = time.monotonic()
    rng = random.Random("acceptance-1")
    for suite in (suite_scalar_axioms, suite_germ_axioms, suite_function_axioms):
        assert suite(rng, 1000) == 1000
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"axiom suites took {elapsed:.1f}s"
    report(1, f"scalar, germ, and function semifields: 1000 cases each in {elapsed:.1f}s")


def test_criterion_02_generator_identities():
    # Deterministic: the suite checks ranks 1..8 whatever stream and count it is given.
    assert suite_generator_identities(random.Random(), 8) == 8
    v = Germ.of(0, (1, -1))
    assert v.add(Germ.unit(2)) == Germ.of(0, (1, 0))
    assert v.inv().add(Germ.unit(2)) == Germ.of(0, (0, 1))
    report(2, "generator identities verified exactly for ranks 1..8")


def test_criterion_03_source_regressions():
    start = time.monotonic()
    line = the_line()
    # Principal divisor of the doubled coordinate.
    d = principal_divisor(line_fn(line, 2))
    assert d.coeff(line.pt_infinity_of("left")) == 2
    assert d.coeff(line.pt_infinity_of("right")) == -2
    assert len(d.coeffs) == 2
    # Module degrees one and two.
    assert module_degree([line_fn(line, 1)]) == 1
    assert module_degree([line_fn(line, 2)]) == 2
    # Weights one and two on the line, by both routes.
    ident = Morphism.identity(line)
    dbl = Morphism(line, line,
                   {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
                   {"left": ("edge", "left"), "right": ("edge", "right")},
                   {"left": 2, "right": 2})
    w1, w2 = weight_check(ident), weight_check(dbl)
    assert w1.is_weight and set(dict(w1.edge_weights).values()) == {1}
    assert w2.is_weight and set(dict(w2.edge_weights).values()) == {2}
    assert weight_from_generators([pullback(ident, line_fn(line, 1))], "right") == 1
    assert weight_from_generators([pullback(dbl, line_fn(line, 1))], "right") == 2
    # The shared-class pair (f, 0) lies in the pseudodirect product but not
    # in the parallel-ray function semifield.
    u = disjoint_union([line, the_line()], shared_classes={
        "minus": [(0, "left"), (1, "left")], "plus": [(0, "right"), (1, "right")]})
    comps = u.components()
    f = PLFunction.from_edge_data(comps[0], {"0:right": ([(0, 0)], 1), "0:left": ([(0, 0)], 0)})
    pair = pseudodirect_tuple(u, [f, PLFunction.constant(comps[1], 0)])
    ok, witness = pair.respects_ray_classes()
    assert not ok and witness[0] == "plus"
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"regressions took {elapsed:.2f}s"
    report(3, f"divisor, degree, weight, and shared-class regressions in {elapsed:.2f}s")


def test_criterion_04_module_degree_invariance():
    assert suite_module_degree(random.Random("acceptance-4"), 200) == 200
    report(4, "module degree unchanged by 200 random regenerations")


def test_criterion_05_localization_and_harmonicity():
    assert suite_localization(random.Random("acceptance-5"), 500) == 500
    report(5, "localization homomorphism and slope-sum harmonicity on 500 triples")


def test_criterion_06_balanced_round_trip():
    start = time.monotonic()
    done = suite_complex_round_trip(random.Random("acceptance-6"), 20)
    assert done == 20
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"round trips took {elapsed:.1f}s"
    report(6, f"{done} balanced complexes re-realized exactly in {elapsed:.1f}s")


def test_criterion_07_polynomial_fitting():
    done = suite_fit(random.Random("acceptance-7"), 12)
    assert done == 12
    assert fit_tropical_polynomial(plane_hypersurface(LINE_POLY)).degree() == 1
    assert fit_tropical_polynomial(plane_hypersurface(DOUBLE_LINE_POLY)).degree() == 2
    assert fit_tropical_polynomial(plane_hypersurface(CONIC_POLY)).degree() == 2
    report(7, f"fits verified on {done} complexes; degrees 1, 2, 2 recovered")


def test_criterion_08_intersections_and_degree_bound():
    line0 = plane_hypersurface(LINE_POLY)
    pts = intersect(line0, line0.translate((1, 2)))
    assert [(p.point, p.multiplicity) for p in pts] == [((1, 1), 1)]
    vertical2 = plane_hypersurface(DOUBLE_LINE_POLY)
    horizontal = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (0, 1): 0}))
    pts2 = intersect(vertical2, horizontal)
    assert [(p.point, p.multiplicity) for p in pts2] == [((0, 0), 2)]

    assert suite_intersections(random.Random("acceptance-8"), 50) == 50
    report(8, "50 random transversal pairs kept within the degree-product bound")


def test_criterion_09_disconnection_witnesses():
    # Each case verifies a witness on a disconnected curve and runs the
    # negative controls on a connected one.
    assert suite_disconnection(random.Random("acceptance-9"), 100) == 100
    report(9, "witnesses verified on disconnected curves; no connected impostors in 100 runs")


def test_criterion_10_restriction_extension_and_gluing():
    rng = random.Random("acceptance-10")
    assert suite_restrict_extend(rng, 200) == 200

    # Gluing accepts exactly the pairs that agree on the shared subgraph.
    accepted = rejected = 0
    for k in range(60):
        left = Curve.segment(2, "A", "B", "e")
        right = Curve.segment(2, "C", "D", "f")
        shape = Curve.segment(1, "U", "V", "s")
        e1 = Embedding(shape, {"U": left.pt_on_edge("e", 1), "V": left.pt_vertex("B")},
                       {"s": ("e", Fraction(1), 1)})
        e2 = Embedding(shape, {"U": right.pt_vertex("C"),
                               "V": right.pt_on_edge("f", 1)},
                       {"s": ("f", Fraction(0), 1)})
        res = glue(left, right, e1, e2)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        h1 = PLFunction.from_edge_data(left, {"e": ([(0, 0), (1, a), (2, a + b)], None)})
        match = rng.random() < 0.5
        if match:
            h2 = PLFunction.from_edge_data(
                right, {"f": ([(0, a), (1, a + b), (2, a + b)], None)})
        else:
            h2 = PLFunction.from_edge_data(
                right, {"f": ([(0, a), (1, a + b + 1), (2, a + b + 1)], None)})
        try:
            welded = glue_function(h1, h2, res)
            assert match, "disagreeing pair was welded"
            p = res.map1.point(left.pt_vertex("B"))
            assert welded.value_at(p) == a + b
            accepted += 1
        except TropError:
            assert not match, "agreeing pair was rejected"
            rejected += 1
    assert accepted and rejected
    report(10, f"200 restriction identities; gluing accepted {accepted} and "
               f"rejected {rejected} pairs correctly")
