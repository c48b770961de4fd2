"""Rational functions: arithmetic, chip firing, divisors, modules, extension."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from tropcurve.complexes import PolyComplex1D
from tropcurve.curve import INF, Curve, disjoint_union
from tropcurve.errors import TropError
from tropcurve.glue import Embedding, validate_embedding
from tropcurve.morphism import Morphism, pullback
from tropcurve.plfunction import (Divisor, PLFunction, Profile, chip_fire, disconnection_witness,
                                  extend, is_harmonic_at, module_degree, principal_divisor,
                                  pseudodirect_tuple, rd_contains, restrict, restrict_whole,
                                  split_components, witness_conditions)
from tropcurve.randgen import (random_class_respecting_function, random_curve, random_function,
                               random_rational)
from tropcurve.selftest import (semifield_laws, suite_chip_fire, suite_disconnection,
                                suite_divisors, suite_module_degree, suite_restrict_extend)
from tropcurve.semifield import Germ, TropPoly, germ_generator_report
from tropcurve.subgraph import make_subgraph, point_subgraph, whole_subgraph

from conftest import identity_fn, rng_for, scaled_fn


class TestOps:
    def test_crossing_refinement(self, segment3):
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        g = PLFunction.from_edge_data(segment3, {"e": ([(0, 2), (3, -1)], None)})
        h = f.add(g)
        assert h.value_at(segment3.pt_on_edge("e", 1)) == 1
        assert h.profiles["e"].breaks == ((0, 2), (1, 1), (3, 3))

    def test_neg_inf_laws(self, segment3):
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        z = PLFunction.neg_inf(segment3)
        assert f.add(z) == f and z.add(f) == f
        assert f.mul(z).is_neg_inf
        with pytest.raises(TropError):
            z.inv()

    def test_cancellation(self, line):
        f = identity_fn(line)
        assert f.mul(f.inv()) == PLFunction.constant(line, 0)

    def test_mismatched_curves(self, segment3, line):
        with pytest.raises(TropError):
            PLFunction.constant(segment3, 0).add(PLFunction.constant(line, 0))

    def test_semifield_laws_random(self):
        # Unfiltered draws, many breakpoints included; criterion 1 keeps to light functions.
        rng = rng_for("pl-axioms")
        for _ in range(40):
            c = random_curve(rng)
            f, g, h = (random_function(c, rng, allow_neg_inf=True) for _ in range(3))
            semifield_laws(f, g, h, PLFunction.constant(c, 0))


class TestEval:
    def test_chip_fire_value(self, segment3):
        g = point_subgraph(segment3, segment3.pt_vertex("A"))
        cf = chip_fire(segment3, g, 2)
        assert cf.value_at(segment3.pt_on_edge("e", 1)) == -1

    def test_infinity_values(self, line):
        f = identity_fn(line)
        assert f.value_at(line.pt_infinity_of("right")) == INF
        assert f.value_at(line.pt_infinity_of("left")) == -INF
        assert PLFunction.neg_inf(line).value_at(line.pt_vertex("O")) == -INF

    def test_off_curve(self, segment3):
        with pytest.raises(TropError):
            PLFunction.constant(segment3, 0).value_at(segment3.pt_vertex("Z"))


class TestChipFire:
    def test_segment_profile(self, segment3):
        g = point_subgraph(segment3, segment3.pt_vertex("A"))
        cf = chip_fire(segment3, g, 2)
        assert cf.value_at(segment3.pt_vertex("A")) == 0
        assert cf.value_at(segment3.pt_on_edge("e", Fraction(5, 2))) == -2
        assert cf.value_at(segment3.pt_vertex("B")) == -2

    def test_whole_curve_constant_zero(self, segment3):
        assert chip_fire(segment3, whole_subgraph(segment3), 7) == PLFunction.constant(segment3, 0)

    def test_component_left_at_zero(self, segment3):
        u = disjoint_union([segment3, segment3])
        g = make_subgraph(u, vertices=["0:A"])
        cf = chip_fire(u, g, 1)
        assert cf.value_at(u.pt_vertex("1:A")) == 0
        assert cf.value_at(u.pt_vertex("1:B")) == 0
        assert cf.value_at(u.pt_on_edge("0:e", 1)) == -1

    def test_bounds_random(self):
        assert suite_chip_fire(rng_for("cf-bounds"), 30) == 30

    def test_inf_spelled_as_text(self, tripod):
        g = point_subgraph(tripod, tripod.pt_vertex("O"))
        assert chip_fire(tripod, g, "inf") == chip_fire(tripod, g, INF)
        for bad in ("Inf", " inf "):
            with pytest.raises(TropError, match=re.escape(f"not a rational literal: {bad!r}")):
                chip_fire(tripod, g, bad)


class TestOutgoingSlope:
    def test_at_infinity_negated(self, line):
        f = identity_fn(line)
        (d,) = line.directions_at(line.pt_infinity_of("right"))
        assert f.outgoing_slope(line.pt_infinity_of("right"), d) == -1

    def test_interior_both_directions(self, line):
        f = identity_fn(line)
        p = line.pt_on_edge("right", 2)
        down, up = line.directions_at(p)
        assert {f.outgoing_slope(p, down), f.outgoing_slope(p, up)} == {1, -1}

    def test_star_center(self, tripod):
        cf = chip_fire(tripod, point_subgraph(tripod, tripod.pt_vertex("O")), INF)
        for d in tripod.directions_at(tripod.pt_vertex("O")):
            assert cf.outgoing_slope(tripod.pt_vertex("O"), d) == -1

    def test_invalid_direction(self, line):
        f = identity_fn(line)
        with pytest.raises(TropError):
            f.outgoing_slope(line.pt_vertex("O"), "nonsense:+")


class TestDivisors:
    def test_double_identity(self, line):
        d = principal_divisor(scaled_fn(line, 2))
        assert d.coeff(line.pt_infinity_of("left")) == 2
        assert d.coeff(line.pt_infinity_of("right")) == -2
        assert d.degree() == 0

    def test_chip_fire_divisor(self, segment3):
        cf = chip_fire(segment3, point_subgraph(segment3, segment3.pt_vertex("A")), 2)
        d = principal_divisor(cf)
        assert d.coeff(segment3.pt_vertex("A")) == -1
        assert d.coeff(segment3.pt_on_edge("e", 2)) == 1
        assert len(d.coeffs) == 2

    def test_constant_gives_zero_divisor(self, segment3):
        assert principal_divisor(PLFunction.constant(segment3, 5)) == Divisor(segment3, {})

    def test_degree_zero_and_homomorphism_random(self):
        assert suite_divisors(rng_for("div-zero"), 40) == 40

    def test_support_runs_the_union_find_once(self, monkeypatch):
        n = 400
        path = Curve.build(vertices=[f"v{i}" for i in range(n + 1)],
                           edges=[(f"e{i}", f"v{i}", f"v{i + 1}", 2) for i in range(n)])
        tents = PLFunction.from_edge_data(
            path, {f"e{i}": ([(0, 0), (1, 1), (2, 0)], None) for i in range(n)})
        runs = 0
        union_find = Curve._union_find

        def counted(curve):
            nonlocal runs
            runs += 1
            return union_find(curve)

        monkeypatch.setattr(Curve, "_union_find", counted)
        support = principal_divisor(tents).support()
        assert len(support) == 2 * n + 1 and runs <= 1


class TestHarmonic:
    def test_identity_harmonic_at_finite(self, line):
        f = identity_fn(line)
        assert is_harmonic_at(f, line.pt_vertex("O"))
        assert is_harmonic_at(f, line.pt_on_edge("right", 7))

    def test_star_center_not_harmonic(self, tripod):
        cf = chip_fire(tripod, point_subgraph(tripod, tripod.pt_vertex("O")), INF)
        assert not is_harmonic_at(cf, tripod.pt_vertex("O"))
        assert principal_divisor(cf).coeff(tripod.pt_vertex("O")) == -3

    def test_balanced_slopes(self, tripod):
        f = PLFunction.from_edge_data(tripod, {
            "a": ([(0, 0), (1, 1)], None), "b": ([(0, 0), (1, 1)], None),
            "c": ([(0, 0), (1, -2)], None)})
        assert is_harmonic_at(f, tripod.pt_vertex("O"))


class TestModuleMembership:
    def test_pole_covered(self, line):
        f = identity_fn(line)
        d = Divisor(line, {line.pt_infinity_of("right"): 1})
        assert rd_contains(d, f)

    def test_uncovered_pole(self, line):
        assert not rd_contains(Divisor(line, {}), identity_fn(line))

    def test_zero_function_always_member(self, line):
        assert rd_contains(Divisor(line, {}), PLFunction.neg_inf(line))


class TestModuleDegree:
    def test_identity_and_double(self, line):
        assert module_degree([identity_fn(line)]) == 1
        assert module_degree([scaled_fn(line, 2)]) == 2

    def test_constants(self, line):
        assert module_degree([PLFunction.constant(line, 7)]) == 0

    def test_zero_module(self, line):
        assert module_degree([PLFunction.neg_inf(line)]) is None

    def test_two_generator_module(self, line):
        # g is the fold |x|; h clamps x to [0, 1].  Computed against the
        # slope-sum oracle below: poles at both infinities (from g) and at
        # the clamp corner (from h), each with minimum coefficient -1.
        g = PLFunction.from_edge_data(line, {"right": ([(0, 0)], 1), "left": ([(0, 0)], 1)})
        h = PLFunction.from_edge_data(line, {"right": ([(0, 0), (1, 1)], 0),
                                             "left": ([(0, 0)], 0)})
        dg, dh = principal_divisor(g), principal_divisor(h)
        poles = {p for d in (dg, dh) for p, k in d.coeffs.items() if k < 0}
        expected = -sum(min(dg.coeff(p), dh.coeff(p)) for p in poles)
        assert module_degree([g, h]) == expected == 3

    def test_invariance_under_regeneration(self):
        assert suite_module_degree(rng_for("module-degree"), 50) == 50

    def test_harmonic_generators_are_extremal(self, line):
        # Members below a generator whose max recovers it must equal it.
        rng = rng_for("extremal")
        gens = [identity_fn(line), scaled_fn(line, 2)]
        for f in gens:
            assert all(line.is_at_infinity(p) for p in principal_divisor(f).support())
        for _ in range(120):
            for target in gens:
                def member():
                    out = PLFunction.neg_inf(line)
                    for g in gens:
                        if rng.random() < 0.8:
                            out = out.add(g.scale(random_rational(rng)))
                    return out
                g, h = member(), member()
                if g.add(h) == target:
                    assert g == target or h == target


class TestRestrictExtend:
    def test_restrict_interval(self, segment3):
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        g = make_subgraph(segment3, intervals=[("e", 1, 2)])
        (part,) = restrict(f, g)
        assert part.value_at(part.curve.pt_on_edge("e[1,2]", Fraction(1, 2))) == Fraction(3, 2)

    def test_restrict_neg_inf(self, segment3):
        g = make_subgraph(segment3, intervals=[("e", 1, 2)])
        (part,) = restrict(PLFunction.neg_inf(segment3), g)
        assert part.is_neg_inf

    def test_two_component_restriction(self, segment3):
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        g = make_subgraph(segment3, intervals=[("e", 0, 1), ("e", 2, 3)])
        parts = restrict(f, g)
        assert len(parts) == 2

    def test_tent_extension(self):
        seg = Curve.segment(10)
        g = make_subgraph(seg, intervals=[("e", 4, 6)])
        fp, _ = restrict_whole(PLFunction.constant(seg, 2), g)
        ext = extend(fp, g, -2)
        assert ext.value_at(seg.pt_on_edge("e", 5)) == 2
        assert ext.value_at(seg.pt_on_edge("e", 3)) == 0
        assert ext.value_at(seg.pt_on_edge("e", Fraction(13, 2))) == 1
        assert ext.value_at(seg.pt_vertex("B")) == 0

    def test_whole_curve_extension_is_identity(self, segment3):
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        g = whole_subgraph(segment3)
        fp, _ = restrict_whole(f, g)
        assert extend(fp, g, -1) == f

    def test_parallel_ray_tail(self):
        c = Curve.build(vertices=["A", "B"],
                        edges=[("m", "A", "B", 1), ("r1", "A", None, INF), ("r2", "B", None, INF)],
                        ray_classes={"r1": "k", "r2": "k"})
        g = make_subgraph(c, edges=["r1"])
        sub, _ = g.as_curve()
        fp = PLFunction.from_edge_data(sub, {"r1": ([(0, 0)], 3)})
        ext = extend(fp, g, -1)
        assert ext.slope_at_infinity("r2") == 3
        assert ext.respects_ray_classes()[0]

    def test_parallel_ray_tail_starts_past_the_subgraph(self):
        # The tail slope of a[1,inf] is carried to b, whose piece [0, 2] in g
        # is flat: the tail may start only past b@2.
        c = Curve.build(vertices=["O"], edges=[("a", "O", None, INF), ("b", "O", None, INF)],
                        ray_classes={"a": "k", "b": "k"})
        g = make_subgraph(c, intervals=[("a", 1, INF), ("b", 0, 2)])
        sub, _ = g.as_curve()
        fp = PLFunction.from_edge_data(sub, {"a[1,inf]": ([(0, 0)], -1),
                                             "b[0,2]": ([(0, 0), (2, 0)], None)})
        ext = extend(fp, g, -1)
        assert ext.value_at(c.pt_on_edge("b", 2)) == 0
        assert ext.slope_at_infinity("b") == -1
        assert restrict_whole(ext, g)[0] == fp

    def test_too_shallow_slope(self):
        seg = Curve.segment(2)
        g = make_subgraph(seg, intervals=[("e", Fraction(1, 2), 1)])
        fp, _ = restrict_whole(PLFunction.constant(seg, 30), g)
        with pytest.raises(TropError, match="steeper"):
            extend(fp, g, -1)
        extend(fp, g, -100)

    def test_loop_gap_runs_through_the_whole_loop(self):
        c = Curve.build(vertices=["P"], edges=[("l", "P", "P", 8)])
        g = make_subgraph(c, intervals=[("l", 0, 1)])
        sub, _ = g.as_curve()
        fp = PLFunction.from_edge_data(sub, {"l[0,1]": ([(0, 0), (1, 5)], None)})
        ext = extend(fp, g, -1)
        assert ext.profiles["l"].breaks == ((0, 0), (1, 5), (6, 0), (8, 0))
        assert restrict_whole(ext, g)[0] == fp

    def test_nonnegative_slope_rejected(self, segment3):
        g = whole_subgraph(segment3)
        fp, _ = restrict_whole(PLFunction.constant(segment3, 0), g)
        with pytest.raises(TropError):
            extend(fp, g, 1)

    def test_round_trip_random(self):
        assert suite_restrict_extend(rng_for("restrict-extend"), 40) == 40


@pytest.mark.parametrize("site, value", [
    ("tail", 1.5), ("tail", True), ("tail", Fraction(1)),
    ("divisor", 1.7), ("divisor", True), ("divisor", Fraction(2)),
    ("extend", -1.5), ("extend", True), ("extend", Fraction(-1)),
    ("pow", True), ("breakpoint", 1.5), ("breakpoint", True), ("isolated", 1.5), ("isolated", True),
    ("segment", True), ("constant", True), ("scale", True), ("chip_fire", True),
    ("interval", True), ("complex", True),
    ("germ", 1.5), ("germ", True), ("germ_pow", 1.5), ("germ_pow", True), ("germ_forget", True),
    ("poly", 2.7), ("monomial", True), ("exponent_token", "1_0"),
    ("at_infinity", "false"), pytest.param("length", " inf ", id="length-spaced-inf"),
    ("degree", 1.0), ("degree", True), ("orientation", True), ("component_index", True),
    ("dim", True), ("nvars", True), ("parse_nvars", True), ("germ_zero", True),
    ("generator_report", True),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_integers_are_not_coerced(site, value, line, segment3):
    """A float, a Fraction, a bool or a loose literal where an exact number
    is due raises a TropError that names it, instead of loading a coerced value."""
    zero = PLFunction.constant(segment3, 0)
    g = whole_subgraph(segment3)
    fp, _ = restrict_whole(zero, g)
    ends = {"A": segment3.pt_vertex("A"), "B": segment3.pt_vertex("B")}
    build, good = {
        "tail": (lambda k: PLFunction.from_edge_data(line, {"right": ([(0, 0)], k),
                                                            "left": ([(0, 0)], -1)}), -1),
        "divisor": (lambda k: Divisor(line, {line.pt_vertex("O"): k}), -1),
        "extend": (lambda k: extend(fp, g, k), -1),
        "pow": (lambda k: zero.pow(k), 2),
        "breakpoint": (lambda k: PLFunction(segment3, {"e": Profile(((0, 0), (1, k), (3, k)))}),
                       -1),
        "isolated": (lambda k: PLFunction(Curve.build(vertices=["Z"]), {}, {"Z": k}), -1),
        "segment": (lambda k: Curve.segment(k), 3),
        "constant": (lambda k: PLFunction.constant(segment3, k), 0),
        "scale": (lambda k: zero.scale(k), 0),
        "chip_fire": (lambda k: chip_fire(segment3, g, k), 1),
        "interval": (lambda k: make_subgraph(segment3, intervals=[("e", k, 2)]), 1),
        "complex": (lambda k: PolyComplex1D.of(2, [(k, 0), (1, 1)], [(0, 1, 1)]), 0),
        "germ": (lambda k: Germ.of(0, (k,)), 1),
        "germ_pow": (lambda k: Germ.of(1, (1, 2)).pow(k), 2),
        "germ_forget": (lambda k: Germ.of(1, (1, 2)).forget(k), 1),
        "poly": (lambda k: TropPoly.of(1, {(k,): 0}), 2),
        "monomial": (lambda k: TropPoly.monomial(0, (k,)), 1),
        "exponent_token": (lambda k: TropPoly.parse(f"0 : 0\n0 : {k}"), "10"),
        "at_infinity": (lambda k: Curve.build(vertices=["A", ("Z", k)],
                                              edges=[("r", "A", "Z", INF)], ray_classes={"r": "k"}),
                        True),
        "length": (lambda k: Curve.build(vertices=["A"], edges=[("r", "A", None, k)],
                                         ray_classes={"r": "k"}), "inf"),
        "degree": (lambda k: pullback(Morphism(segment3, segment3, {"A": "A", "B": "B"},
                                               {"e": ("edge", "e")}, {"e": k}), zero), 1),
        "orientation": (lambda k: validate_embedding(
            Embedding(segment3, ends, {"e": ("e", Fraction(0), k)}), segment3), 1),
        "component_index": (lambda k: disjoint_union([line, line], {"k": [(k, "left")]}), 1),
        "dim": (lambda k: PolyComplex1D.of(k, [(0,)]), 1),
        "nvars": (lambda k: TropPoly.of(k, {(1,): 0}), 1),
        "parse_nvars": (lambda k: TropPoly.parse("0 : 1", nvars=k), 1),
        "germ_zero": (lambda k: Germ.zero(k), 1),
        "generator_report": (lambda k: germ_generator_report(k), 1),
    }[site]
    build(good)
    with pytest.raises(TropError, match=re.escape(repr(value))):
        build(value)


class TestRayClasses:
    def test_shared_class_detects_mismatch(self, line):
        u = disjoint_union([line, line], shared_classes={
            "minus": [(0, "left"), (1, "left")], "plus": [(0, "right"), (1, "right")]})
        comps = u.components()
        f = PLFunction.from_edge_data(comps[0], {"0:right": ([(0, 0)], 1),
                                                 "0:left": ([(0, 0)], 0)})
        zero = PLFunction.constant(comps[1], 0)
        pair = pseudodirect_tuple(u, [f, zero])
        ok, witness = pair.respects_ray_classes()
        assert not ok and witness[0] == "plus"

    def test_singleton_classes_always_ok(self, line):
        assert identity_fn(line).respects_ray_classes()[0]

    def test_one_class_line(self):
        c = Curve.build(vertices=["O"],
                        edges=[("left", "O", None, INF), ("right", "O", None, INF)],
                        ray_classes={"left": "k", "right": "k"})
        f = PLFunction.from_edge_data(c, {"right": ([(0, 0)], 1), "left": ([(0, 0)], -1)})
        ok, witness = f.respects_ray_classes()
        assert not ok and {witness[2], witness[4]} == {1, -1}
        g = PLFunction.from_edge_data(c, {"right": ([(0, 0)], 2), "left": ([(0, 0)], 2)})
        assert g.respects_ray_classes()[0]

    def test_chip_fire_over_class_closed_subgraph(self):
        rng = rng_for("class-closed")
        for _ in range(25):
            c = random_curve(rng)
            f = random_class_respecting_function(c, rng)
            assert f.respects_ray_classes()[0]


class TestPseudodirect:
    def test_mixed_parts_rejected(self, segment3):
        u = disjoint_union([segment3, segment3])
        comps = u.components()
        with pytest.raises(TropError, match="pseudodirect"):
            pseudodirect_tuple(u, [PLFunction.neg_inf(comps[0]), PLFunction.constant(comps[1], 0)])

    def test_all_neg_inf(self, segment3):
        u = disjoint_union([segment3, segment3])
        comps = u.components()
        assert pseudodirect_tuple(u, [PLFunction.neg_inf(comps[0]),
                                      PLFunction.neg_inf(comps[1])]).is_neg_inf

    def test_split_round_trip(self, segment3, line):
        u = disjoint_union([segment3, line])
        f = PLFunction.constant(u, 3)
        parts = split_components(f)
        assert pseudodirect_tuple(u, list(parts)) == f


class TestDisconnectionWitness:
    def test_connected_returns_none(self, segment3):
        assert disconnection_witness(segment3) is None

    def test_two_components(self, segment3):
        u = disjoint_union([segment3, segment3])
        s, rep = disconnection_witness(u)
        assert rep.verified
        assert s.value_at(u.pt_vertex("0:A")) == 0
        assert s.value_at(u.pt_vertex("1:A")) == 4
        lhs = s.add(PLFunction.constant(u, 3)).mul(
            s.inv().add(PLFunction.constant(u, -2)).inv())
        assert lhs.value_at(u.pt_vertex("0:A")) == 3
        assert lhs.value_at(u.pt_vertex("1:A")) == 6

    def test_constant_control_fails(self, segment3):
        rep = witness_conditions(PLFunction.constant(segment3, 0), 3, 2, 1)
        assert not rep.verified

    def test_connected_candidates_never_verify(self):
        assert suite_disconnection(rng_for("witness-control"), 25) == 25


class TestGlueFunction:
    def _welded_segments(self):
        from tropcurve.glue import Embedding, glue

        s1 = Curve.segment(1, "A", "B", "e")
        s2 = Curve.segment(1, "C", "D", "f")
        pt = Curve.build(vertices=["P"])
        res = glue(s1, s2,
                   Embedding(pt, {"P": s1.pt_vertex("B")}, {}),
                   Embedding(pt, {"P": s2.pt_vertex("C")}, {}))
        return s1, s2, res

    def test_tent_weld(self):
        from tropcurve.glue import glue_function

        s1, s2, res = self._welded_segments()
        h1 = PLFunction.from_edge_data(s1, {"e": ([(0, -1), (1, 0)], None)})
        h2 = PLFunction.from_edge_data(s2, {"f": ([(0, 0), (1, -1)], None)})
        w = glue_function(h1, h2, res)
        assert w.value_at(res.map1.point(s1.pt_vertex("B"))) == 0
        assert w.value_at(res.map1.point(s1.pt_vertex("A"))) == -1

    def test_constant_weld(self):
        from tropcurve.glue import glue_function

        s1, s2, res = self._welded_segments()
        w = glue_function(PLFunction.constant(s1, 3), PLFunction.constant(s2, 3), res)
        assert w == PLFunction.constant(res.curve, 3)

    def test_mismatch_names_witness(self):
        from tropcurve.glue import glue_function

        s1, s2, res = self._welded_segments()
        h1 = PLFunction.from_edge_data(s1, {"e": ([(0, 0), (1, 0)], None)})
        h2 = PLFunction.from_edge_data(s2, {"f": ([(0, 1), (1, 1)], None)})
        with pytest.raises(TropError, match="disagree"):
            glue_function(h1, h2, res)

    def test_edge_mismatch_names_the_first_differing_point(self):
        from tropcurve.glue import Embedding, glue, glue_function

        # The shape edge runs backwards from e@3 to e@1 on side 1.  Both
        # functions vanish at its ends, and differ first at shape offset 1/2,
        # which is e@5/2.
        c1 = Curve.segment(5, "A", "B", "e")
        c2 = Curve.segment(2, "C", "D", "f")
        shape = Curve.segment(2, "U", "V", "s")
        res = glue(c1, c2,
                   Embedding(shape, {"U": c1.pt_on_edge("e", 3), "V": c1.pt_on_edge("e", 1)},
                             {"s": ("e", Fraction(3), -1)}),
                   Embedding(shape, {"U": c2.pt_vertex("C"), "V": c2.pt_vertex("D")},
                             {"s": ("f", Fraction(0), 1)}))
        h1 = PLFunction.constant(c1, 0)
        h2 = PLFunction.from_edge_data(
            c2, {"f": ([(0, 0), (Fraction(1, 2), 1), (1, 0), (2, 0)], None)})
        with pytest.raises(TropError) as err:
            glue_function(h1, h2, res)
        assert str(err.value) == "functions disagree on the glued subgraph at e@5/2"

    def test_rays_differing_only_at_infinity(self):
        from tropcurve.glue import Embedding, glue, glue_function

        # The two rays agree at every breakpoint; their slopes at infinity
        # differ, so the witness lies one past the last breakpoint.
        r1 = Curve.build(vertices=["Q"], edges=[("rayA", "Q", None, INF)],
                         ray_classes={"rayA": "k1"})
        r2 = Curve.build(vertices=["Q2"], edges=[("rayB", "Q2", None, INF)],
                         ray_classes={"rayB": "k2"})
        shape = Curve.build(vertices=["W"], edges=[("L", "W", None, INF)], ray_classes={"L": "k"})
        res = glue(r1, r2,
                   Embedding(shape, {"W": r1.pt_vertex("Q"), "L.inf": r1.pt_infinity_of("rayA")},
                             {"L": ("rayA", Fraction(0), 1)}),
                   Embedding(shape, {"W": r2.pt_vertex("Q2"), "L.inf": r2.pt_infinity_of("rayB")},
                             {"L": ("rayB", Fraction(0), 1)}))
        h1 = PLFunction.from_edge_data(r1, {"rayA": ([(0, 0)], -1)})
        h2 = PLFunction.from_edge_data(r2, {"rayB": ([(0, 0)], -2)})
        with pytest.raises(TropError) as err:
            glue_function(h1, h2, res)
        assert str(err.value) == "functions disagree on the glued subgraph at rayA@1"

    def test_reversed_shape_edge(self):
        from tropcurve.glue import Embedding, glue, glue_function

        # e runs A -> B and f runs C -> D; the shape edge maps onto e forwards
        # and onto f backwards, so A is glued to D and B to C.
        c1 = Curve.segment(2, "A", "B", "e")
        c2 = Curve.segment(2, "C", "D", "f")
        shape = Curve.segment(2, "U", "V", "s")
        res = glue(c1, c2,
                   Embedding(shape, {"U": c1.pt_vertex("A"), "V": c1.pt_vertex("B")},
                             {"s": ("e", Fraction(0), 1)}),
                   Embedding(shape, {"U": c2.pt_vertex("D"), "V": c2.pt_vertex("C")},
                             {"s": ("f", Fraction(2), -1)}))
        g = res.curve
        assert set(g.edges) == {"1:e"} and set(g.vertices) == {"1:A", "1:B"}
        assert res.map2.point(c2.pt_vertex("C")) == g.pt_vertex("1:B")
        half = c2.pt_on_edge("f", Fraction(1, 2))
        assert res.map2.point(half) == g.pt_on_edge("1:e", Fraction(3, 2))
        h1 = PLFunction.from_edge_data(c1, {"e": ([(0, 0), (2, 4)], None)})
        h2 = PLFunction.from_edge_data(c2, {"f": ([(0, 4), (2, 0)], None)})
        w = glue_function(h1, h2, res)
        assert w == PLFunction.from_edge_data(g, {"1:e": ([(0, 0), (2, 4)], None)})
        assert w.value_at(res.map2.point(half)) == 3
        with pytest.raises(TropError, match=r"at A \(0 vs 4\)"):
            glue_function(h1, PLFunction.from_edge_data(c2, {"f": ([(0, 0), (2, 4)], None)}), res)

    def test_isolated_vertices_keep_their_values(self):
        from tropcurve.glue import Embedding, glue, glue_function

        c1 = Curve.build(vertices=["A", "B", "I"], edges=[("e", "A", "B", 1)])
        c2 = Curve.build(vertices=["C", "D", "J"], edges=[("f", "C", "D", 1)])
        pt = Curve.build(vertices=["P"])
        res = glue(c1, c2, Embedding(pt, {"P": c1.pt_vertex("B")}, {}),
                   Embedding(pt, {"P": c2.pt_vertex("C")}, {}))
        h1 = PLFunction.from_edge_data(c1, {"e": ([(0, 0), (1, 1)], None)}, isolated={"I": 7})
        h2 = PLFunction.from_edge_data(c2, {"f": ([(0, 1), (1, 3)], None)}, isolated={"J": -2})
        w = glue_function(h1, h2, res)
        assert w.isolated == {"1:I": 7, "2:J": -2}
        assert w.value_at(res.map1.point(c1.pt_vertex("I"))) == 7
        assert w.value_at(res.map2.point(c2.pt_vertex("J"))) == -2

    def test_neg_inf_sides(self):
        from tropcurve.glue import glue_function

        s1, s2, res = self._welded_segments()
        assert glue_function(PLFunction.neg_inf(s1), PLFunction.neg_inf(s2), res).is_neg_inf
        with pytest.raises(TropError):
            glue_function(PLFunction.neg_inf(s1), PLFunction.constant(s2, 0), res)

    def test_welding_preserves_ray_classes(self):
        from tropcurve.glue import Embedding, glue, glue_function

        r1 = Curve.build(vertices=["P"],
                         edges=[("s", "P", "Q", 1), ("rayA", "Q", None, INF)],
                         ray_classes={"rayA": "k1"})
        r2 = Curve.build(vertices=["P2"],
                         edges=[("t", "P2", "Q2", 1), ("rayB", "Q2", None, INF)],
                         ray_classes={"rayB": "k2"})
        shp = Curve.build(vertices=["W"], edges=[("L", "W", None, INF)],
                          ray_classes={"L": "kk"})
        res = glue(r1, r2,
                   Embedding(shp, {"W": r1.pt_vertex("Q"),
                                   "L.inf": r1.pt_infinity_of("rayA")},
                             {"L": ("rayA", Fraction(0), 1)}),
                   Embedding(shp, {"W": r2.pt_vertex("Q2"),
                                   "L.inf": r2.pt_infinity_of("rayB")},
                             {"L": ("rayB", Fraction(0), 1)}))
        h1 = PLFunction.from_edge_data(r1, {"s": ([(0, 0), (1, 0)], None),
                                            "rayA": ([(0, 0)], 2)})
        h2 = PLFunction.from_edge_data(r2, {"t": ([(0, 3), (1, 0)], None),
                                            "rayB": ([(0, 0)], 2)})
        assert h1.respects_ray_classes()[0] and h2.respects_ray_classes()[0]
        w = glue_function(h1, h2, res)
        assert w.respects_ray_classes()[0]
