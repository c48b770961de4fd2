"""Morphisms, pullbacks, weights, and localization germs."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tropcurve import morphism, plfunction
from tropcurve.curve import INF, Curve, disjoint_union
from tropcurve.errors import TropError
from tropcurve.morphism import (Localization, Morphism, MorphismReport, WeightReport, compose,
                                germ_bump, localization_surjectivity, localize, pullback,
                                validate_morphism, weight_check, weight_from_generators,
                                weighted_local_image)
from tropcurve.plfunction import PLFunction, _flat, _isolated_vertices, chip_fire
from tropcurve.randgen import random_curve, random_function, random_germ, random_point
from tropcurve.selftest import suite_localization, suite_pullback
from tropcurve.semifield import Germ
from tropcurve.subgraph import point_subgraph

from conftest import doubling, fraction_calls, identity_fn, rng_for, scaled_fn
from test_profiles import _normalize


class TestValidate:
    def test_identity(self, tripod):
        m = Morphism.identity(tripod)
        rep = validate_morphism(m)
        assert rep.ok and not rep.violations
        assert all(d == 1 for d in m.degrees.values())

    def test_doubling_ok(self, line):
        assert validate_morphism(doubling(line)).ok

    def test_metric_violation(self):
        s1, s3 = Curve.segment(1), Curve.segment(3, "C", "D", "f")
        bad = Morphism(s1, s3, {"A": "C", "B": "D"}, {"e": ("edge", "f")}, {"e": 2})
        rep = validate_morphism(bad)
        assert not rep.ok and any("3" in v for v in rep.violations)

    def test_collapse_consistency(self, segment3):
        pt_curve = Curve.build(vertices=["P"])
        m = Morphism(segment3, pt_curve, {"A": "P", "B": "P"}, {"e": ("vertex", "P")}, {"e": 0})
        assert validate_morphism(m).ok
        bad = Morphism(segment3, pt_curve, {"A": "P", "B": "P"}, {"e": ("vertex", "P")}, {"e": 1})
        assert not validate_morphism(bad).ok

    def test_ray_class_law(self, line):
        # Source carries one class over both rays; images land in distinct
        # target classes, breaking the parallel-ray law.
        src = Curve.build(vertices=["O"],
                          edges=[("left", "O", None, INF), ("right", "O", None, INF)],
                          ray_classes={"left": "k", "right": "k"})
        m = Morphism(src, line,
                     {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
                     {"left": ("edge", "left"), "right": ("edge", "right")},
                     {"left": 1, "right": 1})
        rep = validate_morphism(m)
        assert not rep.ok and any("target classes" in v for v in rep.violations)


def _two_rays(classes: dict[str, str]) -> Curve:
    return Curve.build(vertices=["O"], edges=[("left", "O", None, INF), ("right", "O", None, INF)],
                       ray_classes=classes)


def _violating_morphism(case: str, segment3: Curve, line: Curve) -> Morphism:
    seg, pt = segment3, Curve.build(vertices=["P", "Q"])
    ray = Curve.build(vertices=["O"], edges=[("r", "O", None, INF)], ray_classes={"r": "k"})
    ends = {"A": "A", "B": "B"}
    whole = {"e": ("edge", "e")}
    one_class = _two_rays({"left": "k", "right": "k"})
    both = {"left": ("edge", "left"), "right": ("edge", "right")}
    at_both = {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"}
    return {
        "loop": lambda: Morphism.identity(Curve.build(vertices=["A"], edges=[("l", "A", "A", 1)])),
        "vertex": lambda: Morphism(Curve.build(vertices=["A", "B", "X"], edges=[("e", "A", "B", 3)]),
                                   seg, ends, whole, {"e": 1}),
        "degree_type": lambda: Morphism(seg, seg, ends, whole, {"e": 1.0}),
        "no_image": lambda: Morphism(ray, ray, {"O": "O", "r.inf": "r.inf"}, {}, {}),
        "collapse_degree": lambda: Morphism(seg, pt, {"A": "P", "B": "P"},
                                            {"e": ("vertex", "P")}, {"e": 1}),
        "collapse_ends": lambda: Morphism(seg, pt, {"A": "P", "B": "Q"},
                                          {"e": ("vertex", "P")}, {"e": 0}),
        "unknown_edge": lambda: Morphism(seg, seg, ends, {"e": ("edge", "g")}, {"e": 1}),
        "degree_zero": lambda: Morphism(seg, seg, ends, whole, {"e": 0}),
        "endpoints": lambda: Morphism(seg, seg, {"A": "A", "B": "A"}, whole, {"e": 1}),
        "ray_to_segment": lambda: Morphism(ray, seg, {"O": "A", "r.inf": "B"},
                                           {"r": ("edge", "e")}, {"r": 1}),
        "ray_end": lambda: Morphism(ray, line, {"O": "right.inf", "r.inf": "O"},
                                    {"r": ("edge", "right")}, {"r": 1}),
        "segment_to_ray": lambda: Morphism(seg, line, {"A": "O", "B": "right.inf"},
                                           {"e": ("edge", "right")}, {"e": 1}),
        "length": lambda: Morphism(Curve.segment(1), seg, ends, whole, {"e": 2}),
        "class_collapse": lambda: Morphism(one_class, line,
                                           {"O": "O", "left.inf": "O", "right.inf": "right.inf"},
                                           {"left": ("vertex", "O"), "right": ("edge", "right")},
                                           {"left": 0, "right": 1}),
        "class_targets": lambda: Morphism(one_class, line, at_both, both, {"left": 1, "right": 1}),
        "class_degrees": lambda: Morphism(one_class, _two_rays({"left": "m", "right": "m"}),
                                          at_both, both, {"left": 1, "right": 2}),
        "collapse_to_infinity": lambda: Morphism(seg, ray, {"A": "r.inf", "B": "r.inf"},
                                                 {"e": ("vertex", "r.inf")}, {"e": 0}),
        "isolated_to_infinity": lambda: Morphism(Curve.build(vertices=["A"]), ray,
                                                 {"A": "r.inf"}, {}, {}),
        "stray_vertex": lambda: Morphism(seg, seg, {**ends, "Q": "Z"}, whole, {"e": 1}),
        "stray_edge": lambda: Morphism(seg, seg, ends, {**whole, "x": ("edge", "nope")}, {"e": 1}),
        "stray_degree": lambda: Morphism(seg, seg, ends, whole, {"e": 1, "x": 7}),
    }[case]()


@pytest.mark.parametrize("case, violation", [
    ("loop", "models must be loopless; subdivide loops first"),
    ("vertex", "vertex 'X' has no valid image"),
    ("degree_type", "degree of 'e' must be an integer, not float: 1.0"),
    ("no_image", "edge 'r' lacks an image or a nonnegative degree"),
    ("collapse_degree", "edge 'e' collapses but has degree 1"),
    ("collapse_ends", "edge 'e' collapses to 'P' but endpoints map elsewhere"),
    ("unknown_edge", "edge 'e' maps to unknown edge 'g'"),
    ("degree_zero", "edge 'e' maps onto an edge but has degree 0"),
    ("endpoints", "edge 'e': endpoint images 'A','A' do not match 'e' endpoints"),
    ("ray_to_segment", "ray 'r' maps to a finite edge"),
    ("ray_end", "ray 'r' must send its point at infinity to the one of 'right'"),
    ("segment_to_ray", "finite edge 'e' maps onto a ray"),
    ("length", "edge 'e': target length 3 != 2 * 1"),
    ("class_collapse", "ray class 'k': some rays collapse and some do not"),
    ("class_targets", "ray class 'k' maps into several target classes"),
    ("class_degrees", "ray class 'k' has unequal degrees at infinity [1, 2]"),
    ("collapse_to_infinity", "edge 'e' collapses onto the point at infinity 'r.inf'"),
    ("isolated_to_infinity", "vertex 'A' maps to the point at infinity 'r.inf'"),
    ("stray_vertex", "vertex_map key 'Q' is not a source vertex"),
    ("stray_edge", "edge_map key 'x' is not a source edge"),
    ("stray_degree", "degrees key 'x' is not a source edge"),
])
def test_each_violation_is_reported(case, violation, segment3, line):
    assert validate_morphism(_violating_morphism(case, segment3, line)) == \
        MorphismReport(False, (violation,))


class TestPullback:
    def test_doubling_pulls_identity_to_double(self, line):
        f2 = pullback(doubling(line), identity_fn(line))
        assert f2 == scaled_fn(line, 2)

    def test_identity_pullback(self, tripod):
        rng = rng_for("pullback-id")
        f = random_function(tripod, rng)
        assert pullback(Morphism.identity(tripod), f) == f

    def test_collapse_gives_constant(self, segment3):
        pt_curve = Curve.build(vertices=["P"])
        m = Morphism(segment3, pt_curve, {"A": "P", "B": "P"}, {"e": ("vertex", "P")}, {"e": 0})
        f = PLFunction.from_edge_data(pt_curve, {}, isolated={"P": Fraction(5)})
        assert pullback(m, f) == PLFunction.constant(segment3, 5)

    def test_homomorphism_random(self):
        assert suite_pullback(rng_for("pullback-hom"), 40) == 40

    def test_reflection_reverses_the_profile(self, segment3):
        # A <-> B flips the edge: (m* f)(t) = f(3 - t).
        flip = Morphism(segment3, segment3, {"A": "B", "B": "A"}, {"e": ("edge", "e")}, {"e": 1})
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (1, 2), (3, 0)], None)})
        back = pullback(flip, f)
        assert back.profiles["e"].breaks == ((0, 0), (2, 2), (3, 0))
        for t in (0, Fraction(1, 2), 1, 2, Fraction(5, 2), 3):
            p, q = segment3.pt_on_edge("e", t), segment3.pt_on_edge("e", 3 - t)
            assert back.value_at(p) == f.value_at(q)

    def test_composition_with_collapsed_edges(self):
        # inner collapses e1 and maps e2 onto f; the doubling outer stretches f
        # onto h, and the collapsing outer sends f to a point.
        path = Curve.build(vertices=["A", "B", "C"],
                           edges=[("e1", "A", "B", 1), ("e2", "B", "C", 2)])
        seg2 = Curve.segment(2, "U", "V", "f")
        seg4 = Curve.segment(4, "X", "Y", "h")
        point = Curve.build(vertices=["P"])
        inner = Morphism(path, seg2, {"A": "U", "B": "U", "C": "V"},
                         {"e1": ("vertex", "U"), "e2": ("edge", "f")}, {"e1": 0, "e2": 1})
        double = Morphism(seg2, seg4, {"U": "X", "V": "Y"}, {"f": ("edge", "h")}, {"f": 2})
        crush = Morphism(seg2, point, {"U": "P", "V": "P"}, {"f": ("vertex", "P")}, {"f": 0})
        m = compose(double, inner)
        assert (m.vertex_map, m.edge_map, m.degrees) == (
            {"A": "X", "B": "X", "C": "Y"},
            {"e1": ("vertex", "X"), "e2": ("edge", "h")}, {"e1": 0, "e2": 2})
        c = compose(crush, inner)
        assert (c.vertex_map, c.edge_map, c.degrees) == (
            {"A": "P", "B": "P", "C": "P"},
            {"e1": ("vertex", "P"), "e2": ("vertex", "P")}, {"e1": 0, "e2": 0})
        h = PLFunction.from_edge_data(seg4, {"h": ([(0, 1), (4, 5)], None)})
        assert validate_morphism(m).ok and validate_morphism(c).ok
        assert pullback(m, h) == pullback(inner, pullback(double, h)) == PLFunction.from_edge_data(
            path, {"e1": ([(0, 1), (1, 1)], None), "e2": ([(0, 1), (2, 5)], None)})
        k = PLFunction.from_edge_data(point, {}, isolated={"P": Fraction(7)})
        assert pullback(c, k) == pullback(inner, pullback(crush, k)) == PLFunction.constant(path, 7)

    def test_composition_multiplies_degrees(self, line):
        quad = compose(doubling(line), doubling(line))
        assert validate_morphism(quad).ok
        assert quad.degrees == {"left": 4, "right": 4}
        f4 = pullback(quad, identity_fn(line))
        assert f4 == scaled_fn(line, 4)

    def test_composition_rejects_an_invalid_operand(self, segment3):
        ends, whole, ok = {"A": "A", "B": "B"}, {"e": ("edge", "e")}, Morphism.identity(segment3)
        for bad, violation in [
                (Morphism(segment3, segment3, ends, {"e": ("edge", "g")}, {"e": 1}),
                 "edge 'e' maps to unknown edge 'g'"),
                (Morphism(segment3, segment3, {"A": "A", "B": "Z"}, whole, {"e": 1}),
                 "vertex 'B' has no valid image")]:
            for outer, inner in ((ok, bad), (bad, ok)):
                with pytest.raises(TropError, match=f"^invalid morphism: {violation}$"):
                    compose(outer, inner)


class TestWeights:
    def test_doubling_is_weight_two(self, line):
        wc = weight_check(doubling(line))
        assert wc.is_weight and dict(wc.edge_weights) == {"left": 2, "right": 2}

    def test_identity_weight_one(self, tripod):
        wc = weight_check(Morphism.identity(tripod))
        assert wc.is_weight and all(w == 1 for _, w in wc.edge_weights)

    def test_folding_not_a_weight(self):
        path = Curve.build(vertices=["A", "B", "C"],
                           edges=[("e1", "A", "B", 1), ("e2", "B", "C", 1)])
        seg = Curve.segment(1, "U", "V", "f")
        fold = Morphism(path, seg, {"A": "U", "B": "V", "C": "U"},
                        {"e1": ("edge", "f"), "e2": ("edge", "f")}, {"e1": 1, "e2": 1})
        assert validate_morphism(fold).ok
        wc = weight_check(fold)
        assert not wc.is_weight

    def test_invalid_morphism_is_no_weight(self, segment3):
        m = Morphism(segment3, segment3, {"A": "A", "B": "B"}, {"e": ("edge", "e")}, {"e": 0})
        assert weight_check(m) == WeightReport(
            False, None, ("edge 'e' maps onto an edge but has degree 0",))

    def test_rays_parallel_on_one_side_only(self):
        # A valid bijection sending rays of two source classes into one target class.
        def rays(classes):
            return Curve.build(vertices=["O"], edges=[("a", "O", None, INF), ("b", "O", None, INF)],
                               ray_classes=classes)

        src, tgt = rays({"a": "k", "b": "m"}), rays({"a": "n", "b": "n"})
        m = Morphism(src, tgt, {v: v for v in src.vertices}, {e: ("edge", e) for e in src.edges},
                     {"a": 1, "b": 1})
        assert validate_morphism(m).ok
        assert weight_check(m) == WeightReport(False, None, (
            "rays 'a','b': parallel on one side only",))

    def test_weight_from_generators(self, line):
        assert weight_from_generators([scaled_fn(line, 2)], "right") == 2
        assert weight_from_generators([identity_fn(line)], "right") == 1
        assert weight_from_generators([scaled_fn(line, 2), scaled_fn(line, 3)], "right") == 1

    def test_weight_from_generators_on_a_finite_edge(self, segment3):
        def slope(k):
            return PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3 * k)], None)})

        assert weight_from_generators([slope(3)], "e") == 3
        assert weight_from_generators([slope(6), slope(-4)], "e") == 2
        assert weight_from_generators([slope(3), slope(-2)], "e") == 1
        with pytest.raises(TropError, match="subdivide"):
            weight_from_generators([PLFunction.from_edge_data(
                segment3, {"e": ([(0, 0), (1, 1), (3, 1)], None)})], "e")

    def test_level_edge_rejected(self, line):
        with pytest.raises(TropError, match="level edge"):
            weight_from_generators([PLFunction.constant(line, 1)], "right")

    def test_bent_generator_rejected(self, line):
        bent = PLFunction.from_edge_data(line, {"right": ([(0, 0), (1, 1)], 0),
                                                "left": ([(0, 0)], 0)})
        with pytest.raises(TropError, match="subdivide"):
            weight_from_generators([bent], "right")

    def test_example_weights_both_routes(self, line):
        # The doubling weight is two, and the slope gcd of its pulled-back
        # generator recovers the same number.
        wc = weight_check(doubling(line))
        f2 = pullback(doubling(line), identity_fn(line))
        assert dict(wc.edge_weights)["right"] == weight_from_generators([f2], "right") == 2


class TestLocalize:
    def test_star_chip_fire_germ(self, tripod):
        loc = localize(tripod, tripod.pt_vertex("O"))
        cf = chip_fire(tripod, point_subgraph(tripod, tripod.pt_vertex("O")), Fraction(1, 2))
        assert loc.apply(cf) == Germ.of(0, (-1, -1, -1))

    def test_constant_germ(self, tripod):
        loc = localize(tripod, tripod.pt_vertex("O"))
        assert loc.apply(PLFunction.constant(tripod, 7)) == Germ.of(7, (0, 0, 0))
        assert loc.apply(PLFunction.neg_inf(tripod)).is_neg_inf

    def test_explicit_direction_order(self, tripod):
        dirs = tripod.directions_at(tripod.pt_vertex("O"))
        loc = localize(tripod, tripod.pt_vertex("O"), tuple(reversed(dirs)))
        f = PLFunction.from_edge_data(tripod, {
            "a": ([(0, 0), (1, 1)], None), "b": ([(0, 0), (1, 2)], None),
            "c": ([(0, 0), (1, 3)], None)})
        assert loc.apply(f).slopes == (3, 2, 1)

    def test_infinity_rejected(self, line):
        with pytest.raises(TropError):
            localize(line, line.pt_infinity_of("right"))

    def test_bad_permutation(self, tripod):
        with pytest.raises(TropError):
            localize(tripod, tripod.pt_vertex("O"), ("a:+", "b:+"))

    def test_bump_matches_requested_germ(self, tripod, line):
        loc = localize(tripod, tripod.pt_vertex("O"))
        germ = Germ.of(Fraction(5, 3), (2, -3, 7))
        assert loc.apply(germ_bump(loc, germ)) == germ
        loc2 = localize(line, line.pt_on_edge("right", 2))
        germ2 = Germ.of(1, (3, -4))
        assert loc2.apply(germ_bump(loc2, germ2)) == germ2

    def test_surjectivity_reports(self, tripod, segment3):
        rep = localization_surjectivity(tripod, tripod.pt_vertex("O"))
        assert rep.all_matched and rep.rank == 3
        rep1 = localization_surjectivity(segment3, segment3.pt_vertex("A"))
        assert rep1.all_matched and rep1.rank == 1

    def test_surjectivity_at_loop_vertex(self):
        c = Curve.build(vertices=["P"], edges=[("l", "P", "P", 1), ("r", "P", None, INF)],
                        ray_classes={"r": "x"})
        rep = localization_surjectivity(c, c.pt_vertex("P"))
        assert rep.all_matched and rep.rank == 3
        loc = localize(c, c.pt_vertex("P"))
        assert loc.directions == ("l:-", "l:+", "r:+")
        # Each leg of the loop keeps to its own half, so steep legs cannot meet.
        germ = Germ.of(0, (-5, 7, 1))
        assert loc.apply(germ_bump(loc, germ)) == germ

    def test_bump_at_an_isolated_vertex(self):
        c = Curve.build(vertices=["P", "Q"], edges=[("e", "Q", None, INF)], ray_classes={"e": "k"})
        loc = localize(c, c.pt_vertex("P"))
        assert loc.apply(germ_bump(loc, Germ.of(3, ()))) == Germ.of(3, ())
        rep = localization_surjectivity(c, c.pt_vertex("P"))
        assert rep.all_matched and rep.rank == 0 and rep.generators == (Germ.unit(0),)

    def test_homomorphism_and_harmonicity_random(self):
        assert suite_localization(rng_for("localize-hom"), 60) == 60


class TestWeightedLocalImage:
    def test_doubling_even_lattice(self, line):
        rep = weighted_local_image(doubling(line), line.pt_on_edge("right", 2))
        assert rep.verified and all(w == 2 for _, w in rep.direction_weights)

    def test_identity_full_lattice(self, tripod):
        rep = weighted_local_image(Morphism.identity(tripod), tripod.pt_vertex("O"))
        assert rep.verified and all(w == 1 for _, w in rep.direction_weights)

    def test_mixed_weights(self):
        # Two-edge path stretched by different degrees on each side.
        src = Curve.build(vertices=["A", "B", "C"],
                          edges=[("e1", "A", "B", 3), ("e2", "B", "C", 1)])
        tgt = Curve.build(vertices=["X", "Y", "Z"],
                          edges=[("f1", "X", "Y", 3), ("f2", "Y", "Z", 3)])
        m = Morphism(src, tgt, {"A": "X", "B": "Y", "C": "Z"},
                     {"e1": ("edge", "f1"), "e2": ("edge", "f2")}, {"e1": 1, "e2": 3})
        assert validate_morphism(m).ok
        rep = weighted_local_image(m, tgt.pt_vertex("Y"))
        assert rep.verified and sorted(w for _, w in rep.direction_weights) == [1, 3]

    def test_requires_weight(self, line):
        path = Curve.build(vertices=["A", "B", "C"],
                           edges=[("e1", "A", "B", 1), ("e2", "B", "C", 1)])
        seg = Curve.segment(1, "U", "V", "f")
        fold = Morphism(path, seg, {"A": "U", "B": "V", "C": "U"},
                        {"e1": ("edge", "f"), "e2": ("edge", "f")}, {"e1": 1, "e2": 1})
        with pytest.raises(TropError, match="not a weight"):
            weighted_local_image(fold, seg.pt_vertex("U"))
        with pytest.raises(TropError, match="point at infinity"):
            weighted_local_image(doubling(line), line.pt_infinity_of("right"))

    def test_reversed_edge_and_interior_point(self):
        # e1 runs onto f2 backwards, and e2 onto f1 backwards with degree 3.
        src = Curve.build(vertices=["A", "B", "C"],
                          edges=[("e1", "A", "B", 3), ("e2", "B", "C", 1)])
        tgt = Curve.build(vertices=["X", "Y", "Z"],
                          edges=[("f1", "X", "Y", 3), ("f2", "Y", "Z", 3)])
        m = Morphism(src, tgt, {"A": "Z", "B": "Y", "C": "X"},
                     {"e1": ("edge", "f2"), "e2": ("edge", "f1")}, {"e1": 1, "e2": 3})
        rep = weighted_local_image(m, tgt.pt_on_edge("f1", 1))
        assert rep.verified and rep.preimage == src.pt_on_edge("e2", Fraction(2, 3))
        assert rep.direction_weights == (("f1:-", 3), ("f1:+", 3))
        rep = weighted_local_image(m, tgt.pt_on_edge("f2", 2))
        assert rep.verified and rep.preimage == src.pt_on_edge("e1", 1)

    def test_reports_list_the_unit_generators(self, line):
        rep = weighted_local_image(doubling(line), line.pt_vertex("O"))
        assert rep.generators == (Germ.of(0, (0, 0)), Germ.of(0, (1, 0)), Germ.of(0, (0, 1)))
        rep = localization_surjectivity(line, line.pt_on_edge("right", 1))
        assert rep.generators == (Germ.of(0, (0, 0)), Germ.of(0, (1, 0)), Germ.of(0, (0, 1)))


def _random_weight(rng) -> Morphism:
    """A weight onto a random loopless curve: each edge stretched by its own
    degree (one per ray class), and about half of the finite edges reversed."""
    tgt = random_curve(rng)
    while any(e.is_loop for e in tgt.edges.values()):
        tgt = random_curve(rng)
    class_degree = {label: rng.randint(1, 3) for label in sorted(set(tgt.ray_classes.values()))}
    degrees, edges = {}, []
    for e in tgt.edges.values():
        if e.is_infinite:
            degrees[e.id] = class_degree[tgt.ray_classes[e.id]]
            edges.append((e.id, e.u, e.v, INF))
        else:
            degrees[e.id] = rng.randint(1, 3)
            u, v = (e.v, e.u) if rng.random() < 0.5 else (e.u, e.v)
            edges.append((e.id, u, v, e.length / degrees[e.id]))
    src = Curve.build(vertices=[(v.id, v.at_infinity) for v in tgt.vertices.values()],
                      edges=edges, ray_classes=tgt.ray_classes)
    return Morphism(src, tgt, {v: v for v in tgt.vertices},
                    {e: ("edge", e) for e in tgt.edges}, degrees)


def ref_pullback(m: Morphism, f: PLFunction) -> PLFunction:
    """``pullback`` as it was when it moved each of ``Profile.breaks`` to the
    source edge in ``Fraction``s, o / k or (L - o) / k on a reversed edge,
    and normalized the list."""
    if f.is_neg_inf:
        return PLFunction.neg_inf(m.source)
    profiles = {}
    for eid, e in m.source.edges.items():
        kind, name = m.edge_map[eid]
        if kind == "vertex":
            profiles[eid] = _flat(e, f.value_at(m.target.pt_vertex(name)))
            continue
        prof, k, te = f.profiles[name], m.degrees[eid], m.target.edges[name]
        if m.vertex_map[e.u] == te.u:
            breaks = [(o / k, v) for o, v in prof.breaks]
        else:
            breaks = [((te.length - o) / k, v) for o, v in prof.breaks]
        profiles[eid] = _normalize(breaks, None if prof.tail is None else prof.tail * k)
    isolated = {vid: f.value_at(m.target.pt_vertex(m.vertex_map[vid]))
                for vid in _isolated_vertices(m.source)}
    return PLFunction(m.source, profiles, isolated)


def test_flat_edges_are_built_on_their_grid(tripod, segment3, monkeypatch):
    # The untouched edges of a bump and a collapsed edge's pullback are
    # constants built on their grid, and both results are built trusted, so
    # nothing is normalized.
    calls = []
    normal = plfunction._normal
    monkeypatch.setattr(plfunction, "_normal", lambda *args: calls.append(args) or normal(*args))
    assert localization_surjectivity(tripod, tripod.pt_on_edge("a", Fraction(1, 2))).all_matched
    pt_curve = Curve.build(vertices=["P"])
    m = Morphism(segment3, pt_curve, {"A": "P", "B": "P"}, {"e": ("vertex", "P")}, {"e": 0})
    f = PLFunction.from_edge_data(pt_curve, {}, isolated={"P": Fraction(5)})
    assert pullback(m, f) == PLFunction.constant(segment3, 5)
    assert calls == []


def test_pullback_matches_the_fraction_reading():
    rng = rng_for("pullback-reference")
    reversed_edges = stretched = 0
    for _ in range(200):
        m = _random_weight(rng)
        f = random_function(m.target, rng, allow_neg_inf=True)
        got, want = pullback(m, f), ref_pullback(m, f)
        assert got == want and got.isolated == want.isolated, (m, f.profiles)
        if not f.is_neg_inf:
            reversed_edges += sum(m.source.edges[eid].u != e.u for eid, e in m.target.edges.items())
            stretched += sum(k > 1 for k in m.degrees.values())
    assert reversed_edges >= 100 and stretched >= 100, (reversed_edges, stretched)


def test_identity_laws_on_random_morphisms():
    rng = rng_for("compose-identity")
    for _ in range(60):
        m = _random_weight(rng)
        f = random_function(m.target, rng, allow_neg_inf=True)
        want = pullback(m, f)
        for c in (compose(m, Morphism.identity(m.source)), compose(Morphism.identity(m.target), m)):
            assert (c.source, c.target) == (m.source, m.target)
            assert (c.vertex_map, c.edge_map, c.degrees) == (m.vertex_map, m.edge_map, m.degrees)
            assert validate_morphism(c).ok
            got = pullback(c, f)
            assert got == want and got.isolated == want.isolated


def test_a_morphism_is_validated_once(monkeypatch):
    calls = []
    check = morphism._check
    monkeypatch.setattr(morphism, "_check", lambda m: calls.append(m) or check(m))
    src = Curve.build(vertices=["A", "B", "C"], edges=[("e1", "A", "B", 3), ("e2", "B", "C", 1)])
    tgt = Curve.build(vertices=["X", "Y", "Z"], edges=[("f1", "X", "Y", 3), ("f2", "Y", "Z", 3)])

    def reversing():  # e1 onto f2 and e2 onto f1, both backwards
        return Morphism(src, tgt, {"A": "Z", "B": "Y", "C": "X"},
                        {"e1": ("edge", "f2"), "e2": ("edge", "f1")}, {"e1": 1, "e2": 3})

    m, f = reversing(), random_function(tgt, rng_for("validated-once"))
    assert validate_morphism(m).ok
    assert pullback(m, f) == pullback(m, f)
    assert weight_check(m).is_weight
    assert weighted_local_image(m, tgt.pt_on_edge("f1", 1)).verified
    assert len(calls) == 1 and calls[0] is m
    # The kept check is outside the fields: equality and repr are as before.
    assert m == reversing() and repr(m) == repr(reversing())
    # An invalid morphism keeps its report as well.
    bad = Morphism(src, tgt, m.vertex_map, m.edge_map, {"e1": 1, "e2": 1})
    for _ in range(2):
        with pytest.raises(TropError, match="invalid morphism: edge 'e2': target length"):
            pullback(bad, f)
    assert not weight_check(bad).is_weight and len(calls) == 2 and calls[-1] is bad


def ref_apply(loc: Localization, f: PLFunction) -> Germ:
    """``Localization.apply`` as it was when it read each slope through ``outgoing_slope``."""
    if f.is_neg_inf:
        return Germ.zero(loc.rank)
    return Germ(loc.rank, f.value_at(loc.point),
                tuple(f.outgoing_slope(loc.point, d) for d in loc.directions))


def test_a_localization_resolves_its_directions_once(monkeypatch):
    # The first apply reads the directions at the point once; every germ after
    # comes from the profiles, equal to the outgoing_slope reading, at
    # vertices (loops included), interior points and isolated vertices.
    rng = rng_for("localize-once")
    calls = []
    directions_at = Curve.directions_at
    monkeypatch.setattr(Curve, "directions_at",
                        lambda c, p: calls.append(p) or directions_at(c, p))
    looped = Curve.build(vertices=["P"], edges=[("l", "P", "P", 2), ("r", "P", None, INF)],
                         ray_classes={"r": "x"})
    seen = {"loop": 0, "edge": 0, "vertex": 0, "isolated": 0}
    for k in range(240):
        c = random_curve(rng)
        if k % 3 == 0:
            c = disjoint_union([c, looped, Curve.build(vertices=["Z"])])
        x = random_point(c, rng)
        loc = localize(c, x, None if rng.random() < 0.5 else
                       rng.sample(c.directions_at(x), len(c.directions_at(x))))
        fs = [random_function(c, rng, allow_neg_inf=True) for _ in range(3)]
        calls.clear()
        got = [loc.apply(f) for f in fs + fs]
        assert len(calls) <= 1 and got == [ref_apply(loc, f) for f in fs + fs]
        seen["loop"] += x.kind == "vertex" and any(c.edges[d[:-2]].is_loop for d in loc.directions)
        seen["edge"] += x.kind == "on_edge"
        seen["vertex"] += x.kind == "vertex"
        seen["isolated"] += loc.rank == 0
    assert min(seen.values()) >= 5, seen
    # A direction that is not at the point raises on every apply, as before.
    c = Curve.segment(3)
    f = PLFunction.constant(c, 1)
    bad = Localization(c, c.pt_vertex("A"), ("e:-",))
    for _ in range(2):
        with pytest.raises(TropError, match=r"^direction 'e:-' invalid at A$"):
            bad.apply(f)
    assert bad == Localization(c, c.pt_vertex("A"), ("e:-",))


def ref_germ_bump(loc: Localization, germ: Germ) -> PLFunction:
    """``germ_bump`` as it was when it edited a dict of ``Fraction``
    breakpoints per edge, built each leg in ``Fraction`` arithmetic and
    normalized the list."""
    if germ.is_neg_inf:
        return PLFunction.neg_inf(loc.curve)
    if germ.n != loc.rank:
        raise TropError(f"germ rank {germ.n} != point valence {loc.rank}")
    c = loc.curve
    kind, ident, off = c._resolve(loc.point)
    zero = PLFunction.constant(c, 0)
    if not loc.directions:
        return PLFunction(c, dict(zero.profiles), {**zero.isolated, ident: germ.coef})

    def leg_base(eid: str, sign: str) -> Fraction:
        if kind == "edge":
            return off
        return Fraction(0) if sign == "+" else c.edges[eid].length

    rooms = []
    for d in loc.directions:
        eid, sign = d.rsplit(":", 1)
        e = c.edges[eid]
        base = leg_base(eid, sign)
        room = (e.length - base) if sign == "+" else base
        if kind == "vertex" and e.is_loop:
            room = e.length / 2
        rooms.append(Fraction(1) if room == INF else room)
    eps = min(rooms) / 3
    a = germ.coef

    def leg(slope: int) -> list[tuple[Fraction, Fraction]]:
        v1 = a + slope * eps
        pts = [(Fraction(0), a), (eps, v1)]
        if v1 != 0:
            rate = math.ceil(abs(v1) / eps)
            pts.append((eps + abs(v1) / rate, Fraction(0)))
        return pts

    profiles = dict(zero.profiles)
    by_edge: dict[str, list[tuple[str, int]]] = {}
    for d, slope in zip(loc.directions, germ.slopes):
        eid, sign = d.rsplit(":", 1)
        by_edge.setdefault(eid, []).append((sign, slope))
    for eid, legs in by_edge.items():
        breaks: dict[Fraction, Fraction] = dict(profiles[eid].breaks)
        for sign, slope in legs:
            base = leg_base(eid, sign)
            direction = 1 if sign == "+" else -1
            for dist, val in leg(slope):
                breaks[base + direction * dist] = val
        profiles[eid] = _normalize(sorted(breaks.items()), profiles[eid].tail)
    return PLFunction(c, profiles, dict(zero.isolated))


class TestGermBumpOnTheGrid:
    def test_matches_the_fraction_construction(self):
        rng = rng_for("germ-bump-grid")
        seen = {"loop vertex": 0, "ray": 0, "interior": 0, "isolated": 0, "zero germ": 0}
        for _ in range(400):
            c = random_curve(rng)
            x = random_point(c, rng)
            dirs = list(c.directions_at(x))
            rng.shuffle(dirs)
            loc = localize(c, x, dirs)
            for _ in range(3):
                germ = random_germ(rng, loc.rank)
                got, want = germ_bump(loc, germ), ref_germ_bump(loc, germ)
                assert got == want and got.isolated == want.isolated, (c, x, germ)
                assert germ.is_neg_inf or loc.apply(got) == germ
                seen["zero germ"] += germ.is_neg_inf
            edges = [c.edges[d.rsplit(":", 1)[0]] for d in dirs]
            seen["loop vertex"] += x.kind == "vertex" and any(e.is_loop for e in edges)
            seen["ray"] += any(e.is_infinite for e in edges)
            seen["interior"] += x.kind == "on_edge"
            seen["isolated"] += not dirs
        assert min(seen.values()) >= 10, seen

    def test_unit_bumps_build_few_fractions(self, tripod):
        # The unit germ and e1, e2, e3 at the centre of a tripod of unit edges:
        # 1,298 fractions calls when the legs were built in Fraction
        # arithmetic, 48 on CPython 3.11 on the grid.
        loc = localize(tripod, tripod.pt_vertex("O"))
        assert fraction_calls(morphism._unit_bumps, loc) <= 60


class TestCertificatesAgainstSamples:
    """Random instances of what the two certificates prove: random germs
    localize back, and pulled-back germs are the target germs with each
    slope times its weight."""

    def test_random_germs_localize_back(self):
        rng = rng_for("bump-random-germs")
        for _ in range(60):
            c = random_curve(rng)
            x = random_point(c, rng)
            loc = localize(c, x)
            assert localization_surjectivity(c, x).all_matched
            for _ in range(4):
                germ = random_germ(rng, loc.rank)
                assert loc.apply(germ_bump(loc, germ)) == germ

    def test_pulled_back_germs_are_the_weighted_germs(self):
        rng = rng_for("weighted-image-random")
        for _ in range(40):
            m = _random_weight(rng)
            x = random_point(m.target, rng)
            rep = weighted_local_image(m, x)
            assert rep.verified
            tloc = localize(m.target, x)
            flip = {"+": "-", "-": "+"}
            sdirs = []
            for d in tloc.directions:
                eid, sign = d.split(":")
                forward = m.source.edges[eid].u == m.target.edges[eid].u
                sdirs.append(f"{eid}:{sign if forward else flip[sign]}")
            sloc = localize(m.source, rep.preimage, sdirs)
            weights = [w for _, w in rep.direction_weights]
            for _ in range(4):
                f = random_function(m.target, rng)
                germ = tloc.apply(f)
                pulled = sloc.apply(pullback(m, f))
                assert pulled.coef == germ.coef
                assert pulled.slopes == tuple(w * s for w, s in zip(weights, germ.slopes))
                assert all(s % w == 0 for w, s in zip(weights, pulled.slopes))


class TestPlantedBugs:
    def test_wrong_slope_on_one_bump_leg(self, tripod, monkeypatch):
        real = morphism.germ_bump

        def bent(loc, germ):  # doubles the slope of the last leg
            return real(loc, Germ(germ.n, germ.coef, germ.slopes[:-1] + (2 * germ.slopes[-1],)))

        monkeypatch.setattr(morphism, "germ_bump", bent)
        # Only the last generator, e_3, has a nonzero slope on the last leg.
        assert not localization_surjectivity(tripod, tripod.pt_vertex("O")).all_matched

    def test_dropped_degree_in_pullback(self, line, monkeypatch):
        real = morphism.pullback

        def degree_one(m, f):
            return real(Morphism(m.source, m.target, m.vertex_map, m.edge_map,
                                 {eid: 1 for eid in m.degrees}), f)

        monkeypatch.setattr(morphism, "pullback", degree_one)
        assert not weighted_local_image(doubling(line), line.pt_on_edge("right", 2)).verified
        assert not weighted_local_image(doubling(line), line.pt_vertex("O")).verified
