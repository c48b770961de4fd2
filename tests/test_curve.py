"""Curve models: construction, canonical models, metric, subgraphs, gluing."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropcurve.curve import (INF, Curve, EdgeDesc, PointRef, VertexInfo, canonical_model,
                             disjoint_union, parse_length)
from tropcurve.errors import TropError
from tropcurve.gluing import Embedding, glue, glue_function, validate_embedding
from tropcurve.randgen import random_curve, random_function, random_point, random_subgraph
from tropcurve.selftest import suite_canonical_model, suite_metric
from tropcurve.subgraph import make_subgraph, point_subgraph, whole_subgraph

from conftest import fraction_calls, rng_for


class TestBuild:
    def test_segment(self, segment3):
        assert len(segment3.vertices) == 2 and len(segment3.edges) == 1

    def test_infinity_synthesized(self):
        c = Curve.build(vertices=["A"], edges=[("e", "A", None, INF)], ray_classes={"e": "e+"})
        inf_vs = [v for v in c.vertices.values() if v.at_infinity]
        assert len(inf_vs) == 1 and c.valence(c.pt_vertex(inf_vs[0].id)) == 1

    def test_key_built_once_and_equality(self):
        build = lambda: Curve.build(vertices=["A"], edges=[("l", "A", "A", 2), ("r", "A", None, INF)],
                                    ray_classes={"r": "x"})
        c, d = build(), build()
        assert c.key() is c.key()
        assert c == c and c == d and hash(c) == hash(d)
        assert c != Curve.segment(2) and c != "c"

    def test_a_point_keeps_its_hash(self, segment3):
        p, q = segment3.pt_on_edge("e", Fraction(1, 2)), segment3.pt_on_edge("e", Fraction(1, 2))
        assert fraction_calls(hash, p) == 0 and fraction_calls(hash, p) == 0
        assert hash(p) == hash(q) == hash(segment3.pt_on_edge("e", Fraction(2, 4)))
        assert p == q and repr(p) == repr(q) == ("PointRef(kind='on_edge', vertex=None, edge='e', "
                                                 "offset=Fraction(1, 2))")

    def test_hashes_do_not_depend_on_the_process(self):
        # Before Python 3.12 hash(None) is None's address, which varies from
        # process to process; points, profiles and functions hash none, so a
        # fixed PYTHONHASHSEED gives every process the same hashes, and a
        # dict of them the same collisions.
        code = ("from tropcurve.curve import Curve\n"
                "from tropcurve.plfunction import PLFunction\n"
                "c = Curve.build(vertices=['A', 'B'], edges=[('e', 'A', 'B', 3), "
                "('r', 'A', None, 'inf')], ray_classes={'r': 'x'})\n"
                "f = PLFunction.constant(c, 1)\n"
                "print(hash(c.pt_vertex('A')), hash(c.pt_on_edge('e', 1)), hash(f.profiles['e']), "
                "hash(f.profiles['r']), hash(f), hash(PLFunction.neg_inf(c)))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=120, check=True).stdout for _ in range(2)]
        assert len(runs[0].split()) == 6 and runs[0] == runs[1]

    @given(st.fractions(min_value=0, max_value=20).filter(lambda x: 0 < x < 20),
           st.integers(1, 10 ** 6))
    def test_a_point_is_its_reduced_pair(self, t, k):
        # A point made from a Fraction and one made from an unreduced grid
        # pair are one value: equal, with one hash, text and repr.
        c = Curve.segment(20)
        given_, on_grid = PointRef("on_edge", edge="e", offset=t), PointRef._on_edge(
            "e", t.numerator * k, t.denominator * k)
        assert given_ == on_grid == c.pt_on_edge("e", t) == c.pt_on_edge("e", str(t))
        assert hash(given_) == hash(on_grid) == hash(c.pt_on_edge("e", str(t)))
        assert str(given_) == str(on_grid) == f"e@{t}"
        assert repr(given_) == repr(on_grid) == (f"PointRef(kind='on_edge', vertex=None, edge='e', "
                                                 f"offset={t!r})")
        assert on_grid.offset == t and type(on_grid.offset) is Fraction
        assert given_ != PointRef._on_edge("e", t.numerator * k + 1, t.denominator * k)
        assert given_ != PointRef("on_edge", edge="f", offset=t) and given_ != str(given_)

    def test_loop_is_one_edge(self):
        c = Curve.build(vertices=["P", "l~mid"], edges=[("l", "P", "P", 8), ("s", "P", "l~mid", 1)])
        assert set(c.vertices) == {"P", "l~mid"}
        assert c.directions_at(c.pt_vertex("P")) == ("l:-", "l:+", "s:+")
        assert c.directions_at(c.pt_on_edge("l", 4)) == ("l:-", "l:+")
        assert c.distance(c.pt_on_edge("l", 1), c.pt_on_edge("l", 7)) == 2
        assert c.distance(c.pt_vertex("l~mid"), c.pt_on_edge("l", 4)) == 5

    def test_parallel_classes_allowed(self):
        both = Curve.build(vertices=["A", "B"],
                           edges=[("l", "A", None, INF), ("m", "A", "B", 1), ("r", "B", None, INF)],
                           ray_classes={"l": "same", "r": "same"})
        assert set(both.ray_classes.values()) == {"same"}

    def test_errors(self):
        with pytest.raises(TropError):
            Curve.build(vertices=["A"], edges=[("e", "A", "A", INF)], ray_classes={"e": "k"})
        with pytest.raises(TropError):
            Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", 0)])
        with pytest.raises(TropError):
            Curve.build(vertices=["A", ("Z", True)], edges=[("e", "A", "Z", INF)])  # no class
        with pytest.raises(TropError):
            Curve.build(vertices=[], edges=[])
        with pytest.raises(TropError):  # infinity in the middle
            Curve.build(vertices=["A", ("Z", True), "B"],
                        edges=[("e", "A", "Z", INF), ("f", "Z", "B", INF)],
                        ray_classes={"e": "k", "f": "k"})
        with pytest.raises(TropError) as err:  # a ray between two finite vertices
            Curve.build(vertices=["A", "B"], edges=[("r", "A", "B", INF)], ray_classes={"r": "k"})
        assert str(err.value) == "infinite edge 'r' needs exactly one endpoint at infinity"

    @pytest.mark.parametrize("length, message", [
        (1.5, "exact rational required, got float: 1.5"),
        (True, "exact rational required, got bool: True"),
        (Fraction(-1), "edge length must be positive, got -1"),
        (0, "edge length must be positive, got 0"),
        ("-3/2", "edge length must be positive, got -3/2"),
        (Fraction(-3, 2), "edge length must be positive, got -3/2"),
        ("abc", "not a rational literal: 'abc'"),
        (-INF, "exact rational required, got float: -inf"),
    ])
    def test_raw_constructor_checks_lengths(self, length, message):
        with pytest.raises(TropError) as err:
            Curve([VertexInfo("A"), VertexInfo("B")], [EdgeDesc("e", "A", "B", length)], {})
        assert str(err.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: Curve.build(vertices=[1]),
         "malformed vertex entry 1: a vertex is an id or an (id, at_infinity) pair"),
        (lambda: Curve.build(vertices=[None]),
         "malformed vertex entry None: a vertex is an id or an (id, at_infinity) pair"),
        (lambda: Curve.build(vertices=[("a",)]),
         "malformed vertex entry ('a',): a vertex is an id or an (id, at_infinity) pair"),
        (lambda: Curve.build(vertices=[(["a"], False)]),
         "malformed vertex entry (['a'], False): a vertex is an id or an (id, at_infinity) pair"),
        (lambda: Curve.build(vertices=[(1, False)]), "vertex id must be a string, not int: 1"),
        (lambda: Curve.build(vertices=[("a", 1)]),
         "vertex 'a': at_infinity must be True or False, not int: 1"),
        (lambda: Curve.build(vertices=["a", ("a", False)]), "duplicate vertex id 'a'"),
        # No file can name an edge 3, so no function on such a curve could be written.
        (lambda: Curve.build(vertices=["a", "b"], edges=[(3, "a", "b", 1)]),
         "edge id must be a string, not int: 3"),
        (lambda: Curve.build(vertices=["a", "b"], edges=[("e", "a", 2, 1)]),
         "vertex id must be a string, not int: 2"),
        (lambda: Curve.build(vertices=["a", "b"], edges=[("e", "a", ["b"], 1)]),
         "malformed edge entry ('e', 'a', ['b'], 1): an edge is (id, u, v, length)"),
        (lambda: Curve.build(vertices=["a", "b"], edges=[("e", "a")]),
         "malformed edge entry ('e', 'a'): an edge is (id, u, v, length)"),
        (lambda: Curve.build(vertices=["a"], edges=[("r", "a", None, INF)],
                             ray_classes={"r": 5}),
         "ray class of 'r' must be a string, not int: 5"),
        (lambda: Curve.build(vertices=["a"], edges=[("r", "a", None, INF)],
                             ray_classes={"r": "k", 3: "k"}),
         "ray class given for non-ray edge 3"),
        (lambda: Curve([VertexInfo(3)], [], {}), "vertex id must be a string, not int: 3"),
        (lambda: Curve([VertexInfo("a")], [EdgeDesc("e", "a", ["b"], 1)], {}),
         "edge endpoint must be a string, not list: ['b']"),
        (lambda: Curve([VertexInfo("a", "yes")], [], {}),
         "vertex 'a': at_infinity must be True or False, not str: 'yes'"),
    ], ids=["vertex-int", "vertex-none", "vertex-one-tuple", "vertex-list-id", "vertex-int-id",
            "vertex-int-flag", "vertex-repeated", "edge-int-id", "edge-int-endpoint", "edge-list-endpoint",
            "edge-short", "ray-class-int-label", "ray-class-int-key", "raw-int-vertex-id",
            "raw-list-endpoint", "raw-str-flag"])
    def test_malformed_entries_raise_trop_error(self, make, message):
        # Curve._validate checks every id and flag; Curve.build only converts entries.
        with pytest.raises(TropError) as err:
            make()
        assert str(err.value) == message

    def test_lengths_are_decided_once(self):
        finite, ray = EdgeDesc("e", "A", "B", "3/2"), EdgeDesc("r", "A", "R", float("inf"))
        assert finite.length == Fraction(3, 2) and type(finite.length) is Fraction
        assert ray.length is INF and ray.is_infinite and not finite.is_infinite
        assert fraction_calls(lambda: finite.is_infinite) == 0
        # The sign is read from the integer numerator, and a Fraction is
        # handed back itself: one fractions call, its as_integer_ratio.
        x = Fraction(7, 3)
        assert parse_length(x) is x and fraction_calls(parse_length, x) == 1


class TestCanonicalModel:
    def test_path_merges(self):
        path = Curve.build(vertices=["A", "B", "C"],
                           edges=[("e1", "A", "B", 1), ("e2", "B", "C", 1)])
        cm = canonical_model(path)
        d = cm.description()
        assert sorted(v["id"] for v in d["vertices"]) == ["A", "C"]
        assert d["edges"][0]["length"] == "2"

    def test_circle(self):
        circ = Curve.build(vertices=["P", "Q"], edges=[("a", "P", "Q", 1), ("b", "Q", "P", 2)])
        d = canonical_model(circ).description()
        assert len(d["vertices"]) == 1 and d["vertices"][0]["id"] == "P"
        (e,) = d["edges"]
        assert e["u"] == e["v"] == "P" and e["length"] == "3"

    def test_doubly_infinite_line(self):
        dl = Curve.build(vertices=["M", "N"],
                         edges=[("l", "M", None, INF), ("mid", "M", "N", 2), ("r", "N", None, INF)],
                         ray_classes={"l": "L", "r": "R"})
        d = canonical_model(dl).description()
        assert len(d["vertices"]) == 3 and len(d["edges"]) == 2
        assert sorted(d["ray_classes"].values()) == ["L", "R"]

    def test_idempotent_and_isometric(self):
        assert suite_canonical_model(rng_for("canonical"), 25) == 25


class TestValenceDistance:
    def test_valences(self, tripod, line):
        assert tripod.valence(tripod.pt_vertex("O")) == 3
        assert tripod.valence(tripod.pt_on_edge("a", Fraction(1, 2))) == 2
        assert line.valence(line.pt_infinity_of("right")) == 1

    def test_distance_examples(self, segment3, line):
        p = segment3.pt_on_edge("e", 1)
        q = segment3.pt_on_edge("e", Fraction(5, 2))
        assert segment3.distance(p, q) == Fraction(3, 2)
        assert line.distance(line.pt_vertex("O"), line.pt_infinity_of("right")) == INF
        assert line.distance(line.pt_infinity_of("right"), line.pt_infinity_of("right")) == 0

    def test_disjoint_union_distance(self, segment3):
        u = disjoint_union([segment3, segment3])
        assert u.distance(u.pt_vertex("0:A"), u.pt_vertex("1:A")) == INF
        assert u.component_index(u.pt_vertex("1:A")) == 1

    def test_loop_distance(self):
        lp = Curve.build(vertices=["P"], edges=[("c", "P", "P", 4)])
        assert lp.distance(lp.pt_on_edge("c", 1), lp.pt_on_edge("c", 3)) == 2
        assert lp.distance(lp.pt_vertex("P"), lp.pt_on_edge("c", 2)) == 2

    def test_metric_properties(self):
        assert suite_metric(rng_for("metric"), 30) == 30

    def test_length_scale_is_worked_out_on_first_use(self):
        c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", Fraction(3, 2)),
                                                   ("l", "A", "A", Fraction(2, 5)),
                                                   ("r", "B", None, INF)], ray_classes={"r": "x"})
        assert c._scale is None and c == c and c.description() and c._scale is None
        assert c._length_scale() == (10, {"e": 15, "l": 4})
        assert c._length_scale() is c._length_scale()
        assert c.distance(c.pt_vertex("A"), c.pt_on_edge("r", Fraction(1, 3))) == Fraction(11, 6)
        assert c._dijkstra_cache == {"A": {"A": 0, "B": 15}}

    def test_distances_at_the_boundary(self):
        c = disjoint_union([Curve.segment(Fraction(1, 2)), Curve.doubly_infinite_line()])
        dist = point_subgraph(c, c.pt_on_edge("0:e", Fraction(1, 3))).distance_map()
        assert dist == {"0:A": Fraction(1, 3), "0:B": Fraction(1, 6), "1:O": INF,
                        "1:left.inf": INF, "1:right.inf": INF}
        assert all(d is INF or type(d) is Fraction for d in dist.values())


class TestSubgraph:
    def test_whole_curve(self, segment3):
        g = whole_subgraph(segment3)
        assert g.as_curve()[0].is_connected()

    def test_single_point(self, segment3):
        g = point_subgraph(segment3, segment3.pt_on_edge("e", 1))
        assert g.as_curve()[0].is_connected()
        assert g.contains_point(segment3.pt_on_edge("e", 1))
        assert not g.contains_point(segment3.pt_vertex("A"))

    def test_lone_infinity_rejected(self, line):
        # A point at infinity needs its ray's tail.
        lone = "subgraph component is a single point at infinity: 'right.inf'"
        with pytest.raises(TropError) as exc:
            make_subgraph(line, vertices=["right.inf"])
        assert str(exc.value) == lone
        g = make_subgraph(line, vertices=["right.inf"], intervals=[("right", 2, INF)])
        assert g.vertices == {"right.inf"} and g.as_curve()[0].is_connected()
        with pytest.raises(TropError) as exc:
            make_subgraph(line, vertices=["right.inf"], intervals=[("right", 1, 2)])
        assert str(exc.value) == lone

    def test_ray_tail_keeps_infinity(self, line):
        g = make_subgraph(line, intervals=[("right", 2, INF)])
        assert g.contains_point(line.pt_infinity_of("right"))
        sub, _ = g.as_curve()
        assert any(e.is_infinite for e in sub.edges.values())
        assert list(sub.ray_classes.values()) == ["right"]

    def test_invalid_intervals(self, segment3):
        with pytest.raises(TropError):
            make_subgraph(segment3, intervals=[("e", 2, 1)])
        with pytest.raises(TropError):
            make_subgraph(segment3, intervals=[("e", 0, INF)])

    def test_normalization_merges(self, segment3):
        g1 = make_subgraph(segment3, intervals=[("e", 0, 1), ("e", 1, 2)])
        g2 = make_subgraph(segment3, intervals=[("e", 0, 2)])
        assert g1 == g2

    def test_component_count_matches_curve(self, segment3):
        u = disjoint_union([segment3, segment3, segment3])
        assert len(whole_subgraph(u).as_curve()[0].component_sets()) == len(u.component_sets()) == 3

    def test_interval_across_loop_midpoint(self):
        c = Curve.build(vertices=["P"], edges=[("l", "P", "P", 8)])
        g = make_subgraph(c, intervals=[("l", 3, 5)])
        assert g.vertices == frozenset() and g.intervals == (("l", ((3, 5),)),)
        assert g.as_curve()[0].is_connected() and g.contains_point(c.pt_on_edge("l", 4))
        sub, chart = g.as_curve()
        assert list(sub.edges) == ["l[3,5]"] and chart.edge_map["l[3,5]"] == ("l", 3, 1)
        assert g.distance_map() == {"P": 3}
        assert point_subgraph(c, c.pt_on_edge("l", 4)).intervals == (("l", ((4, 4),)),)

    def test_as_curve_chart(self, segment3):
        g = make_subgraph(segment3, intervals=[("e", 1, 2)])
        sub, chart = g.as_curve()
        p = segment3.pt_on_edge(*chart.target_offset("e[1,2]", Fraction(1, 2)))
        assert p == segment3.pt_on_edge("e", Fraction(3, 2))
        assert chart.shape is sub and chart.edge_map == {"e[1,2]": ("e", 1, 1)}
        assert chart.vertex_map == {"e@1": segment3.pt_on_edge("e", 1),
                                    "e@2": segment3.pt_on_edge("e", 2)}

    def test_a_subgraph_is_cut_once(self, segment3, monkeypatch):
        from tropcurve import subgraph
        from tropcurve.plfunction import PLFunction, extend, restrict_whole
        cuts = []
        real_cut = subgraph.cut
        monkeypatch.setattr(subgraph, "cut", lambda *a: cuts.append(a) or real_cut(*a))
        g = make_subgraph(segment3, intervals=[("e", 1, 2)])
        twin = make_subgraph(segment3, intervals=[("e", 1, 2)])
        f = PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)})
        first, _ = restrict_whole(f, g)
        again, chart = restrict_whole(extend(first, g, -2), g)
        assert again == first and len(cuts) == 1
        assert again.curve is first.curve is g.as_curve()[0] and chart is g.as_curve()[1]
        # The cut is not part of the subgraph's value.
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)

    def test_the_scaled_intervals_are_not_part_of_the_value(self, segment3):
        g = make_subgraph(segment3, intervals=[("e", Fraction(1, 2), Fraction(4, 3))])
        twin = make_subgraph(segment3, intervals=[("e", Fraction(1, 2), Fraction(4, 3))])
        assert "_scale" not in g.__dict__
        assert g._scaled() == (6, 6, {"e": ((3, 8),)}) and g._scaled() is g._scaled()
        assert g.distance_map() == {"A": Fraction(1, 2), "B": Fraction(5, 3)}
        assert "_scale" in g.__dict__ and "_scale" not in twin.__dict__
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)

    def test_cut_point_named_like_a_parent_vertex(self):
        c = Curve.build(vertices=["A", "B", "e@1"],
                        edges=[("e", "A", "B", 3), ("f", "B", "e@1", 1)])
        sub, chart = make_subgraph(c, intervals=[("e", 1, 2)]).as_curve()
        assert chart.vertex_map == {"e@1'": c.pt_on_edge("e", 1), "e@2": c.pt_on_edge("e", 2)}
        assert sub.edges["e[1,2]"].u == "e@1'"

    def test_piece_named_like_a_parent_edge(self):
        c = Curve.build(vertices=["A", "B", "C", "D"],
                        edges=[("e", "A", "B", 3), ("e[1,2]", "C", "D", 1)])
        sub, chart = make_subgraph(c, edges=["e[1,2]"], intervals=[("e", 1, 2)]).as_curve()
        assert chart.edge_map == {"e[1,2]'": ("e", 1, 1), "e[1,2]": ("e[1,2]", 0, 1)}
        assert sub.edges["e[1,2]'"].length == 1


class TestDisjointUnion:
    def test_default_keeps_classes_apart(self, line):
        u = disjoint_union([line, line])
        assert len(set(u.ray_classes.values())) == 4

    def test_shared_classes(self, line):
        u = disjoint_union([line, line], shared_classes={
            "minus": [(0, "left"), (1, "left")], "plus": [(0, "right"), (1, "right")]})
        assert sorted(set(u.ray_classes.values())) == ["minus", "plus"]

    def test_no_rays(self, segment3):
        u = disjoint_union([segment3, segment3, segment3])
        assert not u.ray_classes and len(u.component_sets()) == 3

    def test_needs_two(self, segment3):
        with pytest.raises(TropError):
            disjoint_union([segment3])


class TestGlue:
    def test_point_weld(self):
        s1 = Curve.segment(1, "A", "B", "e")
        s2 = Curve.segment(1, "C", "D", "f")
        pt = Curve.build(vertices=["P"])
        res = glue(s1, s2,
                   Embedding(pt, {"P": s1.pt_vertex("B")}, {}),
                   Embedding(pt, {"P": s2.pt_vertex("C")}, {}))
        d = res.curve.description()
        assert len(d["edges"]) == 2 and len(d["vertices"]) == 3
        ga = res.map1.point(s1.pt_vertex("A"))
        gd = res.map2.point(s2.pt_vertex("D"))
        assert res.curve.distance(ga, gd) == 2
        assert res.map1.point(s1.pt_vertex("B")) == res.map2.point(s2.pt_vertex("C"))

    def test_point_map_inside_cut_edges(self):
        # Gluing at e@1 cuts e into e[0,1] and e[1,3].
        s1 = Curve.segment(3, "A", "B", "e")
        s2 = Curve.segment(1, "C", "D", "f")
        pt = Curve.build(vertices=["P"])
        res = glue(s1, s2, Embedding(pt, {"P": s1.pt_on_edge("e", 1)}, {}),
                   Embedding(pt, {"P": s2.pt_vertex("C")}, {}))
        g = res.curve
        assert set(g.edges) == {"1:e[0,1]", "1:e[1,3]", "2:f"}
        half = Fraction(1, 2)
        assert res.map1.point(s1.pt_on_edge("e", half)) == g.pt_on_edge("1:e[0,1]", half)
        assert res.map1.point(s1.pt_on_edge("e", 2)) == g.pt_on_edge("1:e[1,3]", 1)
        assert res.map1.point(s1.pt_on_edge("e", 1)) == res.map2.point(s2.pt_vertex("C"))
        assert res.map2.point(s2.pt_on_edge("f", half)) == g.pt_on_edge("2:f", half)

    def test_images_touching_at_a_shared_vertex(self):
        # The path U - V - W lies along e with V at e@1: the two images meet
        # only at the image of V, which is allowed.
        seg = Curve.segment(2, "A", "B", "e")
        path = Curve.build(vertices=["U", "V", "W"], edges=[("s", "U", "V", 1), ("t", "V", "W", 1)])
        emb = Embedding(path, {"U": seg.pt_vertex("A"), "V": seg.pt_on_edge("e", 1),
                               "W": seg.pt_vertex("B")},
                        {"s": ("e", Fraction(0), 1), "t": ("e", Fraction(1), 1)})
        assert validate_embedding(emb, seg) is None
        res = glue(seg, seg, emb, emb)
        assert res.curve.description() == {
            "vertices": [{"id": "1:A", "at_infinity": False}, {"id": "1:B", "at_infinity": False},
                         {"id": "1:e@1", "at_infinity": False}],
            "edges": [{"id": "1:e[0,1]", "u": "1:A", "v": "1:e@1", "length": "1"},
                      {"id": "1:e[1,2]", "u": "1:e@1", "v": "1:B", "length": "1"}],
            "ray_classes": {}}

    def test_shared_leg(self, tripod):
        other = Curve.build(vertices=["O2"],
                            edges=[("x", "O2", "X", 1), ("y", "O2", "Y", 1), ("z", "O2", "Z", 1)])
        shape = Curve.segment(1, "U", "V", "s")
        e1 = Embedding(shape, {"U": tripod.pt_vertex("O"), "V": tripod.pt_vertex("A")},
                       {"s": ("a", Fraction(0), 1)})
        e2 = Embedding(shape, {"U": other.pt_vertex("O2"), "V": other.pt_vertex("X")},
                       {"s": ("x", Fraction(0), 1)})
        res = glue(tripod, other, e1, e2)
        d = res.curve.description()
        assert len(d["vertices"]) == 6 and len(d["edges"]) == 5
        # distances never increase under the glue maps
        for p, q in (("O", "A"), ("O", "B")):
            before = tripod.distance(tripod.pt_vertex(p), tripod.pt_vertex(q))
            after = res.curve.distance(res.map1.point(tripod.pt_vertex(p)),
                                       res.map1.point(tripod.pt_vertex(q)))
            assert after <= before

    def test_non_isometric_rejected(self, tripod):
        shape = Curve.segment(2, "U", "V", "s")
        bad = Embedding(shape, {"U": tripod.pt_vertex("O"), "V": tripod.pt_vertex("A")},
                        {"s": ("a", Fraction(0), 1)})
        with pytest.raises(TropError):
            validate_embedding(bad, tripod)

    def test_overlapping_images_rejected(self, tripod):
        shape = Curve.build(vertices=["U", "V", "W", "X"],
                            edges=[("s", "U", "V", Fraction(1, 2)),
                                   ("t", "W", "X", Fraction(1, 2))])
        emb = Embedding(shape,
                        {"U": tripod.pt_vertex("O"), "V": tripod.pt_on_edge("a", Fraction(1, 2)),
                         "W": tripod.pt_on_edge("a", Fraction(1, 4)),
                         "X": tripod.pt_on_edge("a", Fraction(3, 4))},
                        {"s": ("a", Fraction(0), 1), "t": ("a", Fraction(1, 4), 1)})
        with pytest.raises(TropError, match="overlap"):
            validate_embedding(emb, tripod)

    def test_vertex_image_inside_an_edge_image_rejected(self):
        # C lands at e@3, inside the image [1,5] of the shape edge A - B.
        seg = Curve.segment(10, "P", "Q", "e")
        shape = Curve.build(vertices=["A", "B", "C"], edges=[("s", "A", "B", 4)])
        emb = Embedding(shape, {"A": seg.pt_on_edge("e", 1), "B": seg.pt_on_edge("e", 5),
                                "C": seg.pt_on_edge("e", 3)},
                        {"s": ("e", Fraction(1), 1)})
        with pytest.raises(TropError) as err:
            glue(seg, seg, emb, emb)
        assert str(err.value) == "image of vertex 'C' lies inside the image of edge 's'"

    def test_stray_vertex_map_key_rejected(self):
        # "stray" is no vertex of the shape; glue used to cut e at its image.
        s1 = Curve.segment(3, "A", "B", "e")
        s2 = Curve.segment(1, "C", "D", "f")
        pt = Curve.build(vertices=["P"])
        stray = Embedding(pt, {"P": s1.pt_vertex("B"), "stray": s1.pt_on_edge("e", 1)}, {})
        with pytest.raises(TropError) as err:
            glue(s1, s2, stray, Embedding(pt, {"P": s2.pt_vertex("C")}, {}))
        assert str(err.value) == "vertex_map key 'stray' is not a shape vertex"
        with pytest.raises(TropError, match="'stray' is not a shape vertex"):
            validate_embedding(stray, s1)

    def test_ray_classes_merge(self):
        r1 = Curve.build(vertices=["P"], edges=[("s", "P", "Q", 1), ("rayA", "Q", None, INF)],
                         ray_classes={"rayA": "k1"})
        r2 = Curve.build(vertices=["P2"], edges=[("t", "P2", "Q2", 1), ("rayB", "Q2", None, INF)],
                         ray_classes={"rayB": "k2"})
        shp = Curve.build(vertices=["W"], edges=[("L", "W", None, INF)], ray_classes={"L": "kk"})
        res = glue(r1, r2,
                   Embedding(shp, {"W": r1.pt_vertex("Q"), "L.inf": r1.pt_infinity_of("rayA")},
                             {"L": ("rayA", Fraction(0), 1)}),
                   Embedding(shp, {"W": r2.pt_vertex("Q2"), "L.inf": r2.pt_infinity_of("rayB")},
                             {"L": ("rayB", Fraction(0), 1)}))
        assert len(set(res.curve.description()["ray_classes"].values())) == 1

    def test_a_subgraph_chart_is_an_embedding(self):
        # A subgraph's chart is an Embedding of its cut curve: it validates,
        # and gluing a curve to itself along it welds a function with itself,
        # which the glued curve reads back through both point maps.  Charts of
        # cuts that keep a whole loop are skipped: an embedding's shape is loopless.
        rng = rng_for("chart-embedding")
        draws, kept = 300, 0
        for _ in range(draws):
            c = random_curve(rng)
            sub, chart = random_subgraph(c, rng).as_curve()
            if any(e.is_loop for e in sub.edges.values()):
                continue
            kept += 1
            assert validate_embedding(chart, c) is None
            res = glue(c, c, chart, chart)
            f = random_function(c, rng)
            welded = glue_function(f, f, res)
            for _ in range(4):
                p = random_point(c, rng, finite=False)
                assert welded.value_at(res.map1.point(p)) == f.value_at(p), (c, chart, p)
                assert welded.value_at(res.map2.point(p)) == f.value_at(p), (c, chart, p)
            with pytest.raises(TropError, match="functions disagree on the glued subgraph"):
                glue_function(f, f.scale(1), res)
        print(f"{draws - kept} of {draws} cuts kept a loop and were skipped")
        assert kept >= 200, f"only {kept} of {draws} cuts were loopless"
