"""Realizations, balancing, complex ingestion, fitting, intersections."""

from __future__ import annotations

import collections
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropcurve import complexes, realization
from tropcurve import io as tio
from tropcurve.complexes import PolyComplex1D, check_balanced, intersect
from tropcurve.curve import INF, Curve
from tropcurve.errors import NonTransversalError, TropError
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.plfunction import PLFunction, chip_fire
from tropcurve.randgen import (CONIC_POLY, DOUBLE_LINE_POLY, LINE_POLY, complex_library,
                               random_plane_poly)
from tropcurve.realization import (RealizationReport, _region_terms, bezout_check,
                                   check_realization, curve_from_complex, fit_tropical_polynomial,
                                   harmonic_balance_report, realize)
from tropcurve.selftest import suite_complex_round_trip, suite_fit, suite_intersections
from tropcurve.semifield import TropPoly, on_scale
from tropcurve.subgraph import point_subgraph

from conftest import fraction_calls, identity_fn, rng_for, scaled_fn

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestRealize:
    def test_identity_line(self, line):
        r = realize(line, [identity_fn(line)])
        assert r.image.dim == 1
        assert len(r.image.vertices) == 1 and len(r.image.rays) == 2
        rep = check_realization(r)
        assert rep.injective and rep.local_isometry
        assert rep.parallel_respected and rep.condition5_free

    def test_double_speed_not_isometric(self, line):
        rep = check_realization(realize(line, [scaled_fn(line, 2)]))
        assert rep.injective and not rep.local_isometry

    def test_pair_realization(self, line):
        r = realize(line, [identity_fn(line), scaled_fn(line, 2)])
        assert sorted(d for _, d, _ in r.image.rays) == [(-1, -2), (1, 2)]

    def test_infinite_tripod_harmonic_pair(self):
        # Center with three rays; coordinates harmonic at the only finite
        # point realize the Y-shape of the tropical line.
        c = Curve.build(vertices=["O"],
                        edges=[("a", "O", None, INF), ("b", "O", None, INF),
                               ("c", "O", None, INF)],
                        ray_classes={"a": "p", "b": "q", "c": "r"})
        fs = [PLFunction.from_edge_data(c, {"a": ([(0, 0)], 1), "b": ([(0, 0)], -1),
                                            "c": ([(0, 0)], 0)}),
              PLFunction.from_edge_data(c, {"a": ([(0, 0)], 1), "b": ([(0, 0)], 0),
                                            "c": ([(0, 0)], -1)})]
        r = realize(c, fs)
        assert sorted(d for _, d, _ in r.image.rays) == [(-1, 0), (0, -1), (1, 1)]
        hb = harmonic_balance_report(r)
        assert hb.all_harmonic and hb.balance.balanced

    def test_same_class_distinct_directions_flagged(self):
        c = Curve.build(vertices=["O"],
                        edges=[("p", "O", None, INF), ("q", "O", None, INF)],
                        ray_classes={"p": "k", "q": "k"})
        fs = [PLFunction.from_edge_data(c, {"p": ([(0, 0)], 1), "q": ([(0, 0)], 1)}),
              PLFunction.from_edge_data(c, {"p": ([(0, 0)], 1), "q": ([(0, 0)], 1)})]
        # both functions respect the class; image rays share direction (1,1)
        r = realize(c, fs)
        rep = check_realization(r)
        assert rep.parallel_respected
        assert not rep.condition5_free or len(r.image.rays) == 1

    def test_rejects_class_breaking_coordinates(self):
        c = Curve.build(vertices=["O"],
                        edges=[("p", "O", None, INF), ("q", "O", None, INF)],
                        ray_classes={"p": "k", "q": "k"})
        bad = PLFunction.from_edge_data(c, {"p": ([(0, 0)], 1), "q": ([(0, 0)], 2)})
        with pytest.raises(TropError, match="ray class"):
            realize(c, [bad])

    def test_non_harmonic_flagged(self, tripod):
        cf = chip_fire(tripod, point_subgraph(tripod, tripod.pt_vertex("O")), INF)
        r = realize(tripod, [cf])
        hb = harmonic_balance_report(r)
        assert not hb.all_harmonic
        assert any(points for _, points in hb.defects)


class TestCheckRealization:
    """Fixed inputs for each negative branch of check_realization, and an isolated vertex."""

    @staticmethod
    def two_rays(classes):
        """Rays p at O and q at A, one unit apart, both realized in direction (1, 0)."""
        c = Curve.build(vertices=["O", "A"],
                        edges=[("s", "O", "A", 1), ("p", "O", None, INF), ("q", "A", None, INF)],
                        ray_classes=classes)
        f1 = PLFunction.from_edge_data(c, {"s": ([(0, 0), (1, 0)], None),
                                           "p": ([(0, 0)], 1), "q": ([(0, 0)], 1)})
        f2 = PLFunction.from_edge_data(c, {"s": ([(0, 0), (1, 1)], None),
                                           "p": ([(0, 0)], 0), "q": ([(0, 1)], 0)})
        return realize(c, [f1, f2])

    def test_contracted_piece(self, line):
        f = PLFunction.from_edge_data(line, {"right": ([(0, 0)], 1), "left": ([(0, 0)], 0)})
        r = realize(line, [f])
        assert not r.merged_vertices and not r.merged_edges
        assert check_realization(r) == RealizationReport(
            False, False, True, True, (("left", 0, 0), ("right", 0, 1)))

    def test_two_classes_share_a_direction(self):
        r = self.two_rays({"p": "a", "q": "b"})
        assert r.image.rays == ((0, (1, 0), 1), (1, (1, 0), 1))
        assert check_realization(r) == RealizationReport(
            True, True, False, False, (("p", 0, 1), ("q", 0, 1), ("s", 0, 1)))

    def test_parallel_rays_off_one_line(self):
        r = self.two_rays({"p": "k", "q": "k"})
        assert check_realization(r) == RealizationReport(
            True, True, True, False, (("p", 0, 1), ("q", 0, 1), ("s", 0, 1)))

    def test_isolated_vertex(self):
        c = Curve.build(vertices=["A", "B", "Z"], edges=[("e", "A", "B", 2)])
        f = PLFunction.from_edge_data(c, {"e": ([(0, 0), (2, 2)], None)}, isolated={"Z": 5})
        r = realize(c, [f])
        assert r.image == PolyComplex1D(1, ((5,), (0,), (2,)), ((1, 2, 1),), ())
        assert r.skeleton == ((c.pt_vertex("Z"), (5,)), (c.pt_vertex("A"), (0,)),
                              (c.pt_vertex("B"), (2,)))
        assert check_realization(r) == RealizationReport(True, True, True, True, (("e", 0, 1),))

    def test_loop_image_has_no_midpoint_vertex(self):
        c = Curve.build(vertices=["P"], edges=[("l", "P", "P", 8)])
        x = PLFunction.from_edge_data(c, {"l": ([(0, 0), (1, 1), (3, 1), (5, -1), (7, -1), (8, 0)], None)})
        y = PLFunction.from_edge_data(c, {"l": ([(0, 0), (1, 0), (3, 2), (5, 2), (7, 0), (8, 0)], None)})
        r = realize(c, [x, y])
        assert (0, 2) not in r.image.vertices and len(r.image.vertices) == 5
        square = PolyComplex1D(2, ((1, 0), (1, 2), (-1, 2), (-1, 0)),
                               ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)), ())
        assert r.image.canonical() == square.canonical()


class TestBalance:
    def test_line_balanced(self):
        assert check_balanced(plane_hypersurface(LINE_POLY)).balanced

    def test_single_ray_defect(self):
        K = PolyComplex1D.of(2, [(0, 0)], [], [[0, (1, 1), 1]])
        rep = check_balanced(K)
        assert not rep.balanced
        assert dict(rep.defects)[0] == (1, 1)

    def test_opposite_rays_cancel(self):
        K = PolyComplex1D.of(2, [(0, 0)], [], [[0, (0, 1), 2], [0, (0, -1), 2]])
        assert check_balanced(K).balanced


class TestIngest:
    def test_line_round_trip(self):
        K = plane_hypersurface(LINE_POLY)
        c, fs, r = curve_from_complex(K)
        assert len(c.edges) == 3 and all(e.is_infinite for e in c.edges.values())
        assert len(set(c.ray_classes.values())) == 3
        assert r.image.canonical() == K.canonical()

    def test_weight_two_line_halves_lengths(self):
        K = plane_hypersurface(DOUBLE_LINE_POLY)
        c, fs, r = curve_from_complex(K)
        assert {abs(fs[1].slope_at_infinity(e)) for e in c.ray_classes} == {2}

    def test_parallel_rays_one_class(self):
        K = PolyComplex1D.of(2, [(0, 0), (1, 0)], [(0, 1, 1)],
                             [(0, (0, 1), 1), (1, (0, 1), 1), (0, (-1, -1), 1), (1, (1, -1), 1)])
        assert check_balanced(K).balanced
        c, fs, r = curve_from_complex(K)
        labels = list(c.ray_classes.values())
        assert sum(1 for l in labels if l.startswith("dir:0,1")) == 2
        counts = collections.Counter(labels)
        assert counts["dir:0,1*1"] == 2

    def test_rejects_unbalanced(self):
        K = PolyComplex1D.of(2, [(0, 0)], [], [[0, (1, 1), 1]])
        with pytest.raises(TropError, match="balanced"):
            curve_from_complex(K)

    def test_rejects_disconnected(self):
        K = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (2, 0): -1}))
        with pytest.raises(TropError, match="connected"):
            curve_from_complex(K)

    def test_library_round_trips(self):
        assert suite_complex_round_trip(rng_for("library"), 22) == 22


class TestFit:
    def test_line(self):
        K = plane_hypersurface(LINE_POLY)
        F = fit_tropical_polynomial(K)
        assert F.degree() == 1
        assert plane_hypersurface(F).canonical() == K.canonical()

    def test_weight_two_line(self):
        K = plane_hypersurface(DOUBLE_LINE_POLY)
        F = fit_tropical_polynomial(K)
        assert F.degree() == 2

    def test_conic(self):
        K = plane_hypersurface(CONIC_POLY)
        F = fit_tropical_polynomial(K)
        assert F.degree() == 2
        assert plane_hypersurface(F).canonical() == K.canonical()

    def test_library(self):
        assert suite_fit(rng_for("library"), 22) == 22

    def test_newton_polygons_agree_up_to_translation(self):
        # Fitting a translate changes coefficients, not the exponent set.
        K = plane_hypersurface(CONIC_POLY)
        F1 = fit_tropical_polynomial(K)
        F2 = fit_tropical_polynomial(K.translate((Fraction(7, 3), -1)))
        assert {e for e, _ in F1.terms} == {e for e, _ in F2.terms}

    def test_regions_are_walked_on_the_integer_scale(self):
        # _region_terms reads the vertices onto their scale once (on_scale)
        # and walks every region in integers times that scale: it makes no
        # fractions call beyond that read.
        K = plane_hypersurface(CONIC_POLY).translate((Fraction(7, 3), Fraction(-1, 2))).canonical()
        assert any(type(x) is Fraction for v in K.vertices for x in v)
        assert fraction_calls(_region_terms, K) == fraction_calls(on_scale, K.vertices) > 0
        L, terms = _region_terms(K)
        assert L == 6 and all(type(c) is int for c in terms.values())
        top = max(terms.values())
        assert sorted(c for _, c in fit_tropical_polynomial(K).terms) == sorted(
            Fraction(c - top, L) for c in terms.values())

    def test_normalization(self):
        # The largest coefficient is 0 and the Newton polygon touches both axes.
        rng = rng_for("fit-normalization")
        raw = []
        while len(raw) < 30:
            try:
                K = plane_hypersurface(random_plane_poly(rng))
            except TropError:
                continue  # a monomial
            if K.is_connected():
                raw.append(K)
        for K in complex_library(rng_for("library"), 22) + raw:
            F = fit_tropical_polynomial(K)
            assert max(c for _, c in F.terms) == 0
            assert min(e[0] for e, _ in F.terms) == 0 and min(e[1] for e, _ in F.terms) == 0
            assert plane_hypersurface(F).canonical() == K.canonical()

    @pytest.mark.parametrize("terms, bounded_faces", [
        ({(1, 0): 0, (0, 1): 0, (1, 1): 0}, 0),                 # ray (-1, -1) from the origin
        ({(0, 0): -3, (3, 0): -3, (0, 3): -3, (1, 1): 0}, 1),   # the xy region is bounded
        ({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}, 0),      # a 4-valent vertex
    ], ids=["x+y+xy", "bounded-face", "four-valent"])
    def test_fixed_round_trips(self, terms, bounded_faces):
        # Each polynomial is already normalized, so the fit returns it.
        K = plane_hypersurface(TropPoly.of(2, terms))
        assert K.is_connected() and len(K.segments) - len(K.vertices) + 1 == bounded_faces
        F = fit_tropical_polynomial(K)
        assert F == TropPoly.of(2, terms)
        assert plane_hypersurface(F).canonical() == K.canonical()

    def test_rejects_unbalanced(self):
        K = PolyComplex1D.of(2, [(0, 0)], [], [[0, (1, 1), 1]])
        with pytest.raises(TropError):
            fit_tropical_polynomial(K)


class TestIntersect:
    def test_two_lines(self):
        K1 = plane_hypersurface(LINE_POLY)
        K2 = K1.translate((1, 2))
        pts = intersect(K1, K2)
        assert [(p.point, p.multiplicity) for p in pts] == [((1, 1), 1)]

    def test_identical_overlap(self):
        K1 = plane_hypersurface(LINE_POLY)
        with pytest.raises(NonTransversalError) as err:
            intersect(K1, K1)
        assert err.value.condition == 4

    def test_weight_two_multiplicity(self):
        Kv = plane_hypersurface(DOUBLE_LINE_POLY)
        Kh = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (0, 1): 0}))
        pts = intersect(Kv, Kh)
        assert [(p.point, p.multiplicity) for p in pts] == [((0, 0), 2)]

    def test_vertex_hit_rejected(self):
        Kc = plane_hypersurface(CONIC_POLY)
        Khit = plane_hypersurface(LINE_POLY).translate(Kc.vertices[0])
        with pytest.raises(NonTransversalError) as err:
            intersect(Khit, Kc)
        assert err.value.condition == 2

    def test_disconnected_complex(self):
        Kv = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (2, 0): -1}))
        Kh = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (0, 1): 0}))
        assert not Kv.is_connected()
        for pts in (intersect(Kv, Kh), intersect(Kh, Kv)):
            assert [(p.point, p.multiplicity) for p in pts] == [((0, 0), 1), ((1, 0), 1)]

    def test_symmetry_and_translation_invariance(self):
        assert suite_intersections(rng_for("intersect-sym"), 15) == 15


class TestBezout:
    def test_lines(self):
        K1 = plane_hypersurface(LINE_POLY)
        rep = bezout_check(K1, K1.translate((1, 2)))
        assert rep.total == 1 and rep.bound == 1 and rep.ok

    def test_line_vs_weight_two(self):
        Kv = plane_hypersurface(DOUBLE_LINE_POLY)
        Kh = plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (0, 1): 0}))
        rep = bezout_check(Kv, Kh)
        assert rep.total == 2 and rep.bound == 2 and rep.ok

    def test_conics(self):
        Kc = plane_hypersurface(CONIC_POLY)
        rep = bezout_check(Kc, Kc.translate((Fraction(7, 2), Fraction(1, 3))))
        assert rep.bound == 4 and rep.ok


class TestPerturbedHarmonicFamilies:
    def test_scaled_coordinates_stay_balanced(self):
        # Tropical scalar multiples keep harmonicity and injectivity, so the
        # translated images must stay balanced.
        rng = rng_for("perturbed")
        for K in complex_library(rng_for("library"), 10):
            c, fs, r = curve_from_complex(K)
            scaled = [f.scale(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for f in fs]
            r2 = realize(c, scaled)
            hb = harmonic_balance_report(r2)
            assert hb.all_harmonic and hb.balance.balanced


def ref_coordinates(K: PolyComplex1D, c: Curve) -> tuple[PLFunction, ...]:
    """``curve_from_complex``'s coordinates on its curve c as it used to build
    them: (offset, value) pairs of ``Fraction``s, through the validating
    constructor."""
    fs = []
    for t in range(K.dim):
        data = {}
        for k, (i, j, w) in enumerate(K.segments):
            e = c.edges[f"s{k}"]
            data[f"s{k}"] = ([(0, K.vertices[i][t]), (e.length, K.vertices[j][t])], None)
        for k, (i, d, w) in enumerate(K.rays):
            data[f"r{k}"] = ([(0, K.vertices[i][t])], w * d[t])
        used = {e.u for e in c.edges.values()} | {e.v for e in c.edges.values()}
        iso = {f"v{i}": K.vertices[i][t] for i in range(len(K.vertices))
               if f"v{i}" not in used}
        fs.append(PLFunction.from_edge_data(c, data, iso))
    return tuple(fs)


def golden_complexes() -> dict[str, PolyComplex1D]:
    """Every input file of the golden corpus that reads as a complex."""
    out = {}
    for path in sorted(GOLDEN.glob("*/in/*.json")):
        try:
            out[f"{path.parent.parent.name}/{path.name}"] = tio.complex_from_json(path.read_text())
        except TropError:
            continue  # a curve, function or other file
    return out


def test_grid_built_coordinates_match_the_fraction_reading():
    golden = golden_complexes()
    rebuilt = 0
    for K in complex_library(rng_for("coordinates"), 30) + list(golden.values()):
        if not check_balanced(K).balanced:
            with pytest.raises(TropError, match="complex is not balanced"):
                curve_from_complex(K)
            continue
        c, fs, _ = curve_from_complex(K)
        want = ref_coordinates(K, c)
        assert fs == want, K
        for f, g in zip(fs, want):
            assert list(f.profiles) == list(g.profiles)
            assert [(k, type(v), v) for k, v in f.isolated.items()] == \
                [(k, type(v), v) for k, v in g.isolated.items()]
        rebuilt += 1
    assert len(golden) >= 4 and rebuilt >= 33, (sorted(golden), rebuilt)


def test_realize_checks_its_image_on_its_own_keys(monkeypatch):
    """The image is built unchecked and checked for embedding on realize's
    integer vertex keys: no ``PolyComplex1D.__post_init__``, and no
    ``on_scale`` of the image's vertices."""
    cases = [curve_from_complex(K)[:2] for K in complex_library(rng_for("own-keys"), 8)]
    c = Curve.build(vertices=["A", "B", "I"], edges=[("e", "A", "B", 3)])
    cases.append((c, [PLFunction.from_edge_data(c, {"e": ([(0, 0), (1, 2), (3, 0)], None)},
                                                {"I": Fraction(-1, 2)})] * 2))
    post_init = PolyComplex1D.__post_init__.__code__
    posts, scaled = 0, []

    def hook(frame, event, arg):
        nonlocal posts
        posts += event == "call" and frame.f_code is post_init

    def recorded(module):
        real = module.on_scale

        def on_scale(rows):
            scaled.append(tuple(rows))
            return real(rows)
        return on_scale

    for module in (complexes, realization):
        monkeypatch.setattr(module, "on_scale", recorded(module))
    seen = 0
    for c, fs in cases:
        scaled.clear()
        sys.setprofile(hook)
        try:
            r = realize(c, fs)
            assert posts == 0 and r.image.vertices not in scaled
            seen += len(scaled)
            rebuilt = PolyComplex1D(r.image.dim, r.image.vertices, r.image.segments, r.image.rays)
        finally:
            sys.setprofile(None)
        assert rebuilt == r.image and posts == 1  # the counters see a validation
        posts = 0
    assert seen  # the isolated vertex's coordinates go through on_scale


def concave_poly(exponents, nudge) -> TropPoly:
    """-(i^2 + j^2) + nudge at each exponent: every term is a vertex of the lift."""
    return TropPoly.of(2, {(i, j): -(i * i + j * j) + nudge for i, j in exponents})


def test_canonical_is_built_once_per_complex(monkeypatch):
    """A pair as the plane-curves benchmark runs it: K1's form is built by the
    canonical step and reused by intersect, fit and curve_from_complex, so
    only K2's translate, the fitted hypersurface and the realized image add
    one each: 4 computations, where building the form on every call made 7."""
    built = 0
    straight = complexes._straight

    def counted(k, P):
        nonlocal built
        built += sys._getframe(1).f_code.co_name == "canonical"
        return straight(k, P)

    monkeypatch.setattr(complexes, "_straight", counted)
    K1 = plane_hypersurface(concave_poly([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)], 0))
    K2 = plane_hypersurface(concave_poly([(0, 0), (2, 0), (0, 2), (1, 1), (3, 2)],
                                         Fraction(1, 24)))
    K1c = K1.canonical()
    assert built == 1
    assert intersect(K1c, K2.translate((Fraction(1, 101), Fraction(1, 101 ** 2))))
    fit_tropical_polynomial(K1)
    curve_from_complex(K1)
    assert built == 4


def test_a_canonical_form_is_its_own():
    for K in complex_library(rng_for("canonical-own"), 12):
        form = K.canonical()
        assert K.canonical() is form and form.canonical() is form
        # The stored form is not a field: equality, hash and repr ignore it.
        fresh = PolyComplex1D(K.dim, K.vertices, K.segments, K.rays)
        assert fresh == K and hash(fresh) == hash(K) and repr(fresh) == repr(K)
        assert fresh.canonical() == form
