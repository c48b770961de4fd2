"""The complex property of PolyComplex1D against an all-pairs reference check."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from tropcurve import complexes
from tropcurve.cli import main
from tropcurve.complexes import PolyComplex1D
from tropcurve.curve import Curve
from tropcurve.errors import TropError
from tropcurve.geometry import edge_intersection, on_ray, on_segment
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.plfunction import PLFunction
from tropcurve.randgen import complex_library, random_plane_poly, random_rational
from tropcurve.realization import realize

from conftest import rng_for


def _fmt(p) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def all_pairs_verdict(dim, vertices, segments, rays) -> str | None:
    """The reference check: every edge pair, then every unused vertex against every edge.

    Returns the message of the first violation, or None for a complex.
    """
    edges = [("seg", vertices[i], vertices[j]) for i, j, _ in segments]
    edges += [("ray", vertices[i], d) for i, d, _ in rays]
    ends = [(p, q) if kind == "seg" else (p,) for kind, p, q in edges]
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            res = edge_intersection(*edges[a], *edges[b])
            if res[0] == "overlap":
                return f"edges {a} and {b} overlap: not a complex"
            if res[0] == "point" and (res[1] not in ends[a] or res[1] not in ends[b]):
                return (f"edges {a} and {b} meet at {_fmt(res[1])}, "
                        f"which is not an endpoint of both")
    used = {x for i, j, _ in segments for x in (i, j)} | {i for i, _, _ in rays}
    for v, p in enumerate(vertices):
        if v in used:
            continue
        for e, (kind, a, b) in enumerate(edges):
            if (on_segment if kind == "seg" else on_ray)(p, a, b):
                return f"vertex {v} at {_fmt(p)} lies inside edge {e}"
    return None


def verdict(dim, vertices, segments, rays) -> str | None:
    try:
        PolyComplex1D(dim, vertices, segments, rays)
    except TropError as exc:
        return str(exc)
    return None


def random_fields(rng: random.Random, dim: int):
    """Edges on a small grid, so touching ends, overlaps, T-junctions and rays
    through vertices are common; every field passes the per-edge checks."""
    coords = (0, 1, 2, Fraction(1, 2))
    points = set()
    for _ in range(rng.randint(1, 6)):
        points.add(tuple(Fraction(rng.choice(coords)) for _ in range(dim)))
    vertices = tuple(rng.sample(sorted(points), len(points)))
    n = len(vertices)
    segments = []
    if n > 1:
        for _ in range(rng.randint(0, 4)):
            i, j = rng.sample(range(n), 2)
            segments.append((i, j, rng.randint(1, 2)))
    rays = []
    for _ in range(rng.randint(0, 3)):
        d = (0,) * dim
        while gcd(*d) != 1:
            d = tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(dim))
        rays.append((rng.randrange(n), d, rng.randint(1, 2)))
    return dim, vertices, tuple(segments), tuple(rays)


# A T-junction, a ray based inside a segment, and an unused vertex inside a segment:
# each meeting point is a vertex, but not an endpoint of both edges.
SHAPES = {
    "t-junction": {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["1", "0"], ["1", "1"]],
                   "segments": [[0, 1, 1], [2, 3, 1]], "rays": []},
    "ray-inside-segment": {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["1", "0"]],
                           "segments": [[0, 1, 1]], "rays": [[2, [0, 1], 1]]},
    "unused-vertex-on-edge": {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["1", "0"]],
                              "segments": [[0, 1, 1]], "rays": []},
}


@pytest.mark.parametrize("name, message", [
    ("t-junction", "edges 0 and 1 meet at (1, 0), which is not an endpoint of both"),
    ("ray-inside-segment", "edges 0 and 1 meet at (1, 0), which is not an endpoint of both"),
    ("unused-vertex-on-edge", "vertex 2 at (1, 0) lies inside edge 0"),
], ids=["t-junction", "ray-inside-segment", "unused-vertex-on-edge"])
def test_edges_meet_only_at_shared_endpoints(tmp_path, capsys, name, message):
    data = SHAPES[name]
    with pytest.raises(TropError) as exc:
        PolyComplex1D.of(2, data["vertices"], data["segments"], data["rays"])
    assert str(exc.value) == message
    (tmp_path / "k.json").write_text(json.dumps(data))
    assert main(["balance", "--complex", str(tmp_path / "k.json")]) == 65
    assert message in capsys.readouterr().err


def test_boxes_meet_exactly_when_they_overlap_in_every_coordinate():
    box = complexes._box
    seg = box("seg", (0, 0), (2, 1))
    assert complexes._boxes_meet(seg, box("seg", (2, 1), (3, 0)))  # touching corners
    for other in (box("seg", (3, 0), (4, 1)), box("seg", (0, 2), (2, 3)),
                  box("ray", (3, 0), (1, 0)), box("ray", (0, -1), (1, -1))):
        assert not complexes._boxes_meet(seg, other) and not complexes._boxes_meet(other, seg)
    assert complexes._boxes_meet(seg, box("ray", (5, 1), (-1, 0)))


def test_pruned_check_agrees_with_all_pairs():
    rng = rng_for("complex-oracle")
    valid = invalid = 0
    for case in range(2400):
        fields = random_fields(rng, 2 + case % 2)
        expected = all_pairs_verdict(*fields)
        assert verdict(*fields) == expected, fields
        if expected is None:
            valid += 1
        else:
            invalid += 1
    # Both verdicts are common, so the comparison exercises each rule.
    assert valid > 600 and invalid > 600, (valid, invalid)


def trusted_inputs(rng: random.Random):
    yield from complex_library(rng, 12)
    hypersurfaces = 0
    while hypersurfaces < 12:
        try:
            yield plane_hypersurface(random_plane_poly(rng))
        except TropError:
            continue  # a monomial has no hypersurface
        hypersurfaces += 1
    valid = 0
    while valid < 200:
        fields = random_fields(rng, 2 + valid % 2)
        if all_pairs_verdict(*fields) is None:
            yield PolyComplex1D(*fields)
            valid += 1


def test_trusted_results_pass_full_validation():
    rng = rng_for("complex-trusted")
    for K in trusted_inputs(rng):
        shift = tuple(random_rational(rng) for _ in range(K.dim))
        for T in (K.canonical(), K.translate(shift), K.translate(shift).canonical()):
            assert PolyComplex1D(T.dim, T.vertices, T.segments, T.rays) == T


def test_rebuilding_an_embedded_image_prunes_pairs(monkeypatch):
    # A 200-breakpoint sawtooth against a strictly increasing function: a long
    # monotone chain, where all pairs would be about 200^2 / 2 exact tests.
    n = 200
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n - 1)])
    f = PLFunction.from_edge_data(c, {"e": ([(k, k % 2) for k in range(n)], None)})
    g = PLFunction.from_edge_data(c, {"e": ([(k, 2 * k + k % 2) for k in range(n)], None)})
    image = realize(c, [f, g]).image
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return edge_intersection(*args)

    monkeypatch.setattr(complexes, "edge_intersection", counted)
    assert PolyComplex1D(image.dim, image.vertices, image.segments, image.rays) == image
    assert 0 < calls <= 2 * image.edge_count()
