"""PolyComplex1D's predicates against rational reference code.

``ref_edge_intersection``, ``ref_on_segment``, ``ref_on_ray`` and
``ref_intersect`` are the rational versions the library used to run.  The
library now decides on integer points, the vertices times one lcm of their
denominators; these tests require the same verdicts, points and messages, an
all-pairs check of the complex property, and a validation whose calls into
``fractions`` do not grow with the number of edge pairs tested.
"""

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
from tropcurve.errors import NonTransversalError, TropError
from tropcurve.geometry import dot, edge_intersection, on_edge, vadd, vsub
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.plfunction import PLFunction
from tropcurve.randgen import complex_library, random_plane_poly, random_rational
from tropcurve.realization import realize
from tropcurve.semifield import TropPoly, on_scale

from conftest import fraction_calls, rng_for

# -- reference code -------------------------------------------------------------------


def vscale(a, t) -> tuple:
    return tuple(x * t for x in a)


def ref_parallel(a, b) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return False
    return True


def ref_on_segment(p, a, b) -> bool:
    ab = vsub(b, a)
    ap = vsub(p, a)
    if not ref_parallel(ab, ap):
        return False
    t = dot(ap, ab)
    return 0 <= t <= dot(ab, ab)


def ref_on_ray(p, base, d) -> bool:
    bp = vsub(p, base)
    if not ref_parallel(d, bp):
        return False
    return dot(bp, d) >= 0


def _as_param(kind, p0, p1):
    # (origin, direction, hi) with hi None for rays, else the segment end parameter 1.
    if kind == "seg":
        return p0, vsub(p1, p0), Fraction(1)
    return p0, tuple(Fraction(x) for x in p1), None


def ref_edge_intersection(kind_a: str, a0, a1, kind_b: str, b0, b1):
    """("none",), ("point", p) or ("overlap", witness), all in Fractions."""
    o1, d1, hi1 = _as_param(kind_a, a0, a1)
    o2, d2, hi2 = _as_param(kind_b, b0, b1)
    diff = vsub(o2, o1)
    if ref_parallel(d1, d2):
        if not ref_parallel(d1, diff):
            return ("none",)
        dd = dot(d1, d1)
        t0 = dot(diff, d1) / dd
        step = dot(d2, d1) / dd
        if hi2 is None:
            blo, bhi = (t0, None) if step > 0 else (None, t0)
        else:
            ta, tb = t0, t0 + step * hi2
            blo, bhi = (min(ta, tb), max(ta, tb))
        lo = Fraction(0) if blo is None else max(blo, Fraction(0))
        if hi1 is None:
            hi = bhi
        elif bhi is None:
            hi = hi1
        else:
            hi = min(hi1, bhi)
        if hi is not None and lo > hi:
            return ("none",)
        if hi is not None and lo == hi:
            return ("point", vadd(o1, vscale(d1, lo)))
        witness = vadd(o1, vscale(d1, lo + 1 if hi is None else (lo + hi) / 2))
        return ("overlap", witness)
    n = len(d1)
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            den = d1[i] * (-d2[j]) - (-d2[i]) * d1[j]
            if den != 0:
                pivot = (i, j, den)
                break
        if pivot:
            break
    i, j, den = pivot
    t = (diff[i] * (-d2[j]) - (-d2[i]) * diff[j]) / den
    s = (d1[i] * diff[j] - diff[i] * d1[j]) / den
    p = vadd(o1, vscale(d1, t))
    if p != vadd(o2, vscale(d2, s)):
        return ("none",)
    if t < 0 or (hi1 is not None and t > hi1):
        return ("none",)
    if s < 0 or (hi2 is not None and s > hi2):
        return ("none",)
    return ("point", p)


def ref_intersect(k1: PolyComplex1D, k2: PolyComplex1D):
    """All edge pairs of the canonical forms, tested in Fractions."""
    a, b = k1.canonical(), k2.canonical()
    a_through, b_through = ref_through_vertices(a), ref_through_vertices(b)
    found = {}
    for ka, pa, qa, wa in ref_edges(a):
        for kb, pb, qb, wb in ref_edges(b):
            res = ref_edge_intersection(ka, pa, qa, kb, pb, qb)
            if res[0] == "none":
                continue
            if res[0] == "overlap":
                raise NonTransversalError(res[1], 4, "the two edges overlap along a common line")
            p = res[1]
            da = ref_slope_vector(ka, pa, qa, wa)
            db = ref_slope_vector(kb, pb, qb, wb)
            if p in a.vertices:
                if p not in a_through:
                    raise NonTransversalError(
                        p, 2, "intersection at a vertex is not two-valent on both sides")
                da = a_through[p]
            if p in b.vertices:
                if p not in b_through:
                    raise NonTransversalError(
                        p, 2, "intersection at a vertex is not two-valent on both sides")
                db = b_through[p]
            det = da[0] * db[1] - da[1] * db[0]
            if det == 0:
                raise NonTransversalError(p, 4, "direction vectors are linearly dependent")
            if p in found and found[p] != abs(det):
                raise NonTransversalError(p, 2, "point lies on more than one edge of a complex")
            found[p] = abs(det)
    return tuple(sorted(found.items()))


def ref_edges(k: PolyComplex1D) -> list[tuple]:
    return ([("seg", k.vertices[i], k.vertices[j], w) for i, j, w in k.segments]
            + [("ray", k.vertices[i], d, w) for i, d, w in k.rays])


def ref_through_vertices(k: PolyComplex1D) -> dict:
    incident = {}
    for i, j, w in k.segments:
        incident.setdefault(i, []).append((vsub(k.vertices[j], k.vertices[i]), w))
        incident.setdefault(j, []).append((vsub(k.vertices[i], k.vertices[j]), w))
    for i, d, w in k.rays:
        incident.setdefault(i, []).append((tuple(Fraction(x) for x in d), w))
    out = {}
    for i, ends in incident.items():
        if len(ends) != 2:
            continue
        (d1, w1), (d2, w2) = ends
        if w1 == w2 and ref_parallel(d1, d2) and dot(d1, d2) < 0:
            out[k.vertices[i]] = tuple(w1 * x for x in ref_primitive(d1))
    return out


def ref_primitive(d) -> tuple[int, ...]:
    """The primitive integer vector along a nonzero rational vector."""
    fr = [Fraction(x) for x in d]
    denom = 1
    for x in fr:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def ref_slope_vector(kind, p, q, w):
    return tuple(w * x for x in ref_primitive(vsub(q, p) if kind == "seg" else q))


def ref_canonical(k: PolyComplex1D) -> PolyComplex1D:
    """The fixpoint loop ``canonical`` ran before its chain walk, in Fractions:
    merge the two edges at one straight 2-valent vertex, rebuild the
    incidence map, and repeat until no vertex merges; then re-anchor lines."""
    V = [tuple(Fraction(x) for x in v) for v in k.vertices]
    used = {x for i, j, _ in k.segments for x in (i, j)} | {i for i, _, _ in k.rays}
    isolated = [V[i] for i in range(len(V)) if i not in used]
    # ("seg", p, q, w) / ("ray", base, d, w) / ("line", base, d, w)
    edges = ([("seg", V[i], V[j], w) for i, j, w in k.segments]
             + [("ray", V[i], d, w) for i, d, w in k.rays])
    changed = True
    while changed:
        changed = False
        incident = {}
        for idx, e in enumerate(edges):
            if e[0] == "seg":
                incident.setdefault(e[1], []).append(idx)
                incident.setdefault(e[2], []).append(idx)
            elif e[0] == "ray":
                incident.setdefault(e[1], []).append(idx)
        for v, idxs in incident.items():
            if len(idxs) != 2:
                continue
            e1, e2 = edges[idxs[0]], edges[idxs[1]]
            if e1[3] != e2[3]:
                continue
            d1, d2 = ref_dir_away(e1, v), ref_dir_away(e2, v)
            if not (ref_parallel(d1, d2) and dot(d1, d2) < 0):
                continue
            for idx in sorted(idxs, reverse=True):
                edges.pop(idx)
            edges.append(ref_merge_at(e1, e2, v))
            changed = True
            break
    segs, rays = [], []
    for kind, p, q, w in edges:
        if kind == "seg":
            segs.append((min(p, q), max(p, q), w))
        elif kind == "ray":
            rays.append((p, q, w))
        else:  # the line through p along q, anchored where its first moving coordinate is 0
            t = next(x / y for x, y in zip(p, q) if y != 0)
            anchor = tuple(x - y * t for x, y in zip(p, q))
            rays += [(anchor, q, w), (anchor, tuple(-y for y in q), w)]
    points = sorted({p for a, b, _ in segs for p in (a, b)} | {p for p, _, _ in rays}
                    | set(isolated))
    remap = {p: i for i, p in enumerate(points)}
    return PolyComplex1D(k.dim, tuple(points),
                         tuple(sorted((remap[a], remap[b], w) for a, b, w in segs)),
                         tuple(sorted((remap[p], d, w) for p, d, w in rays)))


def ref_dir_away(edge, v):
    if edge[0] == "seg":
        return vsub(edge[2], edge[1]) if edge[1] == v else vsub(edge[1], edge[2])
    return edge[2]


def ref_merge_at(e1, e2, v):
    """One edge for two collinear equal-weight edges meeting at v."""
    far = [e[1] if e[2] == v else e[2] for e in (e1, e2) if e[0] == "seg"]
    directions = [e[2] for e in (e1, e2) if e[0] == "ray"]
    if len(far) == 2:
        return ("seg", *far, e1[3])
    if far:
        return ("ray", far[0], directions[0], e1[3])
    return ("line", v, directions[0], e1[3])


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
            res = ref_edge_intersection(*edges[a], *edges[b])
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
            if (ref_on_segment if kind == "seg" else ref_on_ray)(p, a, b):
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
        for T in (K, K.canonical(), K.translate(shift), K.translate(shift).canonical()):
            assert PolyComplex1D(T.dim, T.vertices, T.segments, T.rays) == T


def embedded_image(n: int) -> PolyComplex1D:
    """An n-breakpoint sawtooth against a strictly increasing function: a long
    monotone chain, where all pairs would be about n^2 / 2 exact tests."""
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n - 1)])
    f = PLFunction.from_edge_data(c, {"e": ([(k, k % 2) for k in range(n)], None)})
    g = PLFunction.from_edge_data(c, {"e": ([(k, 2 * k + k % 2) for k in range(n)], None)})
    return realize(c, [f, g]).image


def test_rebuilding_an_embedded_image_prunes_pairs(monkeypatch):
    image = embedded_image(200)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return edge_intersection(*args)

    monkeypatch.setattr(complexes, "edge_intersection", counted)
    assert PolyComplex1D(image.dim, image.vertices, image.segments, image.rays) == image
    assert 0 < calls <= 2 * image.edge_count()


def test_validation_makes_one_fraction_call_per_coordinate():
    # Each coordinate is read once to find the scale; every pair test after
    # that is on integers.  The rational predicates made 60,434 calls here.
    image = embedded_image(200)
    calls = fraction_calls(PolyComplex1D, image.dim, image.vertices, image.segments, image.rays)
    assert calls <= len(image.vertices) * image.dim, calls


SEGMENT = ((0, 0), (1, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: PolyComplex1D(2, ((Fraction(1, 2), 0.5),), (), ()), "got float: 0.5"),
    (lambda: PolyComplex1D(2, ((0, True),), (), ()), "got bool: True"),
    (lambda: PolyComplex1D(2, SEGMENT, ((0, 1, 1.0),), ()), "segment fields must be integers"),
    (lambda: PolyComplex1D(2, SEGMENT, ((0, 1, True),), ()), "segment fields must be integers"),
    (lambda: PolyComplex1D(2, SEGMENT, ((0.0, 1, 1),), ()), "segment fields must be integers"),
    (lambda: PolyComplex1D(2, SEGMENT, (), ((0, (1, 0), 2.0),)), "ray fields must be integers"),
    (lambda: PolyComplex1D(2, SEGMENT, (), ((0, (1, 0), True),)), "ray fields must be integers"),
    (lambda: PolyComplex1D(2, SEGMENT, (), ((0, (True, 0), 1),)), "ray fields must be integers"),
    (lambda: PolyComplex1D(0, (), (), ()), "dimension must be a positive integer"),
    (lambda: PolyComplex1D(True, ((0,),), (), ()), "dimension must be a positive integer"),
    (lambda: PolyComplex1D.of(0, []), "dimension must be a positive integer"),
], ids=["float-coordinate", "bool-coordinate", "float-weight", "bool-weight", "float-index",
        "float-ray-weight", "bool-ray-weight", "bool-direction", "dim-0", "bool-dim", "of-dim-0"])
def test_raw_fields_must_be_exact(make, message):
    with pytest.raises(TropError, match=message):
        make()


def test_raw_fields_take_exact_ints():
    K = PolyComplex1D(2, ((0, 0), (Fraction(1, 2), 1)), ((0, 1, 2),), ((0, (-1, 0), 1),))
    assert K == PolyComplex1D.of(2, [(0, 0), ("1/2", 1)], [(0, 1, 2)], [(0, (-1, 0), 1)])


# -- the integer predicates against the rational ones ---------------------------------


def random_edge(rng: random.Random, dim: int):
    p = tuple(rng.randint(-3, 3) for _ in range(dim))
    if rng.random() < 0.5:
        q = p
        while q == p:
            q = tuple(rng.randint(-3, 3) for _ in range(dim))
        return ("seg", p, q)
    return ("ray", p, random_direction(rng, dim))


def random_direction(rng: random.Random, dim: int):
    d = (0,) * dim
    while not any(d):
        d = tuple(rng.randint(-2, 2) for _ in range(dim))
    return d


def degenerate_pair(rng: random.Random, dim: int):
    """Two edges on one line or on parallel lines, or a ray through an end of
    the first edge: collinear overlaps, touching ends, parallel disjoint
    edges, opposite rays from one base, segments inside rays."""
    o = tuple(rng.randint(-2, 2) for _ in range(dim))
    u = random_direction(rng, dim)
    v = u
    while ref_parallel(u, v):
        v = random_direction(rng, dim)

    def along(shift: int):
        base = vadd(o, vscale(v, shift))
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            t2 = rng.choice([x for x in range(-3, 4) if x != t])
            return ("seg", vadd(base, vscale(u, t)), vadd(base, vscale(u, t2)))
        return ("ray", vadd(base, vscale(u, t)), vscale(u, rng.choice((-2, -1, 1, 2))))

    a = along(0)
    if rng.random() < 0.2:  # a ray or a segment through an end of a
        d = random_direction(rng, dim)
        start = vsub(a[1], vscale(d, rng.randint(0, 2)))
        return a, ("ray", start, d) if rng.random() < 0.5 else ("seg", start, vadd(a[1], d))
    return a, along(rng.choice((0, 0, 0, 1)))


def rescaling(rng: random.Random, dim: int):
    """x -> x / den + c for a random den and c: points get denominators."""
    den = rng.choice((1, 2, 3, 4, 6, 7, 9, 10))
    shift = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 8))) for _ in range(dim))
    return lambda x: tuple(Fraction(c, den) + s for c, s in zip(x, shift))


def moved(move, edge):
    """The image of an edge; a ray keeps its integer direction."""
    kind, p, q = edge
    return (kind, move(p), move(q) if kind == "seg" else q)


def on_integers(probes: list, edges):
    """L, the probe points times L and the edges times L, as the library scales them."""
    points = probes + [p for _, p, _ in edges] + [q for kind, _, q in edges if kind == "seg"]
    L, P = on_scale(points)
    up = dict(zip(points, P))
    return L, [up[x] for x in probes], [
        (kind, up[p], up[q] if kind == "seg" else tuple(L * x for x in q)) for kind, p, q in edges]


def test_integer_predicates_match_rational_ones():
    rng = rng_for("integer-predicates")
    seen = {"none": 0, "overlap": 0, "point at both ends": 0, "point inside an edge": 0}
    for case in range(4000):
        dim = 2 + case % 2
        pair = degenerate_pair(rng, dim) if case % 4 else (random_edge(rng, dim),
                                                             random_edge(rng, dim))
        move = rescaling(rng, dim)
        ea, eb = (moved(move, e) for e in pair)
        want = ref_edge_intersection(*ea, *eb)
        probes = [ea[1], eb[1]] + [e[2] for e in (ea, eb) if e[0] == "seg"]
        probes += [move(tuple(rng.randint(-3, 3) for _ in range(dim))) for _ in range(2)]
        if want[0] != "none":
            probes.append(want[1])
        L, zprobes, (ia, ib) = on_integers(probes, (ea, eb))
        got = edge_intersection(*ia, *ib)
        assert got[0] == want[0], (ea, eb, got, want)
        if want[0] != "none":
            assert complexes._unscaled(got[1], got[2] * L) == want[1], (ea, eb, got, want)
        if want[0] == "point":
            at_ends = (want[1] in (ea[1:] if ea[0] == "seg" else ea[1:2]),
                       want[1] in (eb[1:] if eb[0] == "seg" else eb[1:2]))
            assert got[3:] == at_ends, (ea, eb, got, want)
            seen["point at both ends" if all(at_ends) else "point inside an edge"] += 1
        else:
            seen[want[0]] += 1
        for x, z in zip(probes, zprobes):
            for e, ie in ((ea, ia), (eb, ib)):
                ref = (ref_on_segment if e[0] == "seg" else ref_on_ray)(x, *e[1:])
                assert on_edge(*ie, z) == ref, (e, x)
    assert min(seen.values()) > 300, seen


def intersect_outcome(run, k1, k2):
    try:
        return ("ok", tuple((pt.point, pt.multiplicity) for pt in run(k1, k2)))
    except NonTransversalError as exc:
        return ("error", str(exc), exc.point)


def ref_intersect_outcome(k1, k2):
    try:
        return ("ok", ref_intersect(k1, k2))
    except NonTransversalError as exc:
        return ("error", str(exc), exc.point)


def plane_pairs(rng: random.Random):
    """Library curves and small grid complexes, each met by a shifted copy of
    another or of itself: transversal pairs, vertex hits and overlaps."""
    library = complex_library(rng, 8)
    grid = []
    while len(grid) < 40:
        fields = random_fields(rng, 2)
        if all_pairs_verdict(*fields) is None:
            grid.append(PolyComplex1D(*fields))
    for pool in (library, grid):
        for _ in range(120):
            K1 = rng.choice(pool)
            K2 = K1 if rng.random() < 0.2 else rng.choice(pool)
            shift = rng.choice([(0, 0), (Fraction(1, 2), 0)] + [
                (random_rational(rng, -2, 2), random_rational(rng, -2, 2))] * 3)
            yield K1, K2.translate(shift)


def test_intersections_match_rational_reference():
    rng = rng_for("integer-intersect")
    kinds = {}
    for K1, K2 in plane_pairs(rng):
        want = ref_intersect_outcome(K1, K2)
        assert intersect_outcome(complexes.intersect, K1, K2) == want, (K1, K2)
        kind = "ok" if want[0] == "ok" else want[1].split(": ", 2)[1]
        kinds[kind] = kinds.get(kind, 0) + 1
    # Transversal results, vertex hits (condition 2) and overlaps (condition 4) all occur.
    assert len(kinds) == 3 and min(kinds.values()) > 20, kinds


def horizontal_line(w: int = 1) -> PolyComplex1D:
    """The line y = 0 of weight w; the origin is its canonical anchor."""
    return PolyComplex1D.of(2, [(0, 0)], [], [[0, (1, 0), w], [0, (-1, 0), w]])


# Complexes sharing the line y = 0, or holding a collinear ray or segment that
# ends at its anchor.  The overlap is found first wherever the shared edge points
# left, along the anchor's first ray; where it points right, the tripod vertex at
# the anchor is hit first.  No meeting is ever a single point with dependent
# directions.
AT_LINE_ANCHOR = {
    "same-line": (horizontal_line(2), 4, (-1, 0)),
    "parallel-pair": (plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (0, 1): 0, (0, 2): -1})),
                      4, (-1, 0)),
    "ray-left": (PolyComplex1D.of(2, [(0, 0)], [], [[0, (-1, 0), 1], [0, (0, -1), 1],
                                                    [0, (1, 1), 1]]), 4, (-1, 0)),
    "segment-left": (PolyComplex1D.of(2, [(0, 0), (-1, 0)], [(0, 1, 1)],
                                      [(0, (1, 1), 1), (0, (0, -1), 1),
                                       (1, (0, 1), 1), (1, (-1, -1), 1)]), 4, (Fraction(-1, 2), 0)),
    "ray-right": (PolyComplex1D.of(2, [(0, 0)], [], [[0, (1, 0), 1], [0, (0, 1), 1],
                                                     [0, (-1, -1), 1]]), 2, (0, 0)),
    "segment-right": (PolyComplex1D.of(2, [(0, 0), (1, 0)], [(0, 1, 1)],
                                       [(0, (-1, -1), 1), (0, (0, 1), 1),
                                        (1, (0, -1), 1), (1, (1, 1), 1)]), 2, (0, 0)),
}


@pytest.mark.parametrize("name", list(AT_LINE_ANCHOR))
def test_collinear_meetings_at_a_line_anchor(name):
    other, condition, point = AT_LINE_ANCHOR[name]
    message = {4: "the two edges overlap along a common line",
               2: "intersection at a vertex is not two-valent on both sides"}[condition]
    for k1, k2 in ((horizontal_line(), other), (other, horizontal_line())):
        with pytest.raises(NonTransversalError) as err:
            complexes.intersect(k1, k2)
        assert (err.value.condition, err.value.point) == (condition, point)
        assert str(err.value).endswith(message)
        assert intersect_outcome(complexes.intersect, k1, k2) == ref_intersect_outcome(k1, k2)


TRIPOD_RAYS = [(0, (0, 1), 1), (0, (-1, -1), 1)]


@pytest.mark.parametrize("vertices, segments, ray", [
    ([(0, 0), (1, 0)], [(0, 1, 1)], (1, (1, 0), 1)),
    ([(0, 0), (1, 0), (2, 0)], [(0, 1, 1), (1, 2, 1)], (2, (1, 0), 1)),
], ids=["segment-ray", "segments-ray"])
def test_canonical_merges_segments_into_a_ray(vertices, segments, ray):
    """A straight 2-valent vertex between a segment and a ray dissolves; the
    two inputs meet the segment first and the ray first."""
    K = PolyComplex1D.of(2, vertices, segments, [ray, *TRIPOD_RAYS])
    assert K.canonical() == PolyComplex1D.of(
        2, [(0, 0)], [], [(0, (-1, -1), 1), (0, (0, 1), 1), (0, (1, 0), 1)])


def subdivided(rng: random.Random, K: PolyComplex1D) -> PolyComplex1D:
    """K's support with rays split at a point, segments split at their
    midpoints, unused vertices off the support, reversed segments and
    shuffled indices."""
    vertices, segments, rays = list(K.vertices), list(K.segments), []
    for i, d, w in K.rays:
        while rng.random() < 0.4:
            t = random_rational(rng, 1, 4, 3)
            vertices.append(tuple(x + t * y for x, y in zip(vertices[i], d)))
            segments.append((i, len(vertices) - 1, w))
            i = len(vertices) - 1
        rays.append((i, d, w))
    for _ in range(rng.randint(0, 4) if segments else 0):
        k = rng.randrange(len(segments))
        i, j, w = segments[k]
        vertices.append(tuple((x + y) / 2 for x, y in zip(vertices[i], vertices[j])))
        segments[k:k + 1] = [(i, len(vertices) - 1, w), (len(vertices) - 1, j, w)]
    for _ in range(rng.randint(0, 2)):
        p = tuple(random_rational(rng) for _ in range(K.dim))
        if not K.contains(p) and p not in vertices:
            vertices.append(p)
    order = rng.sample(range(len(vertices)), len(vertices))
    new = {old: k for k, old in enumerate(order)}
    segments = [(new[j], new[i], w) if rng.random() < 0.5 else (new[i], new[j], w)
                for i, j, w in segments]
    rays = [(new[i], d, w) for i, d, w in rays]
    rng.shuffle(segments)
    rng.shuffle(rays)
    return PolyComplex1D(K.dim, tuple(vertices[k] for k in order), tuple(segments), tuple(rays))


def has_line(K: PolyComplex1D) -> bool:
    return any((i, tuple(-x for x in d), w) in K.rays for i, d, w in K.rays)


def test_canonical_matches_the_fixpoint_loop():
    """Subdivided hypersurfaces, some translated to add denominators, and
    small grid complexes in dimensions 2 and 3: the chain walk gives every
    field the fixpoint loop gives."""
    rng = rng_for("canonical-walk")
    draws = lines = 0
    while draws < 2000:
        if draws % 4 == 3:
            fields = random_fields(rng, 2 + draws % 8 // 4)
            if all_pairs_verdict(*fields) is not None:
                continue
            K = PolyComplex1D(*fields)
        else:
            try:
                K = plane_hypersurface(random_plane_poly(rng))
            except TropError:
                continue  # a monomial has no hypersurface
            if rng.random() < 0.5:
                K = K.translate(tuple(random_rational(rng) for _ in range(2)))
        K = subdivided(rng, K)
        want = ref_canonical(K)
        assert K.canonical() == want, K
        draws += 1
        lines += has_line(want)
    assert lines >= 300, lines
