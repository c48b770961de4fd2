"""Realizations of curves in Q^n, balancing, complex ingestion, and fitting.

A realization maps a curve through a list of rational functions; its image
is a weighted one-dimensional complex whose edge weights are the gcds of
the function slopes.  Balanced complexes round-trip back to curves with
harmonic coordinates, and balanced plane complexes are hypersurfaces of
tropical polynomials, fitted from the polygon dual to each vertex and
normalized so the largest coefficient is 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import BalanceReport, PolyComplex1D, check_balanced, intersect
from .curve import INF, Curve, PointRef
from .errors import InternalError, TropError
from .geometry import parallel, primitive, vsub
from .hypersurface import plane_hypersurface
from .plfunction import PLFunction, _isolated_vertices, _sweep, principal_divisor
from .semifield import TropPoly, common_scale, least_scale, on_scale


@dataclass(frozen=True)
class Piece:
    """One affine piece of the realization: a sub-interval of an edge."""

    edge: str
    lo: Fraction
    hi: "Fraction | float"  # INF on ray tails
    slopes: tuple[int, ...]
    image_start: tuple[Fraction, ...]


@dataclass(frozen=True)
class RealizationMap:
    curve: Curve
    functions: tuple[PLFunction, ...]
    image: PolyComplex1D
    pieces: tuple[Piece, ...]
    skeleton: tuple[tuple[PointRef, tuple[Fraction, ...]], ...]
    merged_vertices: bool   # distinct skeleton points shared an image point
    merged_edges: bool      # distinct pieces shared an image edge


def realize(c: Curve, fs: Sequence[PLFunction]) -> RealizationMap:
    """Image of the curve under (f_1, .., f_n) over a common refinement.

    Degenerate pieces (all slopes zero) collapse to points; identical image
    edges merge with gcd weights.  Partially overlapping or crossing images
    are out of scope and rejected.
    """
    if not fs:
        raise TropError("need at least one coordinate function")
    for f in fs:
        if f.curve != c:
            raise TropError("coordinate functions must live on the curve")
        if f.is_neg_inf:
            raise TropError("the zero function cannot be a coordinate")
        ok, witness = f.respects_ray_classes()
        if not ok:
            raise TropError(f"coordinate function breaks ray class {witness[0]!r}")
    n = len(fs)
    vertices: list[tuple[Fraction, ...]] = []
    vertex_ids: dict[tuple, int] = {}  # coordinates in least terms (``least_scale``)
    skeleton: list[tuple[PointRef, tuple[Fraction, ...]]] = []
    seen: set[str] = set()  # curve vertices already on the skeleton
    merged_vertices = False

    def place(pt: PointRef, key: tuple, coords: tuple | None = None) -> int:
        """The image vertex of a point met for the first time; a point already there merges."""
        nonlocal merged_vertices
        i = vertex_ids.get(key)
        if i is None:
            i = vertex_ids[key] = len(vertices)
            d, (row,) = key
            vertices.append(coords or tuple([Fraction(x, d) for x in row]))
        else:
            merged_vertices = True
        skeleton.append((pt, vertices[i]))
        return i

    seg_weights: dict[tuple[int, int], int] = {}
    ray_weights: dict[tuple[int, tuple[int, ...]], int] = {}
    merged_edges = False
    pieces: list[Piece] = []

    for vid_iso in _isolated_vertices(c):
        coords = tuple(f.isolated[vid_iso] for f in fs)
        place(c.pt_vertex(vid_iso), on_scale((coords,)), coords)

    for eid, e in sorted(c.edges.items()):
        profs = [f.profiles[eid] for f in fs]
        # One sweep per profile on the lcm D of their scales.
        d, gs = common_scale(*[p.grid for p in profs])
        grid = sorted({o for g in gs for o, _ in g})
        sweeps = [_sweep(g, p.slopes, grid) for g, p in zip(gs, profs)]
        offs = [Fraction(o, d) for o in grid]
        last = None if e.is_infinite else len(grid) - 1
        ids = []
        for k, values in enumerate(zip(*[vals for vals, _ in sweeps])):
            key = least_scale(d, (values,))
            if k == 0 or k == last:
                end = e.u if k == 0 else e.v
                if end in seen:
                    ids.append(vertex_ids[key])
                    continue
                seen.add(end)
                pt = c.pt_vertex(end)
            else:
                pt = PointRef._on_edge(eid, grid[k], d)
            ids.append(place(pt, key))
        piece_slopes = zip(*(right[:-1] for _, right in sweeps))
        for k, slopes in enumerate(piece_slopes):
            pieces.append(Piece(eid, offs[k], offs[k + 1], slopes, vertices[ids[k]]))
            if all(s == 0 for s in slopes):
                continue
            key = (min(ids[k], ids[k + 1]), max(ids[k], ids[k + 1]))
            merged_edges |= key in seg_weights
            seg_weights[key] = math.gcd(seg_weights.get(key, 0), *slopes)
        if e.is_infinite:
            tails = tuple([p.tail for p in profs])
            pieces.append(Piece(eid, offs[-1], INF, tails, vertices[ids[-1]]))
            if any(t != 0 for t in tails):
                key = (ids[-1], primitive(tails))
                merged_edges |= key in ray_weights
                ray_weights[key] = math.gcd(ray_weights.get(key, 0), *tails)

    try:
        image = PolyComplex1D(
            n,
            tuple(vertices),
            tuple(sorted((i, j, w) for (i, j), w in seg_weights.items())),
            tuple(sorted((b, d, w) for (b, d), w in ray_weights.items())),
        )
    except TropError as exc:
        raise TropError(f"image is not an embedded complex: {exc}") from exc
    return RealizationMap(c, tuple(fs), image, tuple(pieces), tuple(skeleton),
                          merged_vertices, merged_edges)


@dataclass(frozen=True)
class RealizationReport:
    injective: bool
    local_isometry: bool
    parallel_respected: bool
    condition5_free: bool
    expansion_factors: tuple[tuple[str, Fraction, int], ...]  # (edge, lo, gcd)


def check_realization(r: RealizationMap) -> RealizationReport:
    """Injectivity, isometry, class preservation, and the nesting condition."""
    c = r.curve
    injective = not r.merged_vertices and not r.merged_edges
    factors = []
    local_isometry = True
    for piece in r.pieces:
        g = math.gcd(*piece.slopes)
        factors.append((piece.edge, piece.lo, g))
        if g != 1:
            local_isometry = False
        if g == 0 and (piece.hi is INF or piece.hi > piece.lo):
            injective = False

    # Ray classes of the source against image ray directions.
    class_dirs: dict[str, set] = {}
    for eid, label in c.ray_classes.items():
        tails = tuple(f.profiles[eid].tail for f in r.functions)
        d = primitive(tails) if any(t != 0 for t in tails) else None
        class_dirs.setdefault(label, set()).add(d)
    parallel_respected = all(len(dirs) == 1 for dirs in class_dirs.values())
    labels = sorted(class_dirs)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            shared = {d for d in class_dirs[labels[i]] if d is not None} \
                & {d for d in class_dirs[labels[j]] if d is not None}
            if shared:
                parallel_respected = False

    condition5_free = True
    rays = r.image.rays
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            bi, di, _ = rays[i]
            bj, dj, _ = rays[j]
            if di != dj:
                continue
            offset = vsub(r.image.vertices[bj], r.image.vertices[bi])
            if not parallel(offset, di):
                condition5_free = False
    return RealizationReport(injective, local_isometry, parallel_respected,
                             condition5_free, tuple(factors))


@dataclass(frozen=True)
class HarmonicReport:
    all_harmonic: bool
    defects: tuple[tuple[int, tuple[str, ...]], ...]  # function idx -> finite defect points
    balance: BalanceReport | None
    implication_ok: bool


def harmonic_balance_report(r: RealizationMap) -> HarmonicReport:
    """Harmonicity of the coordinates and balancing of the weighted image.

    When every coordinate is harmonic at every finite point and the map is
    injective, the image must be balanced; the report asserts exactly that
    implication.
    """
    defects = []
    all_harmonic = True
    for idx, f in enumerate(r.functions):
        div = principal_divisor(f)
        finite_bad = tuple(str(p) for p in div.support() if not r.curve.is_at_infinity(p))
        if finite_bad:
            all_harmonic = False
        defects.append((idx, finite_bad))
    balance = check_balanced(r.image)
    injective = not r.merged_vertices and not r.merged_edges
    implication_ok = (not (all_harmonic and injective)) or balance.balanced
    if not implication_ok:
        raise InternalError("harmonic injective image failed to balance")
    return HarmonicReport(all_harmonic, tuple(defects), balance, implication_ok)


def curve_from_complex(K: PolyComplex1D) -> tuple[Curve, tuple[PLFunction, ...], RealizationMap]:
    """Rebuild a curve with harmonic coordinates from a balanced complex.

    Edge lengths are lattice lengths divided by weights; rays of equal
    direction share a ray class; the coordinate functions realize the
    complex back with identical weights.
    """
    rep = check_balanced(K)
    if not rep.balanced:
        raise TropError("complex is not balanced")
    if not K.is_connected():
        raise TropError("complex is not connected")
    n = K.dim
    vertices = [f"v{i}" for i in range(len(K.vertices))]
    edges = []
    ray_classes = {}
    L, P = on_scale(K.vertices)
    for k, (i, j, w) in enumerate(K.segments):
        edges.append((f"s{k}", f"v{i}", f"v{j}", Fraction(math.gcd(*vsub(P[j], P[i])), L * w)))
    for k, (i, d, w) in enumerate(K.rays):
        rid = f"r{k}"
        edges.append((rid, f"v{i}", None, INF))
        # Same direction and same weight share a class: the rebuilt
        # coordinates then have one slope at infinity per class.  Rays of
        # equal direction but different weights get different slopes and
        # cannot be parallel.
        ray_classes[rid] = "dir:" + ",".join(str(x) for x in d) + f"*{w}"
    c = Curve.build(vertices=vertices, edges=edges, ray_classes=ray_classes)

    fs = []
    for t in range(n):
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
    for f in fs:
        div = principal_divisor(f)
        if any(not c.is_at_infinity(p) for p in div.support()):
            raise InternalError("rebuilt coordinate is not harmonic")
    r = realize(c, fs)
    if r.image.canonical() != K.canonical():
        raise InternalError("realization does not reproduce the complex")
    return c, tuple(fs), r


# -- fitting a plane polynomial to a balanced complex --------------------------------


def fit_tropical_polynomial(K: PolyComplex1D) -> TropPoly:
    """Reconstruct a minimal-degree polynomial whose hypersurface is K.

    Each vertex is dual to a polygon with edges w * rot90(d): turning
    counterclockwise around a vertex v across an edge of weight w and
    primitive direction d adds w * (-d[1], d[0]) to the exponent, and the
    coefficient follows by continuity at v.  Walking the vertices gives
    every complement region its term.  Exponents are shifted so the Newton
    polygon touches both axes, the tropical scalar is fixed by making the
    largest coefficient 0, and the result is verified against the
    hypersurface construction before returning.
    """
    if K.dim != 2:
        raise TropError("fit is implemented for plane complexes")
    if not check_balanced(K).balanced:
        raise TropError("complex is not balanced")
    if not K.is_connected():
        raise TropError("complex is not connected")
    K = K.canonical()
    if K.edge_count() == 0:
        raise TropError("a point complex is not a hypersurface")
    if K.edge_count() > 32:
        raise TropError("more than 32 edges; out of the supported desk scale")

    terms = _region_terms(K)
    min_x = min(e[0] for e in terms)
    min_y = min(e[1] for e in terms)
    top = max(terms.values())
    shifted = {(e[0] - min_x, e[1] - min_y): coef - top for e, coef in terms.items()}
    F = TropPoly.of(2, shifted)
    if plane_hypersurface(F).canonical() != K:
        raise InternalError("fitted polynomial fails verification")
    return F


def _region_terms(K: PolyComplex1D) -> dict[tuple[int, int], Fraction]:
    """Exponent and coefficient of every complement region of a connected complex.

    The outgoing edges at each vertex (both directions of a segment, and
    the rays) are sorted counterclockwise.  The sector after edge i -> j at
    i is the sector before edge j -> i at j, so a walk from vertex 0 reaches
    every region; balancing closes the turn around each vertex.
    """
    rings: list[list[tuple[tuple[int, int], int, int | None]]] = [[] for _ in K.vertices]
    _, P = on_scale(K.vertices)
    for i, j, w in K.segments:
        d = primitive(vsub(P[j], P[i]))
        rings[i].append((d, w, j))
        rings[j].append(((-d[0], -d[1]), w, i))
    for i, d, w in K.rays:
        rings[i].append((d, w, None))
    for ring in rings:
        ring.sort(key=functools.cmp_to_key(lambda a, b: _angle_cmp(a[0], b[0])))
    position = {(i, j): k for i, ring in enumerate(rings) for k, (_, _, j) in enumerate(ring)}
    terms: dict[tuple[int, int], Fraction] = {}
    seen: set[int] = set()
    # (vertex, k, exponent, coefficient) of the sector after edge k at the vertex
    stack = [(0, 0, (0, 0), Fraction(0))]
    while stack:
        i, k, e, c = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        ring, (x, y) = rings[i], K.vertices[i]
        for _ in ring:
            terms[e] = c
            j = ring[k][2]
            if j is not None:
                stack.append((j, (position[j, i] - 1) % len(rings[j]), e, c))
            k = (k + 1) % len(ring)
            (dx, dy), w, _ = ring[k]
            c += w * dy * x - w * dx * y  # continuity at (x, y)
            e = (e[0] - w * dy, e[1] + w * dx)
    return terms


def _angle_cmp(d1, d2) -> int:
    q1, q2 = _quadrant(d1), _quadrant(d2)
    if q1 != q2:
        return -1 if q1 < q2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return 0 if cr == 0 else (-1 if cr > 0 else 1)


def _quadrant(d) -> int:
    x, y = d
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


@dataclass(frozen=True)
class BezoutReport:
    points: tuple
    total: int
    degree1: int
    degree2: int
    bound: int
    ok: bool


def bezout_check(K1: PolyComplex1D, K2: PolyComplex1D) -> BezoutReport:
    """Sum of transversal intersection multiplicities against the degree bound."""
    points = intersect(K1, K2)
    d1 = fit_tropical_polynomial(K1).degree()
    d2 = fit_tropical_polynomial(K2).degree()
    total = sum(p.multiplicity for p in points)
    return BezoutReport(points, total, d1, d2, d1 * d2, total <= d1 * d2)
