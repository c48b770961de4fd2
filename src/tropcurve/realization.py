"""Realizations of curves in Q^n, balancing, complex ingestion, and fitting.

A realization maps a curve through a list of rational functions; its image
is a weighted one-dimensional complex whose edge weights are the gcds of
the function slopes.  Balanced complexes round-trip back to curves with
harmonic coordinates, and balanced plane complexes are hypersurfaces of
tropical polynomials recovered by dual propagation over the complement
regions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import BalanceReport, PolyComplex1D, check_balanced
from .curve import INF, Curve, PointRef
from .errors import TropError
from .geometry import ivec_gcd, primitive_of, vadd, vscale, vsub
from .hypersurface import plane_hypersurface
from .plfunction import (PLFunction, _isolated_vertices, _slopes_right, _values_at,
                         principal_divisor)
from .semifield import TropPoly


@dataclass(frozen=True)
class Piece:
    """One affine piece of the realization: a sub-interval of an arc."""

    arc: str
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
    vertex_ids: dict[tuple[Fraction, ...], int] = {}
    merged_vertices = False

    skeleton: list[tuple[PointRef, tuple[Fraction, ...]]] = []
    seen_points = set()

    def vid(coords: tuple[Fraction, ...], pt: PointRef) -> int:
        nonlocal merged_vertices
        if coords in vertex_ids:
            if pt not in seen_points:
                merged_vertices = True
            return vertex_ids[coords]
        vertex_ids[coords] = len(vertices)
        vertices.append(coords)
        return vertex_ids[coords]

    seg_weights: dict[tuple[int, int], int] = {}
    ray_weights: dict[tuple[int, tuple[int, ...]], int] = {}
    merged_edges = False
    pieces: list[Piece] = []

    for vid_iso in _isolated_vertices(c):
        coords = tuple(f.isolated[vid_iso] for f in fs)
        pt = c.pt_vertex(vid_iso)
        vid(coords, pt)
        seen_points.add(pt)
        skeleton.append((pt, coords))

    for aid, arc in sorted(c.arcs.items()):
        profs = [f.profiles[aid] for f in fs]
        offs = sorted({o for p in profs for o, _ in p.breaks})
        values = list(zip(*(_values_at(p, offs) for p in profs)))
        ids = []
        for o, coords in zip(offs, values):
            pt = c.point_from_arc(aid, o)
            ids.append(vid(coords, pt))
            if pt not in seen_points:
                seen_points.add(pt)
                skeleton.append((pt, coords))
        piece_slopes = zip(*(_slopes_right(p, offs[:-1]) for p in profs))
        for k, slopes in enumerate(piece_slopes):
            pieces.append(Piece(aid, offs[k], offs[k + 1], slopes, values[k]))
            if all(s == 0 for s in slopes):
                continue
            i, j = ids[k], ids[k + 1]
            key = (min(i, j), max(i, j))
            g = ivec_gcd(slopes)
            if key in seg_weights:
                merged_edges = True
                seg_weights[key] = math.gcd(seg_weights[key], g)
            else:
                seg_weights[key] = g
        if arc.length == INF:
            tails = tuple(p.tail for p in profs)
            pieces.append(Piece(aid, offs[-1], INF, tails, values[-1]))
            if any(t != 0 for t in tails):
                prim, _ = primitive_of(tails)
                key = (ids[-1], prim)
                g = ivec_gcd(tails)
                if key in ray_weights:
                    merged_edges = True
                    ray_weights[key] = math.gcd(ray_weights[key], g)
                else:
                    ray_weights[key] = g

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
    expansion_factors: tuple[tuple[str, Fraction, int], ...]  # (arc, lo, gcd)


def check_realization(r: RealizationMap) -> RealizationReport:
    """Injectivity, isometry, class preservation, and the nesting condition."""
    c = r.curve
    injective = not r.merged_vertices and not r.merged_edges
    factors = []
    local_isometry = True
    for piece in r.pieces:
        g = ivec_gcd(piece.slopes)
        factors.append((piece.arc, piece.lo, g))
        if g != 1:
            local_isometry = False
        if g == 0 and (piece.hi == INF or piece.hi > piece.lo):
            injective = False

    # Ray classes of the source against image ray directions.
    class_dirs: dict[str, set] = {}
    for eid, label in c.ray_classes.items():
        tails = tuple(f.profiles[eid].tail for f in r.functions)
        d = primitive_of(tails)[0] if any(t != 0 for t in tails) else None
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
            if not _parallel_int(offset, di):
                condition5_free = False
    return RealizationReport(injective, local_isometry, parallel_respected,
                             condition5_free, tuple(factors))


def _parallel_int(offset, d) -> bool:
    if all(x == 0 for x in offset):
        return True
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if offset[i] * d[j] - offset[j] * d[i] != 0:
                return False
    return True


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
        raise TropError("internal error: harmonic injective image failed to balance")
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
    for k, (i, j, w) in enumerate(K.segments):
        d = vsub(K.vertices[j], K.vertices[i])
        _, lat = primitive_of(d)
        edges.append((f"s{k}", f"v{i}", f"v{j}", lat / w))
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
            raise TropError("internal error: rebuilt coordinate is not harmonic")
    r = realize(c, fs)
    if r.image.canonical() != K.canonical():
        raise TropError("internal error: realization does not reproduce the complex")
    return c, tuple(fs), r


# -- fitting a plane polynomial to a balanced complex --------------------------------


def fit_tropical_polynomial(K: PolyComplex1D) -> TropPoly:
    """Reconstruct a minimal-degree polynomial whose hypersurface is K.

    Walks the complement regions of the plane: crossing an edge of weight w
    and primitive direction p shifts the exponent by w times the normal
    into the entered region and adjusts the coefficient by continuity.
    The result is translated so the Newton polygon touches both axes, and
    verified against the hypersurface construction before returning.
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

    arrangement = _Arrangement(K)
    terms = arrangement.propagate()
    min_x = min(e[0] for e in terms)
    min_y = min(e[1] for e in terms)
    shifted = {(e[0] - min_x, e[1] - min_y): coef for e, coef in terms.items()}
    F = TropPoly.of(2, shifted)
    if plane_hypersurface(F).canonical() != K:
        raise TropError("internal error: fitted polynomial fails verification")
    return F


class _Arrangement:
    """Bounded planar arrangement of a complex: faces and K-edge adjacencies."""

    def __init__(self, K: PolyComplex1D):
        self.K = K
        # The two pads grow at different polynomial orders, so any exit
        # coincidence (a ray hitting a corner or another exit) is a
        # nontrivial algebraic condition on k with finitely many roots.
        for k in range(2000):
            x_pad = Fraction(1 + k)
            y_pad = Fraction(1 + k) + Fraction(k * k, 7)
            if self._try_build(x_pad, y_pad):
                return
        raise TropError("could not place a clipping box around the complex")

    def _try_build(self, x_pad: Fraction, y_pad: Fraction) -> bool:
        K = self.K
        xs = [v[0] for v in K.vertices]
        ys = [v[1] for v in K.vertices]
        x0, x1 = min(xs) - x_pad, max(xs) + x_pad + Fraction(1, 7)
        y0, y1 = min(ys) - y_pad, max(ys) + y_pad + Fraction(2, 5)
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        nodes: dict[tuple, int] = {}
        edges: list[tuple[int, int, dict | None]] = []

        def node(p) -> int:
            if p not in nodes:
                nodes[p] = len(nodes)
            return nodes[p]

        boundary_points = {0: set(), 1: set(), 2: set(), 3: set()}
        for c in corners:
            node(c)
        for i, j, w in K.segments:
            a, b = K.vertices[i], K.vertices[j]
            prim, _ = primitive_of(vsub(b, a))
            edges.append((node(a), node(b), {"w": w, "prim": prim}))
        for i, d, w in K.rays:
            base = K.vertices[i]
            exit_t = None
            for coord, bound, sign in ((0, x0, -1), (0, x1, 1), (1, y0, -1), (1, y1, 1)):
                if d[coord] * sign > 0:
                    t = (bound - base[coord]) / d[coord]
                    if exit_t is None or t < exit_t:
                        exit_t = t
            hit = vadd(base, vscale(tuple(Fraction(x) for x in d), exit_t))
            if hit in corners or hit in nodes:
                return False  # nudge the box and retry
            side = (0 if hit[1] == y0 else 2 if hit[1] == y1 else
                    1 if hit[0] == x1 else 3)
            boundary_points[side].add(hit)
            edges.append((node(base), node(hit), {"w": w, "prim": tuple(d)}))
        # Box boundary subdivided at the ray exits.
        sides = [
            (corners[0], corners[1], 0, lambda p: p[0]),
            (corners[1], corners[2], 1, lambda p: p[1]),
            (corners[2], corners[3], 2, lambda p: -p[0]),
            (corners[3], corners[0], 3, lambda p: -p[1]),
        ]
        for start, end, side, keyf in sides:
            pts = [start] + sorted(boundary_points[side], key=keyf) + [end]
            for a, b in zip(pts, pts[1:]):
                edges.append((node(a), node(b), None))

        self.points = {idx: p for p, idx in nodes.items()}
        self.half_edges: list[tuple[int, int]] = []
        self.edge_info: dict[int, dict | None] = {}
        adj: dict[int, list[int]] = {}
        for k, (u, v, info) in enumerate(edges):
            h1, h2 = 2 * k, 2 * k + 1
            self.half_edges.extend([(u, v), (v, u)])
            self.edge_info[k] = info
            adj.setdefault(u, []).append(h1)
            adj.setdefault(v, []).append(h2)

        def direction(h: int):
            u, v = self.half_edges[h]
            return vsub(self.points[v], self.points[u])

        def angle_cmp(h1: int, h2: int) -> int:
            d1, d2 = direction(h1), direction(h2)
            q1, q2 = _quadrant(d1), _quadrant(d2)
            if q1 != q2:
                return -1 if q1 < q2 else 1
            cr = d1[0] * d2[1] - d1[1] * d2[0]
            return 0 if cr == 0 else (-1 if cr > 0 else 1)

        self.next_half: dict[int, int] = {}
        order: dict[int, list[int]] = {}
        for v, hs in adj.items():
            order[v] = sorted(hs, key=functools.cmp_to_key(angle_cmp))
        for h in range(len(self.half_edges)):
            u, v = self.half_edges[h]
            twin = h ^ 1
            ring = order[v]
            pos = ring.index(twin)
            self.next_half[h] = ring[(pos - 1) % len(ring)]

        # Trace faces.
        self.face_of: dict[int, int] = {}
        nfaces = 0
        for h in range(len(self.half_edges)):
            if h in self.face_of:
                continue
            cur = h
            while cur not in self.face_of:
                self.face_of[cur] = nfaces
                cur = self.next_half[cur]
            nfaces += 1
        self.nfaces = nfaces
        # Base face: left of the bottom box side piece leaving the BL corner.
        bl = nodes[corners[0]]
        base_h = None
        for h in range(len(self.half_edges)):
            u, v = self.half_edges[h]
            if u == bl and self.points[v][1] == y0 and self.points[v][0] > x0:
                base_h = h
                break
        self.base_face = self.face_of[base_h]
        self.k_edges = [(2 * k, self.edge_info[k]) for k in range(len(edges))
                        if self.edge_info[k] is not None]
        return True

    def propagate(self) -> dict[tuple[int, int], Fraction]:
        """Exponent and coefficient per region, spread from the base region."""
        exps: dict[int, tuple[int, int]] = {self.base_face: (0, 0)}
        coefs: dict[int, Fraction] = {self.base_face: Fraction(0)}
        # Adjacency list over K-edges.
        adjacency = []
        for h, info in self.k_edges:
            f1, f2 = self.face_of[h], self.face_of[h ^ 1]
            u, _ = self.half_edges[h]
            adjacency.append((f1, f2, h, info))
        pending = True
        while pending:
            pending = False
            for f1, f2, h, info in adjacency:
                for a, b, hh in ((f1, f2, h), (f2, f1, h ^ 1)):
                    if a in exps and b not in exps:
                        exps[b], coefs[b] = self._cross(a, hh, info, exps, coefs)
                        pending = True
        for f1, f2, h, info in adjacency:
            if f1 not in exps or f2 not in exps:
                raise TropError("inconsistent propagation: unreachable region")
            want_e, want_c = self._cross(f1, h, info, exps, coefs)
            if exps[f2] != want_e or coefs[f2] != want_c:
                raise TropError("inconsistent propagation (not a hypersurface): "
                                f"edge through {self.points[self.half_edges[h][0]]} disagrees")
        terms: dict[tuple[int, int], Fraction] = {}
        for face, e in exps.items():
            if e in terms and terms[e] != coefs[face]:
                raise TropError("inconsistent propagation (not a hypersurface): "
                                "two regions share an exponent with different offsets")
            terms[e] = coefs[face]
        return terms

    def _cross(self, from_face: int, h: int, info: dict, exps, coefs):
        """Exponent and coefficient of the face left of twin(h), entered across h."""
        u, v = self.half_edges[h]
        du = vsub(self.points[v], self.points[u])
        prim, _ = primitive_of(du)
        # Normal into the face left of h is rot90(direction); we leave that
        # face, so the entered face gets minus that normal.
        normal_in = (prim[1], -prim[0])
        w = info["w"]
        e_from = exps[from_face]
        e_to = (e_from[0] + w * normal_in[0], e_from[1] + w * normal_in[1])
        x0 = self.points[u]
        c_to = coefs[from_face] + (e_from[0] - e_to[0]) * x0[0] + (e_from[1] - e_to[1]) * x0[1]
        return e_to, c_to


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
    from .complexes import intersect

    points = intersect(K1, K2)
    d1 = fit_tropical_polynomial(K1).degree()
    d2 = fit_tropical_polynomial(K2).degree()
    total = sum(p.multiplicity for p in points)
    return BezoutReport(points, total, d1, d2, d1 * d2, total <= d1 * d2)
