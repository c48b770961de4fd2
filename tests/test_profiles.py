"""The profile layer against linear-scan and ``Fraction`` reference code.

``ref_value``, ``ref_slope_right``, ``ref_slope_left`` and
``ref_principal_divisor`` are the straightforward versions the library used to
run: one scan of the breakpoint list per query and one query per breakpoint.
``ref_slope``, ``ref_normalize``, ``ref_values_at``, ``ref_combine2`` and
``ref_slice`` are the per-edge kernels as they were when they computed every
step in ``Fraction``s.  ``ref_chip_fire`` folds one distance profile per
source through ``_combine2`` and ``ref_extend`` descends each gap in
``Fraction``s, as the two constructions did before they were built in one
integer pass per edge.  ``ref_realize`` samples every arc through
``Profile.breaks`` in ``Fraction``s, as ``realize`` did before it swept the
grids.  The library now stores each profile on its own
integer grid, bisects it for point queries and sweeps each arc once; these
tests require the same results and the same error messages, and bound how the
work grows with the number of breakpoints.  ``ref_distances_from`` is the
curve's Dijkstra as it ran in ``Fraction``s against the float ``INF``, before
the curve had one integer length scale; ``ref_distance_map``,
``ref_distance`` and ``ref_chip_fire`` read their distances from it.
"""

from __future__ import annotations

import heapq
import json
import random
from fractions import Fraction
from math import floor, gcd, lcm
from pathlib import Path

import pytest

from tropcurve import io as tio
from tropcurve.complexes import PolyComplex1D
from tropcurve.curve import INF, Curve, PointRef, disjoint_union
from tropcurve.errors import TropError
from tropcurve.geometry import primitive
from tropcurve.glue import GlueResult, glue, glue_function
from tropcurve.morphism import Morphism, germ_bump, localize, pullback
from tropcurve.plfunction import (Divisor, PLFunction, Profile, _affine, _combine2, _gridded,
                                  _isolated_vertices, _normal, _pull, _slope_sum, _sweep,
                                  chip_fire, extend, is_harmonic_at, principal_divisor,
                                  pseudodirect_tuple, restrict_whole, split_components)
from tropcurve.randgen import (random_class_respecting_function, random_curve, random_function,
                               random_germ, random_point, random_rational, random_subgraph)
from tropcurve.realization import Piece, RealizationMap, realize
from tropcurve.semifield import common_scale, on_scale
from tropcurve.subgraph import Subgraph, make_subgraph

from conftest import doubling, fraction_calls, on_integer_grid, rng_for

# -- reference code -------------------------------------------------------------


def ref_value(p: Profile, t: Fraction) -> Fraction:
    bs = p.breaks
    if t > bs[-1][0]:
        if p.tail is None:
            raise TropError(f"offset {t} beyond arc end")
        return bs[-1][1] + p.tail * (t - bs[-1][0])
    for k in range(len(bs) - 1, -1, -1):
        if bs[k][0] <= t:
            if bs[k][0] == t:
                return bs[k][1]
            o0, v0 = bs[k]
            o1, v1 = bs[k + 1]
            return v0 + (v1 - v0) * (t - o0) / (o1 - o0)
    raise TropError(f"offset {t} before arc start")


def ref_slope(b0, b1) -> int:
    rise, run = b1[1] - b0[1], b1[0] - b0[0]
    q, r = divmod(rise.numerator * run.denominator, rise.denominator * run.numerator)
    if r:
        raise TropError(f"non-integer slope {rise / run}")
    return q


def ref_normalize(breaks, tail: int | None) -> Profile:
    bs = list(breaks)
    if any(bs[k][0] > bs[k + 1][0] for k in range(len(bs) - 1)):
        bs.sort()
    out = [bs[0]]
    for b in bs[1:]:
        if b[0] == out[-1][0]:
            if b[1] != out[-1][1]:
                raise TropError("conflicting breakpoint values")
            continue
        out.append(b)
    slim = [out[0]]
    for k in range(1, len(out)):
        while len(slim) >= 2:
            (o0, v0), (o1, v1) = slim[-2], slim[-1]
            o2, v2 = out[k]
            if (v1 - v0) * (o2 - o1) == (v2 - v1) * (o1 - o0):
                slim.pop()
            else:
                break
        slim.append(out[k])
    out = slim
    while tail is not None and len(out) >= 2:
        (o0, v0), (o1, v1) = out[-2], out[-1]
        if v1 - v0 == tail * (o1 - o0):
            out.pop()
        else:
            break
    return Profile(tuple(out), tail)


def _normalize(breaks, tail: int | None) -> Profile:
    """The library's normalization, ``_normal``, of exact breakpoints put on
    their grid by ``on_scale``: the kernel ``ref_normalize`` is checked against."""
    return _normal(*on_scale(breaks), tail)


def ref_values_at(p: Profile, offsets) -> list[Fraction]:
    bs = p.breaks
    out = []
    k = 0
    for t in offsets:
        while k + 1 < len(bs) and bs[k + 1][0] <= t:
            k += 1
        o0, v0 = bs[k]
        if t == o0:
            out.append(v0)
        elif k + 1 < len(bs):
            o1, v1 = bs[k + 1]
            out.append(v0 + (v1 - v0) * (t - o0) / (o1 - o0))
        elif p.tail is not None:
            out.append(v0 + p.tail * (t - o0))
        else:
            raise TropError(f"offset {t} beyond arc end")
    return out


def ref_combine2(p: Profile, q: Profile, op: str) -> Profile:
    offsets = sorted({o for o, _ in p.breaks} | {o for o, _ in q.breaks})
    pv = ref_values_at(p, offsets)
    qv = ref_values_at(q, offsets)
    if op == "add":
        tail = None if p.tail is None else p.tail + q.tail
        return ref_normalize([(o, a + b) for o, a, b in zip(offsets, pv, qv)], tail)
    pick = max if op == "max" else min
    pts = []
    for i, o in enumerate(offsets):
        pts.append((o, pick(pv[i], qv[i])))
        if i + 1 < len(offsets):
            da = pv[i] - qv[i]
            db = pv[i + 1] - qv[i + 1]
            if (da > 0 > db) or (da < 0 < db):
                width = offsets[i + 1] - o
                t = o + width * da / (da - db)
                v = pv[i] + (pv[i + 1] - pv[i]) * (t - o) / width
                pts.append((t, v))
    tail = None
    if p.tail is not None:
        dlast = pv[-1] - qv[-1]
        dslope = p.tail - q.tail
        if dslope != 0:
            t = offsets[-1] - dlast / Fraction(dslope)
            if t > offsets[-1]:
                pts.append((t, pv[-1] + p.tail * (t - offsets[-1])))
        probe = pts[-1][0] + 1
        fp = pv[-1] + p.tail * (probe - offsets[-1])
        fq = qv[-1] + q.tail * (probe - offsets[-1])
        if op == "max":
            tail = p.tail if fp > fq or (fp == fq and p.tail >= q.tail) else q.tail
        else:
            tail = p.tail if fp < fq or (fp == fq and p.tail <= q.tail) else q.tail
    return ref_normalize(pts, tail)


def ref_slice(p: Profile, a: Fraction, b) -> Profile:
    if b == INF:
        inner = [(o - a, v) for o, v in p.breaks if a < o]
        return ref_normalize([(Fraction(0), ref_value(p, a))] + inner, p.tail)
    inner = [(o - a, v) for o, v in p.breaks if a < o < b]
    return ref_normalize([(Fraction(0), ref_value(p, a))] + inner
                         + [(b - a, ref_value(p, b))], None)


def ref_pull(p: Profile, start: Fraction, length, orient: int, k: int) -> Profile:
    """x -> p(start + orient·k·x): ``ref_slice`` of the window, reversed when
    orient is -1, then its offsets divided by k."""
    if length == INF:
        s = ref_slice(p, start, INF)
    else:
        s = ref_slice(p, *sorted((start, start + orient * k * length)))
    bs = s.breaks
    if orient < 0:
        bs = [(bs[-1][0] - o, v) for o, v in reversed(bs)]
    return ref_normalize([(o / k, v) for o, v in bs], None if s.tail is None else s.tail * k)


def ref_slope_right(p: Profile, t: Fraction) -> int:
    bs = p.breaks
    if t < bs[0][0]:
        raise TropError(f"offset {t} before arc start")
    for k in range(len(bs) - 1):
        if bs[k][0] <= t < bs[k + 1][0]:
            return ref_slope(bs[k], bs[k + 1])
    if p.tail is None:
        raise TropError(f"no piece right of {t}")
    return p.tail


def ref_slope_left(p: Profile, t: Fraction) -> int:
    bs = p.breaks
    if p.tail is not None and t > bs[-1][0]:
        return p.tail
    for k in range(len(bs) - 1, 0, -1):
        if bs[k - 1][0] < t <= bs[k][0]:
            return ref_slope(bs[k - 1], bs[k])
    raise TropError(f"no piece left of {t}")


def ref_principal_divisor(f: PLFunction) -> Divisor:
    """Outgoing slopes summed point by point, each slope found by a scan."""
    c = f.curve
    coeffs: dict[PointRef, int] = {}

    def bump(p: PointRef, k: int):
        if k:
            coeffs[p] = coeffs.get(p, 0) + k

    for vid, ends in c.edges_at.items():
        if not ends:
            continue
        if c.vertices[vid].at_infinity:
            eid, _ = ends[0]
            bump(c.pt_infinity_of(eid), -f.profiles[eid].tail)
            continue
        total = 0
        for eid, sign in ends:
            prof = f.profiles[eid]
            if sign > 0:
                total += ref_slope_right(prof, Fraction(0))
            elif prof.tail is None:
                total += -ref_slope_left(prof, prof.breaks[-1][0])
            else:
                total += -prof.tail
        bump(c.pt_vertex(vid), total)
    for eid, prof in f.profiles.items():
        interior = prof.breaks[1:-1] if prof.tail is None else prof.breaks[1:]
        for o, _ in interior:
            change = ref_slope_right(prof, o) - ref_slope_left(prof, o)
            bump(c.pt_on_edge(eid, o), change)
    return Divisor(c, coeffs)


def ref_distances_from(c: Curve, seeds) -> dict:
    """Multi-source Dijkstra over finite edges in ``Fraction``s: each vertex's
    least seed distance plus path length, INF where no seed reaches."""
    dist = {v: INF for v in c.vertices}
    dist.update(seeds)
    heap = [(d, v) for v, d in seeds.items()]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for eid, sign in c.edges_at[u]:
            e = c.edges[eid]
            if e.is_infinite:
                continue
            w = e.v if sign > 0 else e.u
            nd = d + e.length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def ref_distance_map(g: Subgraph) -> dict:
    """Each vertex's distance to g: the members and the outer ends of each
    edge's intervals seed ``ref_distances_from``."""
    c = g.curve
    seeds = {vid: Fraction(0) for vid in g.vertices}
    for eid, ivs in g.intervals:
        e = c.edges[eid]
        ends = [(e.u, ivs[0][0])]
        if not e.is_infinite:
            ends.append((e.v, e.length - ivs[-1][1]))
        for vid, d in ends:
            if d < seeds.get(vid, INF):
                seeds[vid] = d
    return ref_distances_from(c, seeds)


def ref_distance(c: Curve, p: PointRef, q: PointRef):
    """The shortest path from p to q along their common edge or through the
    nearest vertices of each, with a ``ref_distances_from`` per vertex of p."""
    if p == q:
        return Fraction(0)
    if c.is_at_infinity(p) or c.is_at_infinity(q):
        return INF

    def legs(x: PointRef) -> list:
        if x.kind == "vertex":
            return [(x.vertex, Fraction(0))]
        e = c.edges[x.edge]
        return [(e.u, x.offset)] + ([] if e.is_infinite else [(e.v, e.length - x.offset)])

    best = abs(p.offset - q.offset) if p.kind == q.kind == "on_edge" and p.edge == q.edge else INF
    for a, a_leg in legs(p):
        dmap = ref_distances_from(c, {a: Fraction(0)})
        for b, b_leg in legs(q):
            best = min(best, a_leg + dmap[b] + b_leg)
    return best


def ref_chip_fire(c: Curve, g: Subgraph, l) -> PLFunction:
    """x -> -min(dist(g, x), l): per edge, the min of one distance profile per
    end and per subgraph interval, capped by the flat l, then negated.  The
    fold runs through ``_combine2``, which ``ref_combine2`` checks above; in
    ``Fraction``s it would take most of this file's time."""
    if g.curve != c:
        raise TropError("subgraph belongs to a different curve")
    if g.is_empty():
        raise TropError("chip firing needs a nonempty subgraph")
    cap = INF if l == INF else Fraction(l)
    if cap != INF and cap <= 0:
        raise TropError("chip firing length must be positive")
    dmap = ref_distance_map(g)
    comp_of = c.vertex_components()
    comp_meets = {comp_of[v] for v, d in dmap.items() if d != INF}
    zero = Fraction(0)

    def flat(e, v):
        return Profile(((zero, v),), 0) if e.is_infinite else Profile(((zero, v), (e.length, v)))

    profiles = {}
    for eid, e in c.edges.items():
        if comp_of[e.u] not in comp_meets:
            profiles[eid] = flat(e, zero)
            continue
        candidates = []
        du, dv = dmap[e.u], dmap[e.v]
        if e.is_infinite:
            if du != INF:
                candidates.append(Profile(((zero, du),), 1))
            for lo, hi in g.interval_map().get(eid, ()):
                if hi == INF:
                    candidates.append(ref_normalize([(zero, lo), (lo, zero)], 0)
                                      if lo > 0 else flat(e, zero))
                else:
                    candidates.append(ref_normalize([(zero, lo), (lo, zero), (hi, zero)], 1))
        else:
            L = e.length
            if du != INF:
                candidates.append(Profile(((zero, du), (L, du + L)), None))
            if dv != INF:
                candidates.append(Profile(((zero, dv + L), (L, dv)), None))
            for lo, hi in g.interval_map().get(eid, ()):
                bs = [(zero, lo), (lo, zero), (hi, zero), (L, L - hi)]
                candidates.append(ref_normalize([b for b in bs if 0 <= b[0] <= L], None))
        dist = candidates[0]
        for cand in candidates[1:]:
            dist = _combine2(dist, cand, "min")
        if cap != INF:
            dist = _combine2(dist, flat(e, cap), "min")
        profiles[eid] = Profile(tuple((o, -v) for o, v in dist.breaks),
                                None if dist.tail is None else -dist.tail)
    isolated = {vid: zero if dmap[vid] == INF else -min(dmap[vid], cap)
                for vid in _isolated_vertices(c)}
    return PLFunction(c, profiles, isolated)


def ref_extend(f_prime: PLFunction, g: Subgraph, s: int) -> PLFunction:
    """Copy f_prime on g; on each gap descend to zero from both ends at slope
    |s|, one ``Fraction`` breakpoint list per gap, each end's height found
    through the parent point it names."""
    if f_prime.is_neg_inf:
        raise TropError("cannot extend the zero function")
    if s >= 0:
        raise TropError("extension slope must be a negative integer")
    rate = -s
    c = g.curve
    sub, chart = g.as_curve()
    if f_prime.curve != sub:
        raise TropError("function does not live on the subgraph curve")
    ok, witness = f_prime.respects_ray_classes()
    if not ok:
        raise TropError(f"function violates the subgraph ray classes: {witness}")
    class_slopes = {c.ray_classes[chart.edge_map[sub_eid][0]]: f_prime.profiles[sub_eid].tail
                    for sub_eid in sub.ray_classes}
    sub_vertex = {ppoint: svid for svid, ppoint in chart.vertex_map.items()}
    sub_edge = {(eid, start): sub_eid for sub_eid, (eid, start, _) in chart.edge_map.items()}

    def height(p: PointRef) -> Fraction:
        svid = sub_vertex.get(p)
        return Fraction(0) if svid is None else f_prime.value_at(sub.pt_vertex(svid))

    profiles = {}
    for eid, e in c.edges.items():
        ivs = g.interval_map().get(eid, ())
        breaks = []
        tail = 0 if e.is_infinite else None
        for lo, hi in ivs:
            if lo < hi:
                piece = f_prime.profiles[sub_edge[eid, lo]]
                breaks += [(lo + o, v) for o, v in piece.breaks]
                if hi == INF:
                    tail = piece.tail
        gaps, pos = [], Fraction(0)
        for lo, hi in ivs:
            if lo > pos:
                gaps.append((pos, lo))
            if hi == INF:
                break
            pos = max(pos, hi)
        else:
            if e.is_infinite or pos < e.length:
                gaps.append((pos, e.length))
        for c0, c1 in gaps:
            h0 = height(c.pt_on_edge(eid, c0))
            z0 = c0 + abs(h0) / rate
            if c1 == INF:
                breaks += [(c0, h0), (z0, Fraction(0))]
                continue
            h1 = height(c.pt_on_edge(eid, c1))
            z1 = c1 - abs(h1) / rate
            if z0 > z1:
                raise TropError(f"slope {s} too shallow on edge {eid!r}; use a steeper s")
            breaks += [(c0, h0), (z0, Fraction(0)), (z1, Fraction(0)), (c1, h1)]
        prof = ref_normalize(breaks, tail)
        if e.is_infinite and prof.tail == 0:
            sigma = class_slopes.get(c.ray_classes[eid])
            if sigma and not any(hi == INF for _, hi in ivs):
                start = max(o for o, _ in breaks) + 1
                prof = Profile(prof.breaks + ((start, prof.breaks[-1][1]),), sigma)
        profiles[eid] = prof
    isolated = {vid: height(PointRef("vertex", vertex=vid)) for vid in _isolated_vertices(c)}
    return PLFunction(c, profiles, isolated)


def ref_realize(c: Curve, fs) -> RealizationMap:
    """``realize`` as it was when it read ``Profile.breaks``: offsets and values
    in ``Fraction``s, vertices keyed by ``Fraction`` tuples, every point
    through ``pt_on_edge`` and a set of the points met."""
    for f in fs:
        ok, witness = f.respects_ray_classes()
        if not ok:
            raise TropError(f"coordinate function breaks ray class {witness[0]!r}")
    vertices, vertex_ids, skeleton, seen_points = [], {}, [], set()
    merged_vertices = merged_edges = False

    def vid(coords, pt) -> int:
        nonlocal merged_vertices
        if coords in vertex_ids:
            if pt not in seen_points:
                merged_vertices = True
            return vertex_ids[coords]
        vertex_ids[coords] = len(vertices)
        vertices.append(coords)
        return vertex_ids[coords]

    seg_weights, ray_weights, pieces = {}, {}, []
    for vid_iso in _isolated_vertices(c):
        coords = tuple(f.isolated[vid_iso] for f in fs)
        pt = c.pt_vertex(vid_iso)
        vid(coords, pt)
        seen_points.add(pt)
        skeleton.append((pt, coords))
    for eid, e in sorted(c.edges.items()):
        profs = [f.profiles[eid] for f in fs]
        offs = sorted({o for p in profs for o, _ in p.breaks})
        values = list(zip(*(ref_values_at(p, offs) for p in profs)))
        ids = []
        for o, coords in zip(offs, values):
            pt = c.pt_on_edge(eid, o)
            ids.append(vid(coords, pt))
            if pt not in seen_points:
                seen_points.add(pt)
                skeleton.append((pt, coords))
        for k in range(len(offs) - 1):
            slopes = tuple(ref_slope_right(p, offs[k]) for p in profs)
            pieces.append(Piece(eid, offs[k], offs[k + 1], slopes, values[k]))
            if any(slopes):
                key = tuple(sorted((ids[k], ids[k + 1])))
                merged_edges |= key in seg_weights
                seg_weights[key] = gcd(seg_weights.get(key, 0), *slopes)
        if e.is_infinite:
            tails = tuple(p.tail for p in profs)
            pieces.append(Piece(eid, offs[-1], INF, tails, values[-1]))
            if any(tails):
                key = (ids[-1], primitive(tails))
                merged_edges |= key in ray_weights
                ray_weights[key] = gcd(ray_weights.get(key, 0), *tails)
    try:
        image = PolyComplex1D(len(fs), tuple(vertices),
                              tuple(sorted((i, j, w) for (i, j), w in seg_weights.items())),
                              tuple(sorted((b, d, w) for (b, d), w in ray_weights.items())))
    except TropError as exc:
        raise TropError(f"image is not an embedded complex: {exc}") from exc
    return RealizationMap(c, tuple(fs), image, tuple(pieces), tuple(skeleton),
                          merged_vertices, merged_edges)


# -- inputs -----------------------------------------------------------------------


def outcome(query, *args):
    try:
        return ("ok", query(*args))
    except TropError as exc:
        return ("error", str(exc))


def random_profile(rng: random.Random) -> Profile:
    """Strictly increasing offsets from 0; about one piece in ten has a
    non-integer slope, so the slope error is compared too."""
    n = rng.randint(1, 8)
    tail = rng.randint(-3, 3) if n == 1 or rng.random() < 0.5 else None
    o, v = Fraction(0), random_rational(rng)
    breaks = [(o, v)]
    for _ in range(n - 1):
        width = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        rise = (width * rng.randint(-3, 3) if rng.random() < 0.9
                else width * Fraction(1, 2) + Fraction(1, 7))
        o, v = o + width, v + rise
        breaks.append((o, v))
    return Profile(tuple(breaks), tail)


def query_offsets(p: Profile) -> list[Fraction]:
    offs = [o for o, _ in p.breaks]
    mids = [(a + b) / 2 for a, b in zip(offs, offs[1:])]
    return [Fraction(-1), Fraction(-1, 3)] + offs + mids + [offs[-1] + Fraction(1, 3),
                                                            offs[-1] + 5]


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def number(rng: random.Random, style: str, den_pool: list[int]):
    """A rational for one breakpoint: an ``int`` in the "int" style, a
    fresh prime denominator in the "prime" style, else a small denominator."""
    if style == "int":
        return rng.randint(-6, 6)
    if style == "prime":
        return Fraction(rng.randint(-40, 40), den_pool.pop())
    return Fraction(rng.randint(-12, 12), rng.randint(1, 3))


def walk(rng: random.Random, offsets, style: str, den_pool, tail) -> Profile:
    """An integer-sloped profile through the given offsets."""
    v = number(rng, style, den_pool)
    breaks = [(offsets[0], v)]
    for o0, o1 in zip(offsets, offsets[1:]):
        v = v + rng.randint(-3, 3) * (o1 - o0)
        breaks.append((o1, v))
    return _normalize(breaks, tail)


def random_offsets(rng: random.Random, style: str, den_pool, end) -> list:
    """Strictly increasing offsets from 0, ending at ``end`` unless it is None."""
    zero = 0 if style == "int" else Fraction(0)
    offs = [zero]
    for _ in range(rng.randint(0, 6)):
        step = number(rng, style, den_pool)
        offs.append(offs[-1] + abs(step) + (1 if style == "int" else Fraction(1, 5)))
    if end is not None:
        offs = [o for o in offs if o < end] + [end]
    return offs


def as_fractions(p: Profile) -> Profile:
    """The reference kernels divide, and an ``int`` divided by an ``int`` is a
    float, so they are fed ``Fraction``s; the integer kernels take ``int``s
    as they are and stay exact."""
    return Profile(tuple((Fraction(o), Fraction(v)) for o, v in p.breaks), p.tail)


def shifted(p: Profile, delta) -> Profile:
    return Profile(tuple((o, v + delta) for o, v in p.breaks), p.tail)


def random_pair(rng: random.Random) -> tuple[Profile, Profile, str, str]:
    """Two profiles on one edge, finite or a ray, how q was drawn from p, and the style.

    Styles: small denominators, ``int`` offsets and values, or pairwise
    coprime prime denominators (one prime per number, so the common scale
    is large).  Relations: independent, equal, a constant apart, or q moved
    by a constant so that it meets p exactly at one of p's breakpoints.
    """
    style = rng.choice(("small", "int", "prime"))
    den_pool = list(PRIMES)
    rng.shuffle(den_pool)
    ray = rng.random() < 0.5
    end = None if ray else number(rng, style, den_pool)
    if end is not None:
        end = abs(end) + (1 if style == "int" else Fraction(1, 7))
    tails = (rng.randint(-3, 3), rng.randint(-3, 3)) if ray else (None, None)
    p = walk(rng, random_offsets(rng, style, den_pool, end), style, den_pool, tails[0])
    relation = rng.choice(("independent", "equal", "constant", "touch", "touch"))
    if relation == "equal":
        return p, p, relation, style
    if relation == "constant":
        return p, shifted(p, rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))), \
            relation, style
    if ray and rng.random() < 0.3:
        tails = (tails[0], tails[0])
    den_pool = list(PRIMES)
    rng.shuffle(den_pool)
    q = walk(rng, random_offsets(rng, style, den_pool, end), style, den_pool, tails[1])
    if relation == "touch":
        o = rng.choice(p.breaks)[0]
        delta = ref_value(as_fractions(p), o) - ref_value(as_fractions(q), o)
        q = shifted(q, int(delta) if delta.denominator == 1 else delta)
    return p, q, relation, style


def curve_with_everything(rng: random.Random) -> Curve:
    """A random curve beside a loop with a ray and an isolated vertex."""
    looped = Curve.build(vertices=["P"],
                         edges=[("l", "P", "P", Fraction(rng.randint(1, 6), rng.randint(1, 2))),
                                ("r", "P", None, INF)],
                         ray_classes={"r": "x"})
    return disjoint_union([random_curve(rng), looped, Curve.build(vertices=["Z"])])


def probe_points(c: Curve, d: Divisor) -> list[PointRef]:
    """The support, every vertex and point at infinity, and the midpoint of
    every finite edge, loops included."""
    points = set(d.coeffs)
    points |= {c.pt_vertex(v) for v in c.vertices}
    points |= {c.pt_on_edge(e.id, e.length / 2) for e in c.edges.values() if not e.is_infinite}
    return sorted(points, key=c.point_sort_key)


# -- differential tests -------------------------------------------------------------


def test_point_queries_match_linear_scans():
    rng = rng_for("profile-queries")
    for _ in range(400):
        p = random_profile(rng)
        for t in query_offsets(p):
            assert outcome(p.value, t) == outcome(ref_value, p, t)
            assert outcome(p.slope_right, t) == outcome(ref_slope_right, p, t)
            assert outcome(p.slope_left, t) == outcome(ref_slope_left, p, t)


def test_combine2_matches_fraction_kernel():
    rng = rng_for("profile-combine")
    seen = dict.fromkeys(("equal", "constant", "touch", "int", "prime", "parallel tails",
                          "tail crossing", "crossing at a breakpoint"), 0)
    for _ in range(3000):
        p, q, relation, style = random_pair(rng)
        fp, fq = as_fractions(p), as_fractions(q)
        seen[relation] = seen.get(relation, 0) + 1
        seen["int"] += style == "int"
        seen["prime"] += max(o.denominator for o, _ in p.breaks) > 3
        if p.tail is not None and p.tail == q.tail and p != q:
            seen["parallel tails"] += 1
        offsets = {o for o, _ in p.breaks} | {o for o, _ in q.breaks}
        for op in ("add", "max", "min"):
            got, want = _combine2(p, q, op), ref_combine2(fp, fq, op)
            assert got == want, (p, q, op)
            assert all(type(x) is Fraction for b in got.breaks for x in b)
            if op == "max":
                seen["tail crossing"] += p.tail is not None and got.breaks[-1][0] > max(offsets)
                seen["crossing at a breakpoint"] += any(
                    o in offsets and ref_value(fp, o) == ref_value(fq, o)
                    and ref_slope_right(fp, o) != ref_slope_right(fq, o)
                    for o, _ in got.breaks if p.tail is not None or o < max(offsets))
    assert min(seen.values()) >= 100, seen


def test_normalize_matches_fraction_kernel():
    """Unsorted lists with repeated, conflicting and collinear breakpoints."""
    rng = rng_for("profile-normalize")
    errors = dropped = 0
    for _ in range(2000):
        p = random_profile(rng) if rng.random() < 0.5 else random_pair(rng)[0]
        bs = list(p.breaks)
        for _ in range(rng.randint(0, 3)):
            (o0, v0), (o1, v1) = rng.choice(list(zip(bs, bs[1:])) or [(bs[0], bs[0])])
            bs.append((Fraction(o0 + o1) / 2, Fraction(v0 + v1) / 2))
        if rng.random() < 0.3:
            bs.append(rng.choice(bs))
        if rng.random() < 0.1:
            o, v = rng.choice(bs)
            bs.append((o, v + 1))
        if p.tail is not None and rng.random() < 0.3:
            o, v = bs[-1] if rng.random() < 0.5 else max(bs)
            bs.append((o + 2, v + 2 * p.tail))
        rng.shuffle(bs)
        got, want = outcome(_normalize, bs, p.tail), outcome(ref_normalize, bs, p.tail)
        assert got == want, bs
        if got[0] == "ok":
            dropped += len(got[1].breaks) < len(set(bs))
        errors += got[0] == "error"
    assert errors >= 100 and dropped >= 500


def piece_slope(b0, b1) -> int:
    """The slope of the one piece of a two-point profile, read off its grid."""
    return Profile((b0, b1)).slope_right(b0[0])


def test_slope_matches_fraction_kernel():
    rng = rng_for("profile-slope")
    bad = 0
    for _ in range(2000):
        p = random_profile(rng)
        for b0, b1 in zip(p.breaks, p.breaks[1:]):
            assert outcome(piece_slope, b0, b1) == outcome(ref_slope, b0, b1)
            bad += outcome(piece_slope, b0, b1)[0] == "error"
    ints = ((0, 1), (3, 7))
    assert piece_slope(*ints) == 2 and ref_slope(*ints) == 2
    assert bad >= 100


def test_slice_and_sample_match_fraction_kernels():
    rng = rng_for("profile-slice")
    for _ in range(1500):
        p, q, *_ = random_pair(rng)
        offs = sorted({o for o, _ in p.breaks} | {o for o, _ in q.breaks})
        cuts = sorted(set(offs + [Fraction(a + b) / 2 for a, b in zip(offs, offs[1:])]))
        if p.tail is not None:
            cuts.append(offs[-1] + Fraction(5, 3))
        d, (g, (grid,)) = common_scale(p.grid, on_scale((cuts,)))
        vals, right = _sweep(g, p.slopes, grid)
        assert [Fraction(v, d) for v in vals] == ref_values_at(as_fractions(p), cuts)
        assert right[:-1] == [ref_slope_right(p, t) for t in cuts[:-1]]
        assert right[-1] == (p.tail if p.tail is not None else None)
        a = rng.choice(cuts[:-1])
        b = rng.choice([t for t in cuts if t > a] + ([INF] if p.tail is not None else []))
        length = INF if b is INF else b - a
        assert _pull(p, a, length) == ref_slice(as_fractions(p), a, b), (p, a, b)


COPRIME = (53, 59, 61, 67)  # prime to every denominator random_pair draws


def test_pull_matches_the_fraction_reading():
    """Windows read forward or reversed, stretched by k, against ``ref_pull``;
    windows end at breakpoints, midpoints, the edge's ends, beyond the last
    breakpoint of a ray, and at points whose denominator is a prime that no
    breakpoint has."""
    rng = rng_for("profile-pull")
    seen = {"ray": 0, "reversed": 0, "at 0": 0, "at end": 0, "coprime": 0, 1: 0, 2: 0, 3: 0}
    for _ in range(1200):
        p, *_ = random_pair(rng)
        offs = sorted(o for o, _ in p.breaks)
        cuts = set(offs + [Fraction(a + b) / 2 for a, b in zip(offs, offs[1:])])
        q = rng.choice(COPRIME)
        cuts |= {Fraction(rng.randint(0, int(offs[-1] * q)), q) for _ in range(2)}
        if p.tail is not None:
            cuts.add(offs[-1] + Fraction(5, 3))
        cuts = sorted(cuts)
        orient, k = rng.choice((1, -1)), rng.choice((1, 2, 3))
        a = rng.choice(cuts[:-1])
        if p.tail is not None and orient > 0 and rng.random() < 0.5:
            b, start, length = INF, a, INF
        else:
            b = rng.choice([t for t in cuts if t > a])
            start, length = (a if orient > 0 else b), Fraction(b - a) / k
        got = _pull(p, start, length, orient, k)
        want = ref_pull(as_fractions(p), start, length, orient, k)
        assert got == want, (p, start, length, orient, k)
        seen["ray"] += b is INF
        seen["reversed"] += orient < 0
        seen["at 0"] += a == 0
        seen["at end"] += p.tail is None and b == offs[-1]
        seen["coprime"] += any(x != INF and x.denominator % q == 0 for x in (a, b))
        seen[k] += 1
    assert min(seen.values()) >= 100, seen
    with pytest.raises(TropError, match="cannot reverse an unbounded profile"):
        _pull(Profile(((0, 0),), 1), 0, INF, -1)


def test_divisors_and_harmonicity_match_reference():
    rng = rng_for("profile-divisors")
    loop_mids = infinite = 0
    for _ in range(60):
        c = curve_with_everything(rng)
        f = random_function(c, rng)
        d = principal_divisor(f)
        ref = ref_principal_divisor(f)
        assert d == ref
        for p in probe_points(c, ref):
            assert _slope_sum(f, p) == ref.coeff(p)
            assert is_harmonic_at(f, p) == (ref.coeff(p) == 0)
            loop_mids += (p.kind == "on_edge" and c.edges[p.edge].is_loop
                          and p.offset == c.edges[p.edge].length / 2)
            infinite += c.is_at_infinity(p)
    assert loop_mids >= 60 and infinite >= 60


def drawn_subgraph(c: Curve, rng: random.Random) -> Subgraph | None:
    """Intervals that touch the edge ends, lone points, rays to infinity and
    one prime denominator per edge, so that an edge's scale is large."""
    vertices = [v.id for v in c.vertices.values() if not v.at_infinity and rng.random() < 0.15]
    intervals = []
    for e in c.edges.values():
        if rng.random() < 0.3:
            continue
        p = rng.choice(PRIMES)
        top, unit = (6 * p, Fraction(1, p)) if e.is_infinite else (p, e.length / p)
        xs = sorted(rng.randint(0, top) for _ in range(rng.choice((1, 2, 2, 3, 4, 6))))
        if rng.random() < 0.3:
            xs[0] = 0
        if rng.random() < 0.3 and not e.is_infinite:
            xs[-1] = top
        for k in range(0, len(xs), 2):
            lo = xs[k] * unit
            if k + 1 < len(xs):
                intervals.append((e.id, lo, xs[k + 1] * unit))
            else:
                intervals.append((e.id, lo, INF if e.is_infinite and rng.random() < 0.6 else lo))
    g = make_subgraph(c, vertices=vertices, intervals=intervals)
    return None if g.is_empty() else g


def drawn_cap(rng: random.Random):
    """INF, a cap below every tent, 1/30, a prime denominator, or a wide cap."""
    return rng.choice((INF, Fraction(1, 997), Fraction(1, 30),
                       Fraction(rng.randint(1, 200), rng.choice(PRIMES)),
                       Fraction(rng.randint(1, 12), rng.randint(1, 3))))


def drawn_curve(rng: random.Random) -> Curve:
    return curve_with_everything(rng) if rng.random() < 0.4 else random_curve(rng)


def coprime_curve(rng: random.Random) -> Curve:
    """Two random curves beside a loop with a ray and an isolated vertex, each
    of the at most 11 finite lengths drawn again over its own prime, so that
    the denominators are pairwise coprime."""
    c = disjoint_union([random_curve(rng), curve_with_everything(rng)])
    primes = iter(rng.sample(PRIMES, sum(not e.is_infinite for e in c.edges.values())))
    edges = [(e.id, e.u, e.v, e.length if e.is_infinite else Fraction(rng.randint(1, 6 * p), p))
             for e, p in ((e, 0 if e.is_infinite else next(primes)) for e in c.edges.values())]
    return Curve.build(vertices=[(v.id, v.at_infinity) for v in c.vertices.values()],
                       edges=edges, ray_classes=c.ray_classes)


def drawn_point(c: Curve, rng: random.Random) -> PointRef:
    """A vertex, a point at infinity, or a point inside an edge at a prime denominator."""
    if rng.random() < 0.3:
        return c.pt_vertex(rng.choice(list(c.vertices)))
    e = rng.choice(list(c.edges.values()))
    q = rng.choice(PRIMES)
    t = (Fraction(rng.randint(1, 8 * q), q) if e.is_infinite
         else e.length * Fraction(rng.randint(1, q - 1), q))
    return c.pt_on_edge(e.id, t)


def test_the_integer_metric_matches_the_fraction_dijkstra():
    """distances_from, distance_map and distance against the Fraction
    Dijkstra, on curves of several components with loops, rays and isolated
    vertices whose length denominators are pairwise coprime primes."""
    rng = rng_for("profile-metric")
    seen = dict.fromkeys(("unreached", "finite distance", "infinite distance", "same edge",
                          "subgraph", "loop", "ray"), 0)
    for _ in range(300):
        c = coprime_curve(rng)
        finite = [v for v, info in c.vertices.items() if not info.at_infinity]
        seeds = {v: Fraction(rng.randint(0, 40), rng.choice(PRIMES))
                 for v in rng.sample(finite, rng.randint(1, 3))}
        got, want = c.distances_from(seeds), ref_distances_from(c, seeds)
        assert list(got.items()) == list(want.items()), (c, seeds)
        assert all(d is INF or type(d) is Fraction for d in got.values())
        seen["unreached"] += INF in got.values()
        g = drawn_subgraph(c, rng)
        if g is not None:
            got, want = g.distance_map(), ref_distance_map(g)
            assert list(got.items()) == list(want.items()), (c, g)
            seen["subgraph"] += 1
        for _ in range(4):
            p, q = drawn_point(c, rng), drawn_point(c, rng)
            got = c.distance(p, q)
            assert got == ref_distance(c, p, q) == c.distance(q, p), (c, p, q)
            assert got is INF or type(got) is Fraction
            seen["infinite distance" if got is INF else "finite distance"] += 1
            seen["same edge"] += p.kind == q.kind == "on_edge" and p.edge == q.edge
            for x in (p, q):
                e = c.edges.get(x.edge)
                seen["loop"] += e is not None and e.is_loop
                seen["ray"] += e is not None and e.is_infinite
    assert min(seen.values()) >= 30, seen


def test_chip_fire_matches_the_fold():
    rng = rng_for("profile-chip-fire")
    seen = dict.fromkeys(("touching an end", "lone point", "ray to inf", "loop", "l = INF",
                          "every tent clipped", "many denominators"), 0)
    draws = 0
    while draws < 3000:
        c = drawn_curve(rng)
        g = drawn_subgraph(c, rng)
        if g is None:
            continue
        ivs = [(c.edges[eid], lo, hi) for eid, iv in g.intervals for lo, hi in iv]
        for l in (drawn_cap(rng), drawn_cap(rng)):
            draws += 1
            got, want = chip_fire(c, g, l), ref_chip_fire(c, g, l)
            assert got == want and got.isolated == want.isolated, (c, g, l)
            assert all(type(x) is Fraction
                       for p in got.profiles.values() for b in p.breaks for x in b)
            seen["touching an end"] += any(lo == 0 or hi == e.length for e, lo, hi in ivs)
            seen["lone point"] += any(lo == hi for _, lo, hi in ivs)
            seen["ray to inf"] += any(hi is INF for _, _, hi in ivs)
            seen["loop"] += any(e.is_loop for e, _, _ in ivs)
            seen["l = INF"] += l is INF
            seen["every tent clipped"] += l == Fraction(1, 997)
            seen["many denominators"] += len({lo.denominator for _, lo, _ in ivs}) >= 3
    assert min(seen.values()) >= 100, seen


def test_extend_matches_the_gap_descent():
    """Restrictions of random functions and random functions on the
    subgraph curve, extended at slopes -1 ... -1024: equal results, each
    restricting back to the input, and the same error text where a slope is
    too shallow or a ray class is broken."""
    rng = rng_for("profile-extend")
    outcomes: dict[str, int] = {}
    shallow = draws = 0
    while draws < 3000:
        c = drawn_curve(rng)
        g = drawn_subgraph(c, rng) if rng.random() < 0.7 else random_subgraph(c, rng)
        if g is None:
            continue
        sub, _ = g.as_curve()
        f_prime = (restrict_whole(random_function(c, rng), g)[0] if rng.random() < 0.6
                   else random_function(sub, rng))
        for s in sorted({-1, -1024, -2 ** rng.randint(1, 9), -rng.randint(2, 12)}):
            draws += 1
            got, want = outcome(extend, f_prime, g, s), outcome(ref_extend, f_prime, g, s)
            assert got == want, (c, g, f_prime.profiles, s)
            if got[0] == "ok":
                assert got[1].isolated == want[1].isolated
                assert restrict_whole(got[1], g)[0] == f_prime, (c, g, f_prime.profiles, s)
            outcomes[got[0]] = outcomes.get(got[0], 0) + 1
            shallow += got[0] == "error" and "too shallow" in got[1]
    assert outcomes["ok"] >= 1000 and shallow >= 300, (outcomes, shallow)


def test_realize_matches_the_fraction_reading():
    """Curves with loops, rays and isolated vertices under two or three
    class-respecting functions, often constant on whole components so that
    distinct points share an image point: the same image, pieces, skeleton
    and merge flags, and the same error where the image does not embed."""
    rng = rng_for("profile-realize")
    seen = dict.fromkeys(("ok", "error", "isolated", "loop", "ray", "merged vertices",
                          "merged edges"), 0)
    while seen["ok"] < 200:
        c = drawn_curve(rng)
        fs = [random_class_respecting_function(c, rng) for _ in range(rng.randint(2, 3))]
        got, want = outcome(realize, c, fs), outcome(ref_realize, c, fs)
        seen[got[0]] += 1
        assert got[0] == want[0], c
        if got[0] == "error":
            assert got == want
            continue
        got, want = got[1], want[1]
        assert got.image == want.image, c
        assert got.pieces == want.pieces and got.skeleton == want.skeleton
        assert (got.merged_vertices, got.merged_edges) == (want.merged_vertices,
                                                            want.merged_edges)
        seen["isolated"] += bool(_isolated_vertices(c))
        seen["loop"] += any(e.is_loop for e in c.edges.values())
        seen["ray"] += any(e.is_infinite for e in c.edges.values())
        seen["merged vertices"] += got.merged_vertices
        seen["merged edges"] += got.merged_edges
    assert min(seen.values()) >= 50, seen


def test_harmonicity_of_the_zero_function_raises():
    c = curve_with_everything(rng_for("profile-zero"))
    with pytest.raises(TropError, match="the zero function has no principal divisor"):
        is_harmonic_at(PLFunction.neg_inf(c), c.pt_vertex("1:P"))


def golden_glue(name: str) -> tuple[GlueResult, PLFunction, PLFunction]:
    """The glue result and the two functions of a golden ``glue --fn-a --fn-b`` case."""
    case = Path(__file__).resolve().parent / "golden" / name
    argv = json.loads((case / "argv.json").read_text())
    path = dict(zip(argv[1::2], argv[2::2]))

    def read(flag):
        return (case / "in" / path[flag]).read_text()

    c1, c2, shape = (tio.curve_from_json(read(flag)) for flag in ("--a", "--b", "--shape"))
    res = glue(c1, c2, tio.embedding_from_json(shape, c1, read("--embed-a")),
               tio.embedding_from_json(shape, c2, read("--embed-b")))
    return res, tio.function_from_json(c1, read("--fn-a")), tio.function_from_json(c2, read("--fn-b"))


def fixed_morphisms() -> list[Morphism]:
    """The degree-2 map of the line onto itself, a fold of a two-edge path
    onto a segment, and a segment collapsed to a point."""
    seg3, point = Curve.segment(3), Curve.build(vertices=["P"])
    path = Curve.build(vertices=["A", "B", "C"], edges=[("e1", "A", "B", 1), ("e2", "B", "C", 1)])
    seg1 = Curve.segment(1, "U", "V", "f")
    return [doubling(Curve.doubly_infinite_line()),
            Morphism(path, seg1, {"A": "U", "B": "V", "C": "U"},
                     {"e1": ("edge", "f"), "e2": ("edge", "f")}, {"e1": 1, "e2": 1}),
            Morphism(seg3, point, {"A": "P", "B": "P"}, {"e": ("vertex", "P")}, {"e": 0})]


def test_kernel_results_equal_their_validated_rebuilds():
    """Every result built through ``PLFunction._trusted`` or ``Divisor._trusted``
    equals its rebuild through ``PLFunction(...)`` or ``Divisor(...)``, which
    normalizes every profile and checks every point, so a trusted result is
    valid and normalized."""
    rng = rng_for("profile-trusted")
    glued = [golden_glue(name) for name in ("glue-with-functions", "glue-reversed-edge")]
    morphisms = fixed_morphisms()
    seen: dict[str, int] = {}
    for _ in range(40):
        c = curve_with_everything(rng) if rng.random() < 0.5 else random_curve(rng)
        f, g = (random_function(c, rng, allow_neg_inf=True) for _ in range(2))
        results = [("add", f.add(g)), ("mul", f.mul(g)), ("pow", f.pow(2)), ("pow", f.pow(3)),
                   ("scale", f.scale(random_rational(rng)))]
        if not f.is_neg_inf:
            results += [("inv", f.inv()), ("pow", f.pow(-1)), ("pow", f.pow(0))]
        sub = random_subgraph(c, rng)
        cap = INF if rng.random() < 0.3 else Fraction(rng.randint(1, 12), rng.randint(1, 3))
        results += [("constant", PLFunction.constant(c, random_rational(rng))),
                    ("chip_fire", chip_fire(c, sub, cap)), ("restrict", restrict_whole(f, sub)[0]),
                    *[("split", part) for part in split_components(f)],
                    ("pseudodirect", pseudodirect_tuple(c, [random_function(comp, rng)
                                                            for comp in c.components()]))]
        if not any(e.is_loop for e in c.edges.values()):
            results.append(("pullback", pullback(Morphism.identity(c), f)))
        results += [("pullback", pullback(m, random_function(m.target, rng))) for m in morphisms]
        points = [random_point(c, rng)] + [c.pt_vertex(v) for v in _isolated_vertices(c)[:1]]
        for loc in [localize(c, x) for x in points]:
            results.append(("germ_bump", germ_bump(loc, random_germ(rng, loc.rank))))
        fp = restrict_whole(random_class_respecting_function(c, rng), sub)[0]
        if not fp.is_neg_inf:
            results += [("extend", r) for kind, r in (outcome(extend, fp, sub, s)
                                                      for s in (-8, -64, -1024, -2 ** 18))
                        if kind == "ok"]
        res, h1, h2 = rng.choice(glued)
        k, t = rng.randint(1, 3), random_rational(rng)
        results.append(("glue", glue_function(h1.pow(k).scale(t), h2.pow(k).scale(t), res)))
        divisors = []
        for name, r in results:
            if r.is_neg_inf:
                continue
            rebuilt = PLFunction(r.curve, r.profiles, r.isolated)
            assert r == rebuilt and r.isolated == rebuilt.isolated, name
            d = principal_divisor(r)
            divisors += [("principal", d), ("neg", d.neg()), ("add", d.add(d.neg()))]
            if r.curve == c and not f.is_neg_inf:
                divisors.append(("add", d.add(principal_divisor(f))))
            seen[name] = seen.get(name, 0) + 1
        for name, d in divisors:
            assert d == Divisor(d.curve, d.coeffs), name
            assert all(type(k) is int and k for k in d.coeffs.values()), name
            seen[f"Divisor.{name}"] = seen.get(f"Divisor.{name}", 0) + 1
    assert min(seen.values()) >= 30 and len(seen) == 17, seen


def test_a_raw_profile_reads_each_number_when_built():
    # Profile(breaks, tail) reads each offset and value through ratio, as
    # from_edge_data does: a float or a bool is refused with ratio's message,
    # a literal string is read onto the grid, and any other string is a
    # TropError.  The breakpoints it shows are Fractions from that grid.
    with pytest.raises(TropError, match=r"^exact rational required, got float: 0\.5$"):
        Profile(((0, 0.5), (1, 1.5)))
    with pytest.raises(TropError, match="^exact rational required, got bool: True$"):
        Profile(((0, 0), (True, 1)))
    with pytest.raises(TropError, match="^exact rational required, got bool: False$"):
        Profile(((0, False),), 1)
    with pytest.raises(TropError, match="^not a rational literal: 'x'$"):
        Profile(((0, "x"),))
    breaks = (("0", "3/4"), ("1/2", "-1/4"))
    p = Profile(breaks)
    assert p.grid == (4, ((0, 3), (2, -1))) and on_integer_grid(p)
    assert p == Profile(((0, Fraction(3, 4)), (Fraction(1, 2), Fraction(-1, 4))))
    assert p == PLFunction.from_edge_data(Curve.segment(Fraction(1, 2)),
                                          {"e": (breaks, None)}).profiles["e"]
    assert repr(p) == ("Profile(((Fraction(0, 1), Fraction(3, 4)), "
                       "(Fraction(1, 2), Fraction(-1, 4))), None)")
    assert repr(Profile(((0, 1),), -2)) == "Profile(((Fraction(0, 1), Fraction(1, 1)),), -2)"


def test_malformed_edge_data_names_its_edge():
    # An entry that is not (breakpoints, tail), or a breakpoint that is not
    # an (offset, value) pair, is a TropError naming the edge, not Python's
    # unpacking error; a raw Profile refuses a non-pair as a TropError too.
    seg = Curve.segment(3)
    named = r"^edge 'e': data is \(breakpoints, tail\), the breakpoints \(offset, value\) pairs$"
    for entry in ([(0, 0), (3, 0)], ([(0,)], None), ([(0, 0, 0)], None), 5):
        with pytest.raises(TropError, match=named):
            PLFunction.from_edge_data(seg, {"e": entry})
    with pytest.raises(TropError, match=r"^breakpoints are \(offset, value\) pairs$"):
        Profile(((0,),))
    with pytest.raises(TropError, match="^not a rational literal: 'x'$"):
        PLFunction.from_edge_data(seg, {"e": ([(0, "x")], None)})


def test_a_profile_reads_its_tail():
    # The tail is read with integer when the profile is built, so a float or
    # bool tail is refused there rather than compared as an int; from_edge_data
    # names the edge, as PLFunction(...) does for a ray's tail.
    for tail, shown in ((1.0, "float: 1.0"), (True, "bool: True"), ("1", "str: '1'")):
        with pytest.raises(TropError) as exc:
            Profile(((0, 0),), tail)
        assert str(exc.value) == f"slope at infinity must be an integer, not {shown}"
    assert Profile(((0, 0),), 1).tail == 1 and Profile(((0, 0),), None).tail is None
    line = Curve.doubly_infinite_line()
    with pytest.raises(TropError) as exc:
        PLFunction.from_edge_data(line, {"left": ([(0, 0)], 1.0), "right": ([(0, 0)], 0)})
    assert str(exc.value) == "edge 'left' slope at infinity must be an integer, not float: 1.0"
    with pytest.raises(TropError) as raw:
        PLFunction(line, {"left": _gridded(1, ((0, 0),), 1.0), "right": Profile(((0, 0),), 0)})
    assert str(raw.value) == str(exc.value)


def test_public_constructors_still_validate(segment3):
    path = Curve.build(vertices=["A"], edges=[("a", "A", "B", 1), ("b", "B", "C", 1)])
    zero, one = Fraction(0), Fraction(1)
    with pytest.raises(TropError, match="discontinuous"):
        PLFunction(path, {"a": Profile(((zero, zero), (one, one))),
                          "b": Profile(((zero, zero), (one, zero)))})
    with pytest.raises(TropError, match="non-integer slope"):
        PLFunction(segment3, {"e": Profile(((zero, zero), (Fraction(3), one)))})
    ramp = Profile(((zero, zero), (Fraction(3), Fraction(3))))
    with pytest.raises(TropError, match="unknown edge 'bogus'"):
        PLFunction(segment3, {"e": ramp, "bogus": ramp})
    with pytest.raises(TropError, match="value given for vertex 'A', which is not isolated"):
        PLFunction(segment3, {"e": ramp}, {"A": one})
    with pytest.raises(TropError, match="not on the curve"):
        Divisor(segment3, {PointRef("vertex", vertex="nowhere"): 1})
    # pow's result skips validation, so its exponent is checked instead.
    with pytest.raises(TropError, match="exponent must be an integer, not Fraction"):
        PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)}).pow(Fraction(1, 2))


# -- the grid -------------------------------------------------------------------------


def test_grid_and_fraction_profiles_are_one_value():
    """The kernels' results, built on grids, against the same functions given
    in ``Fraction``s through the reference kernels: equal, with equal hashes
    and keys, profile by profile too.  A kernel's result holds no
    ``Fraction``s until its breakpoints are read."""
    rng = rng_for("profile-grid-identity")
    for _ in range(60):
        c = curve_with_everything(rng) if rng.random() < 0.5 else random_curve(rng)
        f, g = random_function(c, rng), random_function(c, rng)
        for op, got in (("max", f.add(g)), ("add", f.mul(g)), ("min", f.inv().add(g.inv()).inv())):
            assert all(map(on_integer_grid, got.profiles.values()))
            want = PLFunction(c, {eid: ref_combine2(as_fractions(f.profiles[eid]),
                                                    as_fractions(g.profiles[eid]), op)
                                  for eid in c.edges}, got.isolated)
            assert got == want and hash(got) == hash(want) and got._key() == want._key()
            for eid, p in got.profiles.items():
                assert p == want.profiles[eid] and hash(p) == hash(want.profiles[eid])


def prime_operand(rng: random.Random, end: Fraction, prime: int) -> Profile:
    """An integer-sloped profile on [0, end] whose inner offsets and first
    value have the denominator prime."""
    top = floor(end * prime)
    offsets = [Fraction(0)] + sorted(Fraction(k, prime)
                                     for k in rng.sample(range(1, top), min(3, top - 1))) + [end]
    v = Fraction(rng.randint(-40, 40), prime)
    breaks = [(offsets[0], v)]
    for o0, o1 in zip(offsets, offsets[1:]):
        v += rng.randint(-3, 3) * (o1 - o0)
        breaks.append((o1, v))
    return _normalize(breaks, None)


def test_scale_stays_least_along_a_chain():
    """50 chained add, mul, inv and slice steps, each operand on one fresh
    prime denominator, so that max crossings refine the scale: after every
    step D is the lcm of the denominators of the breakpoints, so the
    integers never carry a factor from an earlier step."""
    rng = rng_for("profile-grid-chain")
    crossings = 0
    for _ in range(20):
        p = ref = prime_operand(rng, Fraction(64), 2)
        for _ in range(50):
            end, prime = p.breaks[-1][0], rng.choice(PRIMES)
            step = rng.choice(("add", "mul", "inv", "slice") if end > 8 else ("add", "mul", "inv"))
            if step == "inv":
                p, ref = _affine(p, -1), Profile(tuple((o, -v) for o, v in ref.breaks))
            elif step == "slice":
                a, b = Fraction(rng.randint(0, 4), prime), end - Fraction(rng.randint(0, 4), prime)
                p, ref = _pull(p, a, b - a), ref_slice(ref, a, b)
            else:
                q = prime_operand(rng, end, prime)
                op = "max" if step == "add" else "add"
                offsets = {o for o, _ in p.breaks} | {o for o, _ in q.breaks}
                p, ref = _combine2(p, q, op), ref_combine2(ref, q, op)
                crossings += any(o not in offsets for o, _ in p.breaks)
            assert p == ref
            assert p.grid[0] == lcm(*(x.denominator for b in p.breaks for x in b))
    assert crossings >= 100, crossings


# -- scaling without timing -----------------------------------------------------------


def sawtooth(n: int):
    """One edge of length n - 1; n breakpoints alternating 0, 1 (slopes +1, -1)."""
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n - 1)])
    f = PLFunction.from_edge_data(c, {"e": ([(k, k % 2) for k in range(n)], None)})
    return c, f


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("shape", ["monotone", "mirrored"])
def test_kernel_work_per_output_breakpoint(op, shape):
    """A kernel reads its operands' grids and builds no ``Fraction``; the
    bound is a few calls into ``fractions`` per output breakpoint (per input
    breakpoint where the output is shorter), where cell-by-cell ``Fraction``
    arithmetic made about a hundred.
    "mirrored" crosses the sawtooth inside every cell."""
    n = 1600
    c, f = sawtooth(n)
    heights = [2 * k + k % 2 for k in range(n)] if shape == "monotone" else \
        [1 - k % 2 for k in range(n)]
    g = PLFunction.from_edge_data(c, {"e": (list(zip(range(n), heights)), None)})
    out = len(getattr(f, op)(g).profiles["e"].breaks)
    assert fraction_calls(getattr(f, op), g) <= 8 * max(out, n)


def beaded_path(n: int) -> tuple[Curve, Subgraph, PLFunction]:
    """Four edges of length n; g holds [j + 1/3, j + 2/3] for every unit j of
    every edge, and f' is the distance to the midpoints of those intervals,
    restricted to g (which cuts g)."""
    c = Curve.build(vertices=["A0"], edges=[(f"e{k}", f"A{k}", f"A{k + 1}", n) for k in range(4)])
    units = [(eid, j) for eid in c.edges for j in range(n)]
    g = make_subgraph(c, intervals=[(eid, j + Fraction(1, 3), j + Fraction(2, 3))
                                    for eid, j in units])
    mids = make_subgraph(c, intervals=[(eid, j + Fraction(1, 2), j + Fraction(1, 2))
                                       for eid, j in units])
    return c, g, restrict_whole(chip_fire(c, mids, INF).inv(), g)[0]


@pytest.mark.parametrize("name, op, limit", [
    ("chip_fire", lambda c, g, fp: chip_fire(c, g, Fraction(1, 7)), 4),
    ("extend", lambda c, g, fp: extend(fp, g, -64), 16),
])
def test_construction_work_per_output_breakpoint(name, op, limit):
    """One integer pass per edge builds two ``Fraction``s per kept corner, and
    extension's validation reads each number twice more; the pairwise fold
    made far more calls per breakpoint, growing with the number of sources,
    and extension added a ``Fraction`` sum per copied breakpoint."""
    c, g, fp = beaded_path(100)
    out = sum(len(p.breaks) for p in op(c, g, fp).profiles.values())
    assert out >= 1600
    calls = fraction_calls(op, c, g, fp)
    assert calls <= limit * out, f"{name}: {calls} fraction calls for {out} breakpoints"


@pytest.mark.parametrize("name, op, limit", [
    ("principal_divisor", lambda c, f, p: principal_divisor(f), 5),
    ("realize", lambda c, f, p: realize(c, [f, f]), 5),
    ("is_harmonic_at", lambda c, f, p: is_harmonic_at(f, p), 2),
])
def test_work_grows_linearly_with_breakpoints(name, op, limit):
    counts = []
    for n in (100, 400):
        c, f = sawtooth(n)
        p = c.pt_on_edge("e", n // 2)
        counts.append(fraction_calls(op, c, f, p))
    assert counts[1] <= limit * counts[0], f"{name}: {counts[0]} -> {counts[1]} fraction calls"
