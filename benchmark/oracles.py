"""Computations made apart from the program, and the output checks built on them.

Nothing here imports ``tropcurve``.  Every check takes the plain input data and
a plain *view* of the program's result (see ``workloads.py``) and raises
``CheckFailed`` when they disagree, so a test can corrupt a view and expect
the rejection.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction
from math import gcd

INF = "inf"


class CheckFailed(Exception):
    """A result of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- piecewise-linear profiles ------------------------------------------------------------


def value(breaks, tail, t: Fraction) -> Fraction:
    """Value at offset t of the profile through ``breaks`` (with ``tail`` past the end)."""
    offs = [o for o, _ in breaks]
    k = bisect_right(offs, t) - 1
    if k < 0:
        raise ValueError(f"offset {t} before the profile start")
    o0, v0 = breaks[k]
    if t == o0:
        return v0
    if k + 1 < len(breaks):
        o1, v1 = breaks[k + 1]
        return v0 + (v1 - v0) * (t - o0) / (o1 - o0)
    if tail is None:
        raise ValueError(f"offset {t} past the end of a finite profile")
    return v0 + tail * (t - o0)


def normalized(breaks, tail):
    """Drop breakpoints where the slope does not change, as the program stores them."""
    ss = piece_slopes(breaks) + ([] if tail is None else [Fraction(tail)])
    keep = [breaks[0]] + [breaks[k] for k in range(1, len(breaks) - (tail is None))
                          if ss[k] != ss[k - 1]]
    if tail is None:
        keep.append(breaks[-1])
    return keep, tail


def piece_slopes(breaks) -> list[Fraction]:
    return [(v1 - v0) / (o1 - o0) for (o0, v0), (o1, v1) in zip(breaks, breaks[1:])]


def sample_offsets(profiles, finite_length) -> list[Fraction]:
    """Every breakpoint of every profile, the midpoints between neighbours, and,
    on rays, points past the last breakpoint."""
    offs = sorted({o for breaks, _ in profiles for o, _ in breaks})
    mids = [(a + b) / 2 for a, b in zip(offs, offs[1:])]
    extra = [] if finite_length is not None else [offs[-1] + 1, offs[-1] + Fraction(7, 3),
                                                 offs[-1] + 50]
    return sorted(set(offs + mids + extra))


def outgoing(curve: dict, f: dict) -> dict:
    """Independent principal divisor: at every point the sum of outgoing slopes."""
    div: dict = {}

    def bump(p, k):
        if k:
            div[p] = div.get(p, 0) + k

    for eid, u, v, length in curve["edges"]:
        breaks, tail = f[eid]
        ss = piece_slopes(breaks)
        if length == INF:
            ss = ss + [Fraction(tail)]
            bump(("vertex", v), -tail)
        else:
            bump(("vertex", v), -ss[-1])
        bump(("vertex", u), ss[0])
        for k in range(1, len(ss)):
            bump(("edge", eid, breaks[k][0]), ss[k] - ss[k - 1])
    return {p: k for p, k in div.items() if k}


def vertex_value(curve: dict, f: dict, vid: str) -> Fraction:
    for eid, u, v, _ in curve["edges"]:
        if vid == u:
            return f[eid][0][0][1]
        if vid == v:
            return f[eid][0][-1][1]
    raise ValueError(f"vertex {vid} has no edge")


def sum_divisors(*divs) -> dict:
    out: dict = {}
    for d in divs:
        for p, k in d.items():
            out[p] = out.get(p, 0) + k
    return {p: k for p, k in out.items() if k}


def normal_point(curve: dict, p: tuple) -> tuple:
    """Fold an edge offset of 0 or of the full length onto the end vertex."""
    if p[0] == "vertex":
        return p
    _, eid, off = p
    for e, u, v, length in curve["edges"]:
        if e == eid:
            if off == 0:
                return ("vertex", u)
            if length != INF and off == length:
                return ("vertex", v)
    return p


# -- checks shared by the curve workloads -------------------------------------------------


def check_pointwise(curve: dict, inputs: list[dict], result: dict, op, what: str) -> None:
    """``result`` equals op(inputs) at every breakpoint of the inputs and of the
    result, at the midpoints between them and far out on rays, and has the
    tail slope op gives.

    Between neighbouring sample offsets the inputs are affine, so op of them
    (max or +) is convex; agreeing with the affine result at both ends and the
    midpoint makes the two equal on the whole interval.
    """
    for eid, _, _, length in curve["edges"]:
        profiles = [g[eid] for g in inputs] + [result[eid]]
        for t in sample_offsets(profiles, None if length == INF else length):
            want = op(*(value(b, tl, t) for b, tl in profiles[:-1]))
            got = value(*result[eid], t)
            require(got == want, f"{what} on {eid} at {t}: got {got}, want {want}")
        if length == INF:
            want_tail = op(*(g[eid][1] for g in inputs))
            require(result[eid][1] == want_tail,
                    f"{what} tail on {eid}: got {result[eid][1]}, want {want_tail}")


def check_divisor(want: dict, got: dict, what: str) -> None:
    require(got == want, f"{what}: divisor differs at "
            f"{sorted(set(want.items()) ^ set(got.items()), key=str)[:3]}")
    require(sum(got.values()) == 0, f"{what}: degree {sum(got.values())} != 0")


# -- realizations --------------------------------------------------------------------------


def primitive(d) -> tuple[tuple[int, ...], int]:
    g = 0
    for x in d:
        g = gcd(g, abs(int(x)))
    return tuple(int(x) // g for x in d), g


def lattice_length(d) -> Fraction:
    den = 1
    for x in d:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    g = 0
    for x in d:
        g = gcd(g, abs(int(x * den)))
    return Fraction(g, den)


def check_realization(data: dict, image: dict) -> None:
    """Image segments cover the finite part of the curve isometrically up to
    weight, and each image ray is the weighted primitive tail-slope vector at
    its base.

    The finite part is every finite edge plus, on each ray, the stretch before
    the last breakpoint of f or g: that stretch maps to segments, the rest to
    the ray."""
    curve, f, g = data["curve"], data["f"], data["g"]
    last = {eid: max(normalized(*f[eid])[0][-1][0], normalized(*g[eid])[0][-1][0])
            for eid, _, _, length in curve["edges"] if length == INF}
    total = sum(length for _, _, _, length in curve["edges"] if length != INF) + sum(last.values())
    covered = Fraction(0)
    for i, j, w in image["segments"]:
        d = tuple(a - b for a, b in zip(image["vertices"][j], image["vertices"][i]))
        covered += lattice_length(d) / w
    require(covered == total, f"image segments cover length {covered}, edges total {total}")
    want = []
    for eid, _, _, length in curve["edges"]:
        if length != INF:
            continue
        tails = (f[eid][1], g[eid][1])
        base = (value(*f[eid], last[eid]), value(*g[eid], last[eid]))
        d, w = primitive(tails)
        want.append((base, d, w))
    got = [(image["vertices"][i], tuple(d), w) for i, d, w in image["rays"]]
    require(sorted(got) == sorted(want), f"image rays {sorted(got)} != {sorted(want)}")


# -- chip firing ----------------------------------------------------------------------------


def subgraph_distance(curve: dict, sub: dict):
    """Distance from the subgraph to every point, by an independent Dijkstra.

    Returns ``dist(eid, t)`` for finite offsets t on an edge."""
    edges = {e[0]: e for e in curve["edges"]}
    whole = set(sub["edges"])
    ivs: dict[str, list] = {}
    for eid, lo, hi in sub["intervals"]:
        ivs.setdefault(eid, []).append((lo, hi))
    seed: dict[str, Fraction] = {v: Fraction(0) for v in sub["vertices"]}

    def lower(v, d):
        if d < seed.get(v, d + 1):
            seed[v] = d

    for eid in whole:
        _, u, v, _ = edges[eid]
        lower(u, Fraction(0))
        lower(v, Fraction(0))
    for eid, pairs in ivs.items():
        _, u, v, length = edges[eid]
        for lo, hi in pairs:
            lower(u, lo)
            if length != INF:
                lower(v, length - hi)
    dist = dict(seed)
    heap = [(d, v) for v, d in dist.items()]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for _, u, v, length in curve["edges"]:
            if length == INF or x not in (u, v):
                continue
            y = v if x == u else u
            if d + length < dist.get(y, d + length + 1):
                dist[y] = d + length
                heapq.heappush(heap, (d + length, y))

    def at(eid: str, t: Fraction) -> Fraction:
        _, u, v, length = edges[eid]
        if eid in whole:
            return Fraction(0)
        best = [dist[u] + t] if u in dist else []
        if length != INF and v in dist:
            best.append(dist[v] + length - t)
        for lo, hi in ivs.get(eid, ()):
            if lo <= t and (hi == INF or t <= hi):
                return Fraction(0)
            best.append(lo - t if t < lo else t - hi)
        return min(best)

    return at


def check_chip_fire(data: dict, result: dict) -> None:
    """The result is x -> -min(dist(subgraph, x), l) on every edge."""
    curve, l = data["curve"], data["chip_length"]
    dist = subgraph_distance(curve, data["subgraph"])
    for eid, _, _, length in curve["edges"]:
        breaks, tail = result[eid]
        for t in sample_offsets([result[eid]], None if length == INF else length):
            want = -min(dist(eid, t), l)
            got = value(breaks, tail, t)
            require(got == want, f"chip_fire on {eid} at {t}: got {got}, want {want}")
        if length == INF:
            require(tail == 0, f"chip_fire tail on {eid} is {tail}, want 0")


def extension_slope(data: dict) -> int:
    """A descent slope steep enough for ``extend`` of f1 restricted to the subgraph.

    Each gap between subgraph pieces on an arc must fit a descent from the
    function's height at one end and a rise to its height at the other:
    rate >= (|h0| + |h1|) / width.  Heights are bounded by the largest |f1| at
    a boundary point of the subgraph; loops are cut at their midpoint, as the
    program stores them as two arcs."""
    curve, f, sub = data["curve"], data["f1"], data["subgraph"]
    edges = {e[0]: e for e in curve["edges"]}
    vertex_value = {}
    for eid, u, v, length in curve["edges"]:
        breaks, _ = f[eid]
        vertex_value[u] = breaks[0][1]
        if length != INF:
            vertex_value[v] = breaks[-1][1]
    heights = [abs(vertex_value[v]) for v in sub["vertices"]]
    for eid in sub["edges"]:
        _, u, v, _ = edges[eid]
        heights += [abs(vertex_value[u]), abs(vertex_value[v])]
    covered: dict[str, list] = {}
    for eid, lo, hi in sub["intervals"]:
        heights.append(abs(value(*f[eid], lo)))
        if hi != INF:
            heights.append(abs(value(*f[eid], hi)))
        covered.setdefault(eid, []).append((lo, hi))
    widths = []
    for eid, u, v, length in curve["edges"]:
        cuts = {Fraction(0)} if length == INF else {Fraction(0), length}
        for lo, hi in covered.get(eid, ()):
            cuts |= {lo, hi} - {INF}
        if u == v:
            cuts.add(length / 2)
        cs = sorted(cuts)
        widths += [b - a for a, b in zip(cs, cs[1:])]
    top = max(heights) if heights else Fraction(0)
    return -(int(2 * top / min(widths)) + 1) if widths else -1


def module_degree(divs) -> int:
    """Minus the sum over pole points of the least coefficient among the divisors."""
    poles = {p for d in divs for p, k in d.items() if k < 0}
    return -sum(min(d.get(p, 0) for d in divs) for p in poles)


# -- plane curves --------------------------------------------------------------------------


def argmax_count(poly: dict, x: tuple) -> int:
    vals = [c + e[0] * x[0] + e[1] * x[1] for e, c in poly.items()]
    top = max(vals)
    return sum(1 for v in vals if v == top)


def on_complex(cx: dict, p: tuple) -> bool:
    verts = cx["vertices"]
    if p in verts:
        return True
    for i, j, _ in cx["segments"]:
        a, b = verts[i], verts[j]
        ab = (b[0] - a[0], b[1] - a[1])
        ap = (p[0] - a[0], p[1] - a[1])
        if ab[0] * ap[1] - ab[1] * ap[0] == 0 and \
                0 <= ab[0] * ap[0] + ab[1] * ap[1] <= ab[0] ** 2 + ab[1] ** 2:
            return True
    for i, d, _ in cx["rays"]:
        a = verts[i]
        ap = (p[0] - a[0], p[1] - a[1])
        if d[0] * ap[1] - d[1] * ap[0] == 0 and d[0] * ap[0] + d[1] * ap[1] >= 0:
            return True
    return False


def sample_points(poly: dict, cx: dict) -> list[tuple]:
    """Vertices, segment midpoints and ray points of the complex; points on the
    equality line of every pair of terms; a fixed grid."""
    verts = cx["vertices"]
    pts = list(verts)
    pts += [tuple((a + b) / 2 for a, b in zip(verts[i], verts[j])) for i, j, _ in cx["segments"]]
    pts += [tuple(a + Fraction(5, 2) * c for a, c in zip(verts[i], d)) for i, d, _ in cx["rays"]]
    terms = list(poly.items())
    for a in range(len(terms)):
        for b in range(a + 1, len(terms)):
            (ea, ca), (eb, cb) = terms[a], terms[b]
            n = (ea[0] - eb[0], ea[1] - eb[1])
            rhs = cb - ca
            anchor = (Fraction(rhs, n[0]), Fraction(0)) if n[0] else (Fraction(0), Fraction(rhs, n[1]))
            for t in (Fraction(-1, 3), Fraction(13, 2)):
                pts.append((anchor[0] - n[1] * t, anchor[1] + n[0] * t))
    pts += [(Fraction(x, 2), Fraction(y, 3)) for x in range(-12, 13, 4) for y in range(-12, 13, 6)]
    return pts


def check_locus(poly: dict, cx: dict, pts) -> None:
    """A sampled point lies on the complex exactly when two or more terms attain the max."""
    for p in pts:
        want = argmax_count(poly, p) >= 2
        require(on_complex(cx, p) == want,
                f"point {p}: on complex {not want}, max attained twice {want}")


def check_balanced(cx: dict) -> None:
    verts = cx["vertices"]
    sums = [[0, 0] for _ in verts]
    for i, j, w in cx["segments"]:
        d, _ = primitive_rational(tuple(b - a for a, b in zip(verts[i], verts[j])))
        for k in range(2):
            sums[i][k] += w * d[k]
            sums[j][k] -= w * d[k]
    for i, d, w in cx["rays"]:
        for k in range(2):
            sums[i][k] += w * d[k]
    bad = [(verts[i], s) for i, s in enumerate(sums) if s != [0, 0]]
    require(not bad, f"unbalanced vertices {bad[:2]}")


def primitive_rational(d) -> tuple[tuple[int, ...], Fraction]:
    ell = lattice_length(d)
    return tuple(int(x / ell) for x in d), ell


def hull(points) -> list[tuple[int, int]]:
    """Convex hull, counter-clockwise, without collinear points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - \
                    (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def twice_area(poly_hull) -> int:
    n = len(poly_hull)
    return abs(sum(poly_hull[k][0] * poly_hull[(k + 1) % n][1]
                   - poly_hull[(k + 1) % n][0] * poly_hull[k][1] for k in range(n)))


def check_newton_rays(poly: dict, cx: dict) -> None:
    """Summed ray weight per direction equals the lattice length of the Newton
    polygon edge with that outer normal."""
    h = hull(poly)
    want: dict = {}
    for k in range(len(h)):
        (x0, y0), (x1, y1) = h[k], h[(k + 1) % len(h)]
        normal, length = primitive((y1 - y0, -(x1 - x0)))
        want[normal] = want.get(normal, 0) + length
    got: dict = {}
    for _, d, w in cx["rays"]:
        got[tuple(d)] = got.get(tuple(d), 0) + w
    require(got == want, f"ray weights {sorted(got.items())} != Newton edges {sorted(want.items())}")


def mixed_area(p1: dict, p2: dict) -> Fraction:
    """area(P1 + P2) - area(P1) - area(P2) of the Newton polygons."""
    minkowski = {(a[0] + b[0], a[1] + b[1]) for a in p1 for b in p2}
    return Fraction(twice_area(hull(minkowski)) - twice_area(hull(p1)) - twice_area(hull(p2)), 2)


def check_bernstein(p1: dict, p2: dict, multiplicities) -> None:
    total = sum(multiplicities)
    want = mixed_area(p1, p2)
    require(total == want, f"intersection multiplicities sum to {total}, mixed area is {want}")


def check_same_locus(p1: dict, p2: dict, pts) -> None:
    for p in pts:
        a, b = argmax_count(p1, p) >= 2, argmax_count(p2, p) >= 2
        require(a == b, f"point {p}: max attained twice by input {a}, by fit {b}")
