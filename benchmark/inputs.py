"""Seeded plain-data inputs for the three workloads.

Everything here is plain Python data (tuples, dicts, Fractions) built from a
seed with ``random.Random``; nothing imports ``tropcurve``.  The program only
sees these inputs through its public constructors, in ``workloads.py``.

Curve data: ``{"vertices": [(id, at_infinity)], "edges": [(id, u, v, length)],
"ray_classes": {edge: label}}`` with lengths Fractions or ``"inf"``.  A ray runs
from its finite ``u`` to its at-infinity ``v``.
Function data: ``{edge: (breakpoints, tail)}`` with breakpoints a sorted list
of ``(offset, value)`` Fractions and ``tail`` the slope at infinity on rays,
``None`` on finite edges.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from oracles import value

INF = "inf"

# A prime that divides no denominator of any generated coefficient, vertex or
# direction, so the translation (1/q, 1/q^2) makes every meeting transversal.
PLANE_SHIFT_PRIME = 1009


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _rational(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _widths(rng: random.Random, n: int, total: Fraction | None) -> list[Fraction]:
    """n positive piece widths; they sum to ``total`` when it is given."""
    ks = [rng.randint(1, 4) for _ in range(n)]
    if total is None:
        return [Fraction(k, rng.choice((1, 2, 3))) for k in ks]
    s = sum(ks)
    return [total * k / s for k in ks]


def _walk(start: Fraction, widths, slopes) -> list[tuple[Fraction, Fraction]]:
    breaks = [(Fraction(0), start)]
    o, v = Fraction(0), start
    for w, s in zip(widths, slopes):
        o, v = o + w, v + s * w
        breaks.append((o, v))
    return breaks


def _random_slopes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """Integer slopes in [lo, hi] that change at every breakpoint."""
    out: list[int] = []
    for _ in range(n):
        s = rng.randint(lo, hi)
        while out and s == out[-1]:
            s = rng.randint(lo, hi)
        out.append(s)
    return out


def closing_walk(rng: random.Random, length: Fraction, start: Fraction, end: Fraction,
                 pieces: int, lo: int, hi: int) -> list[tuple[Fraction, Fraction]]:
    """Integer-sloped breakpoints on [0, length] from ``start`` to ``end``.

    All but the last two pieces are random; the last two close the walk: with
    target rise D over the remaining width W, slopes s1 > D/W > s2 meet at
    x = (D - s2 W) / (s1 - s2), strictly inside (0, W).
    """
    free = max(pieces - 2, 0)
    ws = _widths(rng, free + 1, length)
    head = _walk(start, ws[:free], _random_slopes(rng, free, lo, hi))
    o, v = head[-1]
    width = length - o
    rise = end - v
    mean = rise / width
    s1 = math.floor(mean) + 1
    s2 = math.ceil(mean) - 1
    x = (rise - s2 * width) / (s1 - s2)
    return head + [(o + x, v + s1 * x), (length, end)]


# -- long-profiles ---------------------------------------------------------------------

# Pieces per arc: (f and g, h) on each curve.  realize is quadratic in the image
# edges, so f and g carry 20 pieces per curve in all; h carries the hundred
# that add, mul and the divisor sweep over on the segment.  Each timed call
# stays at about 25 ms or below, short enough for its fastest repetition to be
# steady on a noisy machine.
LONG_PIECES = {"segment": (20, 100), "line": (10, 50), "cycle": (5, 25)}
LONG_CURVES = 3  # of each kind


def long_profiles(seed: int) -> list[dict]:
    """LONG_CURVES each of a segment, a doubly infinite line and a two-edge
    cycle with a ray at each end, with long piecewise-linear functions f, g
    and h on each.

    ``f`` and ``g`` realize an embedded image: ``g`` is strictly monotone along
    every edge, and on the cycle the two edges share ``g`` while ``f`` on the
    second edge is ``f`` on the first plus a positive tent, so the two image
    arcs never meet inside.  ``h`` is a second, unconstrained function.
    """
    rng = _rng(seed, "long-profiles")
    kinds = (("segment", _long_segment), ("line", _long_line), ("cycle", _long_cycle))
    return [make(rng) | {"name": f"{kind}{k}"} for k in range(LONG_CURVES) for kind, make in kinds]


def _tail_walk(rng, start, pieces, lo, hi):
    ws = _widths(rng, pieces, None)
    return _walk(start, ws, _random_slopes(rng, pieces, lo, hi))


def _ray_pair(rng, f_start, g_start, pieces, g_lo, g_hi, f_tail, g_tail):
    """f and g on one ray, with shared breakpoints; g strictly monotone."""
    ws = _widths(rng, pieces, None)
    return ((_walk(f_start, ws, _random_slopes(rng, pieces, -3, 3)), f_tail),
            (_walk(g_start, ws, _random_slopes(rng, pieces, g_lo, g_hi)), g_tail))


def _points_of(curve: dict, f: dict, rng: random.Random) -> list[tuple]:
    """Points for harmonicity queries: a vertex, a breakpoint of f and a point
    between two breakpoints of f, on the first edge."""
    eid, u = curve["edges"][0][:2]
    breaks = f[eid][0]
    k = rng.randrange(1, len(breaks) - 2)
    return [("vertex", u), ("edge", eid, breaks[k][0]),
            ("edge", eid, (breaks[k][0] + breaks[k + 1][0]) / 2)]


def _long_segment(rng):
    pieces, h_pieces = LONG_PIECES["segment"]
    L = Fraction(rng.randint(40, 60), rng.choice((1, 2)))
    curve = {"vertices": [("A", False), ("B", False)], "edges": [("e", "A", "B", L)],
             "ray_classes": {}}
    ws = _widths(rng, pieces, L)
    g = {"e": (_walk(Fraction(0), ws, _random_slopes(rng, pieces, 1, 3)), None)}
    f = {"e": (_walk(Fraction(0), ws, _random_slopes(rng, pieces, -3, 3)), None)}
    h = {"e": (closing_walk(rng, L, _rational(rng, -5, 5), _rational(rng, -5, 5),
                            h_pieces, -4, 4), None)}
    return {"curve": curve, "f": f, "g": g, "h": h,
            "points": _points_of(curve, f, rng)}


def _long_line(rng):
    pieces, h_pieces = LONG_PIECES["line"]
    curve = {"vertices": [("O", False), ("L.inf", True), ("R.inf", True)],
             "edges": [("right", "O", "R.inf", INF), ("left", "O", "L.inf", INF)],
             "ray_classes": {"left": "left", "right": "right"}}
    f, g = {}, {}
    f["left"], g["left"] = _ray_pair(rng, Fraction(0), Fraction(0), pieces, -3, -1,
                                     rng.choice((-2, 1)), -1)
    f["right"], g["right"] = _ray_pair(rng, Fraction(0), Fraction(0), pieces, 1, 3,
                                       rng.choice((-1, 3)), 2)
    h = {"left": (_tail_walk(rng, Fraction(1), h_pieces, -4, 4), rng.choice((-3, 2))),
         "right": (_tail_walk(rng, Fraction(1), h_pieces, -4, 4), rng.choice((-2, 1)))}
    return {"curve": curve, "f": f, "g": g, "h": h,
            "points": _points_of(curve, f, rng)}


def _long_cycle(rng):
    pieces, h_pieces = LONG_PIECES["cycle"]
    L = Fraction(rng.randint(20, 30))
    curve = {"vertices": [("P", False), ("Q", False), ("P.inf", True), ("Q.inf", True)],
             "edges": [("e1", "P", "Q", L), ("e2", "P", "Q", L),
                       ("down", "P", "P.inf", INF), ("up", "Q", "Q.inf", INF)],
             "ray_classes": {"down": "down", "up": "up"}}
    ws = _widths(rng, pieces, L)
    g_edge = _walk(Fraction(0), ws, _random_slopes(rng, pieces, 1, 3))
    f1 = _walk(Fraction(0), ws, _random_slopes(rng, pieces, -3, 3))
    # f on e2: f on e1 plus the tent c * min(t, L - t), with a breakpoint at L/2.
    c = rng.randint(1, 2)
    offsets = sorted({o for o, _ in f1} | {L / 2})
    f2 = [(o, value(f1, None, o) + c * min(o, L - o)) for o in offsets]
    g = {"e1": (g_edge, None), "e2": (g_edge, None)}
    f = {"e1": (f1, None), "e2": (f2, None)}
    f["down"], g["down"] = _ray_pair(rng, Fraction(0), Fraction(0), pieces, -3, -1,
                                     rng.choice((-1, 2)), -2)
    f["up"], g["up"] = _ray_pair(rng, f1[-1][1], g_edge[-1][1], pieces, 1, 3,
                                 rng.choice((-2, 1)), 1)
    hp, hq = _rational(rng, -4, 4), _rational(rng, -4, 4)
    h = {"e1": (closing_walk(rng, L, hp, hq, h_pieces, -4, 4), None),
         "e2": (closing_walk(rng, L, hp, hq, h_pieces, -4, 4), None),
         "down": (_tail_walk(rng, hp, h_pieces, -4, 4), rng.choice((-1, 3))),
         "up": (_tail_walk(rng, hq, h_pieces, -4, 4), rng.choice((-3, 2)))}
    return {"curve": curve, "f": f, "g": g, "h": h,
            "points": _points_of(curve, f, rng)}


# -- small-curves ----------------------------------------------------------------------

SMALL_CURVES = 96


def small_curves(seed: int) -> list[dict]:
    """Small connected curves with loops, parallel edges and rays drawn from
    two ray classes; two class-respecting functions with a few breakpoints per
    edge, a subgraph, a chip-firing length and a vertex to localize at.

    The shape of curve k (vertex count, extra edges, rays, pieces per edge,
    which edges meet the subgraph) follows from k alone, so every seed builds
    the same mix of shapes; the seed draws lengths, values, slopes, endpoints
    and subgraph positions."""
    rng = _rng(seed, "small-curves")
    return [_small_curve(rng, k) for k in range(SMALL_CURVES)]


def _small_curve(rng: random.Random, k: int) -> dict:
    n = 1 + k % 6
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((f"t{i}", names[rng.randrange(i)], names[i], _rational(rng, 1, 6)))
    for j in range(max((k // 6) % 3, 1 if n == 1 else 0)):
        u = rng.choice(names)
        v = u if j % 2 == 0 or n == 1 else rng.choice([x for x in names if x != u])
        edges.append((f"x{j}", u, v, _rational(rng, 1, 6)))
    vertices = [(v, False) for v in names]
    ray_classes = {}
    for j in range((k // 2) % 4):
        rid = f"r{j}"
        vertices.append((f"{rid}.inf", True))
        edges.append((rid, rng.choice(names), f"{rid}.inf", INF))
        ray_classes[rid] = "ab"[j % 2]
    curve = {"vertices": vertices, "edges": edges, "ray_classes": ray_classes}
    f1 = _small_function(rng, curve, k)
    f2 = _small_function(rng, curve, k + 1)

    g_intervals = []
    for i, (eid, _, _, length) in enumerate(edges):
        if (i + k) % 3 == 0:
            if length == INF:
                g_intervals.append((eid, _rational(rng, 1, 4), INF))
            else:
                a, b = sorted(rng.sample(range(1, 8), 2))
                g_intervals.append((eid, length * a / 8, length * b / 8))
    return {"name": f"small{k}", "curve": curve, "f1": f1, "f2": f2,
            "subgraph": {"vertices": rng.sample(names, max(1, n // 2)),
                         "edges": [e[0] for e in edges[: (k // 3) % 2] if e[3] != INF],
                         "intervals": g_intervals},
            "chip_length": _rational(rng, 1, 5),
            "at": rng.choice(names)}


def _small_function(rng: random.Random, curve: dict, k: int) -> dict:
    values = {v: _rational(rng, -4, 4) for v, at_inf in curve["vertices"] if not at_inf}
    tails = {"a": rng.randint(-2, 2), "b": rng.randint(-2, 2)}
    data = {}
    for i, (eid, u, v, length) in enumerate(curve["edges"]):
        pieces = 1 + (i + k) % 3
        if length == INF:
            data[eid] = (_tail_walk(rng, values[u], pieces - 1, -2, 2),
                         tails[curve["ray_classes"][eid]])
        else:
            data[eid] = (closing_walk(rng, length, values[u], values[v], pieces, -2, 2), None)
    return data


# -- plane-curves ----------------------------------------------------------------------

PLANE_PAIRS = 12


def plane_curves(seed: int) -> list[dict]:
    """Pairs of plane polynomials: the first with 4-6 terms (so its curve has at
    most 3*6 - 3 = 15 edges and can be fitted), the second with 5-8 terms.

    The exponents of pair k follow from k alone: 4 + k % 3 and 5 + 3k % 4
    terms in a box of side 4 and 5, never all collinear.  The seed draws the
    coefficients: -(i^2 + j^2) for exponent (i, j) plus a nudge of at most 5/24.
    The strictly concave lift keeps every term on the upper hull, so the size
    of each curve is the same for every seed, and the nudges pick the diagonal
    of each unit square."""
    rng = _rng(seed, "plane-curves")
    return [{"name": f"plane{k}",
             "F1": nudged(rng, exponents(f"{k}:1", 4 + k % 3, 4)),
             "F2": nudged(rng, exponents(f"{k}:2", 5 + 3 * k % 4, 5)),
             "shift": (Fraction(1, PLANE_SHIFT_PRIME), Fraction(1, PLANE_SHIFT_PRIME ** 2))}
            for k in range(PLANE_PAIRS)]


def exponents(shape: str, terms: int, side: int) -> list[tuple[int, int]]:
    """``terms`` distinct exponents in [0, side]^2, not all collinear, fixed by ``shape``."""
    rng = random.Random(f"plane-shape:{shape}")
    cells = [(i, j) for i in range(side + 1) for j in range(side + 1)]
    while True:
        exps = rng.sample(cells, terms)
        (x0, y0), (x1, y1) = exps[0], exps[1]
        if any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in exps[2:]):
            return sorted(exps)


def nudged(rng: random.Random, exps) -> dict:
    return {e: -(e[0] ** 2 + e[1] ** 2) + Fraction(rng.randint(-5, 5), 24) for e in exps}


GENERATORS = {"long-profiles": long_profiles, "small-curves": small_curves,
              "plane-curves": plane_curves}
