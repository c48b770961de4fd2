"""Plane tropical hypersurfaces of two-variable Laurent polynomials."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .complexes import PolyComplex1D
from .errors import TropError
from .semifield import TropPoly, least_scale, on_scale, rat


def plane_hypersurface(F: TropPoly, window: Sequence | None = None) -> PolyComplex1D:
    """The locus where at least two terms attain the maximum, with weights.

    The curve is dual to the regular subdivision of the Newton polygon, and
    an edge's weight is the lattice length of its dual edge.  The work is on
    integers: the curve of D·F, D the lcm of the coefficients' denominators,
    is D times the curve of F.  Collinear exponents p + s·u give parallel
    lines, one per upper hull edge of the lifted points (s, c), of weight
    the difference in s.  Otherwise at most two moves from the origin reach
    a vertex, and a walk visits every vertex: at each, a counterclockwise
    edge g of the polygon of the terms maximal there leaves along
    (g[1], -g[0]) / gcd(g) with weight gcd(g), up to where ``_step`` finds
    a faster term catching up, or as a ray.  A two-dimensional polygon
    gives a connected curve in which every edge meets a vertex, so the walk
    reaches every cell.  The result is a complex by duality, built
    unchecked.  A window, when given, must contain every vertex.
    """
    if F.nvars != 2:
        raise TropError("hypersurface construction implemented for two variables")
    terms = list(F.terms)
    if len(terms) <= 1:
        raise TropError("empty hypersurface: the polynomial is a monomial or -inf")
    if len(terms) > 32:
        raise TropError("more than 32 terms; out of the supported desk scale")

    exps, coefs = zip(*terms)
    D, (scaled,) = on_scale((coefs,))
    T = list(zip(exps, scaled))
    hull = _hull([e for e, _ in T])
    points, segments, rays = _lines(T, *hull) if len(hull) == 2 else _walk(T)
    vertices = tuple((Fraction(X, q * D), Fraction(Y, q * D)) for X, Y, q in points)
    out = PolyComplex1D._trusted(2, vertices, tuple(segments), tuple(rays))
    if window is not None:
        (x0, y0), (x1, y1) = window
        x0, y0, x1, y1 = rat(x0), rat(y0), rat(x1), rat(y1)
        for v in out.vertices:
            if not (x0 <= v[0] <= x1 and y0 <= v[1] <= y1):
                raise TropError(f"window too small: vertex ({v[0]}, {v[1]}) escapes it")
    return out


def _lines(T, a, b):
    """Exponents a + s·u: one line per upper hull edge of (s, c), at its ``line_anchor``."""
    w = gcd(b[0] - a[0], b[1] - a[1])
    u = ((b[0] - a[0]) // w, (b[1] - a[1]) // w)
    lifted = [(((e[0] - a[0]) * u[0] + (e[1] - a[1]) * u[1]) // (u[0] ** 2 + u[1] ** 2), c)
              for e, c in T]
    d = max((-u[1], u[0]), (u[1], -u[0]))
    points, rays = [], []
    hull = _hull(lifted)
    cw = hull[:1] + hull[:0:-1]  # clockwise: the upper hull edges first, left to right
    for (s0, c0), (s1, c1) in zip(cw, cw[1:] + cw[:1]):
        if s0 < s1:  # an upper hull edge: the line u·x = (c0 - c1) / ((s1 - s0) D)
            z, m = c0 - c1, s1 - s0
            points.append((0, z, m * u[1]) if u[1] else (z, 0, m * u[0]))
            rays += [(len(points) - 1, d, m), (len(points) - 1, (-d[0], -d[1]), m)]
    return points, [], rays


def _walk(T):
    """Vertices as reduced (X, Y, q) for (X/q, Y/q), segments and rays of a 2-D support."""
    P = (0, 0, 1)
    while len(H := _hull(_top(T, P)[2])) < 3:  # inside a region, then on an edge
        if len(H) == 1:
            d = next((e[0] - H[0][0], e[1] - H[0][1]) for e, _ in T if e != H[0])
        else:
            d = (H[1][1] - H[0][1], H[0][0] - H[1][0])
        P = _step(T, P, d) or _step(T, P, (-d[0], -d[1]))
    points, index, segments, rays = [P], {P: 0}, [], []
    for i, P in enumerate(points):  # points grows as the walk finds vertices
        H = _hull(_top(T, P)[2])
        for a, b in zip(H, H[1:] + H[:1]):
            w = gcd(b[0] - a[0], b[1] - a[1])
            d = ((b[1] - a[1]) // w, (a[0] - b[0]) // w)
            Q = _step(T, P, d)
            if Q is None:
                rays.append((i, d, w))
                continue
            j = index.setdefault(Q, len(points))
            if j == len(points):
                points.append(Q)
            if j > i:  # else found from Q already
                segments.append((i, j, w))
    return points, segments, rays


def _top(T, P):
    """The values at P (times P's q), their maximum, and the exponents attaining it."""
    X, Y, q = P
    vals = [q * c + e[0] * X + e[1] * Y for e, c in T]
    top = max(vals)
    return vals, top, [e for (e, _), v in zip(T, vals) if v == top]


def _step(T, P, d):
    """The first P + t·d, t > 0, where a term rising faster along d catches up, or None."""
    vals, top, M = _top(T, P)
    s = max(e[0] * d[0] + e[1] * d[1] for e in M)
    n, r = 0, 0  # the earliest catch-up so far is at t = n / (q r)
    for (e, _), v in zip(T, vals):
        rate = e[0] * d[0] + e[1] * d[1] - s
        if rate > 0 and (r == 0 or (top - v) * r < n * rate):
            n, r = top - v, rate
    if r == 0:
        return None
    X, Y, q = P
    q, ((X, Y),) = least_scale(r * q, ((r * X + n * d[0], r * Y + n * d[1]),))
    return X, Y, q


def _hull(points):
    """The hull's corners, counterclockwise from the least point; collinear points dropped."""
    pts = sorted(points)
    if len(pts) < 3:
        return pts
    corners = []
    for seq in (pts, pts[::-1]):  # the lower chain, then the upper
        chain = []
        for p in seq:
            while len(chain) > 1 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                      - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                chain.pop()
            chain.append(p)
        corners += chain[:-1]
    return corners
