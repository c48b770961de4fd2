"""Seeded random instances for sampled verification.

Germs, curves, subgraphs, functions, plane polynomials and libraries of
connected plane curves; every sampled check in ``selftest`` and the tests
draws from here.  The library itself decides by exact equality and does
not import this module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import PolyComplex1D
from .curve import INF, Curve, PointRef
from .errors import InternalError, TropError
from .hypersurface import plane_hypersurface
from .plfunction import PLFunction, chip_fire
from .semifield import Germ, TropPoly
from .subgraph import Subgraph, make_subgraph, point_subgraph

MAX_EXTRA_EDGES = 2  # a random curve's edges beyond its spanning tree, at most
MAX_RAYS = 3
LINE_POLY = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0})
DOUBLE_LINE_POLY = TropPoly.of(2, {(0, 0): 0, (2, 0): 0})
CONIC_POLY = TropPoly.of(2, {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3, (2, 0): 1, (0, 2): 1})


def random_rational(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_germ(rng: random.Random, n: int) -> Germ:
    """A rank-n germ; one in ten is the zero germ."""
    if rng.random() < 0.1:
        return Germ.zero(n)
    return Germ(n, random_rational(rng), tuple(rng.randint(-6, 6) for _ in range(n)))


def random_plane_poly(rng: random.Random) -> TropPoly:
    """Two to six terms with exponents in [0, 3]^2; repeated exponents may leave a monomial."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(
            rng.randint(-6, 6), rng.randint(1, 3))
    return TropPoly.of(2, terms)


def complex_library(rng: random.Random, size: int) -> list[PolyComplex1D]:
    """The line, the double line and a conic, then random connected plane curves up to size."""
    out = [plane_hypersurface(F) for F in (LINE_POLY, DOUBLE_LINE_POLY, CONIC_POLY)]
    while len(out) < size:
        try:
            K = plane_hypersurface(random_plane_poly(rng))
        except TropError:
            continue  # a monomial has no hypersurface
        if K.is_connected():
            out.append(K)
    return out


def random_curve(rng: random.Random, share_ray_classes: bool = True) -> Curve:
    """A small random connected curve: a tree plus extra edges plus rays."""
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    counter = 0
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{counter}", vertices[j], vertices[i],
                      Fraction(rng.randint(1, 6), rng.randint(1, 3))))
        counter += 1
    for _ in range(rng.randint(0, MAX_EXTRA_EDGES)):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.append((f"e{counter}", vertices[i], vertices[j],
                      Fraction(rng.randint(1, 6), rng.randint(1, 3))))
        counter += 1
    ray_classes = {}
    labels = ["p", "q", "r"]
    for k in range(rng.randint(0, MAX_RAYS)):
        base = vertices[rng.randrange(n)]
        rid = f"L{k}"
        edges.append((rid, base, None, INF))
        if share_ray_classes:
            ray_classes[rid] = rng.choice(labels)
        else:
            ray_classes[rid] = f"c{k}"
    return Curve.build(vertices=vertices, edges=edges, ray_classes=ray_classes)


def random_point(c: Curve, rng: random.Random, finite: bool = True) -> PointRef:
    choices = []
    for v in c.vertices.values():
        if finite and v.at_infinity:
            continue
        choices.append(c.pt_vertex(v.id))
    for e in c.edges.values():
        hi = 4 if e.is_infinite else e.length
        t = hi * Fraction(rng.randint(1, 5), 6)
        choices.append(c.pt_on_edge(e.id, t))
    return rng.choice(choices)


def random_subgraph(c: Curve, rng: random.Random) -> Subgraph:
    """A random nonempty subgraph avoiding lone points at infinity."""
    for _ in range(40):
        vertices = []
        edges = []
        intervals = []
        for v in c.vertices.values():
            if not v.at_infinity and rng.random() < 0.3:
                vertices.append(v.id)
        for e in c.edges.values():
            roll = rng.random()
            if roll < 0.3:
                edges.append(e.id)
            elif roll < 0.55:
                hi = 4 if e.is_infinite else e.length
                a = hi * Fraction(rng.randint(0, 3), 6)
                b = hi * Fraction(rng.randint(3, 6), 6)
                if e.is_infinite and rng.random() < 0.3:
                    intervals.append((e.id, a, INF))
                else:
                    intervals.append((e.id, min(a, b), max(a, b)))
        try:
            g = make_subgraph(c, vertices=vertices, edges=edges, intervals=intervals)
        except TropError:
            continue
        if not g.is_empty():
            return g
    return point_subgraph(c, random_point(c, rng))


def random_function(c: Curve, rng: random.Random, allow_neg_inf: bool = False) -> PLFunction:
    """A random member of the function semifield built from chip firings.

    Combinations of chip firings, constants, products, sums, and inverses
    reach a wide range of slopes and breakpoints while staying exact.
    """
    if allow_neg_inf and rng.random() < 0.05:
        return PLFunction.neg_inf(c)

    def atom() -> PLFunction:
        if rng.random() < 0.25:
            return PLFunction.constant(c, random_rational(rng))
        g = random_subgraph(c, rng)
        l = INF if rng.random() < 0.2 else Fraction(rng.randint(1, 5), rng.randint(1, 2))
        f = chip_fire(c, g, l)
        if rng.random() < 0.4:
            f = f.inv()
        if rng.random() < 0.4:
            f = f.scale(random_rational(rng))
        return f

    f = atom()
    for _ in range(rng.randint(0, 3)):
        op = rng.random()
        other = atom()
        if op < 0.45:
            f = f.add(other)
        elif op < 0.9:
            f = f.mul(other)
        else:
            f = f.pow(rng.choice([-1, 2]))
    return f


def random_class_respecting_function(c: Curve, rng: random.Random) -> PLFunction:
    """A random function with equal slopes at infinity inside every ray class.

    Built from chip firings over class-closed subgraphs, so it always lies
    in the parallel-ray function semifield.
    """
    by_label: dict[str, list[str]] = {}
    for eid, label in c.ray_classes.items():
        by_label.setdefault(label, []).append(eid)

    def atom() -> PLFunction:
        kind = rng.random()
        if kind < 0.3:
            return PLFunction.constant(c, random_rational(rng))
        if kind < 0.6 and by_label:
            # All rays of some classes, pushed to infinity together.
            labels = [l for l in by_label if rng.random() < 0.6] or [next(iter(by_label))]
            edges = [eid for l in labels for eid in by_label[l]]
            g = make_subgraph(c, edges=edges)
            return chip_fire(c, g, INF if rng.random() < 0.5 else Fraction(rng.randint(1, 4)))
        # A bounded subgraph: every slope at infinity is zero.
        for _ in range(30):
            g = random_subgraph(c, rng)
            if all(hi is not INF for _, ivs in g.intervals for _, hi in ivs) \
                    and not any(c.vertices[v].at_infinity for v in g.vertices):
                return chip_fire(c, g, Fraction(rng.randint(1, 4)))
        return PLFunction.constant(c, 0)

    f = atom()
    for _ in range(rng.randint(0, 2)):
        other = atom()
        f = f.add(other) if rng.random() < 0.5 else f.mul(other)
    ok, _ = f.respects_ray_classes()
    if not ok:
        raise InternalError("class-respecting generator broke the classes")
    return f
