"""Weighted one-dimensional rational polyhedral complexes and their invariants."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .curve import connected_groups
from .errors import NonTransversalError, TropError
from .geometry import IVec, Vec, dot, edge_intersection, on_edge, parallel, primitive, vadd, vsub
from .semifield import _EXACT, _INT, _inexact, common_scale, integer, least_scale, on_scale, rat


def _coerce_point(p: Sequence, dim: int) -> Vec:
    q = tuple(rat(x) for x in p)
    if len(q) != dim:
        raise TropError(f"point {p} has dimension {len(q)}, expected {dim}")
    return q


def _fmt(p: Sequence) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def _unscaled(num: Sequence[int], den: int) -> Vec:
    return tuple(Fraction(x, den) for x in num)


def _int_edges(k: "PolyComplex1D", P: Sequence[IVec], L: int) -> list[tuple]:
    """k's edges ("seg", p, q) and ("ray", base, direction) on the vertices P = L * k.vertices.

    Ray directions are scaled by L too, so a point keeps its parameter along
    every edge and an overlap witness is L times the rational one.
    """
    return ([("seg", P[i], P[j]) for i, j, _ in k.segments]
            + [("ray", P[i], tuple(L * x for x in d)) for i, d, _ in k.rays])


@dataclass(frozen=True)
class PolyComplex1D:
    """Vertices plus weighted segments and rays with primitive directions.

    Two edges may meet only at a vertex that is an endpoint of both, and a
    vertex that no edge uses lies on no edge; weights are positive integers;
    ray directions are primitive integer vectors of length ``dim``.

    Every constructor validates all of this except ``_trusted``, and the
    fields' types too: ``dim`` is a positive ``int``, coordinates are
    ``Fraction``s or ``int``s, and indices, weights and direction components
    are ``int``s; a ``bool`` or a float is none of these.
    """

    dim: int
    vertices: tuple[Vec, ...]
    segments: tuple[tuple[int, int, int], ...]
    rays: tuple[tuple[int, IVec, int], ...]

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise TropError(f"dimension must be a positive integer, got {self.dim!r}")
        for v in self.vertices:
            if len(v) != self.dim:
                raise TropError(f"vertex {v} has wrong dimension")
            if not _EXACT.issuperset(map(type, v)):
                raise _inexact(next(x for x in v if type(x) not in _EXACT))
        L, P = on_scale(self.vertices)
        seen = set()
        for v, p in zip(self.vertices, P):
            if p in seen:
                raise TropError(f"duplicate vertex {v}")
            seen.add(p)
        nv = len(self.vertices)
        for i, j, w in self.segments:
            if not _INT.issuperset(map(type, (i, j, w))):
                raise TropError(f"segment fields must be integers, got {(i, j, w)!r}")
            if not (0 <= i < nv and 0 <= j < nv):
                raise TropError("segment endpoint index out of range")
            if i == j:
                raise TropError("degenerate segment")
            if w <= 0:
                raise TropError("weights must be positive")
        for i, d, w in self.rays:
            if type(i) is not int or type(w) is not int or not _INT.issuperset(map(type, d)):
                raise TropError(f"ray fields must be integers, got {(i, d, w)!r}")
            if not 0 <= i < nv:
                raise TropError("ray base index out of range")
            if len(d) != self.dim:
                raise TropError(f"ray direction {d} has dimension {len(d)}, expected {self.dim}")
            if w <= 0:
                raise TropError("weights must be positive")
            if gcd(*d) != 1:
                raise TropError(f"ray direction {d} is not primitive")
        self._check_complex_property(P, L)

    @staticmethod
    def of(dim: int, vertices: Iterable[Sequence], segments: Iterable[Sequence] = (),
           rays: Iterable[Sequence] = ()) -> "PolyComplex1D":
        dim = integer(dim, "dimension")
        vs = tuple(_coerce_point(v, dim) for v in vertices)
        segs = tuple((integer(i, "segment endpoint"), integer(j, "segment endpoint"),
                      integer(w, "weight")) for i, j, w in segments)
        rs = tuple((integer(i, "ray base"), tuple(integer(c, "ray direction component") for c in d),
                    integer(w, "weight")) for i, d, w in rays)
        return PolyComplex1D(dim, vs, segs, rs)

    @classmethod
    def _trusted(cls, dim: int, vertices: tuple[Vec, ...], segments: tuple, rays: tuple):
        """The complex with these fields, unchecked.

        Use it only for a result that is a complex by construction:
        ``translate`` (translation keeps every meeting); ``canonical`` (the
        one edge of a chain through straight vertices covers the points its
        edges covered, and it meets another chain's edge only at a kept
        vertex, an end of both; a line's chain meets no other chain, so its
        anchor is an end of its two rays and of nothing else);
        ``plane_hypersurface`` (a walk over the cells dual to the regular
        subdivision of the Newton polygon, exact on one integer scale, the
        lcm of the coefficients' denominators, so two cells meet only at a
        vertex of both; its selftest suite rebuilds each result through the
        validating constructor).
        """
        k = object.__new__(cls)
        for name, value in (("dim", dim), ("vertices", vertices),
                            ("segments", segments), ("rays", rays)):
            object.__setattr__(k, name, value)
        return k

    # -- basic queries ---------------------------------------------------

    def edge_count(self) -> int:
        return len(self.segments) + len(self.rays)

    def contains(self, p: Sequence) -> bool:
        L, (*P, q) = on_scale((*self.vertices, _coerce_point(p, self.dim)))
        return q in P or any(on_edge(*e, q) for e in _int_edges(self, P, L))

    def is_connected(self) -> bool:
        return len(connected_groups(range(len(self.vertices)),
                                    [(i, j) for i, j, _ in self.segments])) <= 1

    def translate(self, offset: Sequence) -> "PolyComplex1D":
        off = _coerce_point(offset, self.dim)
        return PolyComplex1D._trusted(self.dim, tuple(vadd(v, off) for v in self.vertices),
                                      self.segments, self.rays)

    def _check_complex_property(self, P: Sequence[IVec], L: int):
        """Edges meet only at shared endpoints; unused vertices lie on no edge.

        P holds the vertices times their least common denominator L
        (``on_scale``).  Only pairs whose boxes meet are tested exactly, edge
        pairs first and then unused vertices, each in sorted index order, so
        the first error is the one an all-pairs loop over the same order
        would raise.
        """
        edges = _int_edges(self, P, L)
        if not edges:
            return
        used = {x for i, j, _ in self.segments for x in (i, j)} | {i for i, _, _ in self.rays}
        loose = [v for v in range(len(P)) if v not in used]
        boxes = [_box(*e) for e in edges]
        boxes += [tuple((x, x) for x in P[v]) for v in loose]
        axis = max(range(self.dim), key=lambda k: max(p[k] for p in P) - min(p[k] for p in P))
        n = len(edges)
        pairs, hits = [], []
        for a, b in _box_candidates(boxes, axis):
            if b < n:
                pairs.append((a, b))
            elif a < n:
                hits.append((loose[b - n], a))
        for a, b in sorted(pairs):
            res = edge_intersection(*edges[a], *edges[b])
            if res[0] == "none":
                continue
            if res[0] == "overlap":
                raise TropError(f"edges {a} and {b} overlap: not a complex")
            if not (res[3] and res[4]):
                raise TropError(f"edges {a} and {b} meet at {_fmt(_unscaled(res[1], res[2] * L))}, "
                                f"which is not an endpoint of both")
        for v, e in sorted(hits):
            if on_edge(*edges[e], P[v]):
                raise TropError(f"vertex {v} at {_fmt(self.vertices[v])} lies inside edge {e}")

    # -- canonical form --------------------------------------------------

    def canonical(self) -> "PolyComplex1D":
        """Dissolve straight vertices, re-anchor full lines, sort.

        Each chain of edges through straight vertices (``_straight``) becomes
        one segment or one ray, and a chain with a ray at each end becomes a
        line: two opposite rays from its ``line_anchor``.  Two complexes with
        the same weighted support have equal canonical forms, which makes
        support equality a structural comparison.  The work runs on the
        vertices times their scale (``on_scale``); a vertex that survives
        keeps its original coordinates.  It is built once and kept outside the
        fields, like ``Subgraph.as_curve``'s cut; a canonical form is its own.
        """
        if "_canonical" in self.__dict__:
            return self.__dict__["_canonical"]
        L, P = on_scale(self.vertices)
        straight = _straight(self, P)
        # Edges as (end, far end or None for a ray, weight); rays after segments.
        nseg = len(self.segments)
        edges = list(self.segments) + [(i, None, w) for i, _, w in self.rays]
        at: list[list[int]] = [[] for _ in P]
        for e, (i, j, _) in enumerate(edges):
            at[i].append(e)
            if j is not None:
                at[j].append(e)
        done = [False] * len(edges)

        def walk(v: int, e: int) -> tuple[int | None, int]:
            """From vertex v along edge e through straight vertices: the
            chain's far vertex, or None past a ray, and its last edge."""
            while True:
                done[e] = True
                i, j, _ = edges[e]
                if j is None:
                    return None, e
                v = j if i == v else i
                if v not in straight:
                    return v, e
                a, b = at[v]
                e = b if a == e else a

        segs, rays = [], []
        for v, es in enumerate(at):
            if v in straight:
                continue
            for e in es:
                if not done[e]:
                    u, last = walk(v, e)
                    w = edges[e][2]
                    if u is None:
                        rays.append((P[v], self.rays[last - nseg][1], w))
                    else:
                        segs.append((min(P[v], P[u]), max(P[v], P[u]), w))
        # What is left are lines: chains whose every vertex is straight.
        for e, (v, d, w) in enumerate(self.rays, nseg):
            if not done[e]:
                a, b = at[v]
                walk(v, b if a == e else a)
                anchor = line_anchor(P[v], d)  # may leave the lattice: Fractions
                rays += [(anchor, d, w), (anchor, tuple(-x for x in d), w)]

        points = sorted({p for a, b, _ in segs for p in (a, b)}
                        | {base for base, _, _ in rays}
                        | {P[i] for i, es in enumerate(at) if not es})
        remap = {p: i for i, p in enumerate(points)}
        seg_idx = sorted((remap[a], remap[b], w) for a, b, w in segs)
        ray_idx = sorted((remap[base], d, w) for base, d, w in rays)
        original = dict(zip(P, self.vertices))
        vertices = tuple(original[p] if p in original else _unscaled(p, L) for p in points)
        made = PolyComplex1D._trusted(self.dim, vertices, tuple(seg_idx), tuple(ray_idx))
        made.__dict__["_canonical"] = self.__dict__["_canonical"] = made
        return made


def _straight(k: PolyComplex1D, P: Sequence[IVec]) -> dict[int, IVec]:
    """The straight vertices of k: two edges of one weight w leave each in
    opposite directions.  Maps each one's index to w times the primitive
    direction of its first edge; P holds the vertices on their scale
    (``on_scale``).

    Merging the two edges at a straight vertex leaves every other vertex's
    directions and weights as they were, so straightness is decided once.
    """
    ends: dict[int, list[tuple[IVec, int]]] = {}
    for i, j, w in k.segments:
        ends.setdefault(i, []).append((vsub(P[j], P[i]), w))
        ends.setdefault(j, []).append((vsub(P[i], P[j]), w))
    for i, d, w in k.rays:
        ends.setdefault(i, []).append((d, w))
    out = {}
    for i, two in ends.items():
        if len(two) == 2:
            (d1, w1), (d2, w2) = two
            if w1 == w2 and parallel(d1, d2) and dot(d1, d2) < 0:
                out[i] = primitive(d1, w1)
    return out


def _box(kind: str, p: Sequence, q: Sequence) -> tuple:
    """Per coordinate, the (lo, hi) extent of an edge; None on a ray's unbounded side."""
    if kind == "seg":
        return tuple((a, b) if a <= b else (b, a) for a, b in zip(p, q))
    return tuple((c, None) if s > 0 else (None, c) if s < 0 else (c, c) for c, s in zip(p, q))


def _boxes_meet(A: tuple, B: tuple) -> bool:
    for (lo1, hi1), (lo2, hi2) in zip(A, B):
        if hi1 is not None and lo2 is not None and hi1 < lo2:
            return False
        if hi2 is not None and lo1 is not None and hi2 < lo1:
            return False
    return True


def _box_candidates(boxes: Sequence[tuple], axis: int) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of meeting boxes, by a sweep along one coordinate.

    Boxes enter in order of their low end on the axis and leave once the
    sweep passes their high end, so only boxes overlapping on the axis are
    compared in full.
    """
    order = sorted(range(len(boxes)),
                   key=lambda k: (boxes[k][axis][0] is not None, boxes[k][axis][0] or 0))
    active: dict[int, tuple] = {}
    leaving: list = []  # heap of (high end on the axis, index)
    out = []
    for k in order:
        box = boxes[k]
        lo, hi = box[axis]
        while leaving and lo is not None and leaving[0][0] < lo:
            del active[heapq.heappop(leaving)[1]]
        out.extend((min(a, k), max(a, k)) for a, other in active.items()
                   if _boxes_meet(other, box))
        active[k] = box
        if hi is not None:
            heapq.heappush(leaving, (hi, k))
    return out


def line_anchor(base: Sequence, d: Sequence) -> Vec:
    """Deterministic anchor of the line through base with direction d.

    Zeroes the first coordinate in which d is nonzero.  Exact for integer
    and rational coordinates alike; the anchor's coordinates are Fractions.
    """
    for x, y in zip(base, d):
        if y != 0:
            t = Fraction(x, y)
            return tuple(b - c * t for b, c in zip(base, d))
    raise TropError("zero direction")


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    defects: tuple[tuple[int, IVec], ...]  # vertex index -> weighted direction sum


def check_balanced(complex_: PolyComplex1D) -> BalanceReport:
    """Sum weight * primitive outgoing direction at every vertex, exactly."""
    _, P = on_scale(complex_.vertices)
    sums = [[0] * complex_.dim for _ in P]
    for i, j, w in complex_.segments:
        d = primitive(vsub(P[j], P[i]), w)
        for k in range(complex_.dim):
            sums[i][k] += d[k]
            sums[j][k] -= d[k]
    for i, d, w in complex_.rays:
        for k in range(complex_.dim):
            sums[i][k] += w * d[k]
    defects = tuple((i, tuple(s)) for i, s in enumerate(sums))
    balanced = all(all(x == 0 for x in s) for _, s in defects)
    return BalanceReport(balanced, defects)


@dataclass(frozen=True)
class IntersectionPoint:
    point: Vec
    multiplicity: int


def intersect(k1: PolyComplex1D, k2: PolyComplex1D) -> tuple[IntersectionPoint, ...]:
    """All transversal intersection points of two plane complexes.

    Any point violating transversality (a vertex hit, or an overlap along
    a common line) raises NonTransversalError naming the point and the
    failed condition.  Both canonical forms are tested on the integer
    points of one common scale.
    """
    if k1.dim != 2 or k2.dim != 2:
        raise TropError("plane intersection requires dimension 2")
    a = k1.canonical()
    b = k2.canonical()
    L, (A, B) = common_scale(on_scale(a.vertices), on_scale(b.vertices))
    a_through = {A[i]: d for i, d in _straight(a, A).items()}
    b_through = {B[i]: d for i, d in _straight(b, B).items()}
    b_edges = _plane_edges(b, B, L)
    found: dict[tuple, int] = {}  # (den, (num,)) in least terms -> multiplicity
    for ea, sa, box in _plane_edges(a, A, L):
        for eb, sb, other in b_edges:
            if not _boxes_meet(box, other):
                continue
            res = edge_intersection(*ea, *eb)
            if res[0] == "none":
                continue
            if res[0] == "overlap":
                raise NonTransversalError(_unscaled(res[1], res[2] * L), 4,
                                          "the two edges overlap along a common line")
            _, num, den, at_end_a, at_end_b = res
            key = least_scale(den, (num,))
            # A vertex met by an edge of a complex is an endpoint of that edge,
            # and an integer point, whose key is (1, (point,)).
            point = key[1][0]
            da, db = sa, sb
            if at_end_a:
                if point not in a_through:
                    raise NonTransversalError(
                        _unscaled(num, den * L), 2,
                        "intersection at a vertex is not two-valent on both sides")
                da = a_through[point]
            if at_end_b:
                if point not in b_through:
                    raise NonTransversalError(
                        _unscaled(num, den * L), 2,
                        "intersection at a vertex is not two-valent on both sides")
                db = b_through[point]
            # da and db are independent: a collinear touch at ends is a line
            # anchor of both canonical forms, whose rays sort alike, so their
            # overlap was raised first.  A point on two edges is a straight
            # vertex, met with one direction, so its multiplicity is unique.
            found[key] = abs(da[0] * db[1] - da[1] * db[0])
    _, rows = common_scale(*found)  # the points on one scale, which sorts them
    return tuple(IntersectionPoint(_unscaled(num, den * L), found[den, (num,)])
                 for _, (den, (num,)) in sorted(zip(rows, found)))


def _plane_edges(k: PolyComplex1D, P: Sequence[IVec], L: int) -> list[tuple]:
    """(edge, weight times primitive direction, box) per edge of ``_int_edges(k, P, L)``."""
    weights = [w for *_, w in k.segments] + [w for *_, w in k.rays]
    return [(e, primitive(vsub(e[2], e[1]) if e[0] == "seg" else e[2], w), _box(*e))
            for e, w in zip(_int_edges(k, P, L), weights)]
