"""Weighted one-dimensional rational polyhedral complexes and their invariants."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .curve import connected_groups
from .errors import NonTransversalError, TropError
from .geometry import IVec, Vec, dot, edge_intersection, ivec_gcd, on_edge, parallel, vadd, vsub
from .semifield import integer, rat


def _coerce_point(p: Sequence, dim: int) -> Vec:
    q = tuple(rat(x) for x in p)
    if len(q) != dim:
        raise TropError(f"point {p} has dimension {len(q)}, expected {dim}")
    return q


def _fmt(p: Sequence) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def _on_integers(*groups: Sequence[Sequence]) -> tuple[int, list[list[IVec]]]:
    """One scale L > 0, the lcm of every coordinate's denominator, and each
    group of rational points multiplied by it.

    Multiplying by L keeps order, equality and collinearity, so every
    predicate in this module decides exactly on the integer points.
    """
    ratios = [[[x.as_integer_ratio() for x in p] for p in g] for g in groups]
    L = lcm(*(d for g in ratios for p in g for _, d in p))
    return L, [[tuple(n * (L // d) for n, d in p) for p in g] for g in ratios]


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

    Every constructor validates all of this except ``_trusted``.
    """

    dim: int
    vertices: tuple[Vec, ...]
    segments: tuple[tuple[int, int, int], ...]
    rays: tuple[tuple[int, IVec, int], ...]

    def __post_init__(self):
        for v in self.vertices:
            if len(v) != self.dim:
                raise TropError(f"vertex {v} has wrong dimension")
        L, (P,) = _on_integers(self.vertices)
        seen = set()
        for v, p in zip(self.vertices, P):
            if p in seen:
                raise TropError(f"duplicate vertex {v}")
            seen.add(p)
        nv = len(self.vertices)
        for i, j, w in self.segments:
            if not (0 <= i < nv and 0 <= j < nv):
                raise TropError("segment endpoint index out of range")
            if i == j:
                raise TropError("degenerate segment")
            if w <= 0:
                raise TropError("weights must be positive")
        for i, d, w in self.rays:
            if not 0 <= i < nv:
                raise TropError("ray base index out of range")
            if len(d) != self.dim:
                raise TropError(f"ray direction {d} has dimension {len(d)}, expected {self.dim}")
            if w <= 0:
                raise TropError("weights must be positive")
            if ivec_gcd(d) != 1:
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
        ``translate`` (translation keeps every meeting); ``canonical``
        (merging a straight 2-valent vertex or re-anchoring a line touches
        nothing another edge meets); ``plane_hypersurface`` (a walk over the
        cells dual to the regular subdivision of the Newton polygon, exact
        on one integer scale, the lcm of the coefficients' denominators, so
        two cells meet only at a vertex of both; its selftest suite rebuilds
        each result through the validating constructor).
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
        L, (P, (q,)) = _on_integers(self.vertices, [_coerce_point(p, self.dim)])
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

        P holds the vertices times the scale L of ``_on_integers``.  Only
        pairs whose boxes meet are tested exactly, edge pairs first and then
        unused vertices, each in sorted index order, so the first error is
        the one an all-pairs loop over the same order would raise.
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
        """Dissolve straight 2-valent vertices, re-anchor full lines, sort.

        Two complexes with the same weighted support have equal canonical
        forms, which makes support equality a structural comparison.  The
        work runs on the vertices times the scale of ``_on_integers``; a
        vertex that survives keeps its original coordinates.
        """
        L, (P,) = _on_integers(self.vertices)
        used = set()
        for i, j, _ in self.segments:
            used.update((i, j))
        for i, _, _ in self.rays:
            used.add(i)
        isolated = [P[i] for i in range(len(P)) if i not in used]

        # Mutable edge soup: ("seg", p, q, w) / ("ray", base, d, w) / ("line", base, d, w).
        edges = ([("seg", P[i], P[j], w) for i, j, w in self.segments]
                 + [("ray", P[i], d, w) for i, d, w in self.rays])
        changed = True
        while changed:
            changed = False
            incident: dict[IVec, list[int]] = {}
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
                d1 = self._dir_away(e1, v)
                d2 = self._dir_away(e2, v)
                if d1 is None or d2 is None:
                    continue
                if not (parallel(d1, d2) and dot(d1, d2) < 0):
                    continue
                for idx in sorted(idxs, reverse=True):
                    edges.pop(idx)
                edges.append(self._merge_at(e1, e2, v))
                changed = True
                break

        segs = []
        rays = []
        for e in edges:
            if e[0] == "seg":
                a, b = sorted((e[1], e[2]))
                segs.append((a, b, e[3]))
            elif e[0] == "ray":
                rays.append((e[1], e[2], e[3]))
            else:  # full line through base with primitive direction d
                base, dpos, w = e[1], e[2], e[3]
                anchor = line_anchor(base, dpos)  # may leave the lattice: Fractions
                dneg = tuple(-x for x in dpos)
                if dneg < dpos:
                    dpos, dneg = dneg, dpos
                rays.append((anchor, dpos, w))
                rays.append((anchor, dneg, w))

        points = sorted({p for a, b, _ in segs for p in (a, b)}
                        | {base for base, _, _ in rays}
                        | set(isolated))
        remap = {p: i for i, p in enumerate(points)}
        seg_idx = sorted((min(remap[a], remap[b]), max(remap[a], remap[b]), w) for a, b, w in segs)
        ray_idx = sorted((remap[base], d, w) for base, d, w in rays)
        original = dict(zip(P, self.vertices))
        vertices = tuple(original[p] if p in original else _unscaled(p, L) for p in points)
        return PolyComplex1D._trusted(self.dim, vertices, tuple(seg_idx), tuple(ray_idx))

    @staticmethod
    def _dir_away(edge, v: IVec):
        if edge[0] == "seg":
            if edge[1] == v:
                return vsub(edge[2], edge[1])
            if edge[2] == v:
                return vsub(edge[1], edge[2])
            return None
        if edge[0] == "ray" and edge[1] == v:
            return edge[2]
        return None

    @staticmethod
    def _merge_at(e1, e2, v: IVec):
        # Merge two collinear equal-weight edges meeting at v into one edge.
        w = e1[3]
        if e1[0] == "seg" and e2[0] == "seg":
            a = e1[1] if e1[2] == v else e1[2]
            b = e2[1] if e2[2] == v else e2[2]
            return ("seg", a, b, w)
        if e1[0] == "seg" and e2[0] == "ray":
            a = e1[1] if e1[2] == v else e1[2]
            return ("ray", a, e2[2], w)
        if e1[0] == "ray" and e2[0] == "seg":
            b = e2[1] if e2[2] == v else e2[2]
            return ("ray", b, e1[2], w)
        # ray + ray in opposite directions: a full line, re-anchored later.
        return ("line", v, e1[2], w)


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
    _, (P,) = _on_integers(complex_.vertices)
    sums = [[0] * complex_.dim for _ in P]
    for i, j, w in complex_.segments:
        d = _primitive(vsub(P[j], P[i]), w)
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
    L, (A, B) = _on_integers(a.vertices, b.vertices)
    a_through = _through_vertices(a, A)
    b_through = _through_vertices(b, B)
    b_edges = _plane_edges(b, B, L)
    found: dict[tuple, int] = {}  # (num, den) in lowest terms -> multiplicity
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
            g = gcd(den, *num)
            key = (tuple(x // g for x in num), den // g)
            # A vertex met by an edge of a complex is an endpoint of that edge,
            # and an integer point, key[0].
            da, db = sa, sb
            if at_end_a:
                if key[0] not in a_through:
                    raise NonTransversalError(
                        _unscaled(num, den * L), 2,
                        "intersection at a vertex is not two-valent on both sides")
                da = a_through[key[0]]
            if at_end_b:
                if key[0] not in b_through:
                    raise NonTransversalError(
                        _unscaled(num, den * L), 2,
                        "intersection at a vertex is not two-valent on both sides")
                db = b_through[key[0]]
            # da and db are independent: a collinear touch at ends is a line
            # anchor of both canonical forms, whose rays sort alike, so their
            # overlap was raised first.  A point on two edges is a through
            # vertex, met with one direction, so its multiplicity is unique.
            found[key] = abs(da[0] * db[1] - da[1] * db[0])
    common = lcm(*(den for _, den in found))
    order = sorted(found, key=lambda k: tuple(x * (common // k[1]) for x in k[0]))
    return tuple(IntersectionPoint(_unscaled(num, den * L), found[num, den]) for num, den in order)


def _plane_edges(k: PolyComplex1D, P: Sequence[IVec], L: int) -> list[tuple]:
    """(edge, weight times primitive direction, box) per edge of ``_int_edges(k, P, L)``."""
    weights = [w for *_, w in k.segments] + [w for *_, w in k.rays]
    return [(e, _primitive(vsub(e[2], e[1]) if e[0] == "seg" else e[2], w), _box(*e))
            for e, w in zip(_int_edges(k, P, L), weights)]


def _through_vertices(k: PolyComplex1D, P: Sequence[IVec]) -> dict[IVec, IVec]:
    """Vertices that are straight 2-valent points: equal weights, opposite
    collinear directions.  Such points are interior points of the support
    (line anchors, for instance), so meetings there stay transversal.

    Keys and directions are integer vectors, the vertices being P."""
    incident: dict[int, list[tuple[IVec, int]]] = {}
    for i, j, w in k.segments:
        incident.setdefault(i, []).append((vsub(P[j], P[i]), w))
        incident.setdefault(j, []).append((vsub(P[i], P[j]), w))
    for i, d, w in k.rays:
        incident.setdefault(i, []).append((d, w))
    out: dict[IVec, IVec] = {}
    for i, ends in incident.items():
        if len(ends) != 2:
            continue
        (d1, w1), (d2, w2) = ends
        if w1 != w2:
            continue
        if parallel(d1, d2) and dot(d1, d2) < 0:
            out[P[i]] = _primitive(d1, w1)
    return out


def _primitive(d: IVec, w: int = 1) -> IVec:
    """w times the primitive integer vector along the nonzero integer vector d."""
    g = ivec_gcd(d)
    return tuple(w * x // g for x in d)
