"""Closed subsets of a curve with finitely many components, and ``Embedding``,
one curve placed edge by edge in another: a subgraph's chart is one."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .curve import INF, Curve, EdgeDesc, PointRef, VertexInfo
from .errors import TropError
from .semifield import common_scale, on_scale, rat, ratio_str

Interval = tuple[Fraction, "Fraction | float"]  # closed [lo, hi], hi may be INF


@dataclass(frozen=True)
class Embedding:
    """An injective local isometry of a shape curve into a target curve.

    Every shape edge maps onto an interval of a single target edge:
    ``edge_map[shape edge] = (target edge, start offset, orientation)`` with
    orientation +1 or -1; infinite shape edges map with orientation +1 onto
    the tail ``[start, inf]`` of an infinite target edge.  A subgraph's chart
    is one, and ``plfunction._along`` reads a function through any of them.
    """

    shape: Curve
    vertex_map: Mapping[str, PointRef]
    edge_map: Mapping[str, tuple[str, Fraction, int]]

    def target_offset(self, shape_edge: str, t: Fraction) -> tuple[str, Fraction]:
        eid, start, orient = self.edge_map[shape_edge]
        return eid, start + orient * t


@dataclass(frozen=True)
class Subgraph:
    """Normalized closed subset: member vertices plus closed edge intervals.

    Intervals are in edge coordinates, sorted, pairwise disjoint with
    positive gaps, and merged; an interval touching an edge end implies that
    end vertex is a member.  A single interior point is the interval
    ``(t, t)``.
    Equality of subgraphs is structural equality of this data.
    """

    curve: Curve
    vertices: frozenset[str]
    intervals: tuple[tuple[str, tuple[Interval, ...]], ...]

    def interval_map(self) -> dict[str, tuple[Interval, ...]]:
        return dict(self.intervals)

    def is_empty(self) -> bool:
        return not self.vertices and not self.intervals

    def contains_point(self, p: PointRef) -> bool:
        kind, ident, off = self.curve._resolve(p)
        if kind == "vertex":
            return ident in self.vertices
        for lo, hi in self.interval_map().get(ident, ()):
            if lo <= off <= hi:
                return True
        return False

    # -- the subgraph as a curve in its own right ------------------------------

    def as_curve(self) -> tuple[Curve, Embedding]:
        """The subgraph as a curve, with its chart: the ``Embedding`` of that
        curve into the parent.

        The subgraph is cut once: every call returns the same curve and
        chart, which callers share and must not change.  They are kept
        outside the dataclass fields, so equality, hash and repr ignore them.
        The chart's ``edge_map`` lists one piece per interval of positive
        length, in the order of ``intervals``, each read forward.
        """
        made = self.__dict__.get("_cut")
        if made is None:
            D, _, imap = self._scaled()
            made = cut(self.curve, sorted(self.vertices), D,
                       [(eid, lo, hi) for eid, ivs in imap.items() for lo, hi in ivs])
            object.__setattr__(self, "_cut", made)
        return made

    # -- metric -----------------------------------------------------------------

    def _scaled(self) -> tuple[int, int, dict[str, tuple[tuple[int, int | None], ...]]]:
        """(D, D // L, edge id -> its intervals times D), None for an end at infinity.

        D is the lcm of the curve's length scale L and the interval ends'
        denominators: the one scale that ``chip_fire`` and ``extend`` read.
        Worked out once and kept outside the dataclass fields, as the cut is.
        """
        made = self.__dict__.get("_scale")
        if made is None:
            L, _ = self.curve._length_scale()
            ends = [x for _, ivs in self.intervals for iv in ivs for x in iv if x is not INF]
            D, (_, (row,)) = common_scale((L, ()), on_scale((ends,)))
            it = iter(row)
            made = D, D // L, {eid: tuple([(next(it), None if hi is INF else next(it))
                                           for _, hi in ivs])
                               for eid, ivs in self.intervals}
            object.__setattr__(self, "_scale", made)
        return made

    def _distances(self) -> tuple[int, dict[str, int]]:
        """(D, vertex id -> its distance to this subgraph times D), from ``_scaled``;
        a vertex off the subgraph's components has no entry."""
        D, m, ivmap = self._scaled()
        c = self.curve
        _, lengths = c._length_scale()
        seeds = dict.fromkeys(self.vertices, 0)
        for eid, ivs in ivmap.items():
            e = c.edges[eid]
            far = [] if e.is_infinite else [(e.v, lengths[eid] * m - ivs[-1][1])]
            for vid, d in [(e.u, ivs[0][0]), *far]:
                if vid not in seeds or d < seeds[vid]:
                    seeds[vid] = d
        return D, c._dijkstra(seeds, m)

    def distance_map(self) -> dict[str, "Fraction | float"]:
        """Distance from every curve vertex to this subgraph (INF off-component)."""
        D, dist = self._distances()
        return {v: Fraction(dist[v], D) if v in dist else INF for v in self.curve.vertices}


def cut(c: Curve, vertices: Iterable[str], D: int,
        pieces: Iterable[tuple[str, int, int | None]]) -> tuple[Curve, Embedding]:
    """The curve made of some vertices of ``c`` and some pieces of its edges.

    A piece ``(edge, lo, hi)`` is a closed interval in edge coordinates, its
    ends integers on the scale D, a multiple of the curve's length scale
    (``Curve._length_scale``); ``hi`` is None on a ray's tail, and ``lo ==
    hi`` is a lone point.  A cut point inside an edge becomes a vertex named
    ``edge@offset``.  A piece keeps the edge id when it covers the whole edge
    and is named ``edge[lo,hi]`` otherwise; a ray piece inherits the ray
    class label.  When the parent already has a vertex or an edge of that
    name, primes (``'``) are appended until the name is free: the chart, not
    the name, says where a point lies.  No other code names a cut point or a
    piece.  The chart maps each piece forward from its start.
    """
    L, lengths = c._length_scale()
    ends = {eid: n * (D // L) for eid, n in lengths.items()}  # each finite edge's end on D
    vertex_map: dict[str, PointRef] = {vid: c.pt_vertex(vid) for vid in vertices}
    cut_names: dict[str, str] = {}  # generated name -> the name it was given
    edges: list[EdgeDesc] = []
    edge_map: dict[str, tuple[str, Fraction, int]] = {}
    ray_classes: dict[str, str] = {}

    def vertex_at(e: EdgeDesc, x: int | None) -> str:
        if x == 0:
            vid = e.u
        elif x is None or x == ends.get(e.id):
            vid = e.v
        else:
            name = f"{e.id}@{ratio_str(x, D)}"
            vid = cut_names.get(name)
            if vid is None:
                vid = name
                while vid in c.vertices:
                    vid += "'"
                cut_names[name] = vid
                vertex_map[vid] = PointRef._on_edge(e.id, x, D)
            return vid
        if vid not in vertex_map:
            vertex_map[vid] = c.pt_vertex(vid)
        return vid

    for eid, lo, hi in pieces:
        e = c.edges[eid]
        u = vertex_at(e, lo)
        if lo == hi:
            continue
        v = vertex_at(e, hi)
        tail = hi is None
        if lo == 0 and hi == ends.get(eid):
            sub_id = eid
        else:
            sub_id = f"{eid}[{ratio_str(lo, D)},{'inf' if tail else ratio_str(hi, D)}]"
            while sub_id in c.edges:
                sub_id += "'"
        edges.append(EdgeDesc(sub_id, u, v, INF if tail else Fraction(hi - lo, D)))
        edge_map[sub_id] = (eid, Fraction(lo, D), 1)
        if tail:
            ray_classes[sub_id] = c.ray_classes[eid]

    sub = Curve([c.vertices.get(vid) or VertexInfo(vid) for vid in vertex_map], edges, ray_classes)
    return sub, Embedding(sub, vertex_map, edge_map)


def _merge_intervals(ivs: Iterable[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1]:
            prev_lo, prev_hi = out[-1]
            out[-1] = (prev_lo, max(prev_hi, hi))
        else:
            out.append((lo, hi))
    return out


def make_subgraph(c: Curve, vertices: Iterable[str] = (), edges: Iterable[str] = (),
                  intervals: Iterable[tuple] = ()) -> Subgraph:
    """Normalize a closed-subset description into a Subgraph.

    ``intervals`` entries are ``(edge id, lo, hi)`` in edge coordinates;
    ``hi`` may be ``inf`` on infinite edges.  Components consisting of a
    single point at infinity are rejected.
    """
    vset: set[str] = set()
    edge_ivs: dict[str, list[Interval]] = {}

    def add_interval(e: EdgeDesc, lo: Fraction, hi):
        if lo == hi == 0:
            vset.add(e.u)
            return
        if hi is not INF and lo == hi == e.length:
            vset.add(e.v)
            return
        edge_ivs.setdefault(e.id, []).append((lo, hi))
        if lo == 0:
            vset.add(e.u)
        if hi == e.length:
            vset.add(e.v)

    for vid in vertices:
        if vid not in c.vertices:
            raise TropError(f"unknown vertex {vid!r}")
        vset.add(vid)
    for eid in edges:
        e = c.edges.get(eid)
        if e is None:
            raise TropError(f"unknown edge {eid!r}")
        add_interval(e, Fraction(0), e.length)
    for eid, lo, hi in intervals:
        e = c.edges.get(eid)
        if e is None:
            raise TropError(f"unknown edge {eid!r}")
        lo = rat(lo)
        hi = INF if hi == INF or (isinstance(hi, str) and hi == "inf") else rat(hi)
        if lo < 0 or lo > hi or (hi is not INF and hi > e.length):
            raise TropError(f"invalid interval [{lo},{hi}] on edge {eid!r}")
        if hi is INF and not e.is_infinite:
            raise TropError(f"interval reaches infinity on finite edge {eid!r}")
        add_interval(e, lo, hi)

    # A point at infinity is alone in its component unless its ray's tail is in.
    for vid in sorted(vset):
        if c.vertices[vid].at_infinity:
            ((eid, _),) = c.edges_at[vid]
            if not any(hi is INF for _, hi in edge_ivs.get(eid, ())):
                raise TropError(f"subgraph component is a single point at infinity: {vid!r}")
    merged = tuple(sorted((eid, tuple(_merge_intervals(ivs))) for eid, ivs in edge_ivs.items()))
    return Subgraph(c, frozenset(vset), merged)


def whole_subgraph(c: Curve) -> Subgraph:
    return make_subgraph(c, vertices=list(c.vertices), edges=list(c.edges))


def point_subgraph(c: Curve, p: PointRef) -> Subgraph:
    kind, ident, off = c._resolve(p)
    if kind == "vertex":
        return make_subgraph(c, vertices=[ident])
    return make_subgraph(c, intervals=[(ident, off, off)])
