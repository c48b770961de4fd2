"""Metric-graph models of tropical curves with points at infinity and ray classes.

A curve is built from a description of vertices, edges with positive
rational or infinite lengths, and a class label per infinite edge.  Every
edge is stored as given and oriented from its u end to its v end; a loop
is an edge whose two ends meet at one vertex.  Points, profiles and
directions are all keyed by edge id.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import TropError
from .semifield import common_scale, integer, on_scale, ratio, ratio_str

INF = math.inf


def parse_length(x) -> "Fraction | float":
    """A positive rational, or ``INF`` spelled as an infinite float or exactly ``"inf"``.

    Every edge length passes through here, so a length is a positive
    ``Fraction`` or the ``INF`` object itself.
    """
    if isinstance(x, float) and x == INF or isinstance(x, str) and x == "inf":
        return INF
    n, d = ratio(x)
    if n <= 0:
        raise TropError(f"edge length must be positive, got {ratio_str(n, d)}")
    return x if isinstance(x, Fraction) else Fraction(n, d)


def length_str(x) -> str:
    """An edge length as text; ``parse_length`` made an infinite one the ``INF`` object."""
    return "inf" if x is INF else str(x)


def _not_a_string(what: str, x) -> TropError:
    return TropError(f"{what} must be a string, not {type(x).__name__}: {x!r}")


def connected_groups(items: Iterable, links: Iterable[tuple]) -> list[list]:
    """The classes of ``items`` under the equivalence that ``links`` generate.

    Each class lists its items in the order given, and the classes come in
    the order of their first item.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


@dataclass(frozen=True)
class VertexInfo:
    id: str
    at_infinity: bool = False


@dataclass(frozen=True)
class EdgeDesc:
    id: str
    u: str
    v: str
    length: "Fraction | float"

    def __post_init__(self):
        length = parse_length(self.length)
        if length is not self.length:
            object.__setattr__(self, "length", length)

    @property
    def is_infinite(self) -> bool:
        return self.length is INF

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


class PointRef:
    """A point of a curve: a vertex, or an interior offset along an edge.

    Offsets are measured from the edge's u endpoint.  Construct through
    the Curve methods so that references are normalized (offsets 0 and
    full-length fold to the endpoint vertices, infinite ends fold to the
    at-infinity vertex).  An edge point compares and hashes on its offset
    in least terms, the integers n and d > 0; ``offset`` is n / d as a
    ``Fraction``, built on first read when the point was made from the pair.
    """

    __slots__ = ("kind", "vertex", "edge", "_n", "_d", "_offset", "_hash")

    def __init__(self, kind: str, vertex: str | None = None, edge: str | None = None,
                 offset: "Fraction | None" = None):
        self.kind, self.vertex, self.edge, self._offset, self._hash = kind, vertex, edge, offset, None
        self._n, self._d = (None, None) if offset is None else ratio(offset)

    @classmethod
    def _on_edge(cls, edge: str, n: int, d: int) -> "PointRef":
        """The point n / d along an edge, d > 0, with the offset left unbuilt."""
        p = cls.__new__(cls)
        r = math.gcd(n, d)
        p.kind, p.vertex, p.edge, p._n, p._d, p._offset, p._hash = \
            "on_edge", None, edge, n // r, d // r, None, None
        return p

    @property
    def offset(self) -> "Fraction | None":
        off = self._offset
        if off is None and self._d is not None:
            off = self._offset = Fraction(self._n, self._d)
        return off

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex == other.vertex and self.edge == other.edge and self._n == other._n
                and self._d == other._d and self.kind == other.kind)

    def __hash__(self):  # worked out once, with no container built
        h = self._hash
        if h is None:
            h = self._hash = hash(self.vertex) ^ hash(self.edge) ^ hash(self._n) ^ hash(self._d) * 7
        return h

    def __repr__(self) -> str:
        return (f"PointRef(kind={self.kind!r}, vertex={self.vertex!r}, edge={self.edge!r}, "
                f"offset={self.offset!r})")

    def __str__(self) -> str:
        if self.kind == "vertex":
            return self.vertex
        return f"{self.edge}@{self.offset}"


class Curve:
    """Immutable metric graph; all queries are pure."""

    def __init__(self, vertices: Iterable[VertexInfo], edges: Iterable[EdgeDesc],
                 ray_classes: Mapping[str, str]):
        self.vertices: dict[str, VertexInfo] = {}
        self.edges: dict[str, EdgeDesc] = {}
        self.ray_classes: dict[str, str] = dict(ray_classes)
        self.edges_at: dict[str, list[tuple[str, int]]] = {}
        self._validate(vertices, edges)
        for ends in self.edges_at.values():
            ends.sort()
        self._dijkstra_cache: dict[str, dict[str, int]] = {}
        self._key: tuple | None = None
        self._components: dict[str, int] | None = None
        self._scale: tuple[int, dict[str, int]] | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(vertices: Iterable = (), edges: Iterable = (),
              ray_classes: Mapping[str, str] | None = None) -> "Curve":
        """Build and validate a curve from a plain description.

        Vertices are ``id`` strings or ``(id, at_infinity)`` pairs; edges are
        ``(id, u, v, length)`` with length a rational, one of its string
        forms, or ``inf``.  An undeclared endpoint of an infinite edge is
        created as its point at infinity.  A malformed entry raises a
        ``TropError`` naming it; ``Curve(...)`` checks everything else.
        """
        vinfos: dict[str, VertexInfo] = {}
        for v in vertices:
            try:
                vid, at_inf = (v, False) if isinstance(v, str) else v
                vinfos[vid] = VertexInfo(vid, at_inf)
            except (TypeError, ValueError) as exc:
                raise TropError(f"malformed vertex entry {v!r}: a vertex is an id or an "
                                f"(id, at_infinity) pair") from exc
        edescs = []
        for entry in edges:
            try:
                eid, u, v, length = entry
                e = EdgeDesc(eid, u, f"{eid}.inf" if v is None else v, length)
                for end in (e.u, e.v):
                    if end not in vinfos:
                        vinfos[end] = VertexInfo(end, at_infinity=e.is_infinite and end == e.v)
            except (TypeError, ValueError) as exc:
                raise TropError(f"malformed edge entry {entry!r}: "
                                "an edge is (id, u, v, length)") from exc
            edescs.append(e)
        return Curve(vinfos.values(), edescs, ray_classes or {})

    def _validate(self, vertices: Iterable[VertexInfo], edges: Iterable[EdgeDesc]):
        """Take the vertices and edges in, and each edge end into ``edges_at``,
        checking every invariant of a curve: the one place that does.  Ids,
        endpoints and ray class labels are strings, as every file names them; a
        ray class key names a ray, so it is one too."""
        for v in vertices:
            if not isinstance(v.id, str):
                raise _not_a_string("vertex id", v.id)
            if type(v.at_infinity) is not bool:
                raise TropError(f"vertex {v.id!r}: at_infinity must be True or False, "
                                f"not {type(v.at_infinity).__name__}: {v.at_infinity!r}")
            if v.id in self.vertices:
                raise TropError(f"duplicate vertex id {v.id!r}")
            self.vertices[v.id] = v
            self.edges_at[v.id] = []
        for e in edges:
            if not isinstance(e.id, str):
                raise _not_a_string("edge id", e.id)
            if e.id in self.edges:
                raise TropError(f"duplicate edge id {e.id!r}")
            self.edges[e.id] = e
        if not self.vertices:
            raise TropError("empty curve")
        for e in self.edges.values():
            for end, sign in ((e.u, +1), (e.v, -1)):
                if not isinstance(end, str):
                    raise _not_a_string("edge endpoint", end)
                if end not in self.vertices:
                    raise TropError(f"edge {e.id!r} references unknown vertex {end!r}")
                self.edges_at[end].append((e.id, sign))
            u_inf = self.vertices[e.u].at_infinity
            v_inf = self.vertices[e.v].at_infinity
            if e.is_infinite:
                if e.is_loop:
                    raise TropError(f"infinite edge {e.id!r} cannot be a loop")
                if u_inf == v_inf:
                    raise TropError(
                        f"infinite edge {e.id!r} needs exactly one endpoint at infinity")
                if u_inf:
                    raise TropError(
                        f"infinite edge {e.id!r} must run finite -> infinity (u finite)")
                if e.id not in self.ray_classes:
                    raise TropError(f"infinite edge {e.id!r} has no ray class")
            else:
                if u_inf or v_inf:
                    raise TropError(f"finite edge {e.id!r} touches a point at infinity")
        for eid, label in self.ray_classes.items():
            if eid not in self.edges or not self.edges[eid].is_infinite:
                raise TropError(f"ray class given for non-ray edge {eid!r}")
            if not isinstance(label, str):
                raise _not_a_string(f"ray class of {eid!r}", label)
        for v in self.vertices.values():
            if v.at_infinity and len(self.edges_at[v.id]) != 1:
                raise TropError(f"at-infinity vertex {v.id!r} must have valence 1")

    # -- identity ------------------------------------------------------------

    def description(self) -> dict:
        """The description as plain data, sorted by id."""
        return {
            "vertices": [
                {"id": v.id, "at_infinity": v.at_infinity}
                for v in sorted(self.vertices.values(), key=lambda v: v.id)
            ],
            "edges": [
                {"id": e.id, "u": e.u, "v": e.v, "length": length_str(e.length)}
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
            "ray_classes": dict(sorted(self.ray_classes.items())),
        }

    def key(self):
        """The description as nested tuples, built once: a curve never changes."""
        if self._key is None:
            d = self.description()
            self._key = (
                tuple((v["id"], v["at_infinity"]) for v in d["vertices"]),
                tuple((e["id"], e["u"], e["v"], e["length"]) for e in d["edges"]),
                tuple(d["ray_classes"].items()),
            )
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Curve) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    # -- points ---------------------------------------------------------------

    def pt_vertex(self, vid: str) -> PointRef:
        if vid not in self.vertices:
            raise TropError(f"unknown vertex {vid!r}")
        return PointRef("vertex", vertex=vid)

    def pt_on_edge(self, edge: str, offset) -> PointRef:
        e = self.edges.get(edge)
        if e is None:
            raise TropError(f"unknown edge {edge!r}")
        n, d = ratio(offset)
        L, lengths = self._length_scale()
        end = lengths.get(edge)  # the length times L; None on a ray
        if n < 0 or end is not None and n * L > end * d:
            raise TropError(f"offset {ratio_str(n, d)} outside edge {edge!r}")
        if n == 0:
            return self.pt_vertex(e.u)
        if end is not None and n * L == end * d:
            return self.pt_vertex(e.v)
        p = PointRef._on_edge(edge, n, d)
        if isinstance(offset, Fraction):  # keep the caller's Fraction as the offset
            p._offset = offset
        return p

    def pt_infinity_of(self, edge: str) -> PointRef:
        e = self.edges.get(edge)
        if e is None or not e.is_infinite:
            raise TropError(f"edge {edge!r} has no point at infinity")
        end = e.v if self.vertices[e.v].at_infinity else e.u
        return self.pt_vertex(end)

    def is_at_infinity(self, p: PointRef) -> bool:
        return p.kind == "vertex" and self.vertices[p.vertex].at_infinity

    def contains_point(self, p: PointRef) -> bool:
        try:
            self._resolve(p)
            return True
        except TropError:
            return False

    def _resolve(self, p: PointRef) -> tuple[str, str, "Fraction | None"]:
        """Map a point to ("vertex", id, None) or ("edge", edge id, offset)."""
        if p.kind == "vertex":
            if p.vertex not in self.vertices:
                raise TropError(f"point {p} is not on this curve")
            return ("vertex", p.vertex, None)
        if p.edge not in self.edges:
            raise TropError(f"point {p} is not on this curve")
        n, d = p._n, p._d
        L, lengths = self._length_scale()
        end = lengths.get(p.edge)  # the length times L; None on a ray
        if d is None or n <= 0 or end is not None and n * L >= end * d:
            raise TropError(f"point {p} is not normalized interior")
        return ("edge", p.edge, p.offset)

    def point_sort_key(self, p: PointRef):
        comp = self.component_index(p)
        if p.kind == "vertex":
            return (comp, 0, p.vertex, Fraction(0))
        return (comp, 1, p.edge, p.offset)

    # -- local structure -------------------------------------------------------

    def directions_at(self, p: PointRef) -> tuple[str, ...]:
        """Direction ids at a point: "edge:+" leaves the u end, "edge:-" the v end.

        A loop gives its vertex both directions.
        """
        kind, ident, off = self._resolve(p)
        if kind == "vertex":
            return tuple([f"{eid}:{'+' if sign > 0 else '-'}" for eid, sign in self.edges_at[ident]])
        return (f"{ident}:-", f"{ident}:+")

    def valence(self, p: PointRef) -> int:
        return len(self.directions_at(p))

    # -- components -------------------------------------------------------------

    def vertex_components(self) -> dict[str, int]:
        """Vertex id -> index of its component, built once: a curve never changes."""
        if self._components is None:
            self._components = self._union_find()
        return self._components

    def _union_find(self) -> dict[str, int]:
        """Components numbered in the order of their least vertex id."""
        comps = sorted(connected_groups(self.vertices, [(e.u, e.v) for e in self.edges.values()]),
                       key=min)
        return {v: i for i, comp in enumerate(comps) for v in comp}

    def component_sets(self) -> tuple[frozenset[str], ...]:
        index = self.vertex_components()
        comps: list[set[str]] = [set() for _ in range(max(index.values()) + 1)]
        for v, i in index.items():
            comps[i].add(v)
        return tuple(map(frozenset, comps))

    def component_index(self, p: PointRef) -> int:
        kind, ident, _ = self._resolve(p)
        return self.vertex_components()[ident if kind == "vertex" else self.edges[ident].u]

    def is_connected(self) -> bool:
        return len(self.component_sets()) == 1

    def components(self) -> tuple["Curve", ...]:
        """The connected components as curves sharing this curve's ids."""
        out = []
        for comp in self.component_sets():
            vs = [v for v in self.vertices.values() if v.id in comp]
            es = [e for e in self.edges.values() if e.u in comp]
            rc = {e.id: self.ray_classes[e.id] for e in es if e.id in self.ray_classes}
            out.append(Curve(vs, es, rc))
        return tuple(out)

    # -- metric -------------------------------------------------------------------

    def _length_scale(self) -> tuple[int, dict[str, int]]:
        """(L, finite edge id -> its length times L), L the lcm of the finite
        lengths' denominators; built once on first use: a curve never changes."""
        if self._scale is None:
            finite = {eid: e.length for eid, e in self.edges.items() if e.length is not INF}
            L, (lengths,) = on_scale((list(finite.values()),))
            self._scale = L, dict(zip(finite, lengths))
        return self._scale

    def _dijkstra(self, seeds: Mapping[str, int], m: int = 1) -> dict[str, int]:
        """Multi-source Dijkstra over finite edges on the integer scale L·m:
        each reached vertex's least seed plus path length; a vertex that no
        seed reaches has no entry."""
        _, lengths = self._length_scale()
        dist = dict(seeds)
        heap = [(d, v) for v, d in seeds.items()]
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for eid, sign in self.edges_at[u]:
                n = lengths.get(eid)
                if n is None:  # a ray
                    continue
                w = self.edges[eid].v if sign > 0 else self.edges[eid].u
                nd = d + n * m
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist

    def _vertex_distances(self, source: str) -> dict[str, int]:
        """Distances from one vertex on the scale L, worked out once per vertex."""
        dist = self._dijkstra_cache.get(source)
        if dist is None:
            dist = self._dijkstra_cache[source] = self._dijkstra({source: 0})
        return dist

    def distance(self, p: PointRef, q: PointRef) -> "Fraction | float":
        """Shortest-path length; infinite across components or to infinity points.
        Legs and vertex distances are integers on the lcm D of L and the offsets' denominators."""
        kp, ip, op_ = self._resolve(p)
        kq, iq, oq = self._resolve(q)
        if (kp, ip, op_) == (kq, iq, oq):
            return Fraction(0)
        if self.is_at_infinity(p) or self.is_at_infinity(q):
            return INF
        L, lengths = self._length_scale()
        D, (_, (row,)) = common_scale((L, ()), on_scale(([x for x in (op_, oq) if x is not None],)))
        m, it = D // L, iter(row)

        def legs(kind: str, ident: str) -> list[tuple[str, int]]:
            if kind == "vertex":
                return [(ident, 0)]
            e, off = self.edges[ident], next(it)
            return [(e.u, off)] + ([(e.v, lengths[ident] * m - off)] if ident in lengths else [])

        ps, qs = legs(kp, ip), legs(kq, iq)
        totals = [a + dist[v] * m + b for u, a in ps for dist in [self._vertex_distances(u)]
                  for v, b in qs if v in dist]
        if kp == kq == "edge" and ip == iq:
            totals.append(abs(ps[0][1] - qs[0][1]))
        return Fraction(min(totals), D) if totals else INF

    # -- convenience builders ------------------------------------------------------

    @staticmethod
    def segment(length, u: str = "A", v: str = "B", edge: str = "e") -> "Curve":
        return Curve.build(vertices=[u, v], edges=[(edge, u, v, length)])

    @staticmethod
    def doubly_infinite_line(vertex: str = "O", left: str = "left", right: str = "right",
                             left_class: str = "left", right_class: str = "right") -> "Curve":
        """The extended line: one finite vertex with two rays."""
        return Curve.build(
            vertices=[vertex],
            edges=[(left, vertex, None, INF), (right, vertex, None, INF)],
            ray_classes={left: left_class, right: right_class},
        )


def disjoint_union(curves: Sequence[Curve],
                   shared_classes: Mapping[str, Sequence[tuple[int, str]]] | None = None) -> Curve:
    """Disjoint union with ids prefixed by the component index.

    By default ray classes stay disjoint per component (the direct sum).
    ``shared_classes`` maps a new label to ``(component index, old label)``
    pairs merged across components, giving a general disconnected curve
    with parallel rays.
    """
    if len(curves) < 2:
        raise TropError("disjoint union needs at least two curves")
    relabel: dict[tuple[int, str], str] = {}
    if shared_classes:
        for new, olds in shared_classes.items():
            for idx, old in olds:
                relabel[(integer(idx, "component index"), old)] = new
    vertices: list[VertexInfo] = []
    edges: list[EdgeDesc] = []
    ray_classes: dict[str, str] = {}
    for i, c in enumerate(curves):
        for v in c.vertices.values():
            vertices.append(VertexInfo(f"{i}:{v.id}", v.at_infinity))
        for e in c.edges.values():
            edges.append(EdgeDesc(f"{i}:{e.id}", f"{i}:{e.u}", f"{i}:{e.v}", e.length))
        for eid, label in c.ray_classes.items():
            ray_classes[f"{i}:{eid}"] = relabel.get((i, label), f"{i}:{label}")
    return Curve(vertices, edges, ray_classes)


def canonical_model(c: Curve) -> Curve:
    """The model whose vertices are the points of valence != 2.

    The circle keeps its lexicographically least vertex as a loop base;
    the doubly infinite line keeps its least finite vertex.
    """
    if not c.is_connected():
        raise TropError("canonical model needs a connected curve")
    # Valences (loops count twice).
    val: dict[str, int] = {v: 0 for v in c.vertices}
    for e in c.edges.values():
        val[e.u] += 1
        val[e.v] += 1
    finite_ids = sorted(v for v in val if not c.vertices[v].at_infinity)
    inf_ids = sorted(v for v in val if c.vertices[v].at_infinity)
    keep = {v for v, k in val.items() if k != 2}

    if not c.edges:
        return Curve.build(vertices=[(finite_ids[0], False)])

    if not keep:
        # Circle: every vertex is 2-valent.
        base = finite_ids[0]
        keep = {base}
    elif not (keep - set(inf_ids)) and len(inf_ids) == 2:
        # The doubly infinite line: two points at infinity, finite part all 2-valent.
        keep = set(inf_ids) | {finite_ids[0]}

    # Walk maximal chains between kept vertices through 2-valent ones.  A
    # half-edge is an entry (eid, sign) of ``c.edges_at``: sign +1 traverses
    # eid from its u endpoint to its v endpoint, -1 the other way.
    def traverse(he: tuple[str, int]) -> tuple[str, tuple[str, int]]:
        eid, sign = he
        e = c.edges[eid]
        return (e.v if sign > 0 else e.u), (eid, -sign)

    visited: set[tuple[str, int]] = set()
    new_edges = []
    new_classes: dict[str, str] = {}
    # Finite starts first so that infinite chains come out oriented finite -> infinity.
    for start in sorted(keep, key=lambda v: (c.vertices[v].at_infinity, v)):
        for he in c.edges_at[start]:
            if he in visited:
                continue
            chain = [he[0]]
            visited.add(he)
            here, arrival = traverse(he)
            visited.add(arrival)
            while here not in keep:
                nxt = [k for k in c.edges_at[here] if k != arrival]
                he = nxt[0]
                chain.append(he[0])
                visited.add(he)
                here, arrival = traverse(he)
                visited.add(arrival)
            infinite = any(c.edges[ce].is_infinite for ce in chain)
            total = INF if infinite else sum(c.edges[ce].length for ce in chain)
            new_id = min(chain)
            new_edges.append((new_id, start, here, total))
            ray_edges = [ce for ce in chain if ce in c.ray_classes]
            if ray_edges:
                new_classes[new_id] = c.ray_classes[ray_edges[0]]
    verts = [(v, c.vertices[v].at_infinity) for v in sorted(keep)]
    return Curve.build(vertices=verts, edges=new_edges, ray_classes=new_classes)
