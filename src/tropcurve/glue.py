"""Gluing two curves along isometric embeddings of a common subgraph."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .curve import INF, Curve, EdgeDesc, PointRef, VertexInfo, connected_groups
from .errors import TropError
from .plfunction import PLFunction, Profile, _pull, edge_profile
from .semifield import common_scale, integer, on_scale, rat
from .subgraph import SubChart, cut


@dataclass(frozen=True)
class Embedding:
    """An injective local isometry of a shape curve into a target curve.

    Every shape edge maps onto an interval of a single target edge:
    ``edge_map[shape edge] = (target edge, start offset, orientation)`` with
    orientation +1 or -1; infinite shape edges map with orientation +1 onto
    the tail ``[start, inf]`` of an infinite target edge.
    """

    shape: Curve
    vertex_map: Mapping[str, PointRef]
    edge_map: Mapping[str, tuple[str, Fraction, int]]

    def target_offset(self, shape_edge: str, t: Fraction) -> tuple[str, Fraction]:
        eid, start, orient = self.edge_map[shape_edge]
        return eid, start + orient * t


def validate_embedding(emb: Embedding, target: Curve) -> None:
    shape = emb.shape
    for vid in emb.vertex_map:
        if vid not in shape.vertices:
            raise TropError(f"vertex_map key {vid!r} is not a shape vertex")
    for vid in shape.vertices:
        if vid not in emb.vertex_map:
            raise TropError(f"shape vertex {vid!r} is not mapped")
        p = emb.vertex_map[vid]
        if not target.contains_point(p):
            raise TropError(f"image of {vid!r} is not on the target curve")
        if shape.vertices[vid].at_infinity != target.is_at_infinity(p):
            raise TropError(f"vertex {vid!r} must map finite points to finite points")
    intervals: list[tuple[str, Fraction, "Fraction | float", str]] = []
    for eid, e in shape.edges.items():
        if e.is_loop:
            raise TropError(f"subdivide shape loop {eid!r} before embedding")
        if eid not in emb.edge_map:
            raise TropError(f"shape edge {eid!r} is not mapped")
        tgt, start, orient = emb.edge_map[eid]
        te = target.edges.get(tgt)
        if te is None:
            raise TropError(f"unknown target edge {tgt!r}")
        if integer(orient, "orientation") not in (+1, -1):
            raise TropError("orientation must be +1 or -1")
        start = rat(start)
        if e.is_infinite:
            if orient != 1 or not te.is_infinite:
                raise TropError(f"ray {eid!r} must map forward onto a target ray")
            endpoints = (target.pt_on_edge(tgt, start), target.pt_infinity_of(tgt))
            lo, hi = start, INF
        else:
            end = start + orient * e.length
            lo, hi = sorted((start, end))
            if lo < 0 or (not te.is_infinite and hi > te.length):
                raise TropError(f"edge {eid!r} image [{lo},{hi}] leaves target edge {tgt!r}")
            endpoints = (target.pt_on_edge(tgt, start), target.pt_on_edge(tgt, end))
        if emb.vertex_map[e.u] != endpoints[0] or emb.vertex_map[e.v] != endpoints[1]:
            raise TropError(f"edge {eid!r} endpoints disagree with the vertex map")
        intervals.append((tgt, lo, hi, eid))
    # Injectivity.  Two image intervals that only touch meet at the image of
    # an end of each edge, so an injective vertex map makes that a common
    # shape vertex; only overlaps are left to check.
    images = list(emb.vertex_map.values())
    if len(set(images)) != len(images):
        raise TropError("vertex map is not injective")
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            t1, lo1, hi1, e1 = intervals[i]
            t2, lo2, hi2, e2 = intervals[j]
            if t1 == t2 and max(lo1, lo2) < min(hi1, hi2):
                raise TropError(f"images of {e1!r} and {e2!r} overlap on {t1!r}")
    for vid, p in emb.vertex_map.items():
        for tgt, lo, hi, eid in intervals:
            if p.edge == tgt and lo < p.offset < hi:
                raise TropError(f"image of vertex {vid!r} lies inside the image of edge {eid!r}")


@dataclass(frozen=True)
class PointMap:
    """Total map from one input curve into the glued curve."""

    source: Curve
    glued: Curve
    vertex_map: Mapping[str, str]
    # source edge -> ordered pieces (lo, hi, glued edge, glued offset of lo, orient)
    pieces: Mapping[str, tuple]

    def point(self, p: PointRef) -> PointRef:
        if p.kind == "vertex":
            return self.glued.pt_vertex(self.vertex_map[p.vertex])
        for lo, hi, geid, gstart, orient in self.pieces[p.edge]:
            if lo <= p.offset and (hi is INF or p.offset <= hi):
                return self.glued.pt_on_edge(geid, gstart + orient * (p.offset - lo))
        raise TropError(f"point {p} not covered by the glue map")


@dataclass(frozen=True)
class GlueResult:
    curve: Curve
    map1: PointMap
    map2: PointMap
    shape: Curve
    emb1: Embedding
    emb2: Embedding


def glue(c1: Curve, c2: Curve, emb1: Embedding, emb2: Embedding) -> GlueResult:
    """Quotient of the disjoint union identifying the two embedded copies.

    Ray classes of identified rays merge; everything else keeps its class,
    prefixed by the side it came from.
    """
    if emb1.shape != emb2.shape:
        raise TropError("the two embeddings must share one shape curve")
    validate_embedding(emb1, c1)
    validate_embedding(emb2, c2)
    shape = emb1.shape

    sub1, chart1 = _refine(c1, emb1)
    sub2, chart2 = _refine(c2, emb2)

    # Identify the images of shape vertices and shape edges across the two cuts.
    vertex1, edge1 = _shape_images(emb1, chart1)
    vertex2, edge2 = _shape_images(emb2, chart2)
    vertex_alias = {f"2:{vertex2[v]}": f"1:{vertex1[v]}" for v in shape.vertices}
    edge_alias: dict[str, tuple[str, int]] = {}
    for eid in shape.edges:
        (g1, o1), (g2, o2) = edge1[eid], edge2[eid]
        edge_alias[f"2:{g2}"] = (f"1:{g1}", o1 * o2)

    def glued_vertex(k: str, vid: str) -> str:
        return vertex_alias.get(f"{k}:{vid}", f"{k}:{vid}")

    # Side k's ids get the prefix ``k:``; side 2 drops what side 1 already has.
    vertices: list[VertexInfo] = []
    edges: list[EdgeDesc] = []
    labels: dict[str, str] = {}
    for k, sub in (("1", sub1), ("2", sub2)):
        for v in sub.vertices.values():
            if f"{k}:{v.id}" not in vertex_alias:
                vertices.append(VertexInfo(f"{k}:{v.id}", v.at_infinity))
        for e in sub.edges.values():
            if f"{k}:{e.id}" not in edge_alias:
                edges.append(EdgeDesc(f"{k}:{e.id}", glued_vertex(k, e.u), glued_vertex(k, e.v),
                                      e.length))
        labels.update({f"{k}:{eid}": f"{k}:{label}" for eid, label in sub.ray_classes.items()})

    # Identified rays merge their classes under the least label of each group.
    links = [(labels[g2], labels[g1]) for g2, (g1, _) in edge_alias.items() if g2 in labels]
    least = {label: min(group) for group in connected_groups(labels.values(), links)
             for label in group}
    glued = Curve(vertices, edges,
                  {eid: least[label] for eid, label in labels.items() if eid not in edge_alias})

    def point_map(k: str, c: Curve, chart: SubChart) -> PointMap:
        vertex_map = {v: glued_vertex(k, v) for v in c.vertices}
        pieces: dict[str, list] = {eid: [] for eid in c.edges}
        for piece, (eid, lo) in chart.edge_chart.items():
            length = chart.sub.edges[piece].length
            hi = INF if length is INF else lo + length
            geid, orient = edge_alias.get(f"{k}:{piece}", (f"{k}:{piece}", 1))
            # A reversed finite shape edge: rays map forward on both sides.
            gstart = Fraction(0) if orient == 1 else glued.edges[geid].length
            pieces[eid].append((lo, hi, geid, gstart, orient))
        return PointMap(c, glued, vertex_map, {eid: tuple(p) for eid, p in pieces.items()})

    return GlueResult(glued, point_map("1", c1, chart1), point_map("2", c2, chart2),
                      shape, emb1, emb2)


def _refine(c: Curve, emb: Embedding) -> tuple[Curve, SubChart]:
    """c cut at the image of every shape vertex.

    The image of a shape edge runs between images of shape vertices, so it
    is one piece of the cut.
    """
    points = [p for p in emb.vertex_map.values() if p.kind == "on_edge"]
    L, lengths = c._length_scale()
    D, (_, (row,)) = common_scale((L, ()), on_scale(([p.offset for p in points],)))
    cuts: dict[str, set[int]] = {}  # edge id -> its cut offsets times D
    for p, x in zip(points, row):
        cuts.setdefault(p.edge, set()).add(x)
    pieces = []
    for eid in c.edges:
        end = lengths.get(eid)
        stops = [0, *sorted(cuts.get(eid, ())), None if end is None else end * (D // L)]
        pieces += [(eid, lo, hi) for lo, hi in zip(stops, stops[1:])]
    return cut(c, c.vertices, D, pieces)


def _shape_images(emb: Embedding,
                  chart: SubChart) -> tuple[dict[str, str], dict[str, tuple[str, int]]]:
    """The vertex of the cut curve at each shape vertex, and the piece under
    each shape edge with the edge's orientation."""
    at = {p: vid for vid, p in chart.vertex_points.items()}
    piece = {place: pid for pid, place in chart.edge_chart.items()}
    vertices = {vid: at[emb.vertex_map[vid]] for vid in emb.shape.vertices}
    edges = {}
    for eid, e in emb.shape.edges.items():
        tgt, start, orient = emb.edge_map[eid]
        edges[eid] = (piece[tgt, start if orient > 0 else start - e.length], orient)
    return vertices, edges


def glue_function(h1: PLFunction, h2: PLFunction, glued: GlueResult) -> PLFunction:
    """Weld two functions agreeing on the glued subgraph; mismatch names a witness."""
    if h1.curve != glued.map1.source or h2.curve != glued.map2.source:
        raise TropError("functions do not live on the glued inputs")
    if h1.is_neg_inf and h2.is_neg_inf:
        return PLFunction.neg_inf(glued.curve)
    if h1.is_neg_inf or h2.is_neg_inf:
        witness = next(iter(glued.emb1.vertex_map.values()))
        raise TropError(f"functions disagree on the glued subgraph at {witness}: "
                        f"one side is -inf")
    # Compare along every shape edge and at every shape vertex.
    for vid in glued.shape.vertices:
        if glued.shape.vertices[vid].at_infinity:
            continue
        p1, p2 = glued.emb1.vertex_map[vid], glued.emb2.vertex_map[vid]
        if h1.value_at(p1) != h2.value_at(p2):
            raise TropError(f"functions disagree on the glued subgraph at {p1} "
                            f"({h1.value_at(p1)} vs {h2.value_at(p2)})")
    for eid, e in glued.shape.edges.items():
        (t1, a1, o1), (t2, a2, o2) = glued.emb1.edge_map[eid], glued.emb2.edge_map[eid]
        s1 = _pull(edge_profile(h1, t1), a1, e.length, o1)
        s2 = _pull(edge_profile(h2, t2), a2, e.length, o2)
        if s1 != s2:
            off = _first_difference(s1, s2)
            tgt, toff = glued.emb1.target_offset(eid, off)
            raise TropError(f"functions disagree on the glued subgraph at "
                            f"{glued.map1.source.pt_on_edge(tgt, toff)}")
    profiles = {}
    isolated = {}
    done_edges = set()
    # Side 1 claims every glued edge it covers, with orientation +1; a side-2
    # piece that was identified (and perhaps reversed) is already claimed.
    for h, pm in ((h1, glued.map1), (h2, glued.map2)):
        for eid in h.curve.edges:
            for lo, _, geid, _, _ in pm.pieces[eid]:
                if geid in done_edges:
                    continue
                done_edges.add(geid)
                profiles[geid] = _pull(edge_profile(h, eid), lo, glued.curve.edges[geid].length)
    # A glued vertex comes from side 1 whenever side 1 has it.
    source = {name: (h, v) for h, pm in ((h2, glued.map2), (h1, glued.map1))
              for v, name in pm.vertex_map.items()}
    for vid, ends in glued.curve.edges_at.items():
        if not ends:
            h, v = source[vid]
            isolated[vid] = h.value_at(h.curve.pt_vertex(v))
    return PLFunction._trusted(glued.curve, profiles, isolated)


def _first_difference(p1: Profile, p2: Profile) -> Fraction:
    offs = sorted({Fraction(o, d) for d, g in (p1.grid, p2.grid) for o, _ in g})
    for o in offs:
        if p1.value(o) != p2.value(o):
            return o
    return offs[-1] + 1
