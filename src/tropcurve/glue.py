"""Gluing two curves along isometric embeddings of a common subgraph."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .curve import INF, Curve, EdgeDesc, PointRef, VertexInfo
from .errors import TropError
from .plfunction import PLFunction, Profile, _reverse, _slice, edge_profile
from .semifield import integer, rat


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

    def image_interval(self, shape_edge: str):
        eid, start, orient = self.edge_map[shape_edge]
        length = self.shape.edges[shape_edge].length
        if length == INF:
            return eid, start, INF
        lo, hi = sorted((start, start + orient * length))
        return eid, lo, hi


def validate_embedding(emb: Embedding, target: Curve) -> None:
    shape = emb.shape
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
            if lo <= p.offset and (hi == INF or p.offset <= hi):
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

    refined1, map_pieces1, vname1 = _refine(c1, emb1, "1")
    refined2, map_pieces2, vname2 = _refine(c2, emb2, "2")

    # Identify shape vertices and shape edges across the two refinements.
    vertex_alias: dict[str, str] = {}
    for vid in shape.vertices:
        p1 = emb1.vertex_map[vid]
        p2 = emb2.vertex_map[vid]
        vertex_alias[_refined_vertex("2", p2)] = _refined_vertex("1", p1)
    edge_alias: dict[str, tuple[str, int]] = {}
    for eid in shape.edges:
        g1, o1 = _refined_edge("1", emb1, eid, c1)
        g2, o2 = _refined_edge("2", emb2, eid, c2)
        edge_alias[g2] = (g1, o1 * o2)

    vertices: dict[str, VertexInfo] = {}
    edges: list[EdgeDesc] = []
    ray_classes: dict[str, str] = {}
    for v in refined1["vertices"]:
        vertices[v.id] = v
    for v in refined2["vertices"]:
        if v.id not in vertex_alias:
            vertices[v.id] = v
    for e in refined1["edges"]:
        edges.append(e)
    for e in refined2["edges"]:
        if e.id in edge_alias:
            continue
        u = vertex_alias.get(e.u, e.u)
        v = vertex_alias.get(e.v, e.v)
        edges.append(EdgeDesc(e.id, u, v, e.length))

    # Ray classes: prefixed labels, then merge identified rays' classes.
    label_parent: dict[str, str] = {}

    def find(x: str) -> str:
        while label_parent.setdefault(x, x) != x:
            label_parent[x] = label_parent[label_parent[x]]
            x = label_parent[x]
        return x

    raw_classes: dict[str, str] = {}
    raw_classes.update(refined1["ray_classes"])
    for eid, label in refined2["ray_classes"].items():
        raw_classes[eid] = label
    for g2, (g1, _) in edge_alias.items():
        l1 = raw_classes.get(g1)
        l2 = raw_classes.get(g2)
        if l1 and l2:
            label_parent[find(l2)] = find(l1)
    merged_labels = {}
    for label in set(raw_classes.values()):
        root = find(label)
        group = [l for l in raw_classes.values() if find(l) == root]
        merged_labels[label] = min(group)
    for eid, label in raw_classes.items():
        if eid in edge_alias:
            continue
        ray_classes[eid] = merged_labels[label]

    glued = Curve(vertices.values(), edges, ray_classes)

    def remap_pieces(raw):
        out = {}
        for eid, pieces in raw.items():
            fixed = []
            for lo, hi, geid, gstart, orient in pieces:
                if geid in edge_alias:
                    target, rel = edge_alias[geid]
                    if rel == 1:
                        fixed.append((lo, hi, target, gstart, orient))
                    else:  # a finite shape edge: rays map forward on both sides
                        fixed.append((lo, hi, target, glued.edges[target].length - gstart, -orient))
                else:
                    fixed.append((lo, hi, geid, gstart, orient))
            out[eid] = tuple(fixed)
        return out

    vmap1 = {v: name for v, name in vname1.items()}
    vmap2 = {v: vertex_alias.get(name, name) for v, name in vname2.items()}
    map1 = PointMap(c1, glued, vmap1, remap_pieces(map_pieces1))
    map2 = PointMap(c2, glued, vmap2, remap_pieces(map_pieces2))
    return GlueResult(glued, map1, map2, shape, emb1, emb2)


def _refined_vertex(prefix: str, p: PointRef) -> str:
    if p.kind == "vertex":
        return f"{prefix}:{p.vertex}"
    return f"{prefix}:{p.edge}@{p.offset}"


def _refined_edge(prefix: str, emb: Embedding, shape_edge: str, target: Curve) -> tuple[str, int]:
    tgt, start, orient = emb.edge_map[shape_edge]
    e = emb.shape.edges[shape_edge]
    te = target.edges[tgt]
    if e.is_infinite:
        lo, hi = start, INF
    else:
        lo, hi = sorted((start, start + orient * e.length))
    full = lo == 0 and ((hi == INF and te.is_infinite) or hi == te.length)
    name = f"{prefix}:{tgt}" if full else f"{prefix}:{tgt}[{lo},{'inf' if hi == INF else hi}]"
    return name, orient


def _refine(c: Curve, emb: Embedding, prefix: str):
    """Subdivide c at all embedding cut points; ids get the side prefix."""
    cuts: dict[str, set[Fraction]] = {}
    for eid in emb.shape.edges:
        tgt, lo, hi = emb.image_interval(eid)
        cuts.setdefault(tgt, set()).update({lo} if hi == INF else {lo, hi})
    for p in emb.vertex_map.values():
        if p.kind == "on_edge":
            cuts.setdefault(p.edge, set()).add(p.offset)

    vertices: list[VertexInfo] = []
    vname: dict[str, str] = {}
    for v in c.vertices.values():
        vertices.append(VertexInfo(f"{prefix}:{v.id}", v.at_infinity))
        vname[v.id] = f"{prefix}:{v.id}"
    edges: list[EdgeDesc] = []
    ray_classes: dict[str, str] = {}
    pieces: dict[str, tuple] = {}
    for eid, e in c.edges.items():
        offs = sorted(o for o in cuts.get(eid, set()) if 0 < o and (e.is_infinite or o < e.length))
        stops = [Fraction(0)] + offs + [e.length if not e.is_infinite else INF]
        plist = []
        for lo, hi in zip(stops, stops[1:]):
            if lo == 0 and (hi == e.length or (hi == INF and e.is_infinite)):
                sub_id = f"{prefix}:{eid}"
            else:
                sub_id = f"{prefix}:{eid}[{lo},{'inf' if hi == INF else hi}]"
            u = f"{prefix}:{e.u}" if lo == 0 else f"{prefix}:{eid}@{lo}"
            v = (f"{prefix}:{e.v}" if (hi == e.length or hi == INF)
                 else f"{prefix}:{eid}@{hi}")
            for name, is_end in ((u, lo == 0), (v, hi == e.length or hi == INF)):
                if not is_end and all(vv.id != name for vv in vertices):
                    vertices.append(VertexInfo(name))
            length = INF if hi == INF else hi - lo
            edges.append(EdgeDesc(sub_id, u, v, length))
            plist.append((lo, hi, sub_id, Fraction(0), 1))
            if hi == INF:
                ray_classes[sub_id] = f"{prefix}:{c.ray_classes[eid]}"
        pieces[eid] = tuple(plist)
    return ({"vertices": vertices, "edges": edges, "ray_classes": ray_classes},
            pieces, vname)


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
        s1 = _pullback_shape_profile(h1, glued.emb1, eid)
        s2 = _pullback_shape_profile(h2, glued.emb2, eid)
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
            for lo, hi, geid, _, _ in pm.pieces[eid]:
                if geid in done_edges:
                    continue
                done_edges.add(geid)
                profiles[geid] = _slice(edge_profile(h, eid), lo, hi)
    for vid, ends in glued.curve.edges_at.items():
        if ends:
            continue
        src = vid.split(":", 1)
        h, pm = (h1, glued.map1) if src[0] == "1" else (h2, glued.map2)
        back = [k for k, name in pm.vertex_map.items() if name == vid]
        isolated[vid] = h.value_at(h.curve.pt_vertex(back[0]))
    return PLFunction(glued.curve, profiles, isolated)


def _pullback_shape_profile(h: PLFunction, emb: Embedding, shape_edge: str) -> Profile:
    tgt, start, orient = emb.edge_map[shape_edge]
    e = emb.shape.edges[shape_edge]
    whole = edge_profile(h, tgt)
    if e.is_infinite:
        return _slice(whole, start, INF)
    if orient > 0:
        return _slice(whole, start, start + e.length)
    return _reverse(_slice(whole, start - e.length, start), e.length)


def _first_difference(p1: Profile, p2: Profile) -> Fraction:
    offs = sorted({o for o, _ in p1.breaks} | {o for o, _ in p2.breaks})
    for o in offs:
        if p1.value(o) != p2.value(o):
            return o
    for o1, o2 in zip(offs, offs[1:]):
        mid = (o1 + o2) / 2
        if p1.value(mid) != p2.value(mid):
            return mid
    return offs[-1] + 1
