"""Morphisms between curves: validation, pullbacks, weights, localization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from typing import Mapping, Sequence

from .curve import Curve, PointRef
from .errors import TropError
from .plfunction import PLFunction, _along, _gridded, _kept, edge_profile
from .semifield import Germ, common_scale, integer, on_scale


@dataclass(frozen=True)
class Morphism:
    """A map of fixed loopless models: vertices to vertices, edges to edges or
    collapsed to vertices, with a nonnegative stretch degree per edge (0 iff
    collapsed)."""

    source: Curve
    target: Curve
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, str]]  # edge -> ("edge", id) or ("vertex", id)
    degrees: Mapping[str, int]

    @staticmethod
    def identity(c: Curve) -> "Morphism":
        return Morphism(c, c,
                        {v: v for v in c.vertices},
                        {e: ("edge", e) for e in c.edges},
                        {e: 1 for e in c.edges})


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    violations: tuple[str, ...]


def validate_morphism(m: Morphism) -> MorphismReport:
    """Check endpoint compatibility, the metric law, and the ray-class law,
    once per morphism: the report and each edge's placement are kept outside
    the dataclass fields, as ``Subgraph.as_curve`` keeps its cut, so equality
    and repr ignore them.  The maps must not change after the first call."""
    if "_checked" not in m.__dict__:
        object.__setattr__(m, "_checked", _check(m))
    return m._checked[0]


def _places(m: Morphism) -> dict[str, tuple[str, Fraction, int, int] | str]:
    """Each source edge's kept placement: (target edge, start offset,
    orientation, degree), an ``Embedding.edge_map`` entry with its degree, or
    the vertex it collapses to.  An invalid morphism raises."""
    report = validate_morphism(m)
    if not report.ok:
        raise TropError(f"invalid morphism: {report.violations[0]}")
    return m._checked[1]


def _check(m: Morphism) -> tuple[MorphismReport, dict]:
    """The body of ``validate_morphism``: its report and the placements."""
    bad: list[str] = []
    places: dict[str, tuple[str, Fraction, int, int] | str] = {}
    src, tgt = m.source, m.target
    if any(e.is_loop for e in src.edges.values()) or any(e.is_loop for e in tgt.edges.values()):
        return MorphismReport(False, ("models must be loopless; subdivide loops first",)), places
    for what, given, known, kind in (("vertex_map", m.vertex_map, src.vertices, "vertex"),
                                     ("edge_map", m.edge_map, src.edges, "edge"),
                                     ("degrees", m.degrees, src.edges, "edge")):
        bad += [f"{what} key {k!r} is not a source {kind}" for k in given if k not in known]
    for vid in src.vertices:
        img = m.vertex_map.get(vid)
        if img is None or img not in tgt.vertices:
            bad.append(f"vertex {vid!r} has no valid image")
        elif tgt.vertices[img].at_infinity and not src.edges_at[vid]:
            bad.append(f"vertex {vid!r} maps to the point at infinity {img!r}")
    (src_scale, src_lengths), (tgt_scale, tgt_lengths) = src._length_scale(), tgt._length_scale()
    for eid, e in src.edges.items():
        entry = m.edge_map.get(eid)
        deg = m.degrees.get(eid)
        if deg is not None:
            try:
                integer(deg, f"degree of {eid!r}")
            except TropError as exc:
                bad.append(str(exc))
                continue
        if entry is None or deg is None or deg < 0:
            bad.append(f"edge {eid!r} lacks an image or a nonnegative degree")
            continue
        kind, name = entry
        fu, fv = m.vertex_map.get(e.u), m.vertex_map.get(e.v)
        if kind == "vertex":
            if deg != 0:
                bad.append(f"edge {eid!r} collapses but has degree {deg}")
            if fu != name or fv != name:
                bad.append(f"edge {eid!r} collapses to {name!r} but endpoints map elsewhere")
            elif name in tgt.vertices and tgt.vertices[name].at_infinity:
                bad.append(f"edge {eid!r} collapses onto the point at infinity {name!r}")
            places[eid] = name
            continue
        te = tgt.edges.get(name)
        if te is None:
            bad.append(f"edge {eid!r} maps to unknown edge {name!r}")
            continue
        if deg == 0:
            bad.append(f"edge {eid!r} maps onto an edge but has degree 0")
            continue
        if {fu, fv} != {te.u, te.v}:
            bad.append(f"edge {eid!r}: endpoint images {fu!r},{fv!r} "
                       f"do not match {name!r} endpoints")
            continue
        places[eid] = (name, 0, 1, deg) if fu == te.u else (name, te.length, -1, deg)
        if e.is_infinite:
            if not te.is_infinite:
                bad.append(f"ray {eid!r} maps to a finite edge")
            elif fv != te.v:
                bad.append(f"ray {eid!r} must send its point at infinity to the one of {name!r}")
        else:
            if te.is_infinite:
                bad.append(f"finite edge {eid!r} maps onto a ray")
            elif tgt_lengths[name] * src_scale != deg * src_lengths[eid] * tgt_scale:
                bad.append(f"edge {eid!r}: target length {te.length} != "
                           f"{deg} * {e.length}")
    # Ray-class law: within a source class all rays collapse, or all map to
    # rays of one target class with one degree.
    by_class: dict[str, list[str]] = {}
    for eid, label in src.ray_classes.items():
        by_class.setdefault(label, []).append(eid)
    for label, members in sorted(by_class.items()):
        images = [(entry, m.degrees.get(eid)) for eid in members
                  if (entry := m.edge_map.get(eid)) is not None]
        kinds = {entry[0] for entry, _ in images}
        if len(kinds) > 1:
            bad.append(f"ray class {label!r}: some rays collapse and some do not")
        elif kinds == {"edge"}:
            if len({tgt.ray_classes.get(entry[1]) for entry, _ in images}) > 1:
                bad.append(f"ray class {label!r} maps into several target classes")
            degs = {deg for _, deg in images}
            if len(degs) > 1:
                bad.append(f"ray class {label!r} has unequal degrees at infinity {sorted(degs)}")
    return MorphismReport(not bad, tuple(bad)), places


def pullback(m: Morphism, f_target: PLFunction) -> PLFunction:
    """Compose a function on the target with the morphism, exactly: f_target
    read along the kept placements by ``_along``, as a restriction is read
    along its chart (a ray never maps reversed)."""
    places = _places(m)
    if f_target.curve != m.target:
        raise TropError("function does not live on the morphism target")
    return _along(f_target, m.source, places, lambda v: m.target.pt_vertex(m.vertex_map[v]))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner, both valid; edge degrees multiply along uncollapsed chains."""
    if inner.target != outer.source:
        raise TropError("morphisms do not compose")
    inner_places, outer_places = _places(inner), _places(outer)
    vmap = {v: outer.vertex_map[inner.vertex_map[v]] for v in inner.source.vertices}
    emap, degs = {}, {}
    for eid, p in inner_places.items():
        if isinstance(p, str):
            emap[eid], degs[eid] = ("vertex", outer.vertex_map[p]), 0
        elif isinstance(q := outer_places[p[0]], str):
            emap[eid], degs[eid] = ("vertex", q), 0
        else:
            emap[eid], degs[eid] = ("edge", q[0]), p[3] * q[3]
    return Morphism(inner.source, outer.target, vmap, emap, degs)


@dataclass(frozen=True)
class WeightReport:
    is_weight: bool
    edge_weights: tuple[tuple[str, int], ...] | None
    reasons: tuple[str, ...]


def weight_check(m: Morphism) -> WeightReport:
    """A weight is a bijective morphism matching ray classes both ways."""
    base = validate_morphism(m)
    if not base.ok:
        return WeightReport(False, None, base.violations)
    reasons: list[str] = []
    src, tgt = m.source, m.target
    if sorted(m.vertex_map.values()) != sorted(tgt.vertices) or len(src.vertices) != len(tgt.vertices):
        reasons.append("vertex map is not a bijection")
    images = [name for kind, name in m.edge_map.values() if kind == "edge"]
    if len(images) != len(m.edge_map) or sorted(images) != sorted(tgt.edges):
        reasons.append("edge map is not a bijection onto the target edges")
    if not reasons:
        for e1, e2 in combinations(sorted(src.ray_classes), 2):
            same_src = src.ray_classes[e1] == src.ray_classes[e2]
            same_tgt = tgt.ray_classes[m.edge_map[e1][1]] == tgt.ray_classes[m.edge_map[e2][1]]
            if same_src != same_tgt:
                reasons.append(f"rays {e1!r},{e2!r}: parallel on one side only")
    if reasons:
        return WeightReport(False, None, tuple(reasons))
    return WeightReport(True, tuple(sorted((t, k) for t, _, _, k in _places(m).values())), ())


def weight_from_generators(gens: Sequence[PLFunction], edge: str) -> int:
    """Greatest common divisor of the generator slopes on a straight edge."""
    if not gens:
        raise TropError("no generators")
    curve = gens[0].curve
    e = curve.edges.get(edge)
    if e is None:
        raise TropError(f"unknown edge {edge!r}")
    slopes = []
    for g in gens:
        if g.curve != curve:
            raise TropError("generators on different curves")
        if g.is_neg_inf:
            raise TropError("the zero function has no slopes")
        prof = edge_profile(g, edge)
        if len(prof.grid[1]) > (1 if e.is_infinite else 2):
            raise TropError(f"generator is not affine on {edge!r}; subdivide first")
        slopes.append(prof.tail if e.is_infinite else prof.slopes[0])
    g0 = gcd(*slopes)
    if g0 == 0:
        raise TropError("weight undetermined on level edge: all slopes are zero")
    return g0


# -- localization -----------------------------------------------------------------


@dataclass(frozen=True)
class Localization:
    """Handle for reading the germ of a function at a finite point.

    Germs are comparable only against the same recorded direction order.
    """

    curve: Curve
    point: PointRef
    directions: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.directions)

    def apply(self, f: PLFunction) -> Germ:
        if f.curve != self.curve:
            raise TropError("function lives on a different curve")
        if f.is_neg_inf:
            return Germ.zero(self.rank)
        value = f.value_at(self.point)
        slopes = tuple(f.outgoing_slope(self.point, d) for d in self.directions)
        return Germ(self.rank, value, slopes)


def localize(c: Curve, x: PointRef, direction_order: Sequence[str] | None = None) -> Localization:
    """Localization of the function semifield at a finite point."""
    if c.is_at_infinity(x):
        raise TropError("cannot localize at a point at infinity")
    dirs = c.directions_at(x)
    if direction_order is None:
        order = dirs
    else:
        order = tuple(direction_order)
        if sorted(order) != sorted(dirs):
            raise TropError(f"direction order must be a permutation of {sorted(dirs)}")
    return Localization(c, x, order)


def germ_bump(loc: Localization, germ: Germ) -> PLFunction:
    """A function whose germ at the localization point is the given germ.

    Takes the germ value at the point, runs with the germ slopes for eps,
    returns to zero within another eps, and is zero elsewhere; eps is a
    third of the least room along a direction (half of a loop at its
    vertex, 1 along a ray).  The legs are written on the scale S = 6D, D
    the least common denominator of the germ value, the point's offset and
    the edges' lengths, where each room and eps are integers; a leg
    returning with slope r lives on the scale S·r.
    """
    if germ.is_neg_inf:
        return PLFunction.neg_inf(loc.curve)
    if germ.n != loc.rank:
        raise TropError(f"germ rank {germ.n} != point valence {loc.rank}")
    c = loc.curve
    kind, ident, off = c._resolve(loc.point)
    zero = PLFunction.constant(c, 0)
    if not loc.directions:  # an isolated vertex: the germ is its value
        return PLFunction._trusted(c, zero.profiles, {**zero.isolated, ident: germ.coef})

    dirs = [(*d.rsplit(":", 1), slope) for d, slope in zip(loc.directions, germ.slopes)]
    edges = [c.edges[eid] for eid, _, _ in dirs]
    d, (row,) = on_scale(([germ.coef, off if kind == "edge" else 0]
                          + [0 if e.is_infinite else e.length for e in edges],))
    S = 6 * d
    a, at, *lengths = [6 * x for x in row]
    legs, parts = [], {}  # parts: per edge, its zero ends on S, then its legs
    for (eid, sign, slope), e, n in zip(dirs, edges, lengths):
        base = at if kind == "edge" else 0 if sign == "+" else n
        if kind == "vertex" and e.is_loop:
            room = n // 2  # both legs run along the loop: half each
        else:
            room = base if sign == "-" else S if e.is_infinite else n - base
        legs.append((eid, 1 if sign == "+" else -1, slope, base, room))
        parts.setdefault(eid, [(S, ((0, 0),) if e.is_infinite else ((0, 0), (n, 0)))])
    eps = min([room for *_, room in legs]) // 3
    for eid, step, slope, base, _ in legs:
        v1 = a + slope * eps
        rate = -(-abs(v1) // eps) if v1 else 1  # the least integer return slope
        far = (base + step * eps) * rate
        back = ((far + step * abs(v1), 0),) if v1 else ()
        parts[eid].append((S * rate, ((base * rate, a * rate), (far, v1 * rate)) + back))
    profiles = dict(zero.profiles)
    for eid, scaled in parts.items():
        D, rows = common_scale(*scaled)
        g = sorted(dict(chain.from_iterable(rows)).items())  # a leg's start overwrites an end
        tail = profiles[eid].tail
        profiles[eid] = _gridded(D, [g[k] for k in _kept(g, tail)], tail)
    return PLFunction._trusted(c, profiles, zero.isolated)


def _unit_bumps(loc: Localization) -> list[tuple[Germ, PLFunction]]:
    """The unit germ and the unit-slope germs e_1 ... e_n at the point, each
    with its bump function."""
    n = loc.rank
    germs = [Germ.unit(n)] + [Germ.of(0, [int(i == k) for i in range(n)]) for k in range(n)]
    return [(g, germ_bump(loc, g)) for g in germs]


@dataclass(frozen=True)
class SurjectivityReport:
    point: PointRef
    rank: int
    generators: tuple[Germ, ...]  # the germs whose bumps were checked
    all_matched: bool


def localization_surjectivity(c: Curve, x: PointRef) -> SurjectivityReport:
    """Certify that localization at x is onto the germs of the point's valence.

    Every nonzero germ is a constant times a product of powers of the
    unit-slope germs e_1 ... e_n.  Localization is a T-algebra homomorphism,
    and the inverse of a function localizes to the inverse germ, so its image
    is all germs once the bumps of the unit germ and of e_1 ... e_n localize
    back to those germs: n + 1 exact checks.
    """
    loc = localize(c, x)
    bumps = _unit_bumps(loc)
    matched = all(loc.apply(f) == g for g, f in bumps)
    return SurjectivityReport(x, loc.rank, tuple(g for g, _ in bumps), matched)


@dataclass(frozen=True)
class LatticeReport:
    """Slope lattice of pulled-back germs at the preimage of a point."""

    point: PointRef
    preimage: PointRef
    direction_weights: tuple[tuple[str, int], ...]  # target direction -> weight
    generators: tuple[Germ, ...]  # the target germs whose bumps were pulled back
    verified: bool


def weighted_local_image(m: Morphism, x: PointRef) -> LatticeReport:
    """Weights per direction at x, certified on the unit bumps at x.

    Pulls back the bump of the unit germ and of each unit-slope germ e_i at
    x, and checks that its germ at the preimage, in the matching direction
    order, is exactly the unit germ or w_i e_i'.  Since localization at x is
    onto, the pulled-back slope vectors are then exactly the lattice of the
    w_i Z.
    """
    wc = weight_check(m)
    if not wc.is_weight:
        raise TropError(f"not a weight: {wc.reasons[0] if wc.reasons else 'invalid'}")
    tgt, src, places = m.target, m.source, _places(m)
    tloc = localize(tgt, x)
    over = {t: (eid, start, orient, k) for eid, (t, start, orient, k) in places.items()}
    weights = tuple(over[d.rsplit(":", 1)[0]][3] for d in tloc.directions)
    # Preimage point and matching source direction order.
    kind, ident, off = tgt._resolve(x)
    if kind == "vertex":
        pre = src.pt_vertex(next(v for v, w in m.vertex_map.items() if w == ident))
    else:
        eid, start, orient, k = over[ident]
        pre = src.pt_on_edge(eid, (off - start) * orient / k)
    flip = {"+": "-", "-": "+"}
    sdirs = [f"{over[te][0]}:{sign if over[te][2] > 0 else flip[sign]}"
             for te, sign in (d.rsplit(":", 1) for d in tloc.directions)]
    sloc = localize(src, pre, sdirs)
    bumps = _unit_bumps(tloc)
    verified = all(sloc.apply(pullback(m, f))
                   == Germ(g.n, g.coef, tuple(w * s for w, s in zip(weights, g.slopes)))
                   for g, f in bumps)
    return LatticeReport(x, pre, tuple(zip(tloc.directions, weights)),
                         tuple(g for g, _ in bumps), verified)
