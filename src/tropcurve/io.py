"""File formats: curves, functions, divisors, complexes, morphisms, plots.

All interchange is JSON with rationals as strings like ``"3/4"`` (never
floats); polynomials use a line-oriented text form.  Parsers reject
float-typed numbers outright.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .complexes import PolyComplex1D
from .curve import INF, Curve, PointRef
from .errors import FileFormatError, TropError
from .morphism import Morphism
from .plfunction import Divisor, PLFunction, _gridded, edge_profile
from .semifield import TropPoly, integer, rat, ratio, ratio_pairs, ratio_str, ratios_on_scale
from .subgraph import Embedding, Subgraph, make_subgraph


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer of more digits than int() reads
        raise FileFormatError(str(exc)) from exc


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,  # json's text for each exact type
            bool: {True: "true", False: "false"}.get, type(None): {None: "null"}.get}


def _dumps(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, in one call per container; ``indent``
    would pick the pure-Python encoder, which enters a frame per value."""
    if not isinstance(x, (dict, list, tuple)) or not x:
        return json.dumps(x)
    inner, is_dict = pad + "  ", isinstance(x, dict)
    keys = [(encode_basestring_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4]) + ": "
            for k in x] if is_dict else [""] * len(x)
    body = [k + (_SCALARS[type(v)](v) if type(v) in _SCALARS else _dumps(v, inner))
            for k, v in zip(keys, x.values() if is_dict else x)]
    return "[{"[is_dict] + inner + ("," + inner).join(body) + pad + "]}"[is_dict]


def _require(cond: bool, message: str):
    if not cond:
        raise FileFormatError(message)


def _member(data: dict, key: str, kind: type):
    """data[key], empty when absent, which must be a JSON list (kind list) or object (dict)."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise FileFormatError(f"{key} must be a JSON {'list' if kind is list else 'object'}, "
                              f"not {type(value).__name__}")
    return value


def _id(x, what: str) -> str:
    """An id, which must be a JSON string: 1 and "1" are not the same id."""
    if not isinstance(x, str):
        raise FileFormatError(f"{what} must be a string, not {type(x).__name__}: {x!r}")
    return x


def _ratio(x, what: str) -> tuple[int, int]:
    """``ratio`` decides; a file gets its rejection as a FileFormatError."""
    try:
        return ratio(x)
    except TropError as exc:
        if isinstance(x, str):
            raise FileFormatError(f"bad {what}: {x!r}") from exc
        raise FileFormatError(f"{what} must be a rational string, "
                              f"not a {type(x).__name__}: {x!r}") from exc


def _rational(x, what: str) -> Fraction:
    return Fraction(*_ratio(x, what))


def _integer(x, what: str) -> int:
    try:
        return integer(x, what)
    except TropError as exc:
        raise FileFormatError(str(exc)) from exc


# -- curves ---------------------------------------------------------------------


def curve_to_json(c: Curve) -> str:
    return _dumps(c.description()) + "\n"


def curve_from_json(text: str) -> Curve:
    data = _load_json(text)
    _require(isinstance(data, dict), "curve file must be a JSON object")
    vertices = []
    for v in _member(data, "vertices", list):
        _require(isinstance(v, dict) and "id" in v, "vertex entries need an id")
        at_infinity = v.get("at_infinity", False)
        _require(isinstance(at_infinity, bool),
                 f"vertex {v['id']!r}: at_infinity must be true or false")
        vertices.append((_id(v["id"], "vertex id"), at_infinity))
    edges = []
    for e in _member(data, "edges", list):
        _require(isinstance(e, dict) and {"id", "u", "v", "length"} <= set(e),
                 "edge entries need id, u, v, length")
        length = e["length"]
        edges.append((_id(e["id"], "edge id"), _id(e["u"], "edge endpoint"),
                      _id(e["v"], "edge endpoint"),
                      INF if length == "inf" else _rational(length, "edge length")))
    ray_classes = {k: _id(v, "ray class") for k, v in _member(data, "ray_classes", dict).items()}
    try:
        return Curve.build(vertices=vertices, edges=edges, ray_classes=ray_classes)
    except TropError as exc:
        raise FileFormatError(f"invalid curve: {exc}") from exc


# -- points and subgraphs ----------------------------------------------------------


def parse_point(c: Curve, spec) -> PointRef:
    """A vertex id, ``edge@offset``, or a JSON-ish {"vertex"|"edge","offset"}.

    A string that names a vertex and also reads as a different point
    ``edge@offset`` of the curve is rejected; one that names only one of
    them keeps that meaning.
    """
    if isinstance(spec, dict):
        if "vertex" in spec:
            return c.pt_vertex(_id(spec["vertex"], "vertex id"))
        _require({"edge", "offset"} <= set(spec), "point objects need vertex, or edge and offset")
        return c.pt_on_edge(_id(spec["edge"], "edge id"), _rational(spec["offset"], "offset"))
    s = _id(spec, "point")
    if "@" not in s:
        return c.pt_vertex(s)
    eid, _, off = s.partition("@")
    if s not in c.vertices:
        return c.pt_on_edge(eid, _rational(off, "offset"))
    try:
        p = c.pt_on_edge(eid, rat(off))
    except TropError:
        return c.pt_vertex(s)
    _require(p == c.pt_vertex(s),
             f"point {s!r} is ambiguous: vertex {s!r}, or offset {off} on edge {eid!r}")
    return p


def point_to_json(p: PointRef):
    if p.kind == "vertex":
        return {"vertex": p.vertex}
    return {"edge": p.edge, "offset": str(p.offset)}


def subgraph_from_json(c: Curve, text: str) -> Subgraph:
    data = _load_json(text)
    _require(isinstance(data, dict), "subgraph file must be a JSON object")
    intervals = []
    for entry in _member(data, "intervals", list):
        _require(isinstance(entry, (list, tuple)) and len(entry) == 3,
                 "interval entries are [edge, lo, hi]")
        eid, lo, hi = entry
        hi_val = INF if hi == "inf" else _rational(hi, "interval end")
        intervals.append((_id(eid, "edge id"), _rational(lo, "interval start"), hi_val))
    vertices = [_id(v, "vertex id") for v in _member(data, "vertices", list)]
    edges = [_id(e, "edge id") for e in _member(data, "edges", list)]
    try:
        return make_subgraph(c, vertices=vertices, edges=edges, intervals=intervals)
    except TropError as exc:
        raise FileFormatError(f"invalid subgraph: {exc}") from exc


# -- functions -----------------------------------------------------------------------


_ISOLATED = "values_at_vertices"  # the function file's key for the isolated vertices' values


def function_to_json(f: PLFunction) -> str:
    """The bytes of ``json.dumps(data, indent=2)``, written as text from each edge's
    grid: one ``ratio_str`` per number, edge ids through ``json``'s string encoder."""
    if f.is_neg_inf:
        return json.dumps("-inf") + "\n"
    if f.isolated and _ISOLATED in f.curve.edges:
        raise TropError(f"edge {_ISOLATED!r} clashes with the key of the isolated vertices' "
                        f"values: this function has no function file")
    entries = []
    for eid in sorted(f.curve.edges):
        prof = edge_profile(f, eid)
        d, g = prof.grid
        pairs = ",\n      ".join([f'[\n        "{ratio_str(o, d)}",\n'
                                  f'        "{ratio_str(v, d)}"\n      ]' for o, v in g])
        tail = f',\n    "slope_at_infinity": {prof.tail}' if f.curve.edges[eid].is_infinite else ""
        entries.append(f'{encode_basestring_ascii(eid)}: {{\n    "breakpoints": [\n      {pairs}\n'
                       f'    ]{tail}\n  }}')
    if f.isolated:
        iso = {vid: str(v) for vid, v in sorted(f.isolated.items())}
        entries.append(f'"{_ISOLATED}": ' + _dumps(iso, "\n  "))
    return "{\n  " + ",\n  ".join(entries) + "\n}\n"  # a curve has an edge or an isolated vertex


def _breakpoint_ratios(eid: str, breakpoints) -> list[tuple[int, int]]:
    """offset, value, offset, ...: the numbers of an edge's breakpoints as (n, d) pairs.

    [offset, value] lists are read in one pass by ``ratio_pairs``.  Any other
    shape, or a value it rejects (a JSON int, say), is read one number at a
    time, so a file is rejected at its first bad number with that number's
    message.
    """
    if type(breakpoints) is list and {*map(type, breakpoints)} == {list} \
            and {*map(len, breakpoints)} == {2}:
        try:
            return ratio_pairs([*chain.from_iterable(breakpoints)])
        except TropError:
            pass
    ratios = []
    try:
        for o, v in breakpoints:
            ratios.append(_ratio(o, "offset"))
            ratios.append(_ratio(v, "value"))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"edge {eid!r}: breakpoints are [offset, value] pairs") from exc
    return ratios


def function_from_json(c: Curve, text: str) -> PLFunction:
    data = _load_json(text)
    if data == "-inf":
        return PLFunction.neg_inf(c)
    _require(isinstance(data, dict), "function file must be '-inf' or an object")
    iso = {}
    if _ISOLATED not in c.edges:  # an edge of that name keeps its own entry
        iso = _member(data, _ISOLATED, dict)
        data.pop(_ISOLATED, None)
    edge_data = {}
    for eid, entry in data.items():
        _require(isinstance(entry, dict) and "breakpoints" in entry,
                 f"edge {eid!r} needs a breakpoints list")
        ratios = _breakpoint_ratios(eid, entry["breakpoints"])  # each edge goes onto its grid
        edge_data[eid] = _gridded(*ratios_on_scale(ratios, 2), entry.get("slope_at_infinity"))
    try:
        return PLFunction.from_edge_data(c, edge_data,
                                         {k: _rational(v, "vertex value")
                                          for k, v in iso.items()})
    except TropError as exc:
        raise FileFormatError(f"invalid function: {exc}") from exc


# -- divisors -------------------------------------------------------------------------


def divisor_to_json(d: Divisor) -> str:
    return _dumps([[point_to_json(p), k] for p, k in d.items()]) + "\n"


def divisor_from_json(c: Curve, text: str) -> Divisor:
    data = _load_json(text)
    _require(isinstance(data, list), "divisor file must be a list of [point, int]")
    coeffs = []
    for entry in data:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2,
                 "divisor entries are [point, int]")
        p, k = entry
        coeffs.append((parse_point(c, p), _integer(k, "divisor coefficient")))
    try:
        return Divisor(c, coeffs)
    except TropError as exc:
        raise FileFormatError(f"invalid divisor: {exc}") from exc


# -- complexes ------------------------------------------------------------------------


def complex_to_json(k: PolyComplex1D) -> str:
    data = {
        "dim": k.dim,
        "vertices": [[str(x) for x in v] for v in k.vertices],
        "segments": [[i, j, w] for i, j, w in k.segments],
        "rays": [[i, list(d), w] for i, d, w in k.rays],
    }
    return _dumps(data) + "\n"


def complex_from_json(text: str) -> PolyComplex1D:
    data = _load_json(text)
    _require(isinstance(data, dict) and "dim" in data, "complex file needs a dim")
    dim = _integer(data["dim"], "dim")
    _require(dim >= 1, "dim must be a positive integer")
    raw = data.get("vertices", [])
    _require(isinstance(raw, list) and all(isinstance(v, list) for v in raw),
             "complex vertices must be a list of coordinate lists")
    vertices = [[_rational(x, "coordinate") for x in v] for v in raw]
    segments, rays = _member(data, "segments", list), _member(data, "rays", list)
    try:
        return PolyComplex1D.of(dim, vertices, segments, rays)
    except (TropError, TypeError, ValueError) as exc:
        raise FileFormatError(f"invalid complex: {exc}") from exc


# -- polynomials ------------------------------------------------------------------------


def poly_to_text(F: TropPoly) -> str:
    return F.format()


def poly_from_text(text: str, nvars: int | None = None) -> TropPoly:
    return TropPoly.parse(text, nvars=nvars)


# -- morphisms ---------------------------------------------------------------------------


def morphism_from_json(source: Curve, target: Curve, text: str) -> Morphism:
    data = _load_json(text)
    _require(isinstance(data, dict), "morphism file must be a JSON object")
    vmap = {k: _id(v, "vertex id") for k, v in _member(data, "vertex_map", dict).items()}
    emap = {}
    for eid, entry in _member(data, "edge_map", dict).items():
        _require(isinstance(entry, dict) and ({"edge"} <= set(entry) or {"vertex"} <= set(entry)),
                 f"edge_map[{eid!r}] must be {{'edge': id}} or {{'vertex': id}}")
        kind = "edge" if "edge" in entry else "vertex"
        emap[eid] = (kind, _id(entry[kind], f"{kind} id"))
    degrees = {}
    for eid, d in _member(data, "degrees", dict).items():
        _require(_integer(d, f"degree of {eid!r}") >= 0,
                 f"degree of {eid!r} must be a nonnegative integer")
        degrees[eid] = d
    return Morphism(source, target, vmap, emap, degrees)


def embedding_from_json(shape: Curve, target: Curve, text: str) -> Embedding:
    data = _load_json(text)
    _require(isinstance(data, dict), "embedding file must be a JSON object")
    vmap = {k: parse_point(target, v) for k, v in _member(data, "vertex_map", dict).items()}
    emap = {}
    for eid, entry in _member(data, "edge_map", dict).items():
        _require(isinstance(entry, (list, tuple)) and len(entry) == 3,
                 f"edge_map[{eid!r}] must be [target edge, start, orientation]")
        tgt, start, orient = entry
        _require(type(orient) is int and orient in (1, -1), "orientation must be 1 or -1")
        emap[eid] = (_id(tgt, "edge id"), _rational(start, "start offset"), orient)
    return Embedding(shape, vmap, emap)


# -- plots ------------------------------------------------------------------------------

SVG_PRECISION = 6  # decimal places; fixed so identical inputs give identical bytes
SVG_WIDTH = 640  # pixels


def _decimal(x: Fraction) -> str:
    scale = 10 ** SVG_PRECISION
    n = x * scale
    rounded = (n.numerator * 2 + n.denominator) // (2 * n.denominator)
    sign = "-" if rounded < 0 else ""
    rounded = abs(rounded)
    whole, frac = divmod(rounded, scale)
    return f"{sign}{whole}.{frac:0{SVG_PRECISION}d}"


def complex_to_svg(k: PolyComplex1D) -> str:
    """Deterministic SVG for a plane complex.

    Rays are truncated at a length derived from the vertex bounding box;
    the viewport is the bounding box of everything drawn plus a 10% margin.
    All coordinates are serialized with a fixed decimal precision.
    """
    if k.dim != 2:
        raise TropError("SVG plots need a plane complex")
    if not k.vertices:
        raise TropError("empty complex")
    xs = [v[0] for v in k.vertices]
    ys = [v[1] for v in k.vertices]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    reach = span * 2
    strokes = []
    labels = []
    points = list(k.vertices)

    def draw(p, q, w):
        points.extend([p, q])
        strokes.append((p, q, w))
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        labels.append((mid, str(w)))

    for i, j, w in k.segments:
        draw(k.vertices[i], k.vertices[j], w)
    for i, d, w in k.rays:
        base = k.vertices[i]
        scale = reach / max(abs(d[0]), abs(d[1]))
        tip = (base[0] + d[0] * scale, base[1] + d[1] * scale)
        draw(base, tip, w)

    x0 = min(p[0] for p in points)
    x1 = max(p[0] for p in points)
    y0 = min(p[1] for p in points)
    y1 = max(p[1] for p in points)
    margin = max(x1 - x0, y1 - y0, Fraction(1)) / 10
    x0, x1 = x0 - margin, x1 + margin
    y0, y1 = y0 - margin, y1 + margin

    def sx(x):
        return _decimal(x)

    def sy(y):
        return _decimal(y0 + y1 - y)  # flip so the y axis points up

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'viewBox="{_decimal(x0)} {_decimal(y0)} {_decimal(x1 - x0)} {_decimal(y1 - y0)}">',
        f'<g stroke="black" stroke-width="{_decimal((x1 - x0) / 200)}" fill="none">',
    ]
    for p, q, w in strokes:
        out.append(f'<line x1="{sx(p[0])}" y1="{sy(p[1])}" '
                   f'x2="{sx(q[0])}" y2="{sy(q[1])}"/>')
    out.append("</g>")
    out.append(f'<g font-size="{_decimal((x1 - x0) / 25)}" fill="crimson" '
               f'font-family="monospace">')
    for (mx, my), text in labels:
        out.append(f'<text x="{sx(mx)}" y="{sy(my)}">{text}</text>')
    out.append("</g>")
    r = (x1 - x0) / 150
    out.append('<g fill="black">')
    for v in k.vertices:
        out.append(f'<circle cx="{sx(v[0])}" cy="{sy(v[1])}" r="{_decimal(r)}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def complex_to_csv(k: PolyComplex1D) -> str:
    """CSV rows of vertices, segments, and rays with exact rational entries."""
    lines = ["kind,index,data,weight"]
    for idx, v in enumerate(k.vertices):
        lines.append(f"vertex,{idx},{';'.join(str(x) for x in v)},")
    for i, j, w in k.segments:
        lines.append(f"segment,,{i};{j},{w}")
    for i, d, w in k.rays:
        lines.append(f"ray,,{i};{':'.join(str(x) for x in d)},{w}")
    return "\n".join(lines) + "\n"
