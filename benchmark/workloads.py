"""The three workloads: how each task builds its objects, what it times, and
how its result is viewed and checked.

``build`` turns a task's plain data into program objects through the public
constructors (``Curve.build``, ``PLFunction.from_edge_data``, ``make_subgraph``,
``TropPoly.of``); it runs before every repetition, outside the timed region, so
no cache the program keeps on its objects survives from one repetition to the
next.  ``steps`` lists the calls a repetition makes, in order; each is timed on
its own and stores its result in a dict, where later steps may read it.
``view`` turns those results into plain data, and ``check`` compares that with
``oracles``.
"""

from __future__ import annotations


import inputs
import oracles
from oracles import require

from tropcurve.complexes import intersect
from tropcurve.curve import Curve
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.io import (complex_from_json, complex_to_json, curve_from_json, curve_to_json,
                          function_from_json, function_to_json, poly_from_text, poly_to_text)
from tropcurve.morphism import Morphism, localize, pullback, validate_morphism
from tropcurve.plfunction import (PLFunction, chip_fire, edge_profile, extend, is_harmonic_at,
                                  module_degree, principal_divisor, restrict_whole)
from tropcurve.realization import curve_from_complex, fit_tropical_polynomial, realize
from tropcurve.semifield import TropPoly
from tropcurve.subgraph import make_subgraph


def build_curve(data: dict) -> Curve:
    return Curve.build(vertices=data["vertices"], edges=data["edges"],
                       ray_classes=data["ray_classes"])


def build_point(c: Curve, p: tuple):
    return c.pt_vertex(p[1]) if p[0] == "vertex" else c.pt_on_edge(p[1], p[2])


def point_key(p) -> tuple:
    return ("vertex", p.vertex) if p.kind == "vertex" else ("edge", p.edge, p.offset)


def function_view(f) -> dict:
    """Per user edge of the function's curve: (breakpoints, tail)."""
    out = {}
    for eid in f.curve.edges:
        prof = edge_profile(f, eid)
        out[eid] = (list(prof.breaks), prof.tail)
    return out


def divisor_view(d) -> dict:
    return {point_key(p): k for p, k in d.coeffs.items()}


def complex_view(k) -> dict:
    return {"vertices": list(k.vertices), "segments": list(k.segments), "rays": list(k.rays)}


def germ_view(g) -> tuple:
    return (g.coef, g.slopes)


class LongProfiles:
    """Functions with LONG_PIECES pieces per arc on a segment, a line and a cycle."""

    name = "long-profiles"

    @staticmethod
    def build(data):
        c = build_curve(data["curve"])
        fs = [PLFunction.from_edge_data(c, data[k]) for k in ("f", "g", "h")]
        return c, fs, [build_point(c, p) for p in data["points"]]

    @staticmethod
    def steps(objs, r):
        c, (f, g, h), points = objs
        r["harmonic"] = []

        def add():
            r["sum"] = f.add(h)

        def mul():
            r["product"] = f.mul(h)

        def divisor():
            r["divisor"] = principal_divisor(r["product"])

        def harmonic(x):
            return lambda: r["harmonic"].append(is_harmonic_at(r["product"], x))

        def image():
            r["image"] = realize(c, [f, g]).image

        def json_round_trip():
            r["json"] = function_from_json(c, function_to_json(r["product"]))

        return [add, mul, divisor, *map(harmonic, points), image, json_round_trip]

    @staticmethod
    def view(objs, r):
        return {"sum": function_view(r["sum"]), "product": function_view(r["product"]),
                "divisor": divisor_view(r["divisor"]), "harmonic": r["harmonic"],
                "image": complex_view(r["image"]), "json": function_view(r["json"])}

    @staticmethod
    def check(data, v):
        curve = data["curve"]
        oracles.check_pointwise(curve, [data["f"], data["h"]], v["sum"], max, "add")
        oracles.check_pointwise(curve, [data["f"], data["h"]], v["product"],
                                lambda a, b: a + b, "mul")
        want = oracles.sum_divisors(oracles.outgoing(curve, data["f"]),
                                    oracles.outgoing(curve, data["h"]))
        oracles.check_divisor(want, v["divisor"], "principal_divisor(f*h)")
        for p, got in zip(data["points"], v["harmonic"]):
            coeff = want.get(oracles.normal_point(curve, p), 0)
            require(got == (coeff == 0), f"is_harmonic_at {p}: got {got}, coefficient {coeff}")
        oracles.check_realization(data, v["image"])
        require(v["json"] == v["product"], "JSON round trip changed the product")


class SmallCurves:
    """Many small curves with loops and shared ray classes, tiny profiles."""

    name = "small-curves"

    @staticmethod
    def build(data):
        c = build_curve(data["curve"])
        f1 = PLFunction.from_edge_data(c, data["f1"])
        f2 = PLFunction.from_edge_data(c, data["f2"])
        sub = data["subgraph"]
        g = make_subgraph(c, vertices=sub["vertices"], edges=sub["edges"],
                          intervals=sub["intervals"])
        return (c, f1, f2, g, c.pt_vertex(data["at"]), data["chip_length"],
                oracles.extension_slope(data))

    @staticmethod
    def steps(objs, r):
        return [lambda: r.update(out=SmallCurves.run(objs))]

    @staticmethod
    def run(objs):
        c, f1, f2, g, x, length, slope = objs
        fired = chip_fire(c, g, length)
        s, p, q = f1.add(f2), f1.mul(f2), f1.inv()
        div_p, div_q = principal_divisor(p), principal_divisor(q)
        loc = localize(c, x)
        g1, g2 = loc.apply(f1), loc.apply(f2)
        germs = (g1, g1.add(g2), loc.apply(s), g1.mul(g2), loc.apply(p), g1.inv(), loc.apply(q))
        first, _ = restrict_whole(f1, g)
        again, _ = restrict_whole(extend(first, g, slope), g)
        identity = Morphism.identity(c)
        report = validate_morphism(identity)
        pulled = pullback(identity, f1) if report.ok else None
        degree = module_degree([f1, f2])
        back = curve_from_json(curve_to_json(c))
        return fired, div_p, div_q, germs, first, again, report, pulled, degree, back

    @staticmethod
    def view(objs, r):
        c = objs[0]
        fired, div_p, div_q, germs, first, again, report, pulled, degree, back = r["out"]
        return {"chip_fire": function_view(fired), "div_product": divisor_view(div_p),
                "div_inverse": divisor_view(div_q), "germs": [germ_view(gm) for gm in germs],
                "restricted": function_view(first), "re_restricted": function_view(again),
                "morphism_ok": report.ok,
                "pullback": None if pulled is None else function_view(pulled),
                "degree": degree, "json_curve_equal": back == c}

    @staticmethod
    def check(data, v):
        curve = data["curve"]
        oracles.check_chip_fire(data, v["chip_fire"])
        d1, d2 = oracles.outgoing(curve, data["f1"]), oracles.outgoing(curve, data["f2"])
        oracles.check_divisor(oracles.sum_divisors(d1, d2), v["div_product"],
                              "principal_divisor(f1*f2)")
        oracles.check_divisor({p: -k for p, k in d1.items()}, v["div_inverse"],
                              "principal_divisor(1/f1)")
        g1, g_sum_of, g_of_sum, g_prod_of, g_of_prod, g_inv_of, g_of_inv = v["germs"]
        at = ("vertex", data["at"])
        want_value = oracles.vertex_value(curve, data["f1"], data["at"])
        require(g1[0] == want_value, f"germ value {g1[0]} != f1({data['at']}) = {want_value}")
        require(sum(g1[1]) == d1.get(at, 0),
                f"germ slope sum {sum(g1[1])} != divisor coefficient {d1.get(at, 0)}")
        require(g_of_sum == g_sum_of, f"germ of a sum {g_of_sum} != sum of germs {g_sum_of}")
        require(g_of_prod == g_prod_of, f"germ of a product {g_of_prod} != product {g_prod_of}")
        require(g_of_inv == g_inv_of, f"germ of an inverse {g_of_inv} != inverse {g_inv_of}")
        require(v["re_restricted"] == v["restricted"],
                "restrict(extend(restrict(f1))) differs from restrict(f1)")
        loopless = all(u != w for _, u, w, _ in curve["edges"])
        require(v["morphism_ok"] == loopless,
                f"identity morphism valid={v['morphism_ok']} on a curve with loops={not loopless}")
        if loopless:
            oracles.check_pointwise(curve, [data["f1"]], v["pullback"], lambda a: a, "pullback")
        want_degree = oracles.module_degree([d1, d2])
        require(v["degree"] == want_degree, f"module_degree {v['degree']} != {want_degree}")
        require(v["json_curve_equal"], "curve JSON round trip changed the curve")


class PlaneCurves:
    """Pairs of plane polynomials: hypersurfaces, intersections, fitting."""

    name = "plane-curves"

    @staticmethod
    def build(data):
        return TropPoly.of(2, data["F1"]), TropPoly.of(2, data["F2"]), data["shift"]

    @staticmethod
    def steps(objs, r):
        F1, F2, shift = objs

        def hypersurface1():
            r["K1"] = plane_hypersurface(F1)

        def canonical():
            r["K1c"] = r["K1"].canonical()

        def hypersurface2():
            r["K2"] = plane_hypersurface(F2)

        def meet():
            r["points"] = intersect(r["K1c"], r["K2"].translate(shift))

        def fit():
            r["fitted"] = fit_tropical_polynomial(r["K1"])

        def rebuild():
            curve_from_complex(r["K1"])

        def round_trips():
            r["complex_json"] = complex_from_json(complex_to_json(r["K1"]))
            r["poly_text"] = poly_from_text(poly_to_text(F1))

        return [hypersurface1, canonical, hypersurface2, meet, fit, rebuild, round_trips]

    @staticmethod
    def view(objs, r):
        return {"K1": complex_view(r["K1"]), "K1c": complex_view(r["K1c"]),
                "K2": complex_view(r["K2"]),
                "multiplicities": [pt.multiplicity for pt in r["points"]],
                "fitted": dict(r["fitted"].terms), "complex_json": r["complex_json"] == r["K1"],
                "poly_text": r["poly_text"] == objs[0]}

    @staticmethod
    def check(data, v):
        F1, F2 = data["F1"], data["F2"]
        pts1 = oracles.sample_points(F1, v["K1"])
        oracles.check_locus(F1, v["K1"], pts1)
        oracles.check_locus(F1, v["K1c"], pts1)
        oracles.check_locus(F2, v["K2"], oracles.sample_points(F2, v["K2"]))
        for k in ("K1", "K2"):
            oracles.check_balanced(v[k])
        oracles.check_newton_rays(F1, v["K1c"])
        oracles.check_newton_rays(F2, v["K2"])
        oracles.check_bernstein(F1, F2, v["multiplicities"])
        oracles.check_same_locus(F1, v["fitted"], pts1)
        require(v["complex_json"], "complex JSON round trip changed the complex")
        require(v["poly_text"], "polynomial text round trip changed the polynomial")


WORKLOADS = {w.name: w for w in (LongProfiles, SmallCurves, PlaneCurves)}


def tasks(workload: str, seed: int) -> list[dict]:
    return inputs.GENERATORS[workload](seed)
