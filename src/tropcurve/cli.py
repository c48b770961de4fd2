"""File-driven command line front end.

Each run is one process: handlers read their files through plain loaders,
and nothing is cached between runs.  Exit codes: 0 success or property
true, 1 property false (including a failed ``selftest`` suite), 2 input
error or bad option, 64 unknown subcommand, 65 malformed file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import io as tio
from .complexes import PolyComplex1D, check_balanced, intersect
from .curve import Curve, canonical_model
from .errors import FileFormatError, InternalError, TropError
from .gluing import glue, glue_function
from .hypersurface import plane_hypersurface
from .morphism import localize, pullback, validate_morphism, weight_check, weight_from_generators
from .plfunction import (PLFunction, _slope_sum, chip_fire, disconnection_witness, extend,
                         module_degree, principal_divisor, restrict_whole, split_components)
from .realization import (bezout_check, check_realization, curve_from_complex,
                          fit_tropical_polynomial, harmonic_balance_report, realize)
from .semifield import TropPoly, rat

COMMANDS = [
    "check-curve", "canonical", "chipfire", "div", "degree", "harmonic", "localize",
    "pullback", "weight", "restrict", "extend", "glue", "witness-disconnected",
    "realize", "balance", "ingest", "fitpoly", "hypersurface", "intersect", "bezout",
    "selftest", "plot",
]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc.strerror}") from exc


def _curve(path: str) -> Curve:
    return tio.curve_from_json(_read(path))


def _function(path: str, curve: Curve) -> PLFunction:
    return tio.function_from_json(curve, _read(path))


def _complex(path: str) -> PolyComplex1D:
    return tio.complex_from_json(_read(path))


def _poly(path: str, nvars: int) -> TropPoly:
    return tio.poly_from_text(_read(path), nvars=nvars)


def _write(path: str | None, text: str, json_mode: bool, payload=None):
    if path:
        Path(path).write_text(text)
        _emit({"written": path} if payload is None else payload, f"wrote {path}", json_mode)
    elif json_mode and payload is not None:
        _emit(payload, text, True)
    else:
        sys.stdout.write(text)


def _emit(payload, text: str, json_mode: bool):
    if json_mode:
        print(tio._dumps(payload))
    else:
        print(text)


def _int_option(value: str) -> int:
    """An integer option: a ``rat`` literal without ``/``, so ``1_0`` or ``1.5`` is a bad option."""
    try:
        if "/" not in value:
            return rat(value).numerator
    except TropError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"unknown subcommand: {argv[0]!r}", file=sys.stderr)
        return 64
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except TropError as exc:
        if not isinstance(exc, InternalError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failure = exc
    except Exception as exc:  # any other exception is a defect of the program
        failure = exc
    print(f"internal error: {type(failure).__name__}: {failure}", file=sys.stderr)
    return 70


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tropcurve",
                                     description="exact max-plus curves, functions, and plane complexes")
    sub = parser.add_subparsers(dest="command")

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=handler)
        return p

    p = cmd("check-curve", _cmd_check_curve, help="validate a curve file")
    p.add_argument("--curve", required=True)

    p = cmd("canonical", _cmd_canonical, help="canonical model of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("-o", "--out")

    p = cmd("chipfire", _cmd_chipfire, help="chip firing move of a subgraph")
    p.add_argument("--curve", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("--length", required=True, help="positive rational or 'inf'")
    p.add_argument("-o", "--out")

    p = cmd("div", _cmd_div, help="principal divisor of a function")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", required=True)

    p = cmd("degree", _cmd_degree, help="degree of the module spanned by functions")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", action="append", required=True)

    p = cmd("harmonic", _cmd_harmonic, help="harmonicity of a function at a point")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True, help="vertex id or edge@offset")

    p = cmd("localize", _cmd_localize, help="germ of a function at a finite point")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--point", required=True)

    p = cmd("pullback", _cmd_pullback, help="pull a function back along a morphism")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--morphism", required=True)
    p.add_argument("--fn", required=True, help="function on the target curve")
    p.add_argument("-o", "--out")

    p = cmd("weight", _cmd_weight, help="weight checks: bijective morphism or slope gcd")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--morphism")
    p.add_argument("--curve")
    p.add_argument("--fn", action="append")
    p.add_argument("--edge")

    p = cmd("restrict", _cmd_restrict, help="restrict a function to a subgraph")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("-o", "--out", help="prefix; writes .curve.json and .fn.json per part")

    p = cmd("extend", _cmd_extend, help="extend a subgraph function to the whole curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("--fn", required=True, help="function on the subgraph curve")
    p.add_argument("--slope", required=True, type=_int_option, help="negative descent slope")
    p.add_argument("-o", "--out")

    p = cmd("glue", _cmd_glue, help="glue two curves along an embedded shape")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--embed-a", required=True)
    p.add_argument("--embed-b", required=True)
    p.add_argument("--fn-a")
    p.add_argument("--fn-b")
    p.add_argument("-o", "--out")
    p.add_argument("--out-fn")

    p = cmd("witness-disconnected", _cmd_witness, help="disconnectedness witness")
    p.add_argument("--curve", required=True)

    p = cmd("realize", _cmd_realize, help="image of a curve under coordinate functions")
    p.add_argument("--curve", required=True)
    p.add_argument("--fn", action="append", required=True)
    p.add_argument("-o", "--out")

    p = cmd("balance", _cmd_balance, help="balancing check of a complex")
    p.add_argument("--complex", required=True)

    p = cmd("ingest", _cmd_ingest, help="curve with harmonic coordinates from a balanced complex")
    p.add_argument("--complex", required=True)
    p.add_argument("-o", "--out", help="prefix; writes .curve.json and .fn0.json, ...")

    p = cmd("fitpoly", _cmd_fitpoly, help="fit a polynomial to a balanced plane complex")
    p.add_argument("--complex", required=True)
    p.add_argument("-o", "--out")

    p = cmd("hypersurface", _cmd_hypersurface, help="plane hypersurface of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--window", nargs=4, metavar=("X0", "Y0", "X1", "Y1"))
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")  # -1/2 is a bound
    p.add_argument("-o", "--out")

    p = cmd("intersect", _cmd_intersect, help="transversal intersections of two complexes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = cmd("bezout", _cmd_bezout, help="intersection total against the degree bound")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = cmd("selftest", _cmd_selftest, help="run the invariant suites")
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--quick", action="store_true", help="fewer cases per suite")

    p = cmd("plot", _cmd_plot, help="emit SVG (dim 2) or CSV for a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--out", required=True, help="output file; .svg or .csv")
    return parser


# -- handlers -------------------------------------------------------------------------


def _cmd_check_curve(args) -> int:
    c = _curve(args.curve)
    payload = {
        "vertices": len(c.vertices),
        "edges": len(c.edges),
        "rays": len(c.ray_classes),
        "ray_classes": len(set(c.ray_classes.values())),
        "components": len(c.component_sets()),
    }
    _emit(payload, "ok: " + ", ".join(f"{k}={v}" for k, v in payload.items()), args.json)
    return 0


def _cmd_canonical(args) -> int:
    c = canonical_model(_curve(args.curve))
    text = tio.curve_to_json(c)
    _write(args.out, text, args.json, payload=c.description())
    return 0


def _cmd_chipfire(args) -> int:
    c = _curve(args.curve)
    g = tio.subgraph_from_json(c, _read(args.subgraph))
    f = chip_fire(c, g, args.length)
    _write(args.out, tio.function_to_json(f), args.json)
    return 0


def _cmd_div(args) -> int:
    c = _curve(args.curve)
    f = _function(args.fn, c)
    d = principal_divisor(f)
    payload = {str(p): k for p, k in d.items()}
    _emit(payload, str(d), args.json)
    return 0


def _cmd_degree(args) -> int:
    c = _curve(args.curve)
    gens = [_function(path, c) for path in args.fn]
    deg = module_degree(gens)
    _emit({"degree": "-inf" if deg is None else deg},
          f"degree: {'-inf' if deg is None else deg}", args.json)
    return 0


def _cmd_harmonic(args) -> int:
    c = _curve(args.curve)
    f = _function(args.fn, c)
    p = tio.parse_point(c, args.point)
    coeff = _slope_sum(f, p)
    result = coeff == 0
    _emit({"harmonic": result, "coefficient": coeff},
          f"harmonic at {p}: {result} (coefficient {coeff})", args.json)
    return 0 if result else 1


def _cmd_localize(args) -> int:
    c = _curve(args.curve)
    f = _function(args.fn, c)
    p = tio.parse_point(c, args.point)
    loc = localize(c, p)
    germ = loc.apply(f)
    payload = {
        "directions": list(loc.directions),
        "germ": "-inf" if germ.is_neg_inf else {"value": str(germ.coef),
                                                "slopes": list(germ.slopes)},
    }
    _emit(payload, f"germ at {p}: {germ} (directions {', '.join(loc.directions)})", args.json)
    return 0


def _cmd_pullback(args) -> int:
    src = _curve(args.source)
    tgt = _curve(args.target)
    m = tio.morphism_from_json(src, tgt, _read(args.morphism))
    f = _function(args.fn, tgt)
    result = pullback(m, f)
    _write(args.out, tio.function_to_json(result), args.json)
    return 0


def _cmd_weight(args) -> int:
    if args.morphism:
        if not (args.source and args.target):
            raise TropError("--morphism needs --source and --target")
        src, tgt = _curve(args.source), _curve(args.target)
        m = tio.morphism_from_json(src, tgt, _read(args.morphism))
        rep = validate_morphism(m)
        if not rep.ok:
            _emit({"valid": False, "violations": list(rep.violations)},
                  "invalid morphism:\n  " + "\n  ".join(rep.violations), args.json)
            return 1
        wc = weight_check(m)
        payload = {"is_weight": wc.is_weight,
                   "edge_weights": dict(wc.edge_weights) if wc.edge_weights else None,
                   "reasons": list(wc.reasons)}
        text = (f"weight: {wc.is_weight}" +
                (f", weights {dict(wc.edge_weights)}" if wc.is_weight else
                 "; " + "; ".join(wc.reasons)))
        _emit(payload, text, args.json)
        return 0 if wc.is_weight else 1
    if not (args.curve and args.fn and args.edge):
        raise TropError("generator mode needs --curve, --fn (repeatable), --edge")
    c = _curve(args.curve)
    gens = [_function(path, c) for path in args.fn]
    w = weight_from_generators(gens, args.edge)
    _emit({"edge": args.edge, "weight": w}, f"weight on {args.edge}: {w}", args.json)
    return 0


def _cmd_restrict(args) -> int:
    c = _curve(args.curve)
    f = _function(args.fn, c)
    g = tio.subgraph_from_json(c, _read(args.subgraph))
    whole, _ = restrict_whole(f, g)
    parts = split_components(whole)
    if args.out:
        written = []
        for idx, part in enumerate(parts):
            cpath = f"{args.out}.{idx}.curve.json"
            fpath = f"{args.out}.{idx}.fn.json"
            Path(cpath).write_text(tio.curve_to_json(part.curve))
            Path(fpath).write_text(tio.function_to_json(part))
            written += [cpath, fpath]
        _emit({"written": written}, "wrote " + ", ".join(written), args.json)
    else:
        payload = [{"curve": part.curve.description(),
                    "fn": json.loads(tio.function_to_json(part))} for part in parts]
        _emit(payload, tio._dumps(payload), args.json)
    return 0


def _cmd_extend(args) -> int:
    c = _curve(args.curve)
    g = tio.subgraph_from_json(c, _read(args.subgraph))
    sub, _ = g.as_curve()
    f_prime = _function(args.fn, sub)
    result = extend(f_prime, g, args.slope)
    _write(args.out, tio.function_to_json(result), args.json)
    return 0


def _cmd_glue(args) -> int:
    c1, c2 = _curve(args.a), _curve(args.b)
    shape = _curve(args.shape)
    e1 = tio.embedding_from_json(shape, c1, _read(args.embed_a))
    e2 = tio.embedding_from_json(shape, c2, _read(args.embed_b))
    res = glue(c1, c2, e1, e2)
    if args.fn_a or args.fn_b:
        if not (args.fn_a and args.fn_b):
            raise TropError("function gluing needs both --fn-a and --fn-b")
        h1 = _function(args.fn_a, c1)
        h2 = _function(args.fn_b, c2)
        welded = glue_function(h1, h2, res)
        if args.out_fn:
            Path(args.out_fn).write_text(tio.function_to_json(welded))
    _write(args.out, tio.curve_to_json(res.curve), args.json,
           payload=res.curve.description())
    return 0


def _cmd_witness(args) -> int:
    c = _curve(args.curve)
    result = disconnection_witness(c)
    if result is None:
        _emit({"connected": True}, "connected", args.json)
        return 1
    s, report = result
    payload = {
        "connected": False,
        "levels": [str(report.a1), str(report.a2), str(report.a3)],
        "separated_low": report.separated_low,
        "separated_high": report.separated_high,
        "identity_holds": report.identity_holds,
        "witness": json.loads(tio.function_to_json(s)),
    }
    _emit(payload, f"disconnected: witness verified with levels "
                   f"({report.a1}, {report.a2}, {report.a3})", args.json)
    return 0


def _cmd_realize(args) -> int:
    c = _curve(args.curve)
    fs = [_function(path, c) for path in args.fn]
    r = realize(c, fs)
    rep = check_realization(r)
    hb = harmonic_balance_report(r)
    payload = {
        "complex": json.loads(tio.complex_to_json(r.image)),
        "injective": rep.injective,
        "local_isometry": rep.local_isometry,
        "parallel_respected": rep.parallel_respected,
        "condition5_free": rep.condition5_free,
        "all_harmonic": hb.all_harmonic,
        "balanced": hb.balance.balanced if hb.balance else None,
    }
    if args.out:
        Path(args.out).write_text(tio.complex_to_json(r.image))
    _emit(payload, f"image: {len(r.image.vertices)} vertices, "
                   f"{len(r.image.segments)} segments, {len(r.image.rays)} rays; "
                   f"injective={rep.injective} isometry={rep.local_isometry} "
                   f"parallel={rep.parallel_respected} condition5={rep.condition5_free}",
          args.json)
    return 0


def _cmd_balance(args) -> int:
    k = _complex(args.complex)
    rep = check_balanced(k)
    defects = {str(i): list(d) for i, d in rep.defects if any(d)}
    _emit({"balanced": rep.balanced, "defects": defects},
          f"balanced: {rep.balanced}" + ("" if rep.balanced else f"; defects {defects}"),
          args.json)
    return 0 if rep.balanced else 1


def _cmd_ingest(args) -> int:
    k = _complex(args.complex)
    c, fs, r = curve_from_complex(k)
    payload = {"curve": c.description(),
               "functions": [json.loads(tio.function_to_json(f)) for f in fs]}
    if args.out:
        written = [f"{args.out}.curve.json"]
        Path(written[0]).write_text(tio.curve_to_json(c))
        for idx, f in enumerate(fs):
            path = f"{args.out}.fn{idx}.json"
            Path(path).write_text(tio.function_to_json(f))
            written.append(path)
        _emit({"written": written}, "wrote " + ", ".join(written), args.json)
    else:
        _emit(payload, tio._dumps(payload), args.json)
    return 0


def _cmd_fitpoly(args) -> int:
    k = _complex(args.complex)
    F = fit_tropical_polynomial(k)
    _write(args.out, tio.poly_to_text(F), args.json,
           payload={"degree": F.degree(), "terms": len(F.terms),
                    "text": tio.poly_to_text(F)})
    return 0


def _cmd_hypersurface(args) -> int:
    F = _poly(args.poly, 2)
    window = None
    if args.window:
        x0, y0, x1, y1 = (rat(v) for v in args.window)
        window = ((x0, y0), (x1, y1))
    k = plane_hypersurface(F, window=window)
    _write(args.out, tio.complex_to_json(k), args.json,
           payload=json.loads(tio.complex_to_json(k)))
    return 0


def _cmd_intersect(args) -> int:
    k1, k2 = _complex(args.a), _complex(args.b)
    points = intersect(k1, k2)
    payload = [{"point": [str(x) for x in p.point], "mult": p.multiplicity}
               for p in points]
    _emit(payload, "\n".join(f"({p.point[0]}, {p.point[1]}) multiplicity {p.multiplicity}"
                             for p in points) or "no intersection points", args.json)
    return 0


def _cmd_bezout(args) -> int:
    rep = bezout_check(_complex(args.a), _complex(args.b))
    payload = {"sum": rep.total, "bound": rep.bound,
               "degrees": [rep.degree1, rep.degree2], "ok": rep.ok}
    _emit(payload, f"sum {rep.total} <= bound {rep.bound} "
                   f"({rep.degree1} * {rep.degree2}): {rep.ok}", args.json)
    return 0 if rep.ok else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(seed=args.seed, quick=args.quick)
    ok = all(r.passed for r in results)
    if args.json:
        print(tio._dumps([{"suite": r.name, "cases": r.cases, "passed": r.passed,
                           "detail": r.detail} | ({} if r.passed else {"seed": args.seed})
                          for r in results]))
    else:
        for r in results:
            if r.passed:
                print(f"pass  {r.name}: {r.cases} cases")
            else:
                print(f"FAIL  {r.name}: {r.detail}; reproduce with --seed {args.seed}")
        print(f"{'all suites passed' if ok else 'SUITE FAILURES'}")
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    k = _complex(args.complex)
    out = args.out
    if out.endswith(".svg"):
        text = tio.complex_to_svg(k)
    elif out.endswith(".csv"):
        text = tio.complex_to_csv(k)
    else:
        raise TropError("plot output must end in .svg or .csv")
    Path(out).write_text(text)
    _emit({"written": out}, f"wrote {out}", args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
