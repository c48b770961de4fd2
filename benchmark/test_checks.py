"""Every output check of the benchmark can fail.

Each case runs one task, confirms that its true result passes ``check``, then
corrupts one field of the result's view and expects ``CheckFailed``.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

_VIEWS: dict = {}


def task_view(workload: str, pick):
    """(data, view) of the first seed-1 task that ``pick`` accepts, run once."""
    key = (workload, pick.__name__)
    if key not in _VIEWS:
        w = workloads.WORKLOADS[workload]
        data = next(t for t in workloads.tasks(workload, 1) if pick(t))
        objs = w.build(data)
        results: dict = {}
        for step in w.steps(objs, results):
            step()
        view = w.view(objs, results)
        w.check(data, view)
        _VIEWS[key] = (data, view)
    return _VIEWS[key]


def line(t):
    return t["name"].startswith("line")


def loopless_with_ray(t):
    edges = t["curve"]["edges"]
    return all(u != v for _, u, v, _ in edges) and any(e[3] == "inf" for e in edges) \
        and len(edges) > 2 and t["subgraph"]["intervals"]


def first(t):
    return True


def shift_breakpoint(fn, eid):
    breaks, tail = fn[eid]
    o, v = breaks[1]
    breaks[1] = (o + Fraction(1, 97), v)


def bump_value(fn, eid):
    breaks, tail = fn[eid]
    o, v = breaks[1]
    breaks[1] = (o, v + 1)


def bump_tail(fn, eid):
    breaks, tail = fn[eid]
    fn[eid] = (breaks, tail + 1)


def first_finite_edge(data):
    return next(e[0] for e in data["curve"]["edges"] if e[3] != "inf")


def first_key(d):
    return sorted(d, key=str)[0]


LONG = {
    "sum: shifted breakpoint": lambda d, v: shift_breakpoint(v["sum"], "left"),
    "sum: wrong tail": lambda d, v: bump_tail(v["sum"], "right"),
    "product: wrong value": lambda d, v: bump_value(v["product"], "right"),
    "divisor: coefficient off by one":
        lambda d, v: v["divisor"].__setitem__(first_key(v["divisor"]),
                                              v["divisor"][first_key(v["divisor"])] + 1),
    "divisor: dropped point": lambda d, v: v["divisor"].pop(first_key(v["divisor"])),
    "harmonic: flipped answer": lambda d, v: v["harmonic"].__setitem__(0, not v["harmonic"][0]),
    "image: dropped ray": lambda d, v: v["image"]["rays"].pop(),
    "image: ray weight off by one":
        lambda d, v: v["image"]["rays"].__setitem__(0, v["image"]["rays"][0][:2]
                                                    + (v["image"]["rays"][0][2] + 1,)),
    "image: segment weight doubled":
        lambda d, v: v["image"]["segments"].__setitem__(0, v["image"]["segments"][0][:2]
                                                        + (2 * v["image"]["segments"][0][2],)),
    "json: changed product": lambda d, v: bump_value(v["json"], "left"),
}

SMALL = {
    "chip_fire: wrong value": lambda d, v: bump_value(v["chip_fire"], first_finite_edge(d)),
    "chip_fire: shifted breakpoint":
        lambda d, v: shift_breakpoint(v["chip_fire"], first_finite_edge(d)),
    "divisor of product: off by one":
        lambda d, v: v["div_product"].__setitem__(first_key(v["div_product"]),
                                                  v["div_product"][first_key(v["div_product"])] + 1),
    "divisor of inverse: dropped point": lambda d, v: v["div_inverse"].pop(first_key(v["div_inverse"])),
    "germ: wrong value": lambda d, v: v["germs"].__setitem__(0, (v["germs"][0][0] + 1, v["germs"][0][1])),
    "germ of sum: wrong slope":
        lambda d, v: v["germs"].__setitem__(2, (v["germs"][2][0],
                                                (v["germs"][2][1][0] + 1,) + v["germs"][2][1][1:])),
    "germ of product: wrong value":
        lambda d, v: v["germs"].__setitem__(4, (v["germs"][4][0] + 1, v["germs"][4][1])),
    "germ of inverse: wrong slope":
        lambda d, v: v["germs"].__setitem__(6, (v["germs"][6][0],
                                                (v["germs"][6][1][0] - 1,) + v["germs"][6][1][1:])),
    "restriction: changed after extend":
        lambda d, v: bump_value(v["re_restricted"], first_key(v["re_restricted"])),
    "morphism: identity rejected": lambda d, v: v.__setitem__("morphism_ok", False),
    "pullback: wrong value": lambda d, v: bump_value(v["pullback"], first_finite_edge(d)),
    "module degree: off by one": lambda d, v: v.__setitem__("degree", v["degree"] + 1),
    "curve json: changed": lambda d, v: v.__setitem__("json_curve_equal", False),
}

PLANE = {
    "K1: dropped ray": lambda d, v: v["K1"]["rays"].pop(),
    "K1c: dropped segment": lambda d, v: v["K1c"]["segments"].pop(),
    "K2: ray weight off by one":
        lambda d, v: v["K2"]["rays"].__setitem__(0, v["K2"]["rays"][0][:2]
                                                 + (v["K2"]["rays"][0][2] + 1,)),
    "K2: moved vertex":
        lambda d, v: v["K2"]["vertices"].__setitem__(0, (v["K2"]["vertices"][0][0] + Fraction(1, 5),
                                                         v["K2"]["vertices"][0][1])),
    "intersection: multiplicity off by one":
        lambda d, v: v["multiplicities"].__setitem__(0, v["multiplicities"][0] + 1),
    "intersection: dropped point": lambda d, v: v["multiplicities"].pop(),
    "fit: wrong coefficient":
        lambda d, v: v["fitted"].__setitem__(first_key(v["fitted"]),
                                             v["fitted"][first_key(v["fitted"])] + 1),
    "complex json: changed": lambda d, v: v.__setitem__("complex_json", False),
    "polynomial text: changed": lambda d, v: v.__setitem__("poly_text", False),
}

CASES = [("long-profiles", line, name, fn) for name, fn in LONG.items()]
CASES += [("small-curves", loopless_with_ray, name, fn) for name, fn in SMALL.items()]
CASES += [("plane-curves", first, name, fn) for name, fn in PLANE.items()]


@pytest.mark.parametrize("workload,pick,name,corrupt", CASES, ids=[c[2] for c in CASES])
def test_corrupted_result_is_rejected(workload, pick, name, corrupt):
    data, view = task_view(workload, pick)
    bad = copy.deepcopy(view)
    corrupt(data, bad)
    assert bad != view
    with pytest.raises(CheckFailed):
        workloads.WORKLOADS[workload].check(data, bad)
