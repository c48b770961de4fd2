"""The profile layer against linear-scan reference code.

``ref_value``, ``ref_slope_right``, ``ref_slope_left`` and
``ref_principal_divisor`` are the straightforward versions the library used to
run: one scan of the breakpoint list per query and one query per breakpoint.
The library now bisects for point queries and sweeps each arc once; these
tests require the same results and the same error messages, and bound how the
work grows with the number of breakpoints.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tropcurve.curve import INF, Curve, PointRef, disjoint_union
from tropcurve.errors import TropError
from tropcurve.plfunction import (Divisor, PLFunction, Profile, _slope, _slope_sum, chip_fire,
                                  is_harmonic_at, principal_divisor, pseudodirect_tuple,
                                  restrict_whole, split_components)
from tropcurve.randgen import random_curve, random_function, random_rational, random_subgraph
from tropcurve.realization import realize

from conftest import fraction_calls, rng_for

# -- reference code -------------------------------------------------------------


def ref_value(p: Profile, t: Fraction) -> Fraction:
    bs = p.breaks
    if t > bs[-1][0]:
        if p.tail is None:
            raise TropError(f"offset {t} beyond arc end")
        return bs[-1][1] + p.tail * (t - bs[-1][0])
    for k in range(len(bs) - 1, -1, -1):
        if bs[k][0] <= t:
            if bs[k][0] == t:
                return bs[k][1]
            o0, v0 = bs[k]
            o1, v1 = bs[k + 1]
            return v0 + (v1 - v0) * (t - o0) / (o1 - o0)
    raise TropError(f"offset {t} before arc start")


def ref_slope_right(p: Profile, t: Fraction) -> int:
    bs = p.breaks
    if t < bs[0][0]:
        raise TropError(f"offset {t} before arc start")
    for k in range(len(bs) - 1):
        if bs[k][0] <= t < bs[k + 1][0]:
            return _slope(bs[k], bs[k + 1])
    if p.tail is None:
        raise TropError(f"no piece right of {t}")
    return p.tail


def ref_slope_left(p: Profile, t: Fraction) -> int:
    bs = p.breaks
    if p.tail is not None and t > bs[-1][0]:
        return p.tail
    for k in range(len(bs) - 1, 0, -1):
        if bs[k - 1][0] < t <= bs[k][0]:
            return _slope(bs[k - 1], bs[k])
    raise TropError(f"no piece left of {t}")


def ref_principal_divisor(f: PLFunction) -> Divisor:
    """Outgoing slopes summed point by point, each slope found by a scan."""
    c = f.curve
    coeffs: dict[PointRef, int] = {}

    def bump(p: PointRef, k: int):
        if k:
            coeffs[p] = coeffs.get(p, 0) + k

    for vid, ends in c.edges_at.items():
        if not ends:
            continue
        if c.vertices[vid].at_infinity:
            eid, _ = ends[0]
            bump(c.pt_infinity_of(eid), -f.profiles[eid].tail)
            continue
        total = 0
        for eid, sign in ends:
            prof = f.profiles[eid]
            if sign > 0:
                total += ref_slope_right(prof, Fraction(0))
            elif prof.tail is None:
                total += -ref_slope_left(prof, prof.breaks[-1][0])
            else:
                total += -prof.tail
        bump(c.pt_vertex(vid), total)
    for eid, prof in f.profiles.items():
        interior = prof.breaks[1:-1] if prof.tail is None else prof.breaks[1:]
        for o, _ in interior:
            change = ref_slope_right(prof, o) - ref_slope_left(prof, o)
            bump(c.pt_on_edge(eid, o), change)
    return Divisor(c, coeffs)


# -- inputs -----------------------------------------------------------------------


def outcome(query, *args):
    try:
        return ("ok", query(*args))
    except TropError as exc:
        return ("error", str(exc))


def random_profile(rng: random.Random) -> Profile:
    """Strictly increasing offsets from 0; about one piece in ten has a
    non-integer slope, so the slope error is compared too."""
    n = rng.randint(1, 8)
    tail = rng.randint(-3, 3) if n == 1 or rng.random() < 0.5 else None
    o, v = Fraction(0), random_rational(rng)
    breaks = [(o, v)]
    for _ in range(n - 1):
        width = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        rise = (width * rng.randint(-3, 3) if rng.random() < 0.9
                else width * Fraction(1, 2) + Fraction(1, 7))
        o, v = o + width, v + rise
        breaks.append((o, v))
    return Profile(tuple(breaks), tail)


def query_offsets(p: Profile) -> list[Fraction]:
    offs = [o for o, _ in p.breaks]
    mids = [(a + b) / 2 for a, b in zip(offs, offs[1:])]
    return [Fraction(-1), Fraction(-1, 3)] + offs + mids + [offs[-1] + Fraction(1, 3),
                                                            offs[-1] + 5]


def curve_with_everything(rng: random.Random) -> Curve:
    """A random curve beside a loop with a ray and an isolated vertex."""
    looped = Curve.build(vertices=["P"],
                         edges=[("l", "P", "P", Fraction(rng.randint(1, 6), rng.randint(1, 2))),
                                ("r", "P", None, INF)],
                         ray_classes={"r": "x"})
    return disjoint_union([random_curve(rng), looped, Curve.build(vertices=["Z"])])


def probe_points(c: Curve, d: Divisor) -> list[PointRef]:
    """The support, every vertex and point at infinity, and the midpoint of
    every finite edge, loops included."""
    points = set(d.coeffs)
    points |= {c.pt_vertex(v) for v in c.vertices}
    points |= {c.pt_on_edge(e.id, e.length / 2) for e in c.edges.values() if not e.is_infinite}
    return sorted(points, key=c.point_sort_key)


# -- differential tests -------------------------------------------------------------


def test_point_queries_match_linear_scans():
    rng = rng_for("profile-queries")
    for _ in range(400):
        p = random_profile(rng)
        for t in query_offsets(p):
            assert outcome(p.value, t) == outcome(ref_value, p, t)
            assert outcome(p.slope_right, t) == outcome(ref_slope_right, p, t)
            assert outcome(p.slope_left, t) == outcome(ref_slope_left, p, t)


def test_divisors_and_harmonicity_match_reference():
    rng = rng_for("profile-divisors")
    loop_mids = infinite = 0
    for _ in range(60):
        c = curve_with_everything(rng)
        f = random_function(c, rng)
        d = principal_divisor(f)
        ref = ref_principal_divisor(f)
        assert d == ref
        for p in probe_points(c, ref):
            assert _slope_sum(f, p) == ref.coeff(p)
            assert is_harmonic_at(f, p) == (ref.coeff(p) == 0)
            loop_mids += (p.kind == "on_edge" and c.edges[p.edge].is_loop
                          and p.offset == c.edges[p.edge].length / 2)
            infinite += c.is_at_infinity(p)
    assert loop_mids >= 60 and infinite >= 60


def test_harmonicity_of_the_zero_function_raises():
    c = curve_with_everything(rng_for("profile-zero"))
    with pytest.raises(TropError, match="the zero function has no principal divisor"):
        is_harmonic_at(PLFunction.neg_inf(c), c.pt_vertex("1:P"))


def test_kernel_results_equal_their_validated_rebuilds():
    """Every result built through ``PLFunction._trusted`` passes validation."""
    rng = rng_for("profile-trusted")
    checked = 0
    for _ in range(40):
        c = curve_with_everything(rng) if rng.random() < 0.5 else random_curve(rng)
        f, g = (random_function(c, rng, allow_neg_inf=True) for _ in range(2))
        results = [f.add(g), f.mul(g), f.pow(2), f.pow(3), f.scale(random_rational(rng))]
        if not f.is_neg_inf:
            results += [f.inv(), f.pow(-1), f.pow(0)]
        sub = random_subgraph(c, rng)
        cap = INF if rng.random() < 0.3 else Fraction(rng.randint(1, 12), rng.randint(1, 3))
        results += [PLFunction.constant(c, random_rational(rng)), chip_fire(c, sub, cap),
                    restrict_whole(f, sub)[0], *split_components(f),
                    pseudodirect_tuple(c, [random_function(comp, rng) for comp in c.components()])]
        for r in results:
            if r.is_neg_inf:
                continue
            rebuilt = PLFunction(r.curve, r.profiles, r.isolated)
            assert r == rebuilt and r.isolated == rebuilt.isolated
            d = principal_divisor(r)
            assert d == Divisor(d.curve, d.coeffs)
            assert all(type(k) is int for k in d.coeffs.values())
            checked += 1
    assert checked >= 400


def test_public_constructors_still_validate(segment3):
    path = Curve.build(vertices=["A"], edges=[("a", "A", "B", 1), ("b", "B", "C", 1)])
    zero, one = Fraction(0), Fraction(1)
    with pytest.raises(TropError, match="discontinuous"):
        PLFunction(path, {"a": Profile(((zero, zero), (one, one))),
                          "b": Profile(((zero, zero), (one, zero)))})
    with pytest.raises(TropError, match="non-integer slope"):
        PLFunction(segment3, {"e": Profile(((zero, zero), (Fraction(3), one)))})
    ramp = Profile(((zero, zero), (Fraction(3), Fraction(3))))
    with pytest.raises(TropError, match="unknown edge 'bogus'"):
        PLFunction(segment3, {"e": ramp, "bogus": ramp})
    with pytest.raises(TropError, match="value given for vertex 'A', which is not isolated"):
        PLFunction(segment3, {"e": ramp}, {"A": one})
    with pytest.raises(TropError, match="not on the curve"):
        Divisor(segment3, {PointRef("vertex", vertex="nowhere"): 1})
    # pow's result skips validation, so its exponent is checked instead.
    with pytest.raises(TropError, match="exponent must be an integer, not Fraction"):
        PLFunction.from_edge_data(segment3, {"e": ([(0, 0), (3, 3)], None)}).pow(Fraction(1, 2))


# -- scaling without timing -----------------------------------------------------------


def sawtooth(n: int):
    """One edge of length n - 1; n breakpoints alternating 0, 1 (slopes +1, -1)."""
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n - 1)])
    f = PLFunction.from_edge_data(c, {"e": ([(k, k % 2) for k in range(n)], None)})
    return c, f


@pytest.mark.parametrize("name, op, limit", [
    ("principal_divisor", lambda c, f, p: principal_divisor(f), 5),
    ("realize", lambda c, f, p: realize(c, [f, f]), 5),
    ("is_harmonic_at", lambda c, f, p: is_harmonic_at(f, p), 2),
])
def test_work_grows_linearly_with_breakpoints(name, op, limit):
    counts = []
    for n in (100, 400):
        c, f = sawtooth(n)
        p = c.pt_on_edge("e", n // 2)
        counts.append(fraction_calls(op, c, f, p))
    assert counts[1] <= limit * counts[0], f"{name}: {counts[0]} -> {counts[1]} fraction calls"
