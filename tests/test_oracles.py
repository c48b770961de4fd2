"""Kernels against oracles that know only what a piecewise linear function is.

``value`` reads a function at one point of an edge by a linear scan of its
breakpoints and its slope at infinity, and ``outgoing`` reads a slope off two
values.  ``add`` and ``mul`` must be the pointwise max and sum at every
breakpoint and every midpoint between breakpoints, and ``principal_divisor``
must give each vertex and each breakpoint the sum of its outgoing slopes, and
no other point a coefficient.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropcurve.curve import Curve, PointRef
from tropcurve.plfunction import PLFunction, principal_divisor
from tropcurve.randgen import random_curve, random_function

from conftest import rng_for


def value(f: PLFunction, eid: str, t: Fraction) -> Fraction | None:
    """f at offset t of edge eid; None for the function -inf."""
    if f.is_neg_inf:
        return None
    p = f.profiles[eid]
    o0, v0 = p.breaks[0]
    for o1, v1 in p.breaks[1:]:
        if t <= o1:
            return v0 + (v1 - v0) * (t - o0) / (o1 - o0)
        o0, v0 = o1, v1
    assert t == o0 or p.tail is not None
    return v0 + p.tail * (t - o0)


def offsets(c: Curve, eid: str, fs) -> list[Fraction]:
    """Every breakpoint offset of the functions fs on an edge, the midpoints
    between them, and on a ray one point past the last."""
    breaks = sorted({o for f in fs if not f.is_neg_inf for o, _ in f.profiles[eid].breaks})
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    past = [breaks[-1] + 1] if breaks and c.edges[eid].is_infinite else []
    return sorted(breaks + mids + past)


def tmax(x, y):
    return y if x is None else x if y is None else max(x, y)


def tplus(x, y):
    return None if x is None or y is None else x + y


def pair(rng: random.Random):
    c = random_curve(rng)
    f, g = (random_function(c, rng, allow_neg_inf=True) for _ in range(2))
    return c, f, g


def test_add_and_mul_are_pointwise_max_and_plus():
    rng = rng_for("oracle-add-mul")
    points = 0
    for _ in range(300):
        c, f, g = pair(rng)
        for op, oracle in ((f.add(g), tmax), (f.mul(g), tplus)):
            for eid in c.edges:
                for t in offsets(c, eid, (f, g, op)):
                    assert value(op, eid, t) == oracle(value(f, eid, t), value(g, eid, t)), \
                        (c, f.profiles, g.profiles, eid, t)
                    points += 1
            if not op.is_neg_inf:
                for vid, x in op.isolated.items():
                    assert x == oracle(None if f.is_neg_inf else f.isolated[vid],
                                       None if g.is_neg_inf else g.isolated[vid])
    assert points > 10000, points


def outgoing(f: PLFunction, eid: str, at_start: bool, eps: Fraction) -> Fraction:
    """The slope of f leaving an end of edge eid into the edge; eps lies
    within the edge's first and last piece."""
    e = f.curve.edges[eid]
    if at_start:
        return (value(f, eid, eps) - value(f, eid, Fraction(0))) / eps
    if e.is_infinite:  # leaving the point at infinity toward the base
        last = f.profiles[eid].breaks[-1][0]
        return value(f, eid, last) - value(f, eid, last + 1)
    return (value(f, eid, e.length - eps) - value(f, eid, e.length)) / eps


def test_principal_divisor_is_the_sum_of_outgoing_slopes():
    rng = rng_for("oracle-divisor")
    nonzero = 0
    for _ in range(300):
        c = random_curve(rng)
        f = random_function(c, rng)
        div = principal_divisor(f)
        eps = {}
        for eid, e in c.edges.items():
            breaks = [o for o, _ in f.profiles[eid].breaks]
            gaps = [b - a for a, b in zip(breaks, breaks[1:])]
            eps[eid] = min(gaps + [Fraction(1)]) / 2
        expected: dict[PointRef, Fraction] = {}
        for vid, ends in c.edges_at.items():
            if ends:
                expected[PointRef("vertex", vertex=vid)] = sum(
                    outgoing(f, eid, sign > 0, eps[eid]) for eid, sign in ends)
        for eid in c.edges:
            for o, _ in f.profiles[eid].breaks[1:]:
                if o != c.edges[eid].length:
                    left, right = value(f, eid, o - eps[eid]), value(f, eid, o + eps[eid])
                    here = value(f, eid, o)
                    expected[c.pt_on_edge(eid, o)] = (right - here + left - here) / eps[eid]
        for p, k in expected.items():
            assert div.coeff(p) == k, (c, f.profiles, p)
            nonzero += k != 0
        assert set(div.support()) <= set(expected), (c, f.profiles)
    assert nonzero > 1000, nonzero
