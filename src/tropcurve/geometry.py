"""Exact geometry helpers for one-dimensional complexes in Q^n.

The predicates ``parallel``, ``on_edge`` and ``edge_intersection``, and
``primitive``, take integer coordinates: ``complexes`` puts rational points on
their least common denominator with ``semifield.on_scale``, a positive factor
that keeps order, equality and collinearity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from typing import Sequence

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(map(sub, a, b))


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(map(add, a, b))


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b), 0)


def _minor(a: Sequence, b: Sequence):
    """(i, j, a[i] b[j] - a[j] b[i]) for the first nonzero 2x2 minor, or None."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            m = a[i] * b[j] - a[j] * b[i]
            if m:
                return i, j, m
    return None


def parallel(a: Sequence, b: Sequence) -> bool:
    """True when two vectors are linearly dependent (any dimension)."""
    return _minor(a, b) is None


def primitive(d: Sequence[int], w: int = 1) -> IVec:
    """w times the primitive integer vector along the nonzero integer vector d."""
    g = gcd(*d)
    return tuple(w * x // g for x in d)


def on_edge(kind: str, p0: IVec, p1: IVec, x: IVec) -> bool:
    """Whether x lies on the closed segment p0 p1, or on the ray from p0 along p1."""
    d = vsub(p1, p0) if kind == "seg" else p1
    px = vsub(x, p0)
    if not parallel(d, px):
        return False
    t = dot(px, d)
    return t >= 0 and (kind == "ray" or t <= dot(d, d))


def edge_intersection(kind_a: str, a0: IVec, a1: IVec, kind_b: str, b0: IVec, b1: IVec):
    """Intersect two edges ("seg" endpoints or "ray" base and direction) on integers.

    Returns ("none",); ("overlap", num, den) when the supports share
    infinitely many points, num / den being one of them; or ("point", num,
    den, at_end_a, at_end_b) for a single common point num / den, with one
    flag per edge saying whether it is an endpoint (a segment's end or a
    ray's base).  num is an integer vector, den a positive integer: nothing
    is divided.  Works in any ambient dimension.
    """
    d1 = vsub(a1, a0) if kind_a == "seg" else a1
    d2 = vsub(b1, b0) if kind_b == "seg" else b1
    diff = vsub(b0, a0)
    pivot = _minor(d1, d2)
    if pivot is None:
        if not parallel(d1, diff):
            return ("none",)
        # Parameters along a, times dd: a covers [0, dd], or [0, oo) for a ray.
        dd = dot(d1, d1)
        t0 = dot(diff, d1)
        t1 = t0 + dot(d2, d1)
        if kind_b == "ray":
            blo, bhi = (t0, None) if t1 > t0 else (None, t0)
        else:
            blo, bhi = min(t0, t1), max(t0, t1)
        lo = 0 if blo is None else max(blo, 0)
        hi = bhi if kind_a == "ray" else dd if bhi is None else min(dd, bhi)
        if hi is not None and lo > hi:
            return ("none",)
        if lo == hi:
            return ("point", tuple(o * dd + d * lo for o, d in zip(a0, d1)), dd, True, True)
        if hi is None:
            return ("overlap", tuple(o * dd + d * (lo + dd) for o, d in zip(a0, d1)), dd)
        return ("overlap", tuple(o * 2 * dd + d * (lo + hi) for o, d in zip(a0, d1)), 2 * dd)
    # Independent directions: a0 + (t/den) d1 = b0 + (s/den) d2 by Cramer's
    # rule on the pivot coordinates, then confirmed on the rest.
    i, j, den = pivot
    t = diff[i] * d2[j] - diff[j] * d2[i]
    s = diff[i] * d1[j] - diff[j] * d1[i]
    if den < 0:
        t, s, den = -t, -s, -den
    if len(d1) > 2 and any(diff[k] * den != d1[k] * t - d2[k] * s
                           for k in range(len(d1)) if k not in (i, j)):
        return ("none",)
    if t < 0 or (kind_a == "seg" and t > den) or s < 0 or (kind_b == "seg" and s > den):
        return ("none",)
    return ("point", tuple(o * den + d * t for o, d in zip(a0, d1)), den,
            t == 0 or (kind_a == "seg" and t == den), s == 0 or (kind_b == "seg" and s == den))
