"""Exact rational geometry helpers for one-dimensional complexes in Q^n."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import TropError

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(a: Sequence, t) -> Vec:
    return tuple(x * t for x in a)


def dot(a: Sequence, b: Sequence):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def parallel(a: Sequence, b: Sequence) -> bool:
    """True when two vectors are linearly dependent (any dimension)."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return False
    return True


def primitive_of(d: Sequence) -> tuple[IVec, Fraction]:
    """Write a nonzero rational vector as (lattice length) * (primitive integer vector)."""
    fr = [Fraction(x) for x in d]
    if all(x == 0 for x in fr):
        raise TropError("zero vector has no direction")
    denom = 1
    for x in fr:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    prim = tuple(v // g for v in ints)
    return prim, Fraction(g, denom)


def ivec_gcd(d: Sequence[int]) -> int:
    g = 0
    for v in d:
        g = gcd(g, abs(v))
    return g


def on_segment(p: Sequence, a: Sequence, b: Sequence) -> bool:
    """Exact point-on-closed-segment test."""
    ab = vsub(b, a)
    ap = vsub(p, a)
    if not parallel(ab, ap):
        return False
    t = dot(ap, ab)
    return 0 <= t <= dot(ab, ab)


def on_ray(p: Sequence, base: Sequence, d: Sequence) -> bool:
    bp = vsub(p, base)
    if not parallel(d, bp):
        return False
    return dot(bp, d) >= 0


def _as_param(kind, p0, p1):
    # (origin, direction, hi) with hi None for rays, else the segment end parameter 1.
    if kind == "seg":
        return p0, vsub(p1, p0), Fraction(1)
    return p0, tuple(Fraction(x) for x in p1), None


def edge_intersection(kind_a: str, a0, a1, kind_b: str, b0, b1):
    """Intersect two edges ("seg" endpoints or "ray" base+direction) exactly.

    Returns ("none",), ("point", p), or ("overlap", witness) where an
    overlap means the supports share infinitely many points.  Works in any
    ambient dimension.
    """
    o1, d1, hi1 = _as_param(kind_a, a0, a1)
    o2, d2, hi2 = _as_param(kind_b, b0, b1)
    diff = vsub(o2, o1)
    if parallel(d1, d2):
        if not parallel(d1, diff):
            return ("none",)
        dd = dot(d1, d1)
        t0 = dot(diff, d1) / dd
        step = dot(d2, d1) / dd
        if hi2 is None:
            blo, bhi = (t0, None) if step > 0 else (None, t0)
        else:
            ta, tb = t0, t0 + step * hi2
            blo, bhi = (min(ta, tb), max(ta, tb))
        lo = Fraction(0) if blo is None else max(blo, Fraction(0))
        if hi1 is None:
            hi = bhi
        elif bhi is None:
            hi = hi1
        else:
            hi = min(hi1, bhi)
        if hi is not None and lo > hi:
            return ("none",)
        if hi is not None and lo == hi:
            return ("point", vadd(o1, vscale(d1, lo)))
        witness = vadd(o1, vscale(d1, lo + 1 if hi is None else (lo + hi) / 2))
        return ("overlap", witness)
    # Independent directions: solve o1 + t d1 = o2 + s d2 on two coordinates,
    # then confirm on the rest.
    n = len(d1)
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            den = d1[i] * (-d2[j]) - (-d2[i]) * d1[j]
            if den != 0:
                pivot = (i, j, den)
                break
        if pivot:
            break
    if pivot is None:
        return ("none",)
    i, j, den = pivot
    t = (diff[i] * (-d2[j]) - (-d2[i]) * diff[j]) / den
    s = (d1[i] * diff[j] - diff[i] * d1[j]) / den
    p = vadd(o1, vscale(d1, t))
    if p != vadd(o2, vscale(d2, s)):
        return ("none",)
    if t < 0 or (hi1 is not None and t > hi1):
        return ("none",)
    if s < 0 or (hi2 is not None and s > hi2):
        return ("none",)
    return ("point", p)
