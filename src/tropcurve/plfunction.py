"""Piecewise-linear rational functions on curves, divisors, and chip firing.

Each edge carries a ``Profile`` in the edge's own coordinates from its u
end, stored on its own integer grid: the least common denominator D of its
offsets and values, the pairs times D, and integer slopes.
``Profile(breaks, tail)`` reads each number through ``ratio`` when it is
built, onto its grid (``semifield.ratios_on_scale``), and its tail through
``integer``.  Every kernel and every reader in the library (``realize``,
``pullback``, ``germ_bump``, the function writer) works on grids; a binary
kernel sweeps the lcm of the two scales (``common_scale``), refined by the
slope difference at a max/min crossing, and every result is reduced to the
least D (``least_scale``), so function equality compares integers and the
integers do not grow from one operation to the next.  A function file is read straight onto grids, and a
principal divisor's points are made from grid pairs.  ``Fraction``s are
built only where a value or an image point is handed out, or a point's
offset is read.  ``_along`` reads a function along any map into its curve.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .curve import INF, Curve, EdgeDesc, PointRef
from .errors import InternalError, TropError
from .semifield import (TropValue, common_scale, integer, least_scale, on_scale, place, rat, ratio,
                        ratio_str, ratios_on_scale)
from .subgraph import Embedding, Subgraph


class Profile:
    """The function on one edge: its grid, plus a tail slope on rays.

    ``grid`` is (D, ((offset, value) times D, ...)) with D the least common
    denominator; offsets strictly increase from 0, finite edges end at the
    edge length and have ``tail is None``, and rays carry the integer slope
    past the last breakpoint.  ``slopes`` holds the right slopes, None at a
    finite end.  ``Profile(breaks, tail)`` reads each number of the (offset,
    value) pairs through ``ratio`` and a tail through ``integer`` when it is
    built, for ``PLFunction(...)`` to normalize; the library builds its
    profiles from grids by ``_gridded``.
    """

    __slots__ = ("grid", "slopes", "tail")

    def __init__(self, breaks: Iterable[tuple], tail: int | None = None):
        ratios = []
        try:
            for o, v in breaks:
                ratios.append(ratio(o))
                ratios.append(ratio(v))
        except (TypeError, ValueError):
            raise _NotPairs("breakpoints are (offset, value) pairs") from None
        if tail is not None and type(tail) is not int:  # an int is read with no call
            try:
                integer(tail, "slope at infinity")
            except TropError as exc:
                raise _NotATail(str(exc)) from None
        self.grid, self.tail = ratios_on_scale(ratios, 2), tail

    def __getattr__(self, name):  # only the unset lazy slot comes here
        if name != "slopes":
            raise AttributeError(name)
        self.slopes = _grid_slopes(self.grid[1]) + [self.tail]
        return self.slopes

    @property
    def breaks(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The breakpoints as ``Fraction``s from the grid, built on each read: a
        view for tests, ``repr`` and error messages; the library reads ``grid``."""
        d, g = self.grid
        return tuple([(Fraction(o, d), Fraction(v, d)) for o, v in g])

    def __eq__(self, other):
        return isinstance(other, Profile) and self.grid == other.grid and self.tail == other.tail

    def __hash__(self):
        return hash((self.grid, self.tail))

    def __repr__(self):
        return f"Profile({self.breaks!r}, {self.tail!r})"

    def value(self, t: Fraction) -> Fraction:
        d, g = self.grid
        x, m = place(d, t)
        o1, v1 = g[-1]
        if x > o1 * m:
            if self.tail is None:
                raise TropError(f"offset {t} beyond arc end")
            return Fraction(v1 * m + self.tail * (x - o1 * m), d * m)
        k = bisect_right(g, x // m, key=itemgetter(0)) - 1
        if k < 0:
            raise TropError(f"offset {t} before arc start")
        o0, v0 = g[k]
        if o0 * m == x:
            return Fraction(v0, d)
        o1, v1 = g[k + 1]
        return Fraction(v0 * m * (o1 - o0) + (v1 - v0) * (x - o0 * m), d * m * (o1 - o0))

    def slope_right(self, t: Fraction) -> int:
        d, g = self.grid
        x, m = place(d, t)
        k = bisect_right(g, x // m, key=itemgetter(0)) - 1
        if k < 0:
            raise TropError(f"offset {t} before arc start")
        if k < len(g) - 1:
            return _grid_slopes(g[k:k + 2])[0]
        if self.tail is None:
            raise TropError(f"no piece right of {t}")
        return self.tail

    def slope_left(self, t: Fraction) -> int:
        d, g = self.grid
        x, m = place(d, t)
        if self.tail is not None and x > g[-1][0] * m:
            return self.tail
        k = bisect_left(g, -(-x // m), key=itemgetter(0))
        if 0 < k < len(g):
            return _grid_slopes(g[k - 1:k + 1])[0]
        raise TropError(f"no piece left of {t}")


class _NotPairs(TropError):
    """Breakpoints that are not (offset, value) pairs; ``from_edge_data`` names their edge."""


class _NotATail(TropError):
    """A tail that is not an integer; ``from_edge_data`` names its edge."""


def _gridded(d: int, g: Sequence[tuple[int, int]], tail: int | None) -> Profile:
    """The profile of the pairs g on scale d, in least terms."""
    p = Profile.__new__(Profile)
    p.tail = tail
    p.grid = least_scale(d, g)
    return p


def _grid_slopes(g: Sequence[tuple[int, int]]) -> list[int]:
    """The slope of each piece between grid breakpoints; a non-integer one raises."""
    out = []
    for (o0, v0), (o1, v1) in zip(g, g[1:]):
        q, r = divmod(v1 - v0, o1 - o0)
        if r:
            raise TropError(f"non-integer slope {Fraction(v1 - v0, o1 - o0)}")
        out.append(q)
    return out


def _normal(d: int, g: Sequence[tuple[int, int]], tail: int | None) -> Profile:
    """The breakpoints g / d sorted, with equal offsets merged and the breakpoints
    where the slope does not change dropped."""
    g = sorted(g)
    return _gridded(d, [g[k] for k in _kept(g, tail)], tail)


def _kept(g: Sequence[tuple[int, int]], tail: int | None) -> list[int]:
    """Indices of the grid points g, sorted by offset, that a normalized profile keeps.

    Equal offsets merge (different values there raise); a point on the line
    through its neighbours is dropped (cross-multiplied; no divisions), and
    so is a last point that the tail slope continues.
    """
    keep = [0]
    o1, v1 = g[0]
    for k in range(1, len(g)):
        o2, v2 = g[k]
        if o2 == o1:
            if v2 != v1:
                raise TropError("conflicting breakpoint values")
            continue
        while len(keep) >= 2:
            o0, v0 = g[keep[-2]]
            if (v1 - v0) * (o2 - o1) != (v2 - v1) * (o1 - o0):
                break
            keep.pop()
            o1, v1 = o0, v0
        keep.append(k)
        o1, v1 = o2, v2
    if tail is not None and len(keep) >= 2:
        (o0, v0), (o1, v1) = g[keep[-2]], g[keep[-1]]
        if v1 - v0 == tail * (o1 - o0):
            keep.pop()
    return keep


def _sweep(g: list[tuple[int, int]], slopes: list, grid: list[int]) -> tuple[list, list]:
    """Values and right slopes of grid breakpoints g at the sorted grid offsets.

    ``slopes`` holds each piece's slope and then the tail, None on a finite
    edge, which is the right slope read at its end.
    """
    vals, right = [], []
    k, last = 0, len(g) - 1
    for t in grid:
        while k < last and g[k + 1][0] <= t:
            k += 1
        o0, v0 = g[k]
        s = slopes[k]
        vals.append(v0 if t == o0 else v0 + s * (t - o0))
        right.append(s)
    return vals, right


def _combine2(p: Profile, q: Profile, op: str) -> Profile:
    """Exact pointwise max/min/add of two profiles over one edge.

    Both are swept on the lcm of their scales; in each cell the side on top
    is decided by (difference, slope difference), and a crossing is
    inserted only where the two ends have strictly opposite signs, or on a
    ray's tail.  A crossing lies on the scale times the slope difference,
    so the result's scale is refined by their lcm, then reduced.
    """
    d, (gp, gq) = common_scale(p.grid, q.grid)
    grid = sorted({o for o, _ in gp} | {o for o, _ in gq})
    pv, ps = _sweep(gp, p.slopes, grid)
    qv, qs = _sweep(gq, q.slopes, grid)
    n = len(grid)
    sign = 1 if op == "max" else -1
    out, cross = [], {}
    prev = None
    for i in range(n):
        a, b, sa, sb = pv[i], qv[i], ps[i], qs[i]
        if op == "add":
            v, s = a + b, None if sa is None else sa + sb
        elif sa is None:  # the end of a finite edge
            v, s = (a if (a - b) * sign >= 0 else b), None
        else:
            diff = (a - b) * sign
            up = diff > 0 or (diff == 0 and (sa - sb) * sign >= 0)
            v, s = (a, sa) if up else (b, sb)
        if i == 0 or s != prev:
            out.append((grid[i], v))
        prev = s
        if op == "add" or sa is None:
            continue
        # The far end's sign: the next difference, or on a tail the slope difference.
        far = (pv[i + 1] - qv[i + 1] if i + 1 < n else sa - sb) * sign
        if diff > 0 > far or diff < 0 < far:
            cross[len(out)] = k = sb - sa
            out.append((grid[i] * k + a - b, a * k + sa * (a - b)))
            prev = sb if up else sa
    if cross:
        m = lcm(*cross.values())
        d, out = d * m, [(o * (m // cross.get(i, 1)), v * (m // cross.get(i, 1)))
                         for i, (o, v) in enumerate(out)]
    return _gridded(d, out, prev)


def _affine(p: Profile, k: int, delta: Fraction | int = 0) -> Profile:
    """The values times k plus delta; k = 0 flattens the profile, so it is normalized again."""
    d, g = p.grid
    n, m = place(d, delta)
    g, tail = [(o * m, v * k * m + n) for o, v in g], None if p.tail is None else p.tail * k
    return _gridded(d * m, [g[i] for i in _kept(g, tail)] if k == 0 else g, tail)


def _pull(p: Profile, start, length, orient: int = 1, k: int = 1) -> Profile:
    """The profile x -> p(start + orient·k·x) on [0, length]; ``length`` is INF
    only on a ray read forward.

    The window is put on p's grid, scale D: an offset t in it becomes
    (t - start)·orient on the scale D·k, so each value is taken times k.
    The breakpoints inside stay slope changes, so the result is normalized
    as built.
    """
    ray = length is INF
    if ray and orient < 0:
        raise TropError("cannot reverse an unbounded profile")
    d, (g, ((a, *w),)) = common_scale(p.grid, on_scale(((start,) if ray else (start, length),)))
    lo, *hi = [a] if ray else sorted((a, a + orient * k * w[0]))
    vals, _ = _sweep(g, p.slopes, [lo, *hi])
    pts = [(lo, vals[0])] + [(o, v) for o, v in g if lo < o and (ray or o < hi[0])]
    pts += zip(hi, vals[1:])
    return _gridded(d * k, [((o - a) * orient, v * k) for o, v in pts[::orient]],
                    p.tail * k if ray else None)


def _flat(e: EdgeDesc, v: Fraction) -> Profile:
    """The constant profile v on edge e."""
    ray = e.is_infinite
    d, ((n, *end),) = on_scale(((v,) if ray else (v, e.length),))
    return _gridded(d, [(0, n)] + [(x, n) for x in end], 0 if ray else None)


class PLFunction:
    """A rational function on a curve: -inf, or integer-sloped exact profiles."""

    def __init__(self, curve: Curve, profiles: Mapping[str, Profile] | None,
                 isolated: Mapping[str, Fraction] | None = None):
        self.curve = curve
        if profiles is None:
            self.profiles: dict[str, Profile] | None = None
            self.isolated: dict[str, Fraction] = {}
            return
        self.profiles = dict(profiles)
        self.isolated = {vid: rat(v) for vid, v in (isolated or {}).items()}
        self._validate()

    @classmethod
    def _trusted(cls, curve: Curve, profiles: dict[str, Profile],
                 isolated: dict[str, Fraction]) -> "PLFunction":
        """A function taking normalized, valid profiles as given.

        Every function the library builds comes through here: its operations
        and pullbacks are homomorphisms into Rat(curve), so a result built
        from valid operands is normalized, continuous and integer-sloped by
        construction.  Data from outside the library enters through
        ``PLFunction(...)``, which normalizes every profile and validates.
        """
        f = cls.__new__(cls)
        f.curve = curve
        f.profiles = profiles
        f.isolated = isolated
        return f

    # -- construction -------------------------------------------------------

    @staticmethod
    def neg_inf(curve: Curve) -> "PLFunction":
        return PLFunction(curve, None)

    @staticmethod
    def constant(curve: Curve, value) -> "PLFunction":
        v = rat(value)
        return PLFunction._trusted(curve, {eid: _flat(e, v) for eid, e in curve.edges.items()},
                                   {vid: v for vid in _isolated_vertices(curve)})

    @staticmethod
    def from_edge_data(curve: Curve, data: Mapping[str, "tuple | Profile"],
                       isolated=None) -> "PLFunction":
        """Build from per-edge breakpoint lists in user edge coordinates.

        ``data[edge] = (breakpoints, slope_at_infinity?)`` with breakpoints a
        list of (offset, value) pairs covering the edge, in any order, or a
        ``Profile``, taken as it is (the function-file reader builds them on
        their grids); ``isolated`` maps each isolated vertex to its value.
        Only converts the format: ``PLFunction(...)`` sorts and checks the result.
        """
        profiles = {}
        for eid, entry in data.items():
            if isinstance(entry, Profile):
                profiles[eid] = entry
            else:
                try:
                    breaks, tail = entry
                    profiles[eid] = Profile(breaks, tail)
                except (TypeError, ValueError, _NotPairs):
                    raise TropError(f"edge {eid!r}: data is (breakpoints, tail), "
                                    f"the breakpoints (offset, value) pairs") from None
                except _NotATail as exc:
                    raise TropError(f"edge {eid!r} {exc}") from None
        return PLFunction(curve, profiles, isolated)

    def _validate(self):
        """Normalize the profiles; the one home of the Rat(curve) invariants.

        One profile per curve edge and none for another edge, offsets from 0
        to a finite edge's length, an ``int`` tail on rays only, integer
        slopes, values for exactly the isolated vertices, and continuity.
        """
        c = self.curve
        L, length = c._length_scale()  # finite edge id -> length times L
        profiles = {}
        for eid, p in self.profiles.items():
            e = c.edges.get(eid)
            if e is None:
                raise TropError(f"unknown edge {eid!r}")
            d, g = p.grid
            if not g:
                raise TropError(f"edge {eid!r} profile must start at offset 0")
            if e.is_infinite and p.tail is not None:
                integer(p.tail, f"edge {eid!r} slope at infinity")
            q = _normal(d, g, p.tail if e.is_infinite else None)
            d, g = q.grid
            if g[0][0] != 0:
                raise TropError(f"edge {eid!r} profile must start at offset 0")
            if e.is_infinite:
                if p.tail is None:
                    raise TropError(f"edge {eid!r} needs a slope at infinity")
            else:
                if g[-1][0] * L != length[eid] * d:
                    raise TropError(f"edge {eid!r} profile must end at the edge length")
                if p.tail is not None:
                    raise TropError(f"finite edge {eid!r} cannot have a slope at infinity")
            q.slopes
            profiles[eid] = q
        missing = set(c.edges) - set(profiles)
        if missing:
            raise TropError(f"profiles missing for edges {sorted(missing)}")
        self.profiles = profiles
        for vid in self.isolated:
            ends = c.edges_at.get(vid)
            if ends is None:
                raise TropError(f"value given for unknown vertex {vid!r}")
            if ends:
                raise TropError(f"value given for vertex {vid!r}, which is not isolated")
        for vid in _isolated_vertices(c):
            if vid not in self.isolated:
                raise TropError(f"no value for isolated vertex {vid!r}")
        # Continuity at shared vertices: each end's value v / d is the first one's.
        for vid, ends in c.edges_at.items():
            if c.vertices[vid].at_infinity or not ends:
                continue
            vals = []
            for eid, sign in ends:
                d, g = profiles[eid].grid
                vals.append((d, g[0 if sign > 0 else -1][1]))
            d0, v0 = vals[0]
            for d, v in vals:
                if v * d0 != v0 * d:
                    D, rows = common_scale(*[(d, ((v,),)) for d, v in vals])
                    shown = ", ".join([ratio_str(v, D) for ((v,),) in sorted(set(rows))])
                    raise TropError(f"discontinuous at vertex {vid!r}: values [{shown}]")

    # -- identity ------------------------------------------------------------

    @property
    def is_neg_inf(self) -> bool:
        return self.profiles is None

    def _key(self):
        if self.profiles is None:
            return (self.curve.key(), None)
        return (self.curve.key(),
                tuple(sorted([(e, p.grid, p.tail) for e, p in self.profiles.items()])),
                tuple(sorted(self.isolated.items())))

    def __eq__(self, other):
        return isinstance(other, PLFunction) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _require_same_curve(self, other: "PLFunction"):
        if self.curve != other.curve:
            raise TropError("functions live on different curves")

    # -- evaluation ------------------------------------------------------------

    def value_at(self, p: PointRef):
        """Exact value; +-inf (floats) only at points at infinity."""
        if self.profiles is None:
            return -INF
        kind, ident, off = self.curve._resolve(p)
        if kind == "vertex":
            info = self.curve.vertices[ident]
            ends = self.curve.edges_at[ident]
            if not ends:
                return self.isolated[ident]
            eid, sign = ends[0]
            prof = self.profiles[eid]
            if info.at_infinity and prof.tail:
                return INF if prof.tail > 0 else -INF
            d, g = prof.grid
            return Fraction(g[0 if sign > 0 and not info.at_infinity else -1][1], d)
        return self.profiles[ident].value(off)

    def slope_at_infinity(self, edge: str) -> int:
        """Slope toward the point at infinity along an infinite edge."""
        if self.profiles is None:
            raise TropError("slope of the zero function")
        e = self.curve.edges.get(edge)
        if e is None or not e.is_infinite:
            raise TropError(f"edge {edge!r} is not a ray")
        return self.profiles[edge].tail

    def outgoing_slope(self, p: PointRef, direction: str) -> int:
        """Slope leaving p along a direction id from Curve.directions_at."""
        if self.profiles is None:
            raise TropError("slopes of the zero function are undefined")
        if direction not in self.curve.directions_at(p):
            raise TropError(f"direction {direction!r} invalid at {p}")
        eid, sign = direction.rsplit(":", 1)
        prof = self.profiles[eid]
        kind, ident, off = self.curve._resolve(p)
        if kind == "vertex":
            if self.curve.vertices[ident].at_infinity:
                return -prof.tail
            return prof.slopes[0] if sign == "+" else -prof.slopes[-2]
        return prof.slope_right(off) if sign == "+" else -prof.slope_left(off)

    # -- semifield operations ----------------------------------------------------

    def add(self, other: "PLFunction") -> "PLFunction":
        """Tropical sum: pointwise max with exact breakpoint refinement."""
        self._require_same_curve(other)
        if self.profiles is None:
            return other
        if other.profiles is None:
            return self
        profiles = {eid: _combine2(self.profiles[eid], other.profiles[eid], "max")
                    for eid in self.profiles}
        iso = {vid: max(v, other.isolated[vid]) for vid, v in self.isolated.items()}
        return PLFunction._trusted(self.curve, profiles, iso)

    def mul(self, other: "PLFunction") -> "PLFunction":
        """Tropical product: pointwise ordinary sum."""
        self._require_same_curve(other)
        if self.profiles is None or other.profiles is None:
            return PLFunction.neg_inf(self.curve)
        profiles = {eid: _combine2(self.profiles[eid], other.profiles[eid], "add")
                    for eid in self.profiles}
        iso = {vid: v + other.isolated[vid] for vid, v in self.isolated.items()}
        return PLFunction._trusted(self.curve, profiles, iso)

    def inv(self) -> "PLFunction":
        if self.profiles is None:
            raise TropError("zero has no multiplicative inverse")
        return PLFunction._trusted(self.curve,
                                   {a: _affine(p, -1) for a, p in self.profiles.items()},
                                   {vid: -v for vid, v in self.isolated.items()})

    def pow(self, k: int) -> "PLFunction":
        integer(k, "exponent")
        if self.profiles is None:
            if k <= 0:
                raise TropError("zero has no multiplicative inverse")
            return self
        return PLFunction._trusted(self.curve,
                                   {a: _affine(p, k) for a, p in self.profiles.items()},
                                   {vid: v * k for vid, v in self.isolated.items()})

    def scale(self, t) -> "PLFunction":
        """Tropical scalar multiple: add a constant (or collapse to -inf)."""
        tv = t if isinstance(t, TropValue) else TropValue.of(t)
        if tv.is_neg_inf or self.profiles is None:
            return PLFunction.neg_inf(self.curve)
        return PLFunction._trusted(self.curve,
                                   {a: _affine(p, 1, tv.coef) for a, p in self.profiles.items()},
                                   {vid: v + tv.coef for vid, v in self.isolated.items()})

    # -- ray classes -----------------------------------------------------------------

    def respects_ray_classes(self) -> tuple[bool, tuple | None]:
        """Within every ray class, slopes at infinity must agree.

        Returns (ok, witness); the witness names the class and two rays
        with their differing slopes.
        """
        if self.profiles is None:
            return True, None
        by_class: dict[str, list[tuple[str, int]]] = {}
        for eid, label in self.curve.ray_classes.items():
            by_class.setdefault(label, []).append((eid, self.profiles[eid].tail))
        for label, members in sorted(by_class.items()):
            first_edge, first_slope = members[0]
            for eid, slope in members[1:]:
                if slope != first_slope:
                    return False, (label, first_edge, first_slope, eid, slope)
        return True, None


def _isolated_vertices(curve: Curve) -> list[str]:
    return [vid for vid, ends in curve.edges_at.items() if not ends]


# -- divisors -----------------------------------------------------------------------


class Divisor:
    """Finite formal sum of points with nonzero integer coefficients."""

    def __init__(self, curve: Curve, coeffs: Mapping[PointRef, int] | Iterable[tuple[PointRef, int]]):
        self.curve = curve
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[PointRef, int] = {}
        for p, k in items:
            if not curve.contains_point(p):
                raise TropError(f"point {p} is not on the curve")
            if integer(k, "divisor coefficient"):
                acc[p] = acc.get(p, 0) + k
        self.coeffs = {p: k for p, k in acc.items() if k != 0}

    @classmethod
    def _trusted(cls, curve: Curve, coeffs: dict[PointRef, int]) -> "Divisor":
        """A divisor taking ``coeffs`` as given, without the point checks.

        Every divisor the library builds comes through here: its points come
        from the curve or from a valid divisor, each once, with nonzero
        integer coefficients.  Data from outside the library enters through
        ``Divisor(...)``, which checks every point and coefficient.
        """
        d = cls.__new__(cls)
        d.curve = curve
        d.coeffs = coeffs
        return d

    def coeff(self, p: PointRef) -> int:
        return self.coeffs.get(p, 0)

    def support(self) -> list[PointRef]:
        return sorted(self.coeffs, key=self.curve.point_sort_key)

    def degree(self) -> int:
        return sum(self.coeffs.values())

    def is_effective(self) -> bool:
        return all(k >= 0 for k in self.coeffs.values())

    def add(self, other: "Divisor") -> "Divisor":
        if self.curve != other.curve:
            raise TropError("divisors on different curves")
        acc = dict(self.coeffs)
        for p, k in other.coeffs.items():
            acc[p] = acc.get(p, 0) + k
        return Divisor._trusted(self.curve, {p: k for p, k in acc.items() if k})

    def neg(self) -> "Divisor":
        return Divisor._trusted(self.curve, {p: -k for p, k in self.coeffs.items()})

    def items(self) -> list[tuple[PointRef, int]]:
        return [(p, self.coeffs[p]) for p in self.support()]

    def __eq__(self, other):
        return (isinstance(other, Divisor) and self.curve == other.curve
                and self.coeffs == other.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{k}*({p})" for p, k in self.items())


def principal_divisor(f: PLFunction) -> Divisor:
    """Sum of outgoing slopes at every point, as a divisor.

    At a point at infinity the single outgoing slope is the slope toward
    infinity times minus one.
    """
    if f.profiles is None:
        raise TropError("the zero function has no principal divisor")
    return Divisor._trusted(f.curve, _orders(f, f.curve.pt_vertex, PointRef._on_edge))


def _orders(f: PLFunction, at_vertex, on_edge) -> dict:
    """The nonzero coefficients of the principal divisor of f, keyed by
    ``at_vertex(vertex id)`` and, at the breakpoint o / d of an edge's grid,
    ``on_edge(edge id, o, d)``.  One slope sweep per edge: each vertex, point
    at infinity and interior breakpoint is reached exactly once.
    """
    c, ps = f.curve, f.profiles
    coeffs = {}
    for vid, ends in c.edges_at.items():
        if not ends:
            continue
        if c.vertices[vid].at_infinity:
            total = -ps[ends[0][0]].tail
        else:
            total = sum([ps[eid].slopes[0] if sign > 0 else -ps[eid].slopes[-2]
                         for eid, sign in ends])
        if total:
            coeffs[at_vertex(vid)] = total
    for eid, prof in ps.items():
        s, (d, g) = prof.slopes, prof.grid
        for k in range(1, len(s) - (prof.tail is None)):
            if s[k] != s[k - 1]:
                coeffs[on_edge(eid, g[k][0], d)] = s[k] - s[k - 1]
    return coeffs


def _slope_sum(f: PLFunction, p: PointRef) -> int:
    """The coefficient of p in the principal divisor of f, from p's own slopes."""
    if f.profiles is None:
        raise TropError("the zero function has no principal divisor")
    return sum(f.outgoing_slope(p, d) for d in f.curve.directions_at(p))


def is_harmonic_at(f: PLFunction, p: PointRef) -> bool:
    """True when the outgoing slopes of f at p sum to zero."""
    return _slope_sum(f, p) == 0


def rd_contains(d: Divisor, f: PLFunction) -> bool:
    """Membership of f in the module of functions dominated by the divisor d."""
    if f.is_neg_inf:
        return True
    if d.curve != f.curve:
        raise TropError("divisor and function on different curves")
    return d.add(principal_divisor(f)).is_effective()


def module_degree(gens: Sequence[PLFunction]) -> int | None:
    """Degree of the finitely generated module spanned by the generators.

    Minus the sum over common pole points of the minimum coefficient; 0 for
    constants and None (the degree -inf) when every generator is the zero
    function.
    """
    if not gens:
        raise TropError("no generators")
    curve = gens[0].curve
    finite = []
    for g in gens:
        if g.curve != curve:
            raise TropError("generators on different curves")
        if not g.is_neg_inf:
            finite.append(g)
    if not finite:
        return None
    # Keyed by a vertex's id (``str`` returns it) or ``_least`` of an edge point.  At
    # a pole the least coefficient is negative, so only negative ones count.
    poles: dict = {}
    for g in finite:
        for key, k in _orders(g, str, _least).items():
            if k < poles.get(key, 0):
                poles[key] = k
    return -sum(poles.values())


def _least(eid: str, o: int, d: int) -> tuple[str, int, int]:
    """A key for the point o / d along an edge: the edge and the pair in least terms."""
    r = gcd(o, d)
    return eid, o // r, d // r


# -- chip firing ------------------------------------------------------------------


def chip_fire(c: Curve, g: Subgraph, l) -> PLFunction:
    """The function x -> -min(dist(g, x), l), built exactly; l is positive, ``INF`` or ``"inf"``.

    Components not meeting g get the constant zero.  Distances, interval ends and edge lengths
    come on the subgraph's integer scale D (``Subgraph._scaled``), refined by the cap's.
    """
    cap = INF if l == INF or l == "inf" else rat(l)
    if g.curve != c:
        raise TropError("subgraph belongs to a different curve")
    if g.is_empty():
        raise TropError("chip firing needs a nonempty subgraph")
    if cap is not INF and cap <= 0:
        raise TropError("chip firing length must be positive")
    D, m, imap = g._scaled()
    _, dist = g._distances()
    cap, k = (None, 1) if cap is INF else place(D, cap)
    _, lengths = c._length_scale()
    comp_of = c.vertex_components()
    comp_meets = {comp_of[v] for v in dist}
    profiles = {eid: _fired(D, k, cap, dist[e.u], imap.get(eid, ()),
                            None if e.is_infinite else (dist[e.v], lengths[eid] * m))
                if comp_of[e.u] in comp_meets else _flat(e, Fraction(0))
                for eid, e in c.edges.items()}
    # An isolated vertex is at distance 0 from g, or in a component g misses.
    return PLFunction._trusted(c, profiles, {vid: Fraction(0) for vid in _isolated_vertices(c)})


def _fired(d: int, r: int, cap: int | None, du: int, ivs, far: tuple[int, int] | None) -> Profile:
    """-min(dist, cap) on one edge, dist the distance to the nearest source on the edge's line.

    The cap is an integer on the scale d·r (None for no cap), the rest on the
    scale d: the sources are the point -du (du the u end's distance to the
    subgraph), its intervals ivs on the edge (None at infinity) and, on a
    finite edge with far = (dv, length), the point length + dv.  Between two
    sources dist is a tent, so the corners are the edge ends, the source ends,
    the tent peaks and the cap crossings, integers on the scale 2dr.
    """
    t = 2 * r
    srcs = [(-t * du, -t * du)] + [(t * lo, None if hi is None else t * hi) for lo, hi in ivs]
    end = None if far is None else t * far[1]
    if far is not None:
        srcs.append((end + t * far[0],) * 2)
    cap = None if cap is None else 2 * cap
    xs = {0} if end is None else {0, end}
    # Each gap runs from a source's right end b to the next source's left end
    # a; None is an unbounded side.
    for b, a in zip([None] + [b for _, b in srcs], [a for a, _ in srcs] + [None]):
        if a is not None:
            xs.update((a,) if cap is None else (a, a - cap))
        if b is not None:
            xs.update((b,) if cap is None else (b, b + cap))
            if a is not None:
                xs.add((a + b) // 2)
    pts = []
    k, n = 0, len(srcs)
    for x in sorted(x for x in xs if x >= 0 and (end is None or x <= end)):
        while k < n and srcs[k][0] <= x:
            k += 1
        near = [] if cap is None else [cap]
        if k:
            b = srcs[k - 1][1]
            near.append(0 if b is None or x <= b else x - b)
        if k < n:
            near.append(srcs[k][0] - x)
        pts.append((x, -min(near)))
    # A ray's tail is flat past a cap or a source reaching infinity; else -dist falls.
    tail = None if end is not None else 0 if cap is not None or srcs[-1][1] is None else -1
    return _gridded(t * d, [pts[k] for k in _kept(pts, tail)], tail)


# -- restriction and extension -------------------------------------------------------


def edge_profile(f: PLFunction, eid: str) -> Profile:
    """The profile of f on an edge, in that edge's coordinates."""
    if f.profiles is None:
        raise TropError("the zero function has no profiles")
    prof = f.profiles.get(eid)
    if prof is None:
        raise TropError(f"unknown edge {eid!r}")
    return prof


def restrict(f: PLFunction, g: Subgraph) -> tuple[PLFunction, ...]:
    """Restrictions of f to the components of g, each on its own curve."""
    whole, chart = restrict_whole(f, g)
    return split_components(whole)


def restrict_whole(f: PLFunction, g: Subgraph) -> tuple[PLFunction, Embedding]:
    """Restriction of f to g on the subgraph curve, read along g's chart, and the chart."""
    if f.curve != g.curve:
        raise TropError("function and subgraph on different curves")
    sub, chart = g.as_curve()
    return _along(f, sub, chart.edge_map, chart.vertex_map.get), chart


def _along(f: PLFunction, source: Curve, places: Mapping[str, "tuple | str"], at) -> PLFunction:
    """f∘φ for a map φ of ``source`` into f's curve: ``places[edge]`` is a source
    edge's ``(target edge, start, orientation[, degree])``, read by ``_pull``, or
    the target vertex it collapses to, and ``at(vertex)`` is an isolated source
    vertex's image.  Restriction, pullback and gluing all read functions here."""
    if f.profiles is None:
        return PLFunction.neg_inf(source)
    profiles = {}
    for eid, e in source.edges.items():
        p = places[eid]
        if isinstance(p, str):
            profiles[eid] = _flat(e, f.value_at(f.curve.pt_vertex(p)))
        else:
            t, start, *rest = p
            profiles[eid] = _pull(edge_profile(f, t), start, e.length, *rest)
    isolated = {vid: f.value_at(at(vid)) for vid in _isolated_vertices(source)}
    return PLFunction._trusted(source, profiles, isolated)


def split_components(f: PLFunction) -> tuple[PLFunction, ...]:
    """One function per component of the owner curve."""
    comps = f.curve.components()
    out = []
    for comp in comps:
        if f.profiles is None:
            out.append(PLFunction.neg_inf(comp))
            continue
        profiles = {eid: f.profiles[eid] for eid in comp.edges}
        iso = {vid: f.isolated[vid] for vid in _isolated_vertices(comp)}
        out.append(PLFunction._trusted(comp, profiles, iso))
    return tuple(out)


def pseudodirect_tuple(c: Curve, parts: Sequence[PLFunction]) -> PLFunction:
    """Assemble per-component functions; -inf parts force a global -inf.

    Mixing -inf and finite parts is rejected: the disconnected semifield
    admits a single joint zero only.
    """
    comps = c.components()
    if len(parts) != len(comps):
        raise TropError(f"need {len(comps)} parts, got {len(parts)}")
    for part, comp in zip(parts, comps):
        if part.curve != comp:
            raise TropError("part does not match the component curve")
    zeros = [p.is_neg_inf for p in parts]
    if all(zeros):
        return PLFunction.neg_inf(c)
    if any(zeros):
        raise TropError("not an element of the pseudodirect product: "
                        "a -inf part must make the whole tuple -inf")
    profiles = {}
    iso = {}
    for part in parts:
        profiles.update(part.profiles)
        iso.update(part.isolated)
    return PLFunction._trusted(c, profiles, iso)


def extend(f_prime: PLFunction, g: Subgraph, s: int) -> PLFunction:
    """Extend a function on the subgraph curve to the whole curve.

    Agrees with the input on g, runs to zero with slope +-|s| from each
    boundary point, and is constant zero elsewhere; on rays class-parallel
    to rays of g it keeps the matching slope at infinity.  Restriction of
    the result to g returns the input exactly.
    """
    if f_prime.is_neg_inf:
        raise TropError("cannot extend the zero function")
    if integer(s, "extension slope") >= 0:
        raise TropError("extension slope must be a negative integer")
    rate = -s
    c = g.curve
    sub, chart = g.as_curve()
    if f_prime.curve != sub:
        raise TropError("function does not live on the subgraph curve")

    ok, witness = f_prime.respects_ray_classes()
    if not ok:
        raise TropError(f"function violates the subgraph ray classes: {witness}")

    # Slope at infinity required on each ray class of the parent curve.
    class_slopes = {c.ray_classes[chart.edge_map[sub_eid][0]]: f_prime.profiles[sub_eid].tail
                    for sub_eid in sub.ray_classes}

    # Everything is read on the subgraph's scale D (``Subgraph._scaled``),
    # refined per edge by the scales of f_prime's pieces and of its heights at
    # the gap corners: the edge's ends and its lone points (isolated in sub).
    D, m, imap = g._scaled()
    _, lengths = c._length_scale()
    tops = {vid: _grid_value(f_prime, vid) for vid in c.vertices}
    lone = {(p.edge, place(D, p.offset)[0]): _grid_value(f_prime, svid)
            for svid in _isolated_vertices(sub)
            if (p := chart.vertex_map[svid]).kind == "on_edge"}
    names: dict[str, list[str]] = {}  # parent edge -> its pieces in sub, in interval order
    for sub_eid, (eid, _, _) in chart.edge_map.items():
        names.setdefault(eid, []).append(sub_eid)

    profiles: dict[str, Profile] = {}
    for eid, e in c.edges.items():
        ivs = imap.get(eid, ())
        tail = 0 if e.is_infinite else None
        # Interval pieces copy f_prime; gap pieces descend to zero.  All on
        # one scale, rate times S, where each gap corner c0, c0 + |h0|/rate,
        # c1 - |h1|/rate, c1 is an integer.
        parts, it = [tops[e.u], tops[e.v]], iter(names.get(eid, ()))
        for lo, hi in ivs:
            if lo == hi:
                parts.append(lone[eid, lo])
            else:
                piece = f_prime.profiles[next(it)]
                parts.append(piece.grid)
                if hi is None:
                    tail = piece.tail
        S, (_, ((hu,),), ((hv,),), *parts) = common_scale((D, ()), *parts)
        r = S // D
        end = None if e.is_infinite else lengths[eid] * m * r
        ivs = [(lo * r, None if hi is None else hi * r) for lo, hi in ivs]
        height = {0: hu, end: hv}
        pts = []
        for (lo, hi), part in zip(ivs, parts):
            if lo == hi:
                height[lo] = part[0][0]
            else:
                height[lo], height[hi] = part[0][1], part[-1][1]
                pts += [((lo + o) * rate, v * rate) for o, v in part]
        for c0, c1 in _gaps(end, ivs):
            h0 = height[c0]
            z0 = c0 * rate + abs(h0)
            pts += [(c0 * rate, h0 * rate), (z0, 0)]
            if c1 is not None:
                h1 = height[c1]
                z1 = c1 * rate - abs(h1)
                if z0 > z1:
                    raise TropError(f"slope {s} too shallow on edge {eid!r}; use a steeper s")
                pts += [(z1, 0), (c1 * rate, h1 * rate)]
        pts.sort()
        d = S * rate
        kept = [pts[k] for k in _kept(pts, tail)]
        # Class-parallel tails on rays outside g.
        if e.is_infinite and tail == 0:
            sigma = class_slopes.get(c.ray_classes[eid])
            if sigma and not any(hi is None for _, hi in ivs):  # the tail is outside g
                kept.append((pts[-1][0] + d, kept[-1][1]))  # past the last corner, kept or not
                tail = sigma
        profiles[eid] = _gridded(d, kept, tail)
    isolated = {vid: f_prime.isolated.get(vid, Fraction(0)) for vid in _isolated_vertices(c)}
    return PLFunction._trusted(c, profiles, isolated)


def _grid_value(f: PLFunction, vid: str) -> tuple[int, tuple[tuple[int]]]:
    """f at a vertex as the scaled value (d, ((value times d,),)); 0 off f's curve."""
    ends = f.curve.edges_at.get(vid)
    if not ends:
        return (1, ((0,),)) if ends is None else on_scale(((f.isolated[vid],),))
    eid, sign = ends[0]
    d, g = f.profiles[eid].grid
    return d, ((g[0 if sign > 0 else -1][1],),)


def _gaps(end: int | None, ivs) -> list[tuple[int, int | None]]:
    """The pieces (c0, c1) outside the sorted intervals ivs of an edge of length
    ``end``, all integers on one scale, with None for infinity."""
    gaps = []
    pos = 0
    for lo, hi in ivs:
        if lo > pos:
            gaps.append((pos, lo))
        if hi is None:
            return gaps
        pos = hi
    if end is None or pos < end:
        gaps.append((pos, end))
    return gaps


# -- disconnectedness witness ---------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """A function plus three levels certifying that a curve is disconnected."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    separated_low: bool      # s differs from s capped below at a3
    separated_high: bool     # s differs from s capped above at a1
    identity_holds: bool     # the two clamp products agree exactly

    @property
    def verified(self) -> bool:
        return self.separated_low and self.separated_high and self.identity_holds


def _clamp_above(s: PLFunction, a) -> PLFunction:
    """min(s, a): the inverse of (s^-1 + a^-1)."""
    return s.inv().add(PLFunction.constant(s.curve, -rat(a))).inv()


def witness_conditions(s: PLFunction, a1, a2, a3) -> WitnessReport:
    """Evaluate the three disconnectedness conditions for s and a1 > a2 > a3."""
    a1, a2, a3 = rat(a1), rat(a2), rat(a3)
    if not (a3 < a2 < a1 and a1 - a2 == a2 - a3):
        raise TropError("levels must be equally spaced and decreasing")
    c = s.curve
    low = s != s.add(PLFunction.constant(c, a3))
    high = s != _clamp_above(s, a1)
    lhs = s.add(PLFunction.constant(c, a1)).mul(_clamp_above(s, a2))
    rhs = (PLFunction.constant(c, a1 - a2)
           .mul(s.add(PLFunction.constant(c, a2)))
           .mul(_clamp_above(s, a3)))
    return WitnessReport(a1, a2, a3, low, high, lhs == rhs)


def disconnection_witness(c: Curve) -> tuple[PLFunction, WitnessReport] | None:
    """A function certifying disconnectedness, or None on a connected curve.

    The witness is 0 on the first component and 4 elsewhere, checked
    against the levels (3, 2, 1); all three conditions hold exactly on any
    disconnected curve.
    """
    comps = c.components()
    if len(comps) <= 1:
        return None
    parts = [PLFunction.constant(comps[0], 0)]
    parts += [PLFunction.constant(comp, 4) for comp in comps[1:]]
    s = pseudodirect_tuple(c, parts)
    report = witness_conditions(s, 3, 2, 1)
    if not report.verified:
        raise InternalError("witness conditions failed on a disconnected curve")
    return s, report
