"""Plane tropical hypersurfaces of two-variable Laurent polynomials."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .complexes import PolyComplex1D, line_anchor
from .errors import TropError
from .geometry import ivec_gcd, primitive_of, vadd, vscale, vsub
from .semifield import TropPoly, rat


def plane_hypersurface(F: TropPoly, window: Sequence | None = None) -> PolyComplex1D:
    """The locus where at least two terms attain the maximum, with weights.

    Cells come from pairwise term-equality lines restricted by the other
    terms; the weight of a cell is the lattice length spanned by all
    exponents that are maximal along it.  A window, when given, must
    contain every vertex of the result (it only bounds the vertex search;
    the complex itself is exact).
    """
    if F.nvars != 2:
        raise TropError("hypersurface construction implemented for two variables")
    terms = list(F.terms)
    if len(terms) <= 1:
        raise TropError("empty hypersurface: the polynomial is a monomial or -inf")
    if len(terms) > 32:
        raise TropError("more than 32 terms; out of the supported desk scale")

    cells: dict[tuple, dict] = {}
    for a_idx in range(len(terms)):
        for b_idx in range(a_idx + 1, len(terms)):
            cell = _pair_cell(terms, a_idx, b_idx)
            if cell is None:
                continue
            key, data = cell
            cells[key] = data  # identical supports collapse onto one key

    vertices: dict[tuple[Fraction, Fraction], int] = {}  # point -> index, in order of first use

    def vid(p) -> int:
        return vertices.setdefault(p, len(vertices))

    segments = []
    rays = []
    for data in cells.values():
        anchor, direction, lo, hi, weight = (data["anchor"], data["dir"],
                                             data["lo"], data["hi"], data["weight"])
        if lo is None and hi is None:
            base = line_anchor(anchor, direction)
            rays.append((vid(base), direction, weight))
            rays.append((vid(base), tuple(-x for x in direction), weight))
        elif hi is None:
            base = vadd(anchor, vscale(direction, lo))
            rays.append((vid(base), direction, weight))
        elif lo is None:
            base = vadd(anchor, vscale(direction, hi))
            rays.append((vid(base), tuple(-x for x in direction), weight))
        else:
            p = vadd(anchor, vscale(direction, lo))
            q = vadd(anchor, vscale(direction, hi))
            segments.append((vid(p), vid(q), weight))

    out = PolyComplex1D.of(2, list(vertices), segments, rays)
    if window is not None:
        (x0, y0), (x1, y1) = window
        x0, y0, x1, y1 = rat(x0), rat(y0), rat(x1), rat(y1)
        for v in out.vertices:
            if not (x0 <= v[0] <= x1 and y0 <= v[1] <= y1):
                raise TropError(f"window too small: vertex ({v[0]}, {v[1]}) escapes it")
    return out


def _pair_cell(terms, a_idx: int, b_idx: int):
    """The closed cell where terms a and b are both maximal, or None."""
    (ea, ca) = terms[a_idx]
    (eb, cb) = terms[b_idx]
    d = (ea[0] - eb[0], ea[1] - eb[1])
    rhs = cb - ca
    # A point on the line d . x = rhs and its direction.
    if d[0] != 0:
        anchor = (Fraction(rhs, d[0]), Fraction(0))
    else:
        anchor = (Fraction(0), Fraction(rhs, d[1]))
    direction, _ = primitive_of((-d[1], d[0]))
    lo: Fraction | None = None
    hi: Fraction | None = None
    for k_idx, (ek, ck) in enumerate(terms):
        if k_idx in (a_idx, b_idx):
            continue
        # Need ca + ea.x >= ck + ek.x, i.e. (ea-ek).x >= ck - ca on the line.
        g = (ea[0] - ek[0], ea[1] - ek[1])
        coef = g[0] * direction[0] + g[1] * direction[1]
        bound = ck - ca - (g[0] * anchor[0] + g[1] * anchor[1])
        if coef == 0:
            if 0 < bound:
                return None
            continue
        t = Fraction(bound, coef)
        if coef > 0:
            if lo is None or t > lo:
                lo = t
        else:
            if hi is None or t < hi:
                hi = t
    if lo is not None and hi is not None and lo >= hi:
        return None  # empty or a single point; points appear as cell endpoints
    # Canonical support key: orient the direction positively from a line anchor.
    pos_dir = direction if direction > tuple(-x for x in direction) else tuple(-x for x in direction)
    flipped = pos_dir != direction
    base = line_anchor(anchor, pos_dir)
    shift = _param_of(anchor, pos_dir, base)
    if flipped:
        lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
    lo = None if lo is None else lo + shift
    hi = None if hi is None else hi + shift
    weight = _cell_weight(terms, anchor, direction, lo, hi, shift, pos_dir, base)
    key = (base, pos_dir, lo, hi)
    return key, {"anchor": base, "dir": pos_dir, "lo": lo, "hi": hi, "weight": weight}


def _param_of(point, direction, base) -> Fraction:
    # parameter of `point` on the line base + t * direction
    diff = vsub(point, base)
    if direction[0] != 0:
        return diff[0] / direction[0]
    return diff[1] / direction[1]


def _cell_weight(terms, anchor, direction, lo, hi, shift, pos_dir, base) -> int:
    # Evaluate at a generic interior parameter and span the maximal exponents.
    if lo is None and hi is None:
        t = Fraction(0)
    elif lo is None:
        t = hi - 1
    elif hi is None:
        t = lo + 1
    else:
        t = (lo + hi) / 2
    x = vadd(base, vscale(pos_dir, t))
    best = None
    arg = []
    for ek, ck in terms:
        v = ck + ek[0] * x[0] + ek[1] * x[1]
        if best is None or v > best:
            best, arg = v, [ek]
        elif v == best:
            arg.append(ek)
    lohi = sorted(arg)
    span = (lohi[-1][0] - lohi[0][0], lohi[-1][1] - lohi[0][1])
    return ivec_gcd(span)
