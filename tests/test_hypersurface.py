"""Plane hypersurface construction against the argmax grid oracle."""

from __future__ import annotations

import collections
import random
from fractions import Fraction

import pytest

from tropcurve.complexes import PolyComplex1D, check_balanced
from tropcurve.errors import TropError
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.randgen import CONIC_POLY, DOUBLE_LINE_POLY, LINE_POLY
from tropcurve.selftest import GRID, argmax_oracle, suite_hypersurface_oracle
from tropcurve.semifield import TropPoly

from conftest import fraction_calls, rng_for


def test_line():
    K = plane_hypersurface(LINE_POLY)
    assert K.vertices == ((Fraction(0), Fraction(0)),)
    assert sorted(d for _, d, _ in K.rays) == [(-1, 0), (0, -1), (1, 1)]
    assert all(w == 1 for _, _, w in K.rays)
    assert not K.segments


def test_double_line_weight():
    K = plane_hypersurface(DOUBLE_LINE_POLY)
    assert len(K.rays) == 2 and all(w == 2 for _, _, w in K.rays)
    assert sorted(d for _, d, _ in K.rays) == [(0, -1), (0, 1)]


def test_middle_term_keeps_weight():
    with_mid = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (2, 0): 0})
    assert plane_hypersurface(with_mid).canonical() == plane_hypersurface(DOUBLE_LINE_POLY).canonical()


def test_degenerate_square_vertex():
    F = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0})
    K = plane_hypersurface(F)
    assert len(K.vertices) == 1 and len(K.rays) == 4 and not K.segments


def test_split_square_gives_segment():
    F = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    K = plane_hypersurface(F)
    assert len(K.vertices) == 2 and len(K.segments) == 1 and len(K.rays) == 4
    assert sorted(K.vertices) == [(-1, 0), (0, -1)]


def test_conic_shape():
    K = plane_hypersurface(CONIC_POLY)
    dirs = collections.Counter(d for _, d, _ in K.rays)
    assert dirs == {(-1, 0): 2, (0, -1): 2, (1, 1): 2}
    assert len(K.vertices) == 4 and len(K.segments) == 3


def test_rejects_monomial_and_zero():
    with pytest.raises(TropError):
        plane_hypersurface(TropPoly.monomial(3, (1, 1)))
    with pytest.raises(TropError):
        plane_hypersurface(TropPoly.zero(2))


def test_window():
    F = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    plane_hypersurface(F, window=((-5, -5), (5, 5)))
    with pytest.raises(TropError, match="window too small"):
        plane_hypersurface(F, window=((0, 0), (1, 1)))


def test_all_outputs_balanced_and_match_grid():
    assert suite_hypersurface_oracle(rng_for("hypersurface-grid"), 25) == 25


def test_disconnected_hypersurface():
    F = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (2, 0): -1})
    K = plane_hypersurface(F)
    assert len(K.rays) == 4 and not K.is_connected()
    argmax_oracle(F, K, GRID)


# Weighted supports from the pair-scan construction this walk replaced, as
# canonical (vertices, segments, rays).  Each start is named by what the
# origin meets: the walk takes two, one or no moves to reach a vertex.
WALK_CASES = {
    "origin-in-region": (
        {(0, 0): 0, (1, 0): 1, (0, 1): Fraction(1, 2), (1, 1): 3, (2, 1): 1},
        [(Fraction(-5, 2), Fraction(-1, 2)), (-1, -2), (2, -2)],
        [(0, 1, 1), (1, 2, 1)],
        [(0, (-1, 0), 1), (0, (0, 1), 1), (1, (0, -1), 1), (2, (0, 1), 1), (2, (1, -1), 1)]),
    "origin-on-edge": (
        {(0, 0): 0, (1, 0): 0, (0, 1): -1, (1, 1): Fraction(-5, 2), (2, 2): -7},
        [(0, 1), (Fraction(3, 2), Fraction(5, 2)), (Fraction(3, 2), 3), (2, Fraction(5, 2))],
        [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)],
        [(0, (-1, 0), 1), (0, (0, -1), 1), (2, (-1, 2), 1), (3, (2, -1), 1)]),
    "origin-at-vertex": (
        {(0, 0): 0, (1, 0): 0, (0, 1): 0, (-1, -1): -1, (1, 2): -3},
        [(-1, 0), (0, -1), (0, 0), (Fraction(3, 2), Fraction(3, 2))],
        [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)],
        [(0, (-2, 1), 1), (1, (1, -2), 1), (3, (-1, 1), 1), (3, (1, 0), 2)]),
    "middle-exponents-below-hull": (
        {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 0): -1, (1, 1): -5, (2, 2): -4},
        [(0, 0), (2, 2)],
        [(0, 1, 2)],
        [(0, (-1, 0), 2), (0, (0, -1), 2), (1, (0, 1), 2), (1, (1, 0), 2)]),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_walk_matches_pair_scan(name):
    terms, vertices, segments, rays = WALK_CASES[name]
    F = TropPoly.of(2, terms)
    _, at_origin = F.eval((0, 0))
    start = {"origin-in-region": 1, "origin-on-edge": 2}.get(name, 3)
    assert min(len(at_origin), 3) == start
    K = plane_hypersurface(F)
    assert PolyComplex1D(2, K.vertices, K.segments, K.rays) == K
    assert K.canonical() == PolyComplex1D.of(2, vertices, segments, rays)
    argmax_oracle(F, K, GRID)


def random_poly(n: int) -> TropPoly:
    rng = random.Random(f"walk:{n}")
    terms = {}
    while len(terms) < n:
        terms[(rng.randint(0, 8), rng.randint(0, 8))] = Fraction(rng.randint(-12, 12),
                                                                  rng.randint(1, 3))
    return TropPoly.of(2, terms)


def test_thirty_two_terms():
    # A strictly concave lift of the 8 x 4 grid of exponents induces a
    # unimodular triangulation: 42 triangles, 53 inner edges and 20 boundary
    # edges, so as many vertices, segments and rays, all of weight 1.
    grid = TropPoly.of(2, {(i, j): -(i * i + i * j + j * j) for i in range(8) for j in range(4)})
    points = [(Fraction(x, 4), Fraction(y, 4)) for x in range(-40, 41, 3) for y in range(-40, 41, 3)]
    for F in (grid, random_poly(32)):
        K = plane_hypersurface(F)
        assert PolyComplex1D(2, K.vertices, K.segments, K.rays) == K
        assert K.is_connected() and check_balanced(K).balanced
        argmax_oracle(F, K, GRID + tuple(points) + K.vertices)
    K = plane_hypersurface(grid)
    assert (len(K.vertices), len(K.segments), len(K.rays)) == (42, 53, 20)
    assert {w for *_, w in K.segments + K.rays} == {1}


def test_fraction_calls_grow_at_most_quadratically():
    # One call per coefficient and two per vertex: 22 and 48 here, where the
    # pair scan this walk replaced made 12,043 and 504,612.
    small, large = (fraction_calls(plane_hypersurface, random_poly(n)) for n in (8, 32))
    assert 0 < large <= 16 * small
