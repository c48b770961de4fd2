"""Plane hypersurface construction against the argmax grid oracle."""

from __future__ import annotations

import collections
from fractions import Fraction

import pytest

from tropcurve.errors import TropError
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.randgen import CONIC_POLY, DOUBLE_LINE_POLY, LINE_POLY
from tropcurve.selftest import GRID, argmax_oracle, suite_hypersurface_oracle
from tropcurve.semifield import TropPoly

from conftest import rng_for


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
