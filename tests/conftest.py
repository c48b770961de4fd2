"""Shared builders for the test suite."""

from __future__ import annotations

import fractions
import random
import re
import sys
from fractions import Fraction

import pytest

from tropcurve.curve import Curve
from tropcurve.morphism import Morphism
from tropcurve.plfunction import PLFunction


@pytest.fixture
def segment3() -> Curve:
    return Curve.segment(3)


@pytest.fixture
def line() -> Curve:
    """The doubly infinite line: finite vertex O, rays 'left' and 'right'."""
    return Curve.doubly_infinite_line()


@pytest.fixture
def tripod() -> Curve:
    return Curve.build(vertices=["O"],
                       edges=[("a", "O", "A", 1), ("b", "O", "B", 1), ("c", "O", "C", 1)])


def identity_fn(line: Curve) -> PLFunction:
    """x on the doubly infinite line: slope 1 rightward, -1 leftward."""
    return PLFunction.from_edge_data(line, {"right": ([(0, 0)], 1), "left": ([(0, 0)], -1)})


def scaled_fn(line: Curve, k: int) -> PLFunction:
    return PLFunction.from_edge_data(line, {"right": ([(0, 0)], k), "left": ([(0, 0)], -k)})


def doubling(line: Curve) -> Morphism:
    """The line onto itself with degree 2 on both rays."""
    return Morphism(line, line,
                    {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
                    {"left": ("edge", "left"), "right": ("edge", "right")},
                    {"left": 2, "right": 2})


def rng_for(name: str) -> random.Random:
    return random.Random(f"tropcurve-tests:{name}")


def fraction_calls(op, *args) -> int:
    """Calls into the ``fractions`` module made by ``op(*args)``."""
    count = 0
    target = fractions.__file__

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == target:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        op(*args)
    finally:
        sys.setprofile(previous)
    return count


def on_integer_grid(p) -> bool:
    """Whether every number of the profile's grid, its scale too, is an ``int``."""
    d, g = p.grid
    return type(d) is int and all(type(x) is int for row in g for x in row)


# The README's grammar, read the way rat read it before the pair reader: a
# match of the whole pattern, then Fraction(str), whose failure (a zero
# denominator, more digits than int() reads) is a rejection too.
LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def ref_literal(s: str) -> Fraction | None:
    if not LITERAL.fullmatch(s):
        return None
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


# Strings that the grammar accepts or rejects for a reason of its own.
LOOSE = ["1.5", "1e3", "1_000", "+3", " 3/4 ", "3/4 ", "1/0", "-0", "-0/7", "007/014", "3/",
         "/3", "--1", "1/-2", "", "-", "٣", "1/²", "9" * 4301, "1/" + "9" * 4301, "9" * 4300]
