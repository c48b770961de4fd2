"""Reference sweep: the baseline rows of ROADMAP.md, re-measured with this harness.

    python3 benchmark/sweep.py

Each figure is the fastest of ``REPEATS`` untraced repetitions, each on inputs
rebuilt through the public constructors outside the timed region.  Prints a
Markdown table and writes it as JSON to ``benchmark/out/sweep.json``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from tropcurve.complexes import PolyComplex1D  # noqa: E402
from tropcurve.curve import Curve  # noqa: E402
from tropcurve.hypersurface import plane_hypersurface  # noqa: E402
from tropcurve.plfunction import PLFunction, is_harmonic_at, principal_divisor  # noqa: E402
from tropcurve.realization import realize  # noqa: E402
from tropcurve.semifield import TropPoly  # noqa: E402

REPEATS = 3


def fastest(build, op) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        args = build()
        t0 = time.perf_counter()
        op(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def sawtooth(n: int):
    """One edge of length n - 1; n breakpoints alternating 0, 1 (slopes +1, -1)."""
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n - 1)])
    f = PLFunction.from_edge_data(c, {"e": ([(k, k % 2) for k in range(n)], None)})
    return c, f


def monotone(c, n: int):
    """A strictly increasing function with n breakpoints on the sawtooth's edge."""
    return PLFunction.from_edge_data(c, {"e": ([(k, 2 * k + k % 2) for k in range(n)], None)})


def random_pair(n: int):
    rng = random.Random(f"sweep:{n}")
    c = Curve.build(vertices=["A", "B"], edges=[("e", "A", "B", n)])
    fs = [PLFunction.from_edge_data(
        c, {"e": (inputs.closing_walk(rng, Fraction(n), Fraction(0), Fraction(0), n, -4, 4), None)})
        for _ in range(2)]
    return fs


def rows():
    for n in (100, 400, 1600):
        yield "principal_divisor (one edge, sawtooth)", n, fastest(
            lambda: sawtooth(n)[1:], principal_divisor)
    for n in (100, 400, 1600):
        def harmonic_input():
            c, f = sawtooth(n)
            return f, c.pt_on_edge("e", n // 2)
        yield "is_harmonic_at (same)", n, fastest(harmonic_input, is_harmonic_at)
    for n in (100, 400, 1600):
        def folded():
            c, f = sawtooth(n)
            return c, [f, f]
        yield "realize(c, [f, f]) (same; image folds onto 2 edges)", n, fastest(folded, realize)
    for n in (50, 100, 200, 400):
        def embedded():
            c, f = sawtooth(n)
            return c, [f, monotone(c, n)]
        yield "realize(c, [f, g]) (same, g strictly increasing; embedded image)", n, \
            fastest(embedded, realize)
    for n in (50, 100, 200, 400):
        def image_fields():
            c, f = sawtooth(n)
            image = realize(c, [f, monotone(c, n)]).image
            return image.dim, image.vertices, image.segments, image.rays
        yield "PolyComplex1D rebuilt from that realize image's fields", n, \
            fastest(image_fields, PolyComplex1D)
    yield "f.add(g) (random, one edge)", 1600, fastest(lambda: random_pair(1600),
                                                       lambda f, g: f.add(g))
    yield "f.mul(g) (random, one edge)", 1600, fastest(lambda: random_pair(1600),
                                                       lambda f, g: f.mul(g))
    for n in (8, 16, 32):
        rng = random.Random(f"sweep-poly:{n}")
        terms = {e: Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                 for e in inputs.exponents(f"sweep:{n}", n, 8)}
        yield "plane_hypersurface (random, exponents <= 8)", n, fastest(
            lambda: (TropPoly.of(2, terms),), plane_hypersurface)


def main() -> int:
    table = []
    print("| what | size | fastest of %d |" % REPEATS)
    print("| --- | --- | --- |")
    for what, size, seconds in rows():
        table.append({"what": what, "size": size, "seconds": seconds})
        print(f"| {what} | {size} | {seconds * 1000:.1f} ms |", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
