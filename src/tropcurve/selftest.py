"""The exact identity families, each written once as a sampled property.

Each ``suite_*`` function takes a seeded ``random.Random`` and a case count,
checks one family of identities on that many random instances, and returns
the number of cases it ran; the first violation raises ``AssertionError``
through ``check``, which ``python -O`` keeps.  The ``selftest`` subcommand
runs every suite in ``SUITES``.  The test suite,
acceptance criteria included, calls the same functions with its own seeds,
case counts and time budgets, and its property-based tests call the
per-instance laws below, so a deployed install re-verifies exactly what the
tests verify.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .complexes import PolyComplex1D, check_balanced, intersect
from .curve import canonical_model, disjoint_union
from .errors import TropError
from .hypersurface import plane_hypersurface
from .morphism import Morphism, localize, pullback, validate_morphism
from .plfunction import (PLFunction, chip_fire, disconnection_witness, extend,
                         is_harmonic_at, module_degree, principal_divisor, restrict_whole,
                         witness_conditions)
from .randgen import (complex_library, random_class_respecting_function, random_curve,
                      random_function, random_germ, random_plane_poly, random_point,
                      random_rational, random_subgraph)
from .realization import curve_from_complex, fit_tropical_polynomial
from .semifield import NEG_INF, UNIT, Germ, TropPoly, TropValue, germ_generator_report


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    passed: bool
    detail: str = ""


# -- per-instance laws ------------------------------------------------------------------


def check(ok, message: str = "", *args) -> None:
    """Raise AssertionError unless ok; unlike ``assert``, this survives ``python -O``.

    The message is formatted with args only on failure.
    """
    if not ok:
        raise AssertionError(message.format(*args))


def semifield_laws(a, b, c, one) -> None:
    """The semifield axioms on one triple of scalars, germs or functions."""
    check(a.add(b) == b.add(a))
    check(a.mul(b) == b.mul(a))
    check(a.add(b).add(c) == a.add(b.add(c)))
    check(a.mul(b).mul(c) == a.mul(b.mul(c)))
    check(a.mul(b.add(c)) == a.mul(b).add(a.mul(c)))
    check(a.add(a) == a)
    check(a.mul(one) == a)
    if not a.is_neg_inf:
        check(a.mul(a.inv()) == one)


def collapse_laws(F: TropPoly, G: TropPoly) -> None:
    """Taking the germ at the origin is a homomorphism of polynomials."""
    check(F.add(G).to_germ() == F.to_germ().add(G.to_germ()))
    check(F.mul(G).to_germ() == F.to_germ().mul(G.to_germ()))


def forget_laws(g: Germ, h: Germ, j: int, k: int) -> None:
    """Forgetting slope k is a homomorphism, and forgetting slopes j and k commutes."""
    check(g.add(h).forget(k) == g.forget(k).add(h.forget(k)))
    check(g.mul(h).forget(k) == g.forget(k).mul(h.forget(k)))
    lo, hi = sorted((j, k))
    if lo != hi:
        check(g.forget(hi).forget(lo) == g.forget(lo).forget(hi - 1))


# Integer points and off-lattice points of the square [-5, 5]^2.
GRID = tuple((x + dx, y + dy) for x in range(-5, 6) for y in range(-5, 6)
             for dx, dy in ((0, 0), (Fraction(1, 3), Fraction(2, 7))))


def argmax_oracle(F: TropPoly, K, points) -> None:
    """K contains exactly the points where the maximum of F is attained twice."""
    for p in points:
        _, arg = F.eval(p)
        check((len(arg) >= 2) == K.contains(p), "hypersurface and argmax disagree at {}", p)


# -- suites -----------------------------------------------------------------------------


def suite_scalar_axioms(rng: random.Random, cases: int) -> int:
    def scalar() -> TropValue:
        return NEG_INF if rng.random() < 0.1 else TropValue(random_rational(rng))

    for _ in range(cases):
        semifield_laws(scalar(), scalar(), scalar(), UNIT)
    return cases


def suite_germ_axioms(rng: random.Random, cases: int) -> int:
    for case in range(cases):
        n = case % 6
        semifield_laws(random_germ(rng, n), random_germ(rng, n), random_germ(rng, n),
                       Germ.unit(n))
    return cases


def suite_function_axioms(rng: random.Random, cases: int) -> int:
    # Six curves with a pool of light functions each keep a case to about a millisecond.
    pools = []
    while len(pools) < 6:
        c = random_curve(rng)
        pool = [PLFunction.neg_inf(c), PLFunction.constant(c, random_rational(rng))]
        for _ in range(60):
            if len(pool) == 9:
                break
            f = random_function(c, rng)
            if sum(len(p.grid[1]) for p in f.profiles.values()) <= 10:
                pool.append(f)
        if len(pool) >= 6:
            pools.append((c, pool))
    for k in range(cases):
        c, pool = pools[k % len(pools)]
        f, g, h = (rng.choice(pool) for _ in range(3))
        semifield_laws(f, g, h, PLFunction.constant(c, 0))
    return cases


def suite_poly_germ_collapse(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        n = rng.randint(1, 3)

        def poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(-3, 3) for _ in range(n))
                terms[exp] = random_rational(rng)
            return TropPoly.of(n, terms)

        collapse_laws(poly(), poly())
    return cases


def suite_forget_commutes(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        n = rng.randint(2, 5)
        forget_laws(random_germ(rng, n), random_germ(rng, n), rng.randint(1, n), rng.randint(1, n))
    return cases


def suite_generator_identities(rng: random.Random, cases: int) -> int:
    """Deterministic: ranks 1 to 8 whatever the stream and count."""
    for n in range(1, 9):
        check(germ_generator_report(n).ok, "generator identities fail at rank {}", n)
    return 8


def suite_hypersurface_oracle(rng: random.Random, cases: int) -> int:
    done = 0
    while done < cases:
        F = random_plane_poly(rng)
        try:
            K = plane_hypersurface(F)
        except TropError:
            continue  # a monomial has no hypersurface
        check(PolyComplex1D(2, K.vertices, K.segments, K.rays) == K)  # built unchecked
        check(check_balanced(K).balanced)
        argmax_oracle(F, K, GRID + tuple(
            (random_rational(rng, -9, 9, 4), random_rational(rng, -9, 9, 4)) for _ in range(20)))
        done += 1
    return done


def suite_metric(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        p, q, r = (random_point(c, rng) for _ in range(3))
        check(c.distance(p, p) == c.distance(q, q) == c.distance(r, r) == 0)
        check(c.distance(p, q) == c.distance(q, p))
        check(c.distance(p, r) <= c.distance(p, q) + c.distance(q, r))
    return cases


def suite_canonical_model(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        cm = canonical_model(c)
        check(canonical_model(cm) == cm)
        survivors = [v for v in cm.vertices if v in c.vertices]
        for a in survivors:
            for b in survivors:
                check(cm.distance(cm.pt_vertex(a), cm.pt_vertex(b))
                      == c.distance(c.pt_vertex(a), c.pt_vertex(b)))
    return cases


def suite_divisors(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        f, g = random_function(c, rng), random_function(c, rng)
        check(principal_divisor(f).degree() == 0)
        check(principal_divisor(f.mul(g)) == principal_divisor(f).add(principal_divisor(g)))
        check(principal_divisor(f.inv()) == principal_divisor(f).neg())
    return cases


def suite_chip_fire(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        g = random_subgraph(c, rng)
        depth = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        f = chip_fire(c, g, depth)
        for _ in range(8):
            p = random_point(c, rng)
            v = f.value_at(p)
            check(-depth <= v <= 0)
            if g.contains_point(p):
                check(v == 0)
    return cases


def suite_restrict_extend(rng: random.Random, cases: int) -> int:
    done = 0
    while done < cases:
        c = random_curve(rng)
        g = random_subgraph(c, rng)
        f = random_class_respecting_function(c, rng)
        fp, _ = restrict_whole(f, g)
        if fp.is_neg_inf:
            continue
        back = None
        for s in (-8, -64, -1024, -2 ** 18):
            try:
                back = extend(fp, g, s)
                break
            except TropError:
                continue
        check(back is not None, "no descent slope was steep enough")
        again, _ = restrict_whole(back, g)
        check(again == fp)
        done += 1
    return done


def suite_module_degree(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        gens = [random_function(c, rng) for _ in range(rng.randint(1, 3))]
        base = module_degree(gens)
        combos = []
        for _ in range(rng.randint(1, 2)):
            combo = PLFunction.neg_inf(c)
            for g in gens:
                if rng.random() < 0.85:
                    combo = combo.add(g.scale(random_rational(rng)))
            combos.append(gens[0] if combo.is_neg_inf else combo)
        check(module_degree(gens + combos) == base)
    return cases


def suite_localization(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        c = random_curve(rng)
        x = random_point(c, rng)
        loc = localize(c, x)
        f, g = random_function(c, rng), random_function(c, rng)
        check(loc.apply(f.add(g)) == loc.apply(f).add(loc.apply(g)))
        check(loc.apply(f.mul(g)) == loc.apply(f).mul(loc.apply(g)))
        check((loc.apply(f).slope_sum() == 0) == is_harmonic_at(f, x))
    return cases


def suite_pullback(rng: random.Random, cases: int) -> int:
    done = 0
    while done < cases:
        c = random_curve(rng)
        m = Morphism.identity(c)
        if not validate_morphism(m).ok:
            continue
        f, g = random_function(c, rng), random_function(c, rng)
        t = random_rational(rng)
        check(pullback(m, f.add(g)) == pullback(m, f).add(pullback(m, g)))
        check(pullback(m, f.mul(g)) == pullback(m, f).mul(pullback(m, g)))
        check(pullback(m, PLFunction.constant(c, t)) == PLFunction.constant(c, t))
        done += 1
    return done


def suite_complex_round_trip(rng: random.Random, cases: int) -> int:
    library = complex_library(rng, cases)
    for K in library:
        c, fs, r = curve_from_complex(K)
        check(r.image.canonical() == K.canonical())
        for f in fs:
            check(PLFunction.from_edge_data(c, f.profiles, f.isolated) == f)  # built unchecked
            check(all(c.is_at_infinity(p) for p in principal_divisor(f).support()))
    return len(library)


def suite_fit(rng: random.Random, cases: int) -> int:
    library = complex_library(rng, cases)
    for K in library:
        G = fit_tropical_polynomial(K)
        check(plane_hypersurface(G).canonical() == K.canonical())
    return len(library)


def _intersection_total(K1, K2, rng: random.Random) -> int | None:
    """The total multiplicity of a transversal pair, checked symmetric and shift-invariant."""
    try:
        pts = intersect(K1, K2)
    except TropError:
        return None  # not transversal
    swapped = intersect(K2, K1)
    check([(p.point, p.multiplicity) for p in pts]
          == [(p.point, p.multiplicity) for p in swapped])
    total = sum(p.multiplicity for p in pts)
    shift = (random_rational(rng), random_rational(rng))
    moved = intersect(K1.translate(shift), K2.translate(shift))
    check(total == sum(p.multiplicity for p in moved))
    return total


def suite_intersections(rng: random.Random, cases: int) -> int:
    """Each case: a transversal pair from the library and one of raw hypersurfaces,
    disconnected ones included, both within the degree-product bound (of the fitted
    polynomials for the library pair, of the drawn ones for the raw pair)."""
    done = 0
    while done < cases:
        library = complex_library(rng, 4)
        K1 = rng.choice(library)
        K2 = rng.choice(library).translate((random_rational(rng, -30, 30, 7),
                                            random_rational(rng, -30, 30, 11)))
        total = _intersection_total(K1, K2, rng)
        if total is None:
            continue
        d1 = fit_tropical_polynomial(K1).degree()
        d2 = fit_tropical_polynomial(K2).degree()
        check(total <= d1 * d2, "{} intersections exceed degrees {} * {}", total, d1, d2)
        while True:
            F1, F2 = random_plane_poly(rng), random_plane_poly(rng)
            try:
                K1 = plane_hypersurface(F1)
                K2 = plane_hypersurface(F2).translate((random_rational(rng, -20, 20, 7),
                                                       random_rational(rng, -20, 20, 11)))
            except TropError:
                continue  # a monomial has no hypersurface
            total = _intersection_total(K1, K2, rng)
            if total is not None:
                break
        check(total <= F1.degree() * F2.degree(),
              "{} intersections exceed {} * {}", total, F1, F2)
        done += 1
    return done


def suite_disconnection(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        parts = [random_curve(rng, share_ray_classes=False) for _ in range(rng.randint(2, 3))]
        result = disconnection_witness(disjoint_union(parts))
        check(result is not None and result[1].verified)
        # Negative controls: a connected curve has no witness, and candidates
        # of the same clamp shape never verify on it.
        c = random_curve(rng)
        check(disconnection_witness(c) is None)
        g = random_subgraph(c, rng)
        for cand in (chip_fire(c, g, 4).inv(),
                     chip_fire(c, g, 4).inv().scale(random_rational(rng, 0, 2, 2)),
                     chip_fire(c, g, Fraction(rng.randint(1, 4))).scale(rng.randint(0, 4))):
            check(not witness_conditions(cand, 3, 2, 1).verified)
    return cases


def _as_json_dumps(text: str) -> str:
    """text, checked to be the bytes ``json.dumps(..., indent=2)`` gives for what it holds."""
    check(text == json.dumps(json.loads(text), indent=2) + "\n", "not json.dumps's bytes: {!r}",
          text)
    return text


def suite_formats(rng: random.Random, cases: int) -> int:
    from . import io as tio

    for _ in range(cases):
        c = random_curve(rng)
        check(tio.curve_from_json(_as_json_dumps(tio.curve_to_json(c))) == c)
        f = random_function(c, rng, allow_neg_inf=True)
        check(tio.function_from_json(c, _as_json_dumps(tio.function_to_json(f))) == f)
        if not f.is_neg_inf:
            d = principal_divisor(f)
            check(tio.divisor_from_json(c, _as_json_dumps(tio.divisor_to_json(d))) == d)
        F = random_plane_poly(rng)
        check(tio.poly_from_text(tio.poly_to_text(F), nvars=2) == F)
        try:
            K = plane_hypersurface(F)
        except TropError:
            continue  # a monomial has no hypersurface
        check(tio.complex_from_json(_as_json_dumps(tio.complex_to_json(K))) == K)
    return cases


SUITES: list[tuple[str, Callable[[random.Random, int], int]]] = [
    ("scalar semifield axioms", suite_scalar_axioms),
    ("germ semifield axioms (ranks 0-5)", suite_germ_axioms),
    ("function semifield axioms", suite_function_axioms),
    ("polynomial-to-germ collapse is a homomorphism", suite_poly_germ_collapse),
    ("forgetting slope components commutes", suite_forget_commutes),
    ("small-rank germ generator identities", suite_generator_identities),
    ("hypersurface matches the argmax grid oracle", suite_hypersurface_oracle),
    ("distance is a metric", suite_metric),
    ("canonical model is idempotent and isometric", suite_canonical_model),
    ("principal divisors have degree zero and add", suite_divisors),
    ("chip firing stays within its depth", suite_chip_fire),
    ("restriction inverts extension", suite_restrict_extend),
    ("module degree ignores regeneration", suite_module_degree),
    ("localization is a homomorphism detecting harmonicity", suite_localization),
    ("pullback is a homomorphism", suite_pullback),
    ("balanced complexes round-trip through curves", suite_complex_round_trip),
    ("fitted polynomials reproduce their complexes", suite_fit),
    ("intersections are symmetric and shift-invariant", suite_intersections),
    ("disconnectedness witnesses verify", suite_disconnection),
    ("file formats round-trip", suite_formats),
]

QUICK_CASES = 6
FULL_CASES = 30


def run_all(seed: int = 0, quick: bool = False) -> list[SuiteResult]:
    """Run every suite on its own seeded stream; a crash counts as a failure."""
    cases = QUICK_CASES if quick else FULL_CASES
    results = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        try:
            results.append(SuiteResult(name, fn(rng, cases), True))
        except Exception as exc:
            detail = type(exc).__name__ + (f": {exc}" if str(exc) else "")
            results.append(SuiteResult(name, 0, False, detail))
    return sorted(results, key=lambda r: r.name)
