"""Exact max-plus scalars, slope germs, and tropical Laurent polynomials.

Everything here is a pure immutable value over arbitrary-precision
rationals; the additive identity -inf is encoded as ``None`` internally
and printed as ``-inf``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import FileFormatError, TropError

RatLike = "Fraction | int | str"

# The one grammar of a literal: an exponent is an integer, and a rational is
# an integer over an optional nonzero denominator, all in ASCII digits.
_INTEGER = r"-?[0-9]+"
_RATIONAL = rf"{_INTEGER}(?:/0*[1-9][0-9]*)?"
_INTEGER_LITERAL = re.compile(_INTEGER)
_RATIONAL_LITERAL = re.compile(_RATIONAL)


def ratio(x) -> tuple[int, int]:
    """The rational that ``x`` is, as ``(n, d)`` in least terms with d > 0.

    ``x`` is an int, a Fraction, or a string: an optional ``-``, ASCII digits,
    and optionally ``/`` and ASCII digits that are not all 0, with no spaces,
    ``+``, decimal point, exponent or ``_`` (the pattern ``_RATIONAL``).  A
    string is read to its two integers with no ``Fraction`` built.  Floats
    and bools are rejected: this package never computes with binary floating
    point, and ``True`` is not the number 1.  Together with ``integer`` this
    is the one place that decides what number a caller's value is; ``rat`` is
    the same rule with a ``Fraction`` result, and ``ratio_pairs`` reads many
    strings at once under the same pattern.
    """
    if isinstance(x, str):
        if _RATIONAL_LITERAL.fullmatch(x):
            num, slash, den = x.partition("/")
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:  # more digits than int() reads
                pass
            else:
                r = gcd(n, d)
                return (n, d) if r == 1 else (n // r, d // r)
        raise TropError(f"not a rational literal: {x!r}")
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x.as_integer_ratio()
    raise _inexact(x)


def ratio_pairs(xs: Sequence[str]) -> list[tuple[int, int]]:
    """``[ratio(x) for x in xs]`` for a list of strings, up to least terms: each
    (n, d) has d > 0 but may share a factor, as in ``"2/4"``.

    ``ratio``'s pattern decides every string, and ``int`` reads the digits,
    with no Python call per number.  A value that ``ratio`` rejects, or one
    that is not a string, raises ``TropError``; which one, and ``ratio``'s
    message for it, is for the caller to find by reading them one at a time.
    """
    try:
        if all(map(_RATIONAL_LITERAL.fullmatch, xs)):
            return [(int(n), int(d) if s else 1) for n, s, d in map(str.partition, xs, repeat("/"))]
    except (TypeError, ValueError):  # not a string, or more digits than int() reads
        pass
    raise TropError("not rational literals")


def rat(x) -> Fraction:
    """``ratio(x)`` as a ``Fraction``: an int, a ``p/q`` string, or a Fraction itself."""
    return x if isinstance(x, Fraction) else Fraction(*ratio(x))


def _inexact(x) -> TropError:
    return TropError(f"exact rational required, got {type(x).__name__}: {x!r}")


def integer(x, what: str) -> int:
    """``x`` itself when it is an ``int`` that is not a ``bool``; no other value is an integer."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TropError(f"{what} must be an integer, not {type(x).__name__}: {x!r}")


# The integer scale.  A scaled value (D, rows) stands for rows / D: D > 0,
# rows a tuple of equal-width tuples of ints.  Profiles, complexes and
# hypersurfaces decide rationals exactly on such values through ``on_scale``
# (``ratios_on_scale`` for numbers already read by ``ratio`` or
# ``ratio_pairs``), ``common_scale`` and ``least_scale``, which take whole
# rows per call, and ``place`` puts one number on a given scale.  A function
# file goes to and from grids with no ``Fraction``: its writer formats each
# edge's grid as text, one ``ratio_str`` per number, and its reader reads an
# edge's numbers in one pass with ``ratio_pairs``, under ``ratio``'s one
# grammar, onto a grid that ``least_scale`` reduces.  Rows are built from
# lists, ``tuple([*zip(...)])``: a tuple built from an iterator of unknown
# length is allocated at a guess and shrunk, so its memory ends on the free
# list of another tuple size, which only a full collection empties.


def on_scale(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows times D), D the least common denominator of every number in rows.

    The numbers are ``Fraction``s or ``int``s, each read once with
    ``as_integer_ratio``.
    """
    ratios = [x.as_integer_ratio() for row in rows for x in row]
    if not ratios:
        return 1, tuple([tuple(row) for row in rows])
    return ratios_on_scale(ratios, len(rows[0]))


def ratios_on_scale(ratios: Sequence[tuple[int, int]],
                    width: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``on_scale`` of rows given as the flat list of their numbers' ratios (n, d),
    d > 0, ``width`` to a row.  D is least when the pairs are in least terms, as
    ``ratio`` returns them; from ``ratio_pairs`` it may be a multiple of the least."""
    d = 1
    for _, q in ratios:
        if d % q:
            d = lcm(d, q)
    flat = iter([n * (d // q) for n, q in ratios])
    return d, tuple([*zip(*[flat] * width)])


def common_scale(*scaled: tuple[int, Sequence[Sequence[int]]]) -> tuple[int, list]:
    """(D, [rows times D / d for each scaled value (d, rows)]), D the lcm of their scales."""
    D = 1
    for d, _ in scaled:
        D = lcm(D, d)
    out = []
    for d, rows in scaled:
        if d != D and rows and rows[0]:
            m = D // d
            rows = [*zip(*[iter([x * m for row in rows for x in row])] * len(rows[0]))]
        out.append(tuple(rows))
    return D, out


def least_scale(d: int, rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The scaled value (d, rows) in least terms: both divided by gcd(d, every number).

    Equal rational rows have equal least forms, so a least form is a key.
    """
    r = gcd(d, *chain.from_iterable(rows))
    if r == 1 or not rows or not rows[0]:
        return d // r, tuple(rows)
    return d // r, tuple([*zip(*[iter([x // r for row in rows for x in row])] * len(rows[0]))])


def place(d: int, t) -> tuple[int, int]:
    """(x, m) with t = x / (d·m), m the least such factor: t on the scale d refined by m."""
    n, q = t.as_integer_ratio()
    r = gcd(d, q)
    return n * (d // r), q // r


def ratio_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, from the pair reduced by its gcd."""
    r = gcd(n, d)
    return str(n // r) if r == d else f"{n // r}/{d // r}"


# The raw constructors test their fields' types directly, with no call per
# term: ``type(x) in _EXACT`` admits the values ``rat`` returns or passes
# through, and ``_INT.issuperset(map(type, xs))`` holds when every x is an
# ``int`` (the type of ``True`` is ``bool``).
_EXACT = frozenset((Fraction, int))
_INT = frozenset((int,))


@dataclass(frozen=True, order=False)
class TropValue:
    """An element of the max-plus semifield: a rational, or -inf."""

    coef: Fraction | None = None

    def __post_init__(self):
        if self.coef is not None and type(self.coef) not in _EXACT:
            raise _inexact(self.coef)

    @staticmethod
    def of(x) -> "TropValue":
        if isinstance(x, TropValue):
            return x
        return TropValue(rat(x))

    @property
    def is_neg_inf(self) -> bool:
        return self.coef is None

    def add(self, other: "TropValue") -> "TropValue":
        """Tropical sum: max, with -inf neutral."""
        if self.coef is None:
            return other
        if other.coef is None:
            return self
        return self if self.coef >= other.coef else other

    def mul(self, other: "TropValue") -> "TropValue":
        """Tropical product: ordinary +, with -inf absorbing."""
        if self.coef is None or other.coef is None:
            return NEG_INF
        return TropValue(self.coef + other.coef)

    def inv(self) -> "TropValue":
        if self.coef is None:
            raise TropError("zero has no multiplicative inverse")
        return TropValue(-self.coef)

    def __str__(self) -> str:
        return "-inf" if self.coef is None else str(self.coef)


NEG_INF = TropValue(None)
UNIT = TropValue(Fraction(0))


@dataclass(frozen=True)
class Germ:
    """Value-plus-integer-slope-vector element of the rank-n germ semifield.

    A germ records a rational coefficient together with one integer slope
    per local direction; the rank-0 semifield is exactly the max-plus
    scalars.  The zero germ has ``coef is None``.
    """

    n: int
    coef: Fraction | None
    slopes: tuple[int, ...] | None

    def __post_init__(self):
        if (self.coef is None) != (self.slopes is None):
            raise TropError("germ must be zero in both fields or neither")
        if type(self.n) is not int:
            raise TropError(f"germ rank must be an integer, not {type(self.n).__name__}: {self.n!r}")
        if self.slopes is not None:
            if len(self.slopes) != self.n:
                raise TropError(f"germ over rank {self.n} needs {self.n} slopes, got {len(self.slopes)}")
            if type(self.coef) not in _EXACT:
                raise _inexact(self.coef)
            if not _INT.issuperset(map(type, self.slopes)):
                raise TropError(f"germ slopes must be integers, got {self.slopes!r}")

    @staticmethod
    def of(coef, slopes: Iterable[int]) -> "Germ":
        sl = tuple(integer(s, "slope") for s in slopes)
        return Germ(len(sl), rat(coef), sl)

    @staticmethod
    def zero(n: int) -> "Germ":
        return Germ(integer(n, "germ rank"), None, None)

    @staticmethod
    def unit(n: int) -> "Germ":
        n = integer(n, "germ rank")
        return Germ(n, Fraction(0), (0,) * n)

    @property
    def is_neg_inf(self) -> bool:
        return self.coef is None

    def _require_rank(self, other: "Germ") -> None:
        if self.n != other.n:
            raise TropError(f"germ rank mismatch: {self.n} vs {other.n}")

    def add(self, other: "Germ") -> "Germ":
        """Larger coefficient wins; ties take the componentwise slope max."""
        self._require_rank(other)
        if self.coef is None:
            return other
        if other.coef is None:
            return self
        if self.coef > other.coef:
            return self
        if self.coef < other.coef:
            return other
        return Germ(self.n, self.coef, tuple(max(a, b) for a, b in zip(self.slopes, other.slopes)))

    def mul(self, other: "Germ") -> "Germ":
        self._require_rank(other)
        if self.coef is None or other.coef is None:
            return Germ.zero(self.n)
        return Germ(self.n, self.coef + other.coef, tuple(a + b for a, b in zip(self.slopes, other.slopes)))

    def inv(self) -> "Germ":
        if self.coef is None:
            raise TropError("zero has no multiplicative inverse")
        return Germ(self.n, -self.coef, tuple(-s for s in self.slopes))

    def pow(self, k: int) -> "Germ":
        integer(k, "exponent")
        if self.coef is None:
            if k <= 0:
                raise TropError("zero has no multiplicative inverse")
            return self
        return Germ(self.n, self.coef * k, tuple(s * k for s in self.slopes))

    def forget(self, k: int) -> "Germ":
        """Drop slope component k (1-based), landing in the rank n-1 semifield."""
        if not 1 <= integer(k, "component") <= self.n:
            raise TropError(f"component {k} out of range for rank {self.n}")
        if self.coef is None:
            return Germ.zero(self.n - 1)
        sl = self.slopes[: k - 1] + self.slopes[k:]
        return Germ(self.n - 1, self.coef, sl)

    def slope_sum(self) -> int:
        """Sum of the slope components; zero exactly for locally harmonic germs."""
        if self.coef is None:
            raise TropError("slope sum undefined at zero")
        return sum(self.slopes)

    def to_trop(self) -> TropValue:
        if self.n != 0:
            raise TropError(f"rank {self.n} germ is not a scalar")
        return NEG_INF if self.coef is None else TropValue(self.coef)

    def __str__(self) -> str:
        if self.coef is None:
            return "-inf"
        return f"({self.coef}, ({', '.join(str(s) for s in self.slopes)}))"


@dataclass(frozen=True)
class TropPoly:
    """Tropical Laurent polynomial: a finite exponent-to-coefficient map.

    The empty map is the zero polynomial (identically -inf); absent
    exponents have coefficient -inf.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if type(self.nvars) is not int:
            raise TropError(f"variable count must be an integer, not {type(self.nvars).__name__}: "
                            f"{self.nvars!r}")
        seen = set()
        for exp, coef in self.terms:
            if len(exp) != self.nvars:
                raise TropError(f"exponent {exp} has wrong arity for {self.nvars} variables")
            if not _INT.issuperset(map(type, exp)):
                raise TropError(f"exponents must be integers, got {exp!r}")
            if type(coef) not in _EXACT:
                raise _inexact(coef)
            if exp in seen:
                raise TropError(f"duplicate exponent {exp}")
            seen.add(exp)
        if list(self.terms) != sorted(self.terms, key=lambda t: t[0]):
            raise TropError("terms must be sorted by exponent")

    @staticmethod
    def of(nvars: int, terms: Mapping[tuple[int, ...], "RatLike"]) -> "TropPoly":
        items = tuple(sorted((tuple(integer(e, "exponent") for e in exp), rat(c))
                             for exp, c in terms.items()))
        return TropPoly(integer(nvars, "variable count"), items)

    @staticmethod
    def zero(nvars: int) -> "TropPoly":
        return TropPoly(integer(nvars, "variable count"), ())

    @staticmethod
    def monomial(coef, exp: Iterable[int]) -> "TropPoly":
        e = tuple(integer(x, "exponent") for x in exp)
        return TropPoly(len(e), ((e, rat(coef)),))

    @property
    def is_neg_inf(self) -> bool:
        return not self.terms

    def term_map(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def add(self, other: "TropPoly") -> "TropPoly":
        if self.nvars != other.nvars:
            raise TropError("variable count mismatch")
        merged = self.term_map()
        for exp, coef in other.terms:
            if exp in merged:
                merged[exp] = max(merged[exp], coef)
            else:
                merged[exp] = coef
        return TropPoly.of(self.nvars, merged)

    def mul(self, other: "TropPoly") -> "TropPoly":
        if self.nvars != other.nvars:
            raise TropError("variable count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 + c2
                if e not in out or out[e] < c:
                    out[e] = c
        return TropPoly.of(self.nvars, out)

    def eval(self, point: Iterable) -> tuple[TropValue, frozenset[tuple[int, ...]]]:
        """Value at a rational point and the set of exponents attaining it."""
        pt = [rat(x) for x in point]
        if len(pt) != self.nvars:
            raise TropError(f"point has dimension {len(pt)}, expected {self.nvars}")
        best: Fraction | None = None
        arg: set[tuple[int, ...]] = set()
        for exp, coef in self.terms:
            v = coef + sum((e * x for e, x in zip(exp, pt)), Fraction(0))
            if best is None or v > best:
                best = v
                arg = {exp}
            elif v == best:
                arg.add(exp)
        if best is None:
            return NEG_INF, frozenset()
        return TropValue(best), frozenset(arg)

    def degree(self) -> int | None:
        """Max term degree of a tropical polynomial; ``None`` for the zero polynomial."""
        if any(e < 0 for exp, _ in self.terms for e in exp):
            raise TropError("not a tropical polynomial: negative exponent present")
        if not self.terms:
            return None
        return max(sum(exp) for exp, _ in self.terms)

    def to_germ(self) -> Germ:
        """Collapse all terms into the rank-n germ semifield."""
        out = Germ.zero(self.nvars)
        for exp, coef in self.terms:
            out = out.add(Germ(self.nvars, coef, exp))
        return out

    def format(self) -> str:
        """Text form, one ``coeff : e1 e2 .. en`` line per term; round-trips exactly."""
        if not self.terms:
            return "-inf\n"
        lines = [f"{coef} : {' '.join(str(e) for e in exp)}" for exp, coef in self.terms]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str, nvars: int | None = None) -> "TropPoly":
        stripped = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
        stripped = [(no, line) for no, line in stripped if line]
        if len(stripped) == 1 and stripped[0][1] == "-inf":
            if nvars is None:
                raise FileFormatError("zero polynomial needs an explicit variable count")
            return TropPoly.zero(nvars)
        terms: dict[tuple[int, ...], Fraction] = {}
        for no, line in stripped:
            if ":" not in line:
                raise FileFormatError("expected 'coeff : exponents'", line=no)
            head, _, tail = line.partition(":")
            try:
                coef = rat(head.strip())
            except TropError as exc:
                raise FileFormatError(str(exc), line=no) from exc
            toks = tail.split()
            try:
                if not all(map(_INTEGER_LITERAL.fullmatch, toks)):
                    raise ValueError(tail)
                exp = tuple(map(int, toks))
            except ValueError as exc:  # a loose token, or more digits than int() reads
                raise FileFormatError(f"bad exponent list {tail.strip()!r}", line=no) from exc
            if nvars is None:
                nvars = len(exp)
            if len(exp) != nvars:
                raise FileFormatError(f"expected {nvars} exponents, got {len(exp)}", line=no)
            if exp in terms:
                raise FileFormatError(f"duplicate exponent {exp}", line=no)
            terms[exp] = coef
        if nvars is None:
            raise FileFormatError("empty polynomial file")
        return TropPoly.of(nvars, terms)

    def __str__(self) -> str:
        return self.format().rstrip("\n")


@dataclass(frozen=True)
class IdentityCheck:
    description: str
    holds: bool


@dataclass(frozen=True)
class GeneratorReport:
    n: int
    ok: bool
    identities: tuple[IdentityCheck, ...]


def germ_generator_report(n: int, bound: int = 8) -> GeneratorReport:
    """Check the explicit identities expressing unit slope germs over small generating sets.

    Rank 1 and 2 are generated by a single germ, higher ranks by two; the
    report replays the defining identities exactly and passes only if every
    one holds.
    """
    if not 1 <= integer(n, "germ rank") <= bound:
        raise TropError(f"rank must be between 1 and {bound}")
    checks: list[IdentityCheck] = []

    def unit_slope(k: int) -> Germ:
        return Germ.of(0, tuple(1 if i == k else 0 for i in range(n)))

    def record(desc: str, got: Germ, want: Germ) -> Germ:
        checks.append(IdentityCheck(f"{desc} = {want} (got {got})", got == want))
        return got

    one = Germ.unit(n)
    if n == 1:
        record("(0,(1))", Germ.of(0, (1,)), unit_slope(0))
    elif n == 2:
        v = Germ.of(0, (1, -1))
        record("(0,(1,-1)) [+] (0,(0,0))", v.add(one), unit_slope(0))
        record("(0,(1,-1))^-1 [+] (0,(0,0))", v.inv().add(one), unit_slope(1))
    else:
        v1 = Germ.of(0, (1, 0) + (1,) * (n - 2))
        v2 = Germ.of(0, (0, 1) + tuple(range(1, n - 1)))
        e1 = record("v1 v2^-1 [+] 1", v1.mul(v2.inv()).add(one), unit_slope(0))
        w1 = v1.mul(e1.inv())
        e2 = record(f"v2 (v1 e1^-1)^-({n - 2}) [+] 1", v2.mul(w1.pow(-(n - 2))).add(one), unit_slope(1))
        w2 = v2.mul(e2.inv())
        for k in range(3, n + 1):
            ek = record(
                f"(v1 e1^-1 ..)^{k - 1} (v2 e2^-1 ..)^-1 [+] 1",
                w1.pow(k - 1).mul(w2.inv()).add(one),
                unit_slope(k - 1),
            )
            w1 = w1.mul(ek.inv())
            w2 = w2.mul(ek.pow(k - 2).inv())
    ok = all(c.holds for c in checks)
    return GeneratorReport(n, ok, tuple(checks))
