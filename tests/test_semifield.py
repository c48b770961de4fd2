"""Scalars, germs, polynomials, and the generator identities."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropcurve.errors import TropError
from tropcurve.selftest import collapse_laws, forget_laws, semifield_laws, suite_germ_axioms
from tropcurve.semifield import (NEG_INF, UNIT, Germ, TropPoly, TropValue, common_scale,
                                 germ_generator_report, least_scale, on_scale, place, rat, ratio,
                                 ratio_pairs, ratios_on_scale)

from conftest import LITERAL, LOOSE, ref_literal

rationals = st.fractions(max_denominator=40)
trop_values = st.one_of(st.just(NEG_INF), rationals.map(TropValue))


def germs(n: int):
    finite = st.tuples(rationals, st.tuples(*[st.integers(-9, 9)] * n)).map(
        lambda t: Germ(n, t[0], t[1]))
    return st.one_of(st.just(Germ.zero(n)), finite)


class TestTropValue:
    def test_sum_product_inverse(self):
        a, b = TropValue.of(3), TropValue.of(5)
        assert a.add(b) == TropValue.of(5)
        assert a.mul(b) == TropValue.of(8)
        assert a.inv() == TropValue.of(-3)

    def test_neg_inf_laws(self):
        b = TropValue.of(2)
        assert NEG_INF.add(b) == b
        assert b.add(NEG_INF) == b
        assert NEG_INF.mul(b).is_neg_inf

    def test_fractions(self):
        a, b = TropValue.of("1/2"), TropValue.of("1/3")
        assert a.add(b) == a
        assert a.mul(b) == TropValue.of("5/6")

    def test_zero_has_no_inverse(self):
        with pytest.raises(TropError):
            NEG_INF.inv()

    def test_rat_rejects_floats(self):
        with pytest.raises(TropError):
            rat(0.5)

    @given(trop_values, trop_values, trop_values)
    def test_semifield_axioms(self, a, b, c):
        semifield_laws(a, b, c, UNIT)


# -- the literal grammar ----------------------------------------------------------

# ratio, rat and ratio_pairs against conftest's ref_literal, the reading rat
# had before ratio: one grammar, the same values and the same messages.


def _outcome(read, x):
    try:
        return read(x)
    except TropError as exc:
        return str(exc)


def _check_literal(s: str):
    # ratio_pairs reads s among other strings in one pass, to a pair up to
    # least terms, and rejects it as ratio does.
    want = ref_literal(s)
    pair, value = _outcome(ratio, s), _outcome(rat, s)
    pairs = _outcome(ratio_pairs, ["1/2", s, "-3"])
    if want is None:
        assert pair == value == f"not a rational literal: {s!r}"
        assert pairs == "not rational literals"
    else:
        assert pair == want.as_integer_ratio() and type(value) is Fraction and value == want
        assert [Fraction(*p) for p in pairs] == [Fraction(1, 2), want, -3]


class TestLiterals:
    @given(st.one_of(st.text(alphabet="0123456789-/+._e x٣²", max_size=10),
                     st.from_regex(LITERAL, fullmatch=True)))
    def test_pair_reader_and_rat_are_one_grammar(self, s):
        _check_literal(s)

    @pytest.mark.parametrize("xs", [["1", 1], [Fraction(1, 2)], ["1/2", None], [b"1"]],
                             ids=["int", "fraction", "null", "bytes"])
    def test_pair_reader_takes_strings_only(self, xs):
        # Other values are for the caller to read one at a time with ratio.
        with pytest.raises(TropError, match="^not rational literals$"):
            ratio_pairs(xs)

    @pytest.mark.parametrize("s", LOOSE, ids=range(len(LOOSE)))
    def test_named_forms(self, s):
        _check_literal(s)
        assert (ref_literal(s) is None) == (s not in ("-0", "-0/7", "007/014", "9" * 4300))

    @given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions(), st.floats(allow_nan=False),
                     st.booleans(), st.none(), st.just(Fraction(7, 3))))
    def test_numbers_are_read_alike(self, x):
        pair, value = _outcome(ratio, x), _outcome(rat, x)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            assert pair == (Fraction(x).numerator, Fraction(x).denominator) and value == x
        else:
            assert pair == value == f"exact rational required, got {type(x).__name__}: {x!r}"

    @given(st.lists(st.fractions(max_denominator=10 ** 6), min_size=1, max_size=12))
    def test_ratios_go_on_the_scale_of_on_scale(self, xs):
        xs = xs[:len(xs) // 2 * 2] or xs * 2
        rows = tuple(zip(xs[::2], xs[1::2]))
        assert ratios_on_scale([ratio(x) for x in xs], 2) == on_scale(rows)


class TestGerm:
    def test_equal_coefficient_sum_takes_slope_max(self):
        assert Germ.of(0, (1, 0)).add(Germ.of(0, (0, 1))) == Germ.of(0, (1, 1))

    def test_larger_coefficient_wins(self):
        assert Germ.of(3, (1, 2)).add(Germ.of(1, (5, 5))) == Germ.of(3, (1, 2))

    def test_product_and_inverse(self):
        assert Germ.of(1, (1, 0)).mul(Germ.of(2, (0, 1))) == Germ.of(3, (1, 1))
        assert Germ.of(1, (1, 0)).inv() == Germ.of(-1, (-1, 0))

    def test_rank_mismatch(self):
        with pytest.raises(TropError):
            Germ.of(0, (1,)).add(Germ.of(0, (1, 2)))

    def test_zero_inverse(self):
        with pytest.raises(TropError):
            Germ.zero(2).inv()

    def test_forget(self):
        assert Germ.of(5, (1, 2, 3)).forget(2) == Germ.of(5, (1, 3))
        assert Germ.of(5, (7,)).forget(1) == Germ.of(5, ())
        assert Germ.zero(1).forget(1) == Germ.zero(0)
        with pytest.raises(TropError):
            Germ.of(5, (7,)).forget(2)

    def test_slope_sum(self):
        assert Germ.of(0, (-1, -1, -1)).slope_sum() == -3
        assert Germ.of(7, (1, 1, -2)).slope_sum() == 0
        assert Germ.of("5/3", ()).slope_sum() == 0
        with pytest.raises(TropError):
            Germ.zero(2).slope_sum()

    @pytest.mark.parametrize("n", range(6))
    def test_semifield_axioms_sampled(self, n):
        assert suite_germ_axioms(random.Random(n), 200) == 200

    @given(germs(3), germs(3), st.integers(1, 3))
    def test_forget_is_homomorphism(self, g, h, k):
        forget_laws(g, h, k, k)

    @given(germs(4), st.integers(1, 4), st.integers(1, 4))
    def test_forget_orders_commute(self, g, j, k):
        forget_laws(g, g, j, k)

    def test_raw_constructor_rejects_floats_and_bools(self):
        for bad in (lambda: Germ(1, Fraction(0), (1.5,)), lambda: Germ(1, 0.5, (1,)),
                    lambda: Germ(1, True, (1,)), lambda: Germ(1, 0, (True,)),
                    lambda: Germ(True, 0, (1,))):
            with pytest.raises(TropError):
                bad()
        assert Germ(2, 3, (1, -1)) == Germ.of(3, (1, -1))  # an int value from an int profile


class TestRawConstructors:
    @pytest.mark.parametrize("make", [
        lambda: TropValue(0.5), lambda: TropValue(True),
        lambda: TropPoly(1, (((1.0,), Fraction(1)),)), lambda: TropPoly(1, (((True,), Fraction(1)),)),
        lambda: TropPoly(1, (((1,), 1.5),)), lambda: TropPoly(1, (((1,), False),)),
        lambda: TropPoly(True, ()),
    ])
    def test_floats_and_bools_rejected(self, make):
        with pytest.raises(TropError):
            make()

    def test_exact_ints_accepted(self):
        assert TropValue(3) == TropValue.of(3)
        assert TropPoly(1, (((0,), 2), ((1,), Fraction(1, 2)))).eval([1])[0] == TropValue.of(2)


class TestTropPoly:
    def test_eval_argmax(self):
        F = TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0})
        v, arg = F.eval((0, 0))
        assert v == TropValue.of(0) and arg == {(0, 0), (1, 0), (0, 1)}
        v, arg = F.eval((-1, -2))
        assert v == TropValue.of(0) and arg == {(0, 0)}

    def test_eval_monomial(self):
        F = TropPoly.monomial(5, (1,))
        v, arg = F.eval((2,))
        assert v == TropValue.of(7) and arg == {(1,)}

    def test_degree(self):
        assert TropPoly.of(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0}).degree() == 1
        assert TropPoly.zero(2).degree() is None
        assert TropPoly.of(2, {(0, 0): 0, (1, 1): 0, (2, 0): 0}).degree() == 2
        with pytest.raises(TropError):
            TropPoly.of(1, {(-1,): 0}).degree()

    def test_to_germ(self):
        assert TropPoly.of(2, {(0, 0): 0, (1, 0): 0}).to_germ() == Germ.of(0, (1, 0))
        assert TropPoly.of(2, {(1, 1): 3}).to_germ() == Germ.of(3, (1, 1))
        assert TropPoly.zero(2).to_germ() == Germ.zero(2)

    def test_parse_round_trip(self):
        F = TropPoly.of(2, {(0, 0): Fraction(-1, 3), (2, -1): Fraction(7, 2)})
        assert TropPoly.parse(F.format()) == F
        assert TropPoly.parse("-inf", nvars=2) == TropPoly.zero(2)
        assert TropPoly.zero(3).format() == "-inf\n"

    @given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           rationals, min_size=1, max_size=5),
           st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           rationals, min_size=1, max_size=5))
    def test_to_germ_is_homomorphism(self, t1, t2):
        collapse_laws(TropPoly.of(2, t1), TropPoly.of(2, t2))

    @given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           rationals, min_size=1, max_size=5))
    def test_format_round_trip(self, terms):
        F = TropPoly.of(2, terms)
        assert TropPoly.parse(F.format()) == F


class TestGeneratorIdentities:
    def test_rank_two_identity_from_the_source(self):
        v = Germ.of(0, (1, -1))
        assert v.add(Germ.unit(2)) == Germ.of(0, (1, 0))
        assert v.inv().add(Germ.unit(2)) == Germ.of(0, (0, 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reports_pass(self, n):
        report = germ_generator_report(n)
        assert report.ok
        assert all(c.holds for c in report.identities)

    def test_rank_three_generators(self):
        report = germ_generator_report(3)
        assert "1, 0, 1" in str(Germ.of(0, (1, 0, 1))) or report.ok

    def test_bound(self):
        with pytest.raises(TropError):
            germ_generator_report(9)
        with pytest.raises(TropError):
            germ_generator_report(0)
        assert germ_generator_report(12, bound=16).ok


# -- the integer scale --------------------------------------------------------

# ints, zero, negatives, small fractions and fractions over large primes,
# whose lcm is their product
scale_numbers = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.just(0), st.just(Fraction(0)),
    st.fractions(max_denominator=60),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.sampled_from([1_000_000_007, 998_244_353, 2 ** 61 - 1])))
# equal-width rows, possibly none and possibly of width 0
scale_rows = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.tuples(*[scale_numbers] * w), max_size=6).map(tuple))


def _numbers(rows):
    return [x for row in rows for x in row]


def _same_shape(got, rows):
    assert type(got) is tuple and len(got) == len(rows)
    assert all(type(g) is tuple and len(g) == len(r) for g, r in zip(got, rows))
    assert all(type(n) is int for n in _numbers(got))


class TestIntegerScale:
    @given(scale_rows)
    def test_on_scale_is_least_and_exact(self, rows):
        d, got = on_scale(rows)
        _same_shape(got, rows)
        assert [Fraction(n, d) for n in _numbers(got)] == [Fraction(x) for x in _numbers(rows)]
        assert d == lcm(*[Fraction(x).denominator for x in _numbers(rows)])
        assert gcd(d, *_numbers(got)) == 1

    @given(st.lists(st.tuples(scale_rows, st.integers(1, 50)), max_size=4))
    def test_common_scale_is_the_lcm(self, drawn):
        # Each row set on its least scale, then times k: not every input is least.
        scaled = []
        for rows, k in drawn:
            d, got = on_scale(rows)
            scaled.append((d * k, tuple(tuple(n * k for n in row) for row in got)))
        D, outs = common_scale(*scaled)
        assert D == lcm(*[d for d, _ in scaled])
        assert len(outs) == len(scaled)
        for (d, rows), got in zip(scaled, outs):
            _same_shape(got, rows)
            assert [Fraction(n, D) for n in _numbers(got)] == [Fraction(n, d) for n in _numbers(rows)]

    @given(scale_rows, st.integers(1, 10 ** 6))
    def test_least_scale_gives_least_terms(self, rows, k):
        d, least = on_scale(rows)
        bigger = tuple(tuple(n * k for n in row) for row in least)
        got_d, got = least_scale(d * k, bigger)
        _same_shape(got, rows)
        assert (got_d, got) == (d, least)
        assert gcd(got_d, *_numbers(got)) == 1
        assert [Fraction(n, got_d) for n in _numbers(got)] == [Fraction(x) for x in _numbers(rows)]

    @given(st.integers(1, 10 ** 6), scale_numbers)
    def test_place_refines_the_scale_least(self, d, t):
        x, m = place(d, t)
        assert Fraction(x, d * m) == t
        assert m == lcm(d, Fraction(t).denominator) // d

    def test_examples(self):
        assert place(4, Fraction(1, 6)) == (2, 3)
        assert place(6, 0) == (0, 1)
        assert on_scale(()) == (1, ())
        assert on_scale(((), ())) == (1, ((), ()))
        assert on_scale(((Fraction(1, 2), 3), (Fraction(-2, 3), 0))) == (6, ((3, 18), (-4, 0)))
        assert common_scale((2, ((1,),)), (3, ((1, 2),)), (6, ())) == (6, [((3,),), ((2, 4),), ()])
        assert common_scale() == (1, [])
        assert least_scale(12, ((4, -8), (0, 6))) == (6, ((2, -4), (0, 3)))
        assert least_scale(5, ((0,),)) == (1, ((0,),))
