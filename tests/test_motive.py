"""Laurent and rational classes in L: arithmetic, parsing, named classes."""

import copy
import itertools
import math
import operator
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arczeta import (CastlingDatum, CastlingError, CountPlan, LaurentError, LaurentMotive,
                     Permutation, Poly, PolyError, PolySystem, RationalMotive,
                     RationalSeries, ResolutionDatum, ResolutionError, SeriesError,
                     Spectrum, SpectrumError, TruncatedSeries, count_arcs, count_stratum,
                     fibration_factor, parse_laurent, parse_poly, parse_system,
                     partition_weight_sum, sl_class, z_w_class)
from arczeta.motive import _binomials, _denominator_class, _Frozen, _power, compositions

L = LaurentMotive.L()
ONE = LaurentMotive.one()

laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                           max_size=5).map(LaurentMotive)
nonzero_laurents = laurents.filter(lambda m: not m.is_zero())
primitive_denominators = laurents.filter(
    lambda m: len(m.terms) > 1 and math.gcd(*m.terms.values()) == 1)


class TestLaurentMotive:
    def test_basic_arithmetic(self):
        assert (L - 1) * (L + 1) == L ** 2 - 1
        assert L * LaurentMotive({-1: 1}) == ONE
        assert (L + 1) - (L + 1) == LaurentMotive.zero()
        assert -(L - 1) == 1 - L

    def test_pow(self):
        assert (L - 1) ** 0 == ONE
        assert (L - 1) ** 3 == L ** 3 - 3 * L ** 2 + 3 * L - 1
        with pytest.raises(LaurentError):
            (L - 1) ** -1

    def test_power_squares_only_below_the_top_bit(self):
        """One square-and-multiply for every ring: bit_length - 1 squarings
        and one product per set bit, none past the top bit."""
        calls = []

        def mul(a, b):
            calls.append(b)
            return a * b
        for n in range(70):
            calls.clear()
            assert _power(3, n, 1, mul) == 3 ** n
            assert len(calls) == max(n.bit_length() - 1, 0) + n.bit_count()
        assert (L - 1) ** 7 == _power(L - 1, 7, ONE, lambda a, b: a * b)

    def test_specialize_values(self):
        m = L ** 2 - L + LaurentMotive({-1: 3})
        assert m.specialize(2) == Fraction(2) + Fraction(3, 2)
        assert m.specialize(5) == 20 + Fraction(3, 5)

    def test_immutability_and_hash(self):
        m = L + 1
        with pytest.raises(AttributeError):
            m.terms = {}
        assert hash(L + 1) == hash(LaurentMotive({1: 1, 0: 1}))

    @pytest.mark.parametrize("terms", [{0: 0.5}, {0.5: 1}, {Fraction(3, 2): 2},
                                       {1: Fraction(1, 3)}])
    def test_non_integers_refused(self, terms):
        with pytest.raises(LaurentError, match="not an integer"):
            LaurentMotive(terms)

    def test_integral_values_of_other_types_accepted(self):
        assert LaurentMotive({2.0: Fraction(4, 2)}) == 2 * L ** 2

    def test_min_exp_and_shift(self):
        m = LaurentMotive({-2: 1, 3: 4})
        assert m.min_exp() == -2
        assert m.shift(2) == LaurentMotive({0: 1, 5: 4})

    @given(a=laurents, b=laurents, q=st.integers(2, 19))
    def test_specialize_is_a_ring_map(self, a, b, q):
        assert (a + b).specialize(q) == a.specialize(q) + b.specialize(q)
        assert (a * b).specialize(q) == a.specialize(q) * b.specialize(q)

    @given(m=nonzero_laurents)
    def test_parse_round_trip(self, m):
        assert parse_laurent(str(m)) == m

    def test_parse_examples(self):
        assert parse_laurent("L^3 - L") == L ** 3 - L
        assert parse_laurent("1 + L^-2") == ONE + LaurentMotive({-2: 1})
        assert parse_laurent("-5*L^2") == LaurentMotive({2: -5})
        assert parse_laurent("2*L - 2") == 2 * L - 2
        with pytest.raises(LaurentError):
            parse_laurent("L +")
        with pytest.raises(LaurentError):
            parse_laurent("q^2")

    @pytest.mark.parametrize("text, message", [
        ("  ", "empty Laurent expression"),
        ("L + q", "bad Laurent syntax at '+ q'"),
        ("2*L 3", "missing sign before '3'"),
        ("2L", "missing sign before 'L'"),
    ])
    def test_parse_error_texts(self, text, message):
        with pytest.raises(LaurentError) as exc:
            parse_laurent(text)
        assert str(exc.value) == message


    @pytest.mark.parametrize("text", [
        "9" * 5000, "L^" + "9" * 5000, "1 - 3*L^-" + "9" * 5000,
        "L - " + "0" * 4301 + "1"])
    def test_numbers_beyond_the_int_conversion_limit_refused(self, text):
        """A coefficient or exponent too long for int() is the grammar's own
        error, not Python's str-to-int limit; 4300 digits are read."""
        with pytest.raises(LaurentError, match=r"^number of \d+ digits in Laurent text \(at most 4300\)$"):
            parse_laurent(text)
        assert parse_laurent("9" * 4300 + "*L^-" + "1" * 4300) == LaurentMotive(
            {-int("1" * 4300): int("9" * 4300)})


class TestRationalMotive:
    def test_cross_multiplication_equality(self):
        assert RationalMotive(L ** 2 - 1, L - 1) == RationalMotive(L + 1)
        assert RationalMotive(L, L - 1) != RationalMotive(L, L + 1)

    def test_field_operations(self):
        a = RationalMotive(L, L - 1)
        b = RationalMotive(1, L - 1)
        assert a - b == RationalMotive(ONE)
        assert a / a == RationalMotive.one()
        assert (a * b).num * (L - 1) ** 2 == L * ((a * b).den)

    def test_reflected_operations_and_mixed_equality(self):
        """int - RationalMotive, int / RationalMotive, LaurentMotive +, - and *
        RationalMotive and LaurentMotive == RationalMotive, each handed to
        RationalMotive's reflected method."""
        a = RationalMotive(L + 1, L - 1)
        assert L + a == a + L == RationalMotive(L ** 2 + 1, L - 1)
        assert L - a == RationalMotive(L ** 2 - 2 * L - 1, L - 1)
        assert L * a == a * L == RationalMotive(L ** 2 + L, L - 1)
        with pytest.raises(TypeError, match="cannot coerce"):
            RationalMotive("L")
        assert 1 - a == RationalMotive(-2, L - 1)
        assert 2 / a == RationalMotive(2 * L - 2, L + 1)
        assert L / a == RationalMotive(L ** 2 - L, L + 1)
        with pytest.raises(LaurentError, match="division by zero"):
            1 / RationalMotive.zero()
        assert L + 1 == RationalMotive(L ** 2 - 1, L - 1)
        assert L ** 2 == RationalMotive(L ** 3, L)
        assert L != RationalMotive(L, L - 1)
        assert LaurentMotive.zero() == RationalMotive.zero()

    @pytest.mark.parametrize("build,message", [
        (lambda: LaurentMotive.zero().min_exp(), "zero polynomial has no exponents"),
        (lambda: L.specialize(0), "cannot specialize at q = 0"),
        (lambda: RationalMotive(ONE, L - 3).specialize(3), "denominator vanishes at q=3"),
        (lambda: sl_class(0), "r must be >= 1"),
        (lambda: fibration_factor(3, 1, -1, 0), "n, k must be >= 0"),
        (lambda: z_w_class(Permutation([1, 2]), 3), "length 2 != r=3"),
    ])
    def test_refusals(self, build, message):
        with pytest.raises(LaurentError, match=message):
            build()

    def test_zero_denominator_rejected(self):
        with pytest.raises(LaurentError):
            RationalMotive(ONE, LaurentMotive.zero())

    def test_specialize(self):
        v = RationalMotive(L ** 2 - 1, L - 1).specialize(7)
        assert v == Fraction(8)

    def test_as_laurent(self):
        # monomial denominators reduce away; true quotients refuse (equality
        # is cross-multiplicative, division is never attempted)
        assert RationalMotive(L ** 2 - 1, L).as_laurent() == L - LaurentMotive({-1: 1})
        with pytest.raises(LaurentError):
            RationalMotive(L ** 2 - 1, L - 1).as_laurent()

    @given(a=nonzero_laurents, b=nonzero_laurents)
    def test_quotient_times_denominator(self, a, b):
        r = RationalMotive(a, b)
        assert r * RationalMotive(b) == RationalMotive(a)

    @given(a=laurents, b=laurents, d=primitive_denominators,
           s=st.integers(-4, 4))
    def test_sum_over_shifted_denominators(self, a, b, d, s):
        # d primitive: both quotients keep d, shifted, as their denominator
        x, y = RationalMotive(a, d), RationalMotive(b, d.shift(s))
        total = x + y
        assert total == RationalMotive(x.num * y.den + y.num * x.den,
                                       x.den * y.den)
        assert total.is_zero() or len(total.den.terms) == len(d.terms)

    def test_sum_over_other_denominators_cross_multiplies(self):
        x, y = RationalMotive(1, L + 1), RationalMotive(1, L + 2)
        assert x + y == RationalMotive(2 * L + 3, L ** 2 + 3 * L + 2)
        assert (x + y).den == L ** 2 + 3 * L + 2
        # same exponents, other coefficients: not a shared denominator
        assert (RationalMotive(1, 2 * L + 2) + RationalMotive(1, L + 1)
                == RationalMotive(3, 2 * L + 2))

    @given(a=laurents, b=laurents, d=primitive_denominators,
           s=st.integers(-4, 4), u=st.integers(-6, 6).filter(bool),
           v=st.integers(-6, 6).filter(bool))
    def test_sum_over_denominators_with_integer_content(self, a, b, d, s, u, v):
        # denominators u d and v L^s d: the sum keeps the terms of d
        x, y = RationalMotive(a, d * u), RationalMotive(b, d.shift(s) * v)
        total = x + y
        assert total == RationalMotive(x.num * y.den + y.num * x.den,
                                       x.den * y.den)
        assert total.is_zero() or len(total.den.terms) == len(d.terms)

    @given(d=primitive_denominators, s=st.integers(-4, 4))
    def test_shifted_copies_need_no_scaling(self, d, s):
        # whatever the sign of the lowest coefficient, as in L - 1
        key, c, k = _denominator_class(d)
        assert _denominator_class(d.shift(s)) == (key, c, k + s)
        assert c == 1

    @given(a=laurents, b=laurents, d=primitive_denominators,
           s=st.integers(-4, 4), u=st.integers(-6, 6).filter(bool),
           v=st.integers(-6, 6).filter(bool))
    def test_sum_prints_as_the_shift_formula(self, a, b, d, s, u, v):
        # the sum before the class rule: over y.den * v' when x.den * L^s' * u'
        # == y.den * v' for the least integers u', v' > 0, else cross-multiplied
        def reference(x, y):
            s2 = y.den.min_exp() - x.den.min_exp()
            ca, cb = x.den.terms[x.den.min_exp()], y.den.terms[y.den.min_exp()]
            g = math.gcd(ca, cb) * (1 if ca > 0 else -1)
            u2, v2 = cb // g, ca // g
            if (len(x.den.terms) == len(y.den.terms)
                    and all(y.den.terms.get(e + s2, 0) * v2 == c * u2
                            for e, c in x.den.terms.items())):
                return RationalMotive(x.num.shift(s2) * u2 + y.num * v2, y.den * v2)
            return RationalMotive(x.num * y.den + y.num * x.den, x.den * y.den)

        x, y = RationalMotive(a, d * u), RationalMotive(b, d.shift(s) * v)
        want = reference(x, y)
        assert str(x + y) == str(want)
        assert (x + y).den.terms == want.den.terms

    def test_cross_class_sum_prints_as_the_product(self):
        x, y = RationalMotive(L, 2 * L + 2), RationalMotive(3, L ** 2 - L)
        assert _denominator_class(x.den)[0] != _denominator_class(y.den)[0]
        want = RationalMotive(x.num * y.den + y.num * x.den, x.den * y.den)
        assert str(x + y) == str(want) == "(L^3 - L^2 + 6*L + 6) / (2*L^3 - 2*L)"

    def test_sum_keeps_denominator_with_integer_content(self):
        total = RationalMotive(1, 2 * L + 2) + RationalMotive(2, 2 * L + 2)
        assert total == RationalMotive(3, 2 * L + 2)
        assert total.den == 2 * L + 2


class TestNamedClasses:
    def test_sl_class_small(self):
        assert sl_class(1) == ONE
        assert sl_class(2) == L ** 3 - L
        for q in (2, 3, 5):
            # |SL_2(F_q)| = q^3 - q, |SL_3(F_q)| = q^8 (1 - q^-2)(1 - q^-3)
            assert sl_class(2).specialize(q) == q ** 3 - q
            assert sl_class(3).specialize(q) == (q ** 8
                                                 * (1 - Fraction(1, q ** 2))
                                                 * (1 - Fraction(1, q ** 3)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_binomials_are_the_explicit_product(self, sign):
        for lo in range(4):
            for hi in range(lo, 7):
                want = ONE
                for j in range(lo + 1, hi + 1):
                    want = want * LaurentMotive({0: 1, sign * j: -1})
                assert _binomials(lo, hi, sign) == want

    def test_sl_class_unchanged(self):
        """sl_class as one shifted binomial product equals the former loop
        of r - 1 Laurent products."""
        for r in range(1, 7):
            want = LaurentMotive({r * r - 1: 1})
            for i in range(2, r + 1):
                want = want * LaurentMotive({0: 1, -i: -1})
            assert sl_class(r) == want
            assert str(sl_class(r)) == str(want)

    def test_permutation_validation(self):
        with pytest.raises(LaurentError):
            Permutation((1, 3))
        assert len(list(Permutation.all(4))) == 24

    def test_cell_class_small(self):
        # identity of S_2: m_1 = m_2 = 0, class (L-1) L^2; the transposition
        # has m_1 = 1, class (L-1) L; together they sum to [SL_2]
        assert z_w_class(Permutation((1, 2)), 2) == (L - 1) * L ** 2
        assert z_w_class(Permutation((2, 1)), 2) == (L - 1) * L

    def test_compositions_count(self):
        from math import comb
        for total, parts in ((0, 3), (4, 2), (3, 3)):
            assert len(list(compositions(total, parts))) == comb(
                total + parts - 1, parts - 1)

    def test_partition_weight_sum_single_row(self):
        for m in (2, 3):
            for k in (0, 1, 3):
                assert partition_weight_sum(m, 1, k) == LaurentMotive({-m * k: 1})

    def test_fibration_factor_head(self):
        # k = 0 leaves only the head monomial L^(n (r^2 - 1))
        assert fibration_factor(3, 2, 2, 0) == LaurentMotive({6: 1})
        with pytest.raises(LaurentError):
            fibration_factor(2, 3, 0, 0)


IMMUTABLE_VALUES = [
    LaurentMotive({2: 1, -1: -3}),
    RationalMotive(L + 1, L ** 2 - 2),
    Spectrum({Fraction(3, 2): 1, 0: -2}),
    parse_poly("x1^2 - 3*x2^3"),
    PolySystem(parse_system(["x1*x2", "x1 + x2"])),
    Permutation((2, 3, 1)),
    RationalSeries.parse("((L + 1) / (L^2 - 2)) * T1 / ((1 - L^-1 * T2))  +  (L^-1)", 2),
    TruncatedSeries(2, 3, {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3)}),
]


def test_every_frozen_type_is_checked():
    """A new value type cannot skip the copy, pickle and assignment checks."""
    assert ({type(v) for v in IMMUTABLE_VALUES}
            == set(_Frozen.__subclasses__()))


@pytest.mark.parametrize("value", IMMUTABLE_VALUES,
                         ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_immutable_values_copy_and_pickle(value, round_trip):
    """Copies get the slots of the original back, and stay immutable."""
    got = round_trip(value)
    assert type(got) is type(value)
    slots = type(value).__slots__
    assert [getattr(got, s) for s in slots] == [getattr(value, s) for s in slots]
    if not isinstance(value, (PolySystem, RationalSeries)):  # these have no ==
        assert got == value
    with pytest.raises(AttributeError, match="^%s is immutable$" % type(got).__name__):
        setattr(got, slots[0], None)



_CUSP = PolySystem([parse_poly("x1^2 - x2^3")])
_ONE_VAR = TruncatedSeries(1, 3, {(1,): Fraction(5)})


@pytest.mark.parametrize("build", [
    lambda: count_arcs(_CUSP, (2.5,), 3),
    lambda: count_stratum(_CUSP, (1.9,), 2, leading="any"),
    lambda: CountPlan(_CUSP, 2, None, 3).count((2.5,)),
    lambda: _ONE_VAR.coefficient((1.7,)),
    lambda: _ONE_VAR.coefficient((1, 0)),
    lambda: _ONE_VAR.times_binomial(1, (1.5,)),
    lambda: RationalSeries.term(1, (1,)).shifted((0.5,)),
    lambda: CastlingDatum.from_json({"m": 3.5, "r1": 1, "r2": 2, "l": 1, "d": [2]}),
    lambda: ResolutionDatum.from_json({"components": [{"id": "E", "N": 1.5, "nu": 1}],
                                       "strata": [{"I": ["E"], "class": "1"}]}),
    lambda: Permutation((1.5, 2)),
    lambda: LaurentMotive({0: True}),
    lambda: LaurentMotive({np.True_: 1}),
    lambda: RationalSeries.term(1, (np.False_,)),
], ids=["count_arcs", "count_stratum", "plan-count", "coefficient", "coefficient-length",
        "times_binomial", "shifted", "castling-m", "resolution-N", "permutation",
        "laurent-true", "laurent-numpy-true", "shift-numpy-false"])
def test_a_non_integer_index_or_field_is_refused_not_truncated(build):
    """Every multi-index and data field is read by motive._index/_integer:
    2.5 is an input error (the package's ValueError subclass), never 2, and
    a truth value (True, numpy's True_) is never read as 1."""
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is not ValueError
    assert type(info.value).__module__.startswith("arczeta.")


def test_integral_indices_of_other_types_accepted():
    """numpy integers and integral floats read as the int they equal."""
    assert count_arcs(_CUSP, (np.int64(2),), 3) == count_arcs(_CUSP, (2.0,), 3) == 72
    assert _ONE_VAR.coefficient((np.int64(1),)) == _ONE_VAR.coefficient((1.0,)) == 5
    assert RationalSeries.term(1, (np.int64(1),)).shifted((-1.0,)).terms[0].shift == (0,)
    assert Permutation((2.0, np.int64(1))).images == (2, 1)


_FIELD = {"components": [{"id": "E", "N": 1, "nu": 1}], "strata": [{"I": ["E"], "class": "1"}]}


@pytest.mark.parametrize("build, error, message", [
    (lambda: CastlingDatum(2, 1, 1, 0, ()), CastlingError, "need at least one invariant"),
    (lambda: Poly(0, {}), PolyError, "need at least one variable"),
    (lambda: Poly.var(2, 1) ** -1, PolyError, "negative powers of Poly are refused"),
    (lambda: Poly.var(2, 1).evaluate([1]), PolyError, "expected 2 values, got 1"),
    (lambda: ResolutionDatum.from_json(_FIELD).component("F"), ResolutionError,
     "no component 'F'"),
    (lambda: RationalSeries(2, RationalSeries.term(1, (1,)).terms), SeriesError,
     "term has 1 variables, series has 2"),
    (lambda: RationalSeries.term(1, (1,)) + RationalSeries.term(1, (1, 0)), SeriesError,
     "variable count mismatch"),
    (lambda: RationalSeries.term(1, (1,)) * RationalSeries.term(1, (1, 0)), SeriesError,
     "variable count mismatch"),
    (lambda: _ONE_VAR + 1, SeriesError, "incompatible truncated series"),
    (lambda: Spectrum.one() + 0.5, TypeError,
     "unsupported operand type(s) for +: 'Spectrum' and 'float'"),
], ids=["castling-l-0", "poly-0-vars", "poly-negative-power", "evaluate-arity",
        "unknown-component", "series-term-arity", "series-sum-arity", "series-product-arity",
        "truncated-operand", "spectrum-coercion"])
def test_malformed_library_inputs_are_refused(build, error, message):
    """Refusals that no command reaches: each names what is wrong."""
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()


def _laurent(rng):
    return LaurentMotive({rng.randint(-2, 2): rng.randint(-3, 3)
                          for _ in range(rng.randint(0, 3))})


_RINGS = {  # type -> (seeded value, the type's error)
    "LaurentMotive": (_laurent, LaurentError),
    "RationalMotive": (lambda rng: RationalMotive(_laurent(rng), _laurent(rng) or 1),
                       LaurentError),
    "Spectrum": (lambda rng: Spectrum({Fraction(rng.randint(-3, 3), rng.randint(1, 3)):
                                       rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}),
                 SpectrumError),
    "Poly": (lambda rng: Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                                  for _ in range(rng.randint(0, 3))}), PolyError),
}


def _python_error(op, a, b):
    """The text of the TypeError Python raises for op(a, b)."""
    with pytest.raises(TypeError) as info:
        op(a, b)
    return str(info.value)


def _hash_row(name, error, xs, k):
    """Equal values hash equal, ints included; a quotient has no hash."""
    for a, b in itertools.product(xs + [k, k + 1], repeat=2):
        if a == b and name != "RationalMotive":
            assert hash(a) == hash(b), (a, b)
    for x in xs if name == "RationalMotive" else ():
        with pytest.raises(TypeError, match="unhashable type: 'RationalMotive'"):
            hash(x)


def _foreign_row(name, error, xs, k):
    """A foreign operand (a truth value too) on either side of +, - or *
    gets Python's own TypeError, the one a type of the same name without
    operators gets, and == with it is False."""
    bare = type(name, (), {})()
    for x, other in itertools.product(xs, (Fraction(1, 2), 1.5, "x", None, True)):
        for op in (operator.add, operator.sub, operator.mul):
            assert _python_error(op, x, other) == _python_error(op, bare, other)
            assert _python_error(op, other, x) == _python_error(op, other, bare)
        assert not x == other and not other == x and x != other


def _power_row(name, error, xs, k):
    """A power reads its exponent as an integer: 2.0 is 2, while 2.5, True
    and -1 are the type's error; a cube is the triple product."""
    for x in xs:
        assert x ** 2.0 == x * x and x ** 3 == x * x * x
        for n in (2.5, True, -1):
            with pytest.raises(error):
                x ** n


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("row", [_hash_row, _foreign_row, _power_row],
                         ids=["hash", "foreign-operand", "power"])
@pytest.mark.parametrize("name", _RINGS)
def test_exact_value_types_share_one_operator_protocol(name, row, seed):
    """motive._Ring, one row of the table at a time, on seeded values of
    each type: three random ones, a constant built by arithmetic (equal to
    the int k) and a sum and difference equal to the second value."""
    build, error = _RINGS[name]
    rng = random.Random(seed)
    xs = [build(rng) for _ in range(3)]
    k = rng.randint(-2, 2)
    xs += [xs[0] - xs[0] + k, (xs[1] + xs[2]) - xs[2]]
    assert xs[3] == k and k == xs[3] and xs[4] == xs[1]
    row(name, error, xs, k)
