"""Laurent and rational classes in L: arithmetic, parsing, named classes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arczeta import (LaurentError, LaurentMotive, Permutation, RationalMotive,
                     fibration_factor, parse_laurent, partition_weight_sum,
                     sl_class, z_w_class)
from arczeta.motive import _shift_between, compositions

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
        assert _shift_between(d, d.shift(s)) == (s, 1, 1)

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
