"""Factored rational series and truncated expansions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (LaurentMotive, RationalMotive, RationalSeries,
                     SeriesError, TruncatedSeries, series_equal)

L = LaurentMotive.L()
ONE = LaurentMotive.one()


def geometric(nu=1, N=1):
    """L^-nu T^N / (1 - L^-nu T^N)."""
    return RationalSeries.term(LaurentMotive({-nu: 1}), (N,), [(nu, (N,))])


def rm(exp, coeff=1):
    return RationalMotive(LaurentMotive({exp: coeff}))


small_terms = st.tuples(st.integers(-2, 2), st.integers(-1, 1),
                        st.integers(0, 3), st.integers(1, 2), st.integers(1, 2))
small_series = st.lists(small_terms, max_size=3).map(
    lambda ts: RationalSeries(1, ()) + sum(
        (RationalSeries.term(LaurentMotive({e: c}), (s,), [(nu, (N,))])
         for e, c, s, nu, N in ts), RationalSeries.zero(1)))


class TestRationalSeries:
    def test_geometric_expansion(self):
        got = geometric().expand(3)
        for k in range(4):
            assert got.coefficient((k,)) == (RationalMotive.zero() if k == 0
                                             else rm(-k))

    def test_zero_coefficient_terms_dropped(self):
        s = RationalSeries.term(LaurentMotive.zero(), (1,), [(1, (1,))])
        assert not s.terms
        assert str(s) == "0"

    def test_binomial_cancellation(self):
        s = geometric(nu=2, N=3)
        assert series_equal(s.over_binomial(2, (3,)).times_binomial(2, (3,)),
                            s, 9)

    def test_shifted_guard(self):
        s = RationalSeries.term(LaurentMotive.one(), (1,))
        assert s.shifted((-1,)).expand(2).coefficient((0,)) == RationalMotive.one()
        with pytest.raises(SeriesError):
            s.shifted((-2,))

    def test_multi_index_length_checked(self):
        """An index with more entries than variables is an error, not cut
        down to the first entries."""
        s = geometric()
        with pytest.raises(SeriesError):
            s.times_binomial(1, (2, 5))
        with pytest.raises(SeriesError):
            s.over_binomial(1, (2, 5))
        with pytest.raises(SeriesError):
            s.shifted((1, 2))

    def test_limit_balanced(self):
        # L^-1 T / (1 - L^-1 T) tends to -1 as T grows
        assert geometric().limit_at_infinity() == RationalMotive(-1)

    def test_limit_sub_balanced_term_vanishes(self):
        s = RationalSeries.term(LaurentMotive.one(), (0,), [(1, (1,))])
        assert s.limit_at_infinity() == RationalMotive.zero()

    def test_limit_over_balanced_raises(self):
        s = RationalSeries.term(LaurentMotive.one(), (2,), [(1, (1,))])
        with pytest.raises(SeriesError):
            s.limit_at_infinity()

    def test_limit_two_variables(self):
        s = RationalSeries.term(LaurentMotive.one(), (1, 1),
                                [(1, (1, 0)), (2, (0, 1))])
        assert s.limit_at_infinity() == RationalMotive(LaurentMotive({3: 1}))

    def test_text_round_trip(self):
        s = (geometric() + RationalSeries.term(L - 1, (2,), [(1, (1,)), (3, (2,))])
             * RationalMotive(L, L - 1))
        back = RationalSeries.parse(str(s))
        assert series_equal(back, s, 8)

    def test_variable_index_below_one_rejected(self):
        with pytest.raises(SeriesError, match="below 1"):
            RationalSeries.parse("(1) * T0*T1 / ((1 - L^-1 * T1^2))")
        with pytest.raises(SeriesError, match="below 1"):
            RationalSeries.parse("(1) * T1 / ((1 - L^-1 * T0))")

    def test_json_round_trip(self):
        s = geometric(2, 1) + RationalSeries.term(L + 1, (0,))
        back = RationalSeries.from_json(s.to_json())
        assert series_equal(back, s, 6)

    def test_empty_expansion_has_motive_zero(self):
        got = RationalSeries.zero(1).expand(3)
        assert got.coefficient((1,)) == RationalMotive.zero()
        assert isinstance(got.coefficient((1,)), RationalMotive)
        assert isinstance(geometric().expand(2).coefficient((0,)), RationalMotive)

    def test_expand_matches_truncated_product(self):
        """Seeded: the Laurent-ring expansion equals the product of the
        geometric truncated series of every factor, summed over terms."""
        rng = random.Random(20011)
        dens = [ONE, L - 1, L ** 2 - 1, 2 * L + 3, L ** 3 - L + 1,
                LaurentMotive({0: 1, -2: -1})]
        for _case in range(60):
            nvars, order = rng.randint(1, 3), rng.randint(0, 6)
            series, want = RationalSeries.zero(nvars), None
            for _term in range(rng.randint(1, 4)):
                num = LaurentMotive({rng.randint(-3, 3): rng.randint(-4, 4)
                                     for _ in range(rng.randint(1, 3))})
                coeff = RationalMotive(num if num else L, rng.choice(dens)
                                       * LaurentMotive({rng.randint(-2, 2): 1}))
                shift = tuple(rng.randint(0, 2) for _ in range(nvars))
                factors = []
                for _f in range(rng.randint(0, 3)):
                    N = [rng.randint(0, 2) for _ in range(nvars)]
                    N[rng.randrange(nvars)] = rng.randint(1, 2)
                    factors.append((rng.randint(1, 3), tuple(N)))
                series = series + RationalSeries.term(coeff, shift, factors)
                ref = TruncatedSeries(nvars, order, {shift: coeff}
                                      if sum(shift) <= order else {},
                                      zero=RationalMotive.zero())
                for nu, N in factors:
                    ref = ref.over_binomial(rm(-nu), N)
                want = ref if want is None else want + ref
            got = series.expand(order)
            assert got == want
            assert set(got.coeffs) == set(want.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(a=small_series, b=small_series)
    def test_expand_is_additive_and_multiplicative(self, a, b):
        order = 4
        assert (a + b).expand(order) == a.expand(order) + b.expand(order)
        assert (a * b).expand(order) == a.expand(order) * b.expand(order)


class TestTruncatedSeries:
    def test_binomial_inverse(self):
        s = TruncatedSeries(1, 6, {(k,): Fraction(k + 1) for k in range(7)})
        c = Fraction(1, 3)
        assert s.times_binomial(c, (2,)).over_binomial(c, (2,)) == s

    def test_multi_index_length_checked(self):
        s = TruncatedSeries(1, 6, {(k,): Fraction(k + 1) for k in range(7)})
        with pytest.raises(SeriesError):
            s.times_binomial(Fraction(1, 3), (2, 5))
        with pytest.raises(SeriesError):
            s.over_binomial(Fraction(1, 3), (2, 5))

    def test_coefficient_guard(self):
        s = TruncatedSeries(1, 2, {(1,): Fraction(5)})
        assert s.coefficient((2,)) == 0
        with pytest.raises(SeriesError):
            s.coefficient((3,))

    def test_equality_uses_common_order(self):
        a = TruncatedSeries(1, 2, {(1,): Fraction(1)})
        b = TruncatedSeries(1, 5, {(1,): Fraction(1), (4,): Fraction(9)})
        assert a == b  # only |n| <= 2 is comparable
        assert b != TruncatedSeries(1, 5, {(1,): Fraction(2)})

    def test_motive_coefficients(self):
        one = TruncatedSeries(1, 4, {(0,): RationalMotive.one()})
        geom = one.over_binomial(rm(-1), (1,))
        assert geom.coefficient((3,)) == rm(-3)
        assert geom.specialize(2).coefficient((3,)) == Fraction(1, 8)

    def test_multivariate_product(self):
        a = TruncatedSeries(2, 3, {(1, 0): Fraction(2)})
        b = TruncatedSeries(2, 3, {(0, 2): Fraction(3)})
        assert (a * b).coefficient((1, 2)) == 6

    def test_zero_follows_the_ring(self):
        motives = TruncatedSeries(1, 3, zero=RationalMotive.zero())
        assert isinstance(motives.coefficient((2,)), RationalMotive)
        assert isinstance((motives + motives).coefficient((2,)), RationalMotive)
        assert isinstance((motives * motives).coefficient((2,)), RationalMotive)
        assert motives.specialize(3).coefficient((2,)) == 0
        assert TruncatedSeries(1, 3).coefficient((2,)) == Fraction(0)

    def test_index_beyond_order_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries(1, 2, {(3,): Fraction(1)})
