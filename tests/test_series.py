"""Factored rational series and truncated expansions."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (LaurentError, LaurentMotive, RationalMotive,
                     RationalSeries, SeriesError, TruncatedSeries, series_equal)

L = LaurentMotive.L()
ONE = LaurentMotive.one()


def geometric(nu=1, N=1):
    """L^-nu T^N / (1 - L^-nu T^N)."""
    return RationalSeries.term(LaurentMotive({-nu: 1}), (N,), [(nu, (N,))])


def rm(exp, coeff=1):
    return RationalMotive(LaurentMotive({exp: coeff}))


laurents = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1,
                           max_size=3).map(LaurentMotive)
coefficients = st.one_of(
    laurents.map(RationalMotive),
    st.tuples(laurents, laurents.filter(bool)).map(lambda nd: RationalMotive(*nd)))


@st.composite
def printed_series(draw):
    """Series in 1-3 variables: Laurent and quotient coefficients, zero
    shifts and terms without factors included."""
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    factors = st.lists(st.tuples(st.integers(1, 4), exps.filter(any)), max_size=3)
    terms = draw(st.lists(st.tuples(coefficients, exps, factors),
                          min_size=1, max_size=4))
    return sum((RationalSeries.term(c, shift, fs) for c, shift, fs in terms),
               RationalSeries.zero(nvars))


small_terms = st.tuples(st.integers(-2, 2), st.integers(-1, 1),
                        st.integers(0, 3), st.integers(1, 2), st.integers(1, 2))
small_series = st.lists(small_terms, max_size=3).map(
    lambda ts: RationalSeries(1, ()) + sum(
        (RationalSeries.term(LaurentMotive({e: c}), (s,), [(nu, (N,))])
         for e, c, s, nu, N in ts), RationalSeries.zero(1)))


def _limit_along(s, alpha):
    """The limit of s along T_i = S^alpha_i, by substituting into one
    variable and keeping the balanced terms: an independent oracle for
    RationalSeries.limit_at_infinity."""
    out = RationalMotive.zero()
    for t in s.terms:
        shift = sum(a * x for a, x in zip(alpha, t.shift))
        tot = sum(sum(a * x for a, x in zip(alpha, f.N)) for f in t.factors)
        assert shift <= tot
        if shift == tot:
            sign = -1 if len(t.factors) % 2 else 1
            lsum = sum(f.nu for f in t.factors)
            out = out + t.coeff * RationalMotive(LaurentMotive({lsum: sign}))
    return out


@st.composite
def bounded_series(draw):
    """Series in 1-3 variables whose every term has shift <= the sum of its
    factor exponents, some of them balanced (shift equal to the sum)."""
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    out = RationalSeries.zero(nvars)
    for _ in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(st.tuples(st.integers(1, 4), exps.filter(any)),
                                max_size=3))
        tot = [sum(N[i] for _nu, N in factors) for i in range(nvars)]
        shift = tuple(x if draw(st.booleans()) else draw(st.integers(0, x))
                      for x in tot)
        out = out + RationalSeries.term(draw(coefficients), shift, factors)
    return out


def _product_expand(series, order):
    """The expansion as it was computed before the row recurrence: the
    product of each factor tuple's geometric series, convolved with every
    numerator that shares those factors, shift and denominator class, the
    classes of an index added in the order their groups first reach it.
    Returns {n: RationalMotive}, zeros dropped."""
    def den_class(den):
        k = min(den.terms)
        c = gcd(*den.terms.values())
        return tuple(sorted((e - k, v // c) for e, v in den.terms.items())), c, k

    def product(factors, room, nvars):
        prod = {(0,) * nvars: {0: 1}}
        for f in factors:
            out = {}
            for n, poly in prod.items():
                total, drop = sum(n), 0
                while total <= room:
                    dst = out.setdefault(n, {})
                    for e, c in poly.items():
                        dst[e - drop] = dst.get(e - drop, 0) + c
                    n = tuple(a + b for a, b in zip(n, f.N))
                    total += sum(f.N)
                    drop += f.nu
            prod = out
        return sorted(((sum(n), n, poly) for n, poly in prod.items()),
                      key=lambda item: item[0])

    live, classes = [], {}
    for t in series.terms:
        if sum(t.shift) <= order:
            key, c, k = den_class(t.coeff.den)
            classes[key] = lcm(classes.get(key, 1), c)
            live.append((t, key, c, k))
    groups = {}
    for t, key, c, k in live:
        num = groups.setdefault((t.factors, t.shift, key), {})
        for e, v in t.coeff.num.terms.items():
            num[e - k] = num.get(e - k, 0) + v * (classes[key] // c)
    sums = {}
    for (factors, shift, key), num in groups.items():
        for total, n, poly in product(factors, order - sum(shift), series.nvars):
            acc = sums.setdefault(tuple(a + b for a, b in zip(shift, n)),
                                  {}).setdefault(key, {})
            for e1, c1 in num.items():
                for e2, c2 in poly.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    out = {}
    for n, by_class in sums.items():
        total = None
        for key, acc in by_class.items():
            part = RationalMotive(LaurentMotive(acc),
                                  LaurentMotive({e: classes[key] * v for e, v in key}))
            total = part if total is None else total + part
        if total:
            out[n] = total
    return out


def _random_expansion_case(rng):
    """(series, order, the per-term route) in 1-3 variables.  Denominators
    come from six classes at random contents and powers of L, and every case
    has L - 1, L + 1 and their product L^2 - 1, so a partial sum over L^2 - 1
    may share its denominator with the next class and the order of addition
    shows in the bytes.  Some terms have a twin that cancels them, some a
    shift beyond the order, and some cases order 0.  The per-term route takes
    each live term as a TruncatedSeries at its shift through over_binomial
    for every factor, and sums them."""
    dens = [ONE, L - 1, L + 1, L ** 2 - 1, 2 * L + 3, L ** 3 - L + 1,
            LaurentMotive({0: 1, -2: -1})]
    dens = dens[1:4] + rng.sample(dens, rng.randint(0, 2))
    nvars, order = rng.randint(1, 3), rng.choice([0, rng.randint(0, 8)])
    exps = lambda top: tuple(rng.randint(0, top) for _ in range(nvars))
    pool = [[] for _ in range(rng.randint(1, 3))]  # factor tuples the terms share
    for fs in pool:
        for _ in range(rng.randint(0, 3)):
            N = list(exps(2))
            N[rng.randrange(nvars)] = rng.randint(1, 2)
            fs.append((rng.randint(1, 3), tuple(N)))
    terms = []
    for _ in range(rng.randint(1, 10)):
        num = LaurentMotive({rng.randint(-3, 3): rng.randint(-4, 4)
                             for _ in range(rng.randint(1, 3))})
        den = rng.choice(dens) * LaurentMotive({rng.randint(-2, 2): rng.choice([1, 2, 3])})
        coeff = RationalMotive(num if num else L, den)
        shift = exps(order + 2) if rng.random() < 0.2 else exps(2)
        factors = rng.choice(pool)
        terms.append((coeff, shift, factors))
        if rng.random() < 0.3:
            terms.insert(rng.randint(0, len(terms)), (-coeff, shift, factors))
    series, route = RationalSeries.zero(nvars), TruncatedSeries(
        nvars, order, zero=RationalMotive.zero())
    for coeff, shift, factors in terms:
        series = series + RationalSeries.term(coeff, shift, factors)
        if sum(shift) <= order:
            ref = TruncatedSeries(nvars, order, {shift: coeff}, zero=RationalMotive.zero())
            for nu, N in factors:
                ref = ref.over_binomial(rm(-nu), N)
            route = route + ref
    return series, order, route


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
        """s * (1 - L^-2 T^3) * 1/(1 - L^-2 T^3) expands as s."""
        s = geometric(nu=2, N=3)
        binomial = RationalSeries.term(1, (0,)) + RationalSeries.term(rm(-2, -1), (3,))
        geometric_factor = RationalSeries.term(1, (0,), [(2, (3,))])
        assert series_equal(s * binomial * geometric_factor, s, 9)

    @pytest.mark.parametrize("build,message", [
        (lambda: RationalSeries(0), "at least one T variable"),
        (lambda: RationalSeries(1).expand(-1), "order must be >= 0"),
        (lambda: TruncatedSeries(2, 2, {(1,): Fraction(1)}), "length mismatch"),
    ])
    def test_malformed_series_refused(self, build, message):
        with pytest.raises(SeriesError, match=message):
            build()

    def test_truncated_series_refuses_a_negative_order(self):
        with pytest.raises(SeriesError, match="order must be >= 0"):
            TruncatedSeries(1, -1)

    def test_shifted_guard(self):
        s = RationalSeries.term(LaurentMotive.one(), (1,))
        assert s.shifted((-1,)).expand(2).coefficient((0,)) == RationalMotive.one()
        with pytest.raises(SeriesError):
            s.shifted((-2,))

    def test_multi_index_length_checked(self):
        """An index with more entries than variables is an error, not cut
        down to the first entries."""
        s = geometric()
        with pytest.raises(SeriesError, match="factor multi-index length mismatch"):
            s * RationalSeries.term(1, (0,), [(1, (2, 5))])
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

    @settings(max_examples=150, deadline=None)
    @given(s=bounded_series())
    def test_limit_is_the_limit_along_every_direction(self, s):
        """The one-rule limit equals the one-variable limit along several
        positive directions T_i = S^alpha_i."""
        got = s.limit_at_infinity()
        for alpha in [(1, 1, 1), (1, 2, 3), (3, 1, 2), (5, 2, 7)]:
            assert got == _limit_along(s, alpha[:s.nvars])

    @settings(max_examples=60, deadline=None)
    @given(s=bounded_series(), extra=st.integers(1, 2), data=st.data())
    def test_limit_refuses_a_shift_above_the_factor_total(self, s, extra, data):
        if not s.terms:
            return
        t = s.terms[0]
        i = data.draw(st.integers(0, s.nvars - 1))
        tot = [sum(f.N[k] for f in t.factors) for k in range(s.nvars)]
        shift = tuple(tot[k] + extra if k == i else t.shift[k]
                      for k in range(s.nvars))
        bad = s + RationalSeries.term(t.coeff, shift,
                                      [(f.nu, f.N) for f in t.factors])
        with pytest.raises(SeriesError, match="exceeds factor total"):
            bad.limit_at_infinity()

    def test_negative_factor_exponent_refused(self):
        """A factor with a negative T-exponent is refused: its expansion
        would never end (the step |N| can be <= 0)."""
        with pytest.raises(SeriesError, match="N >= 0"):
            RationalSeries.term(1, (0,), [(1, (-1,))])
        with pytest.raises(SeriesError, match="N >= 0"):
            RationalSeries.term(1, (1, 0), [(1, (1, -1)), (1, (0, 2))])

    def test_negative_shift_refused(self):
        with pytest.raises(SeriesError, match="leaves the series ring"):
            RationalSeries.term(1, (-1,), [(1, (2,))])
        with pytest.raises(SeriesError, match="leaves the series ring"):
            RationalSeries.term(1, (2, -1))

    def test_text_round_trip(self):
        s = (geometric() + RationalSeries.term(L - 1, (2,), [(1, (1,)), (3, (2,))])
             * RationalMotive(L, L - 1))
        back = RationalSeries.parse(str(s), 1)
        assert series_equal(back, s, 8)

    def test_variable_index_below_one_rejected(self):
        with pytest.raises(SeriesError, match="below 1"):
            RationalSeries.parse("(1) * T0*T1 / ((1 - L^-1 * T1^2))", 1)
        with pytest.raises(SeriesError, match="below 1"):
            RationalSeries.parse("(1) * T1 / ((1 - L^-1 * T0))", 1)

    @settings(max_examples=200, deadline=None)
    @given(s=printed_series())
    def test_printed_text_reads_back(self, s):
        """Whatever str() prints, parse reads back to the same text in the
        same number of variables."""
        text = str(s)
        back = RationalSeries.parse(text, s.nvars)
        assert str(back) == text
        assert back.nvars == s.nvars

    def test_index_above_the_variable_count_refused(self):
        with pytest.raises(SeriesError, match="T2 in a series of 1 variables"):
            RationalSeries.parse("(1) * T2 / ((1 - L^-1 * T1))", 1)
        assert RationalSeries.parse("(1) * T1", 3).nvars == 3
        assert RationalSeries.parse("0", 2).nvars == 2

    def test_large_index_refused_before_allocating(self):
        text = "(1) * T1000000000 / ((1 - L^-1 * T1000000000))"
        tracemalloc.start()
        try:
            with pytest.raises(SeriesError, match="T1000000000"):
                RationalSeries.parse(text, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_numbers_beyond_the_int_conversion_limit_refused(self):
        """An index or exponent too long for int() is refused by the reader,
        not by Python's str-to-int limit."""
        with pytest.raises(SeriesError, match="in a series of 1 variables"):
            RationalSeries.parse("(1) * T" + "9" * 5000, 1)
        for text in ("(1) * T1^" + "9" * 5000,
                     "(1) * T1 / ((1 - L^-" + "9" * 5000 + " * T1))"):
            with pytest.raises(SeriesError, match="exponent of 5000 digits"):
                RationalSeries.parse(text, 1)

    def test_repeated_variable_adds_exponents(self):
        twice = RationalSeries.parse("(1) * T1*T1 / ((1 - L^-1 * T1^2))", 1)
        assert str(twice) == "(1) * T1^2 / ((1 - L^-1 * T1^2))"
        with pytest.raises(SeriesError):
            RationalSeries.parse("(1) * T1^2*T1^-1 / ((1 - L^-1 * T1^2))", 1)

    @pytest.mark.parametrize("text", [
        "(1) * T", "(1) * T1^2 junk", "(1 - L^-x * T1)", "(1) *", "1 * T1",
        "(1) * T1 / (1 - L^-1 * T1)", "(1) * T1 / ((1 - L^-0 * T1))",
        "((1) / (0)) * T1", "(1) * T1  +  ", "(1) * T1^-1",
        "(1) / ((1 - L^-x * T1))",
    ])
    def test_malformed_text_is_refused(self, text):
        with pytest.raises((SeriesError, LaurentError)):
            RationalSeries.parse(text, 1)

    def test_copy_and_pickle(self):
        s = RationalSeries.parse(
            "((L + 1) / (L^2 - 2)) * T1 / ((1 - L^-1 * T2))  +  (L^-1)", 2)
        for back in (copy.copy(s), copy.deepcopy(s),
                     pickle.loads(pickle.dumps(s))):
            assert str(back) == str(s) and back.nvars == 2
            assert back.terms == s.terms and isinstance(back.terms, tuple)
            with pytest.raises(AttributeError, match="RationalSeries is immutable"):
                back.terms = ()

    def test_assignment_refused(self):
        s = geometric()
        for name in ("terms", "nvars", "other"):
            with pytest.raises(AttributeError, match="RationalSeries is immutable"):
                setattr(s, name, None)
        assert isinstance(s.terms, tuple) and s.nvars == 1

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

    def test_expand_prints_as_the_product_expansion(self):
        """Seeded: every coefficient of the row recurrence prints as the
        product convolution prints it (the order in which an index's
        denominator classes are added decides the bytes), and equals the
        per-term route's value."""
        rng = random.Random(17)
        for _case in range(400):
            series, order, route = _random_expansion_case(rng)
            got = series.expand(order)
            want = _product_expand(series, order)
            assert {n: str(c) for n, c in got.coeffs.items()} == \
                {n: str(c) for n, c in want.items()}
            assert got == route and set(got.coeffs) == set(route.coeffs)

    @pytest.mark.parametrize("terms", [
        # the class L^2 - 1 reaches T^0 first through its second term
        [(L ** 2 - 1, 3, 1), (L - 1, 0, 1), (L + 1, 0, 1), (L ** 2 - 1, 0, 1)],
        # its row at T^1 is reached earlier through T^0 than by its own term
        [(L ** 2 - 1, 0, 1), (L - 1, 0, 1), (L + 1, 0, 1), (L ** 2 - 1, 1, 1)],
        # its earliest term at T^0 has other factors than its first one there
        [(L ** 2 - 1, 3, 1), (L ** 2 - 1, 0, 2), (L - 1, 0, 1), (L + 1, 0, 1),
         (L ** 2 - 1, 0, 1)],
    ])
    def test_expand_adds_classes_in_term_order(self, terms):
        """(L - 1) + (L + 1) is over L^2 - 1, so a sum that adds the class
        L^2 - 1 after both prints other bytes than one that adds it first;
        each series here (terms of 1 / den at T^shift over 1 - L^-nu T)
        puts a class's earliest term at an index elsewhere than its first
        row or its first table."""
        series = sum((RationalSeries.term(RationalMotive(ONE, den), (shift,), [(nu, (1,))])
                      for den, shift, nu in terms), RationalSeries.zero(1))
        got = series.expand(4)
        want = _product_expand(series, 4)
        assert {n: str(c) for n, c in got.coeffs.items()} == \
            {n: str(c) for n, c in want.items()}

    @settings(max_examples=40, deadline=None)
    @given(a=small_series, b=small_series)
    def test_expand_is_additive_and_multiplicative(self, a, b):
        order = 4
        assert (a + b).expand(order) == a.expand(order) + b.expand(order)
        assert (a * b).expand(order) == a.expand(order) * b.expand(order)


class TestTruncatedSeries:
    def test_difference_and_product_stop_at_the_lower_order(self):
        """Terms of the longer series past the shorter one's order, and
        products that pass it, are dropped, in either operand order."""
        a = TruncatedSeries(1, 4, {(0,): Fraction(1), (3,): Fraction(2),
                                   (4,): Fraction(5)})
        b = TruncatedSeries(1, 2, {(1,): Fraction(3), (2,): Fraction(1, 2)})
        for got, want in ((a - b, {(0,): 1, (1,): -3, (2,): Fraction(-1, 2)}),
                          (b - a, {(0,): -1, (1,): 3, (2,): Fraction(1, 2)}),
                          (a * b, {(1,): 3, (2,): Fraction(1, 2)}),
                          (b * a, {(1,): 3, (2,): Fraction(1, 2)}),
                          (b * b, {(2,): 9})):
            assert (got.order, got.coeffs) == (2, want)
        x = TruncatedSeries(2, 3, {(0, 1): Fraction(2), (2, 1): Fraction(1)})
        y = TruncatedSeries(2, 2, {(1, 0): Fraction(1), (0, 2): Fraction(3)})
        assert (x * y).coeffs == {(1, 1): 2}
        assert (x - y).coeffs == {(0, 1): 2, (1, 0): -1, (0, 2): -3}

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

    def test_geometric_factor_is_the_product_with_its_expansion(self):
        """Seeded: over_binomial equals the product with the explicit
        geometric series sum_k c^k T^(k d), to the printed bytes."""
        rng = random.Random(15)
        motives = [rm(-1), rm(-2, 3), RationalMotive(L - 1, L + 1),
                   RationalMotive(2, L ** 2 - 3)]
        for _case in range(80):
            nvars, order = rng.randint(1, 2), rng.randint(0, 7)
            if rng.random() < 0.5:
                ring = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(4)]
                zero, power = Fraction(0), Fraction(1)
            else:
                ring, zero, power = motives, RationalMotive.zero(), RationalMotive.one()
            d = [rng.randint(0, 2) for _ in range(nvars)]
            d[rng.randrange(nvars)] = rng.randint(1, 2)  # entries may be 0
            d, c = tuple(d), rng.choice(ring)
            coeffs = {}
            for _ in range(rng.randint(0, 5)):
                n = tuple(rng.randint(0, 3) for _ in range(nvars))
                if sum(n) <= order:
                    coeffs[n] = rng.choice(ring)
            s = TruncatedSeries(nvars, order, coeffs, zero)
            geom = {}
            for k in range(order // sum(d) + 1):
                geom[tuple(k * x for x in d)] = power
                power = power * c
            want = s * TruncatedSeries(nvars, order, geom, zero)
            got = s.over_binomial(c, d)
            assert got == want
            assert ({n: str(v) for n, v in got.coeffs.items()}
                    == {n: str(v) for n, v in want.coeffs.items()})

    def test_geometric_factor_needs_nonnegative_degree(self):
        s = TruncatedSeries(2, 3, {(0, 0): Fraction(1)})
        for d in [(0, 0), (1, -1), (-1, 2)]:
            with pytest.raises(SeriesError, match="T-degree > 0|entry below 0"):
                s.over_binomial(Fraction(1, 2), d)

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

    def test_negative_index_rejected(self):
        """A power series has no T^n with some n_i < 0: not as a stored
        coefficient, not as a lookup, not as a binomial's degree."""
        with pytest.raises(SeriesError, match="entry below 0"):
            TruncatedSeries(1, 2, {(-3,): Fraction(1)})
        with pytest.raises(SeriesError, match="entry below 0"):
            TruncatedSeries(2, 2, {(2, -1): Fraction(1)})
        s = TruncatedSeries(1, 2, {(0,): Fraction(1)})
        with pytest.raises(SeriesError, match="entry below 0"):
            s.coefficient((-40,))
        with pytest.raises(SeriesError, match="entry below 0"):
            s.times_binomial(Fraction(1), (-1,))
