"""Castling transfer operators: algebra, fixtures, numeric verification."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from arczeta import (BFunction, BudgetExceeded, CastlingDatum, CastlingError,
                     CountPlan, LaurentMotive, Poly, PolySystem, RationalMotive,
                     RationalSeries, ResolutionDatum, Spectrum, TruncatedSeries,
                     castle_bfunction, castle_igusa, castle_local_zeta,
                     castle_milnor, castle_spectrum, castle_zeta,
                     castle_zeta_numeric, counting_series, estimate_work,
                     igusa_coeffs, globalize_by_degree, localize_by_degree, milnor_fiber,
                     parse_poly, series_equal, sl_class, verify_castling,
                     zeta_from_resolution)
from arczeta.arcs import check_padic, order_indices
from arczeta.fixtures import castling_fixture, resolution_fixture
from arczeta.series import SeriesFactor, SeriesTerm

L = LaurentMotive.L()
t = Spectrum.t

QUADRIC = CastlingDatum(3, 1, 2, 1, (2,))
SYM = CastlingDatum(2, 1, 1, 2, (1, 1))


def quadric_germ_zeta():
    return zeta_from_resolution(resolution_fixture("quadric3-local"))


def canonical_symbolic_zeta():
    """The zeta series of the symbolic benchmark's canonical resolution datum."""
    return zeta_from_resolution(ResolutionDatum.from_json({
        "components": [{"id": "E1", "N": 2, "nu": 3},
                       {"id": "E2", "N": 1, "nu": 1}],
        "strata": [{"I": ["E1"], "class": "L^2 + L"},
                   {"I": ["E2"], "class": "L + 1"},
                   {"I": ["E1", "E2"], "class": "L + 1"}],
    }))


def test_transfer_expansion_keeps_denominators_small():
    """Every coefficient of an expanded transfer shares one small
    denominator; summing them over products of denominators reached 252
    terms on this datum."""
    Z, c = canonical_symbolic_zeta(), CastlingDatum(7, 2, 5, 1, (2,))
    for series in (castle_zeta(Z, c), castle_local_zeta(Z, c)):
        expansion = series.expand(8)
        assert expansion.coeffs
        assert max(len(v.den.terms) for v in expansion.coeffs.values()) <= 4


class TestDatum:
    def test_validation(self):
        with pytest.raises(CastlingError):
            CastlingDatum(3, 1, 1, 1, (2,))
        with pytest.raises(CastlingError):
            CastlingDatum(2, 1, 1, 2, (1,))
        with pytest.raises(CastlingError):
            CastlingDatum(2, 1, 1, 1, (0,))

    def test_swapped_involution(self):
        assert QUADRIC.swapped().swapped() == QUADRIC
        assert QUADRIC.swapped() == CastlingDatum(3, 2, 1, 1, (2,))

    def test_json_round_trip(self):
        assert CastlingDatum.from_json(QUADRIC.to_json()) == QUADRIC


class TestSeriesOperators:
    def test_global_involution(self):
        Z = quadric_germ_zeta()
        back = castle_zeta(castle_zeta(Z, QUADRIC), QUADRIC.swapped())
        assert series_equal(back, Z, 8)

    def test_local_involution(self):
        Z = quadric_germ_zeta()
        back = castle_local_zeta(castle_local_zeta(Z, QUADRIC),
                                 QUADRIC.swapped())
        assert series_equal(back, Z, 8)

    def test_fixed_point_when_ranks_agree(self):
        Z = zeta_from_resolution(resolution_fixture("x2"))
        c = CastlingDatum(2, 1, 1, 1, (2,))
        assert series_equal(castle_zeta(Z, c), Z, 8)
        assert series_equal(castle_local_zeta(Z, c), Z, 8)

    def test_localize_globalize_inverse(self):
        Z = quadric_germ_zeta()
        glob = globalize_by_degree(Z, QUADRIC, 1)
        assert series_equal(localize_by_degree(glob, QUADRIC, 1), Z, 8)

    def test_globalizing_a_series_that_does_not_vanish_refused(self):
        # the constant series 1 has no factor T^(r d) to take off
        with pytest.raises(CastlingError, match="degree bookkeeping failed"):
            globalize_by_degree(RationalSeries.parse("(1)", 1), QUADRIC, 1)

    def test_degree_lemma_reads_each_side(self):
        """Side 1 moves by r1 = 1, side 2 by r2 = 2: L^(-m r) T^(r d)."""
        Z = quadric_germ_zeta()
        for side, r in ((1, 1), (2, 2)):
            want = Z.scale(LaurentMotive({-3 * r: 1})).shifted((2 * r,))
            assert series_equal(localize_by_degree(Z, QUADRIC, side), want, 10)
            assert series_equal(globalize_by_degree(want, QUADRIC, side), Z, 8)

    @pytest.mark.parametrize("side", [0, 3, "2"])
    def test_degree_lemma_refuses_any_other_side(self, side):
        """A side is 1 or 2; any other used to be read as side 2."""
        Z = quadric_germ_zeta().shifted((4,))
        for lemma in (localize_by_degree, globalize_by_degree):
            with pytest.raises(CastlingError, match="side must be 1 or 2, got %r" % (side,)):
                lemma(Z, QUADRIC, side)

    @pytest.mark.parametrize("load", [castling_fixture, resolution_fixture])
    def test_unknown_fixture_refused(self, load):
        with pytest.raises(KeyError, match="unknown .* fixture 'nope'"):
            load("nope")

    def test_degree_bookkeeping_error(self):
        # the germ series of the larger partner does not always divide back
        Z = zeta_from_resolution(resolution_fixture("x1"))
        with pytest.raises(CastlingError):
            castle_local_zeta(Z, CastlingDatum(3, 2, 1, 1, (2,)))


class TestMilnorAndSpectrum:
    def test_milnor_involution(self):
        S1 = (RationalMotive(L + 1), 1 + t(Fraction(3, 2)))
        S2 = castle_milnor(S1, QUADRIC)
        back = castle_milnor(S2, QUADRIC.swapped())
        assert back == S1

    @pytest.mark.parametrize("c", [QUADRIC, CastlingDatum(7, 2, 5, 1, (2,))])
    def test_milnor_fiber_of_a_datum_round_trips(self, c):
        """milnor_fiber gives its counting class as a LaurentMotive: the
        transfer reads it as a RationalMotive times the factors
        (1 - L^j), r1 < j <= r2, and the swapped datum divides them out
        again, spectrum channel included."""
        counting, spectrum = milnor_fiber(resolution_fixture("quadric3-local"))
        assert isinstance(counting, LaurentMotive)
        extra = prod((1 - L ** j for j in range(c.r1 + 1, c.r2 + 1)),
                     start=LaurentMotive.one())
        assert castle_milnor(counting, c) == RationalMotive(counting * extra)
        S2 = castle_milnor((counting, spectrum), c)
        assert S2[0] == RationalMotive(counting * extra)
        assert castle_milnor(S2, c.swapped()) == (RationalMotive(counting), spectrum)

    def test_milnor_fixed_point(self):
        c = CastlingDatum(2, 1, 1, 1, (2,))
        assert castle_milnor(RationalMotive(L + 1), c) == RationalMotive(L + 1)

    def test_spectrum_double_point_fixed(self):
        c = CastlingDatum(2, 1, 1, 1, (2,))
        h = t(Fraction(1, 2))
        assert castle_spectrum(h, c) == h

    def test_spectrum_quadric_value(self):
        h2 = castle_spectrum(t(Fraction(3, 2)), QUADRIC)
        assert h2 == (-t(Fraction(3, 2)) + t(2) + t(Fraction(7, 2)))
        assert castle_spectrum(h2, QUADRIC.swapped()) == t(Fraction(3, 2))

    def test_spectrum_rejects_non_partner(self):
        with pytest.raises(CastlingError):
            castle_spectrum(t(Fraction(1, 3)), QUADRIC.swapped())


class TestBFunction:
    def test_quadric_roots(self):
        b1 = BFunction.from_roots([1, Fraction(3, 2)])
        b2 = castle_bfunction(b1, QUADRIC)
        assert b2.as_counter() == {Fraction(1): 2, Fraction(3, 2): 2}
        assert castle_bfunction(b2, QUADRIC.swapped()) == b1

    def test_needs_a_single_invariant(self):
        with pytest.raises(CastlingError, match="single invariant"):
            castle_bfunction(BFunction.from_roots([1]), SYM)

    def test_cancellation_failure(self):
        with pytest.raises(CastlingError):
            castle_bfunction(BFunction.from_roots([Fraction(5, 7)]),
                             QUADRIC.swapped())

    def test_validation_and_text(self):
        with pytest.raises(CastlingError):
            BFunction.from_roots([0])
        b = BFunction.from_roots([1, 1, Fraction(3, 2)])
        assert b.size() == 3
        assert str(b) == "{1, 1, 3/2}"


def reference_igusa(Z1, q, c):
    """castle_igusa as its own loop, one scale per binomial."""
    q = Fraction(q)
    d = (c.d[0],)
    out = Z1
    for j in range(1, c.r2 + 1):
        out = out.scale(1 - q ** -j)
        out = out.over_binomial(q ** -j, d)
    for j in range(1, c.r1 + 1):
        out = out.scale(1 / (1 - q ** -j))
        out = out.times_binomial(q ** -j, d)
    return out


def reference_zeta_numeric(Z1, q, c):
    """castle_zeta_numeric as its own loop, SL classes specialized apart."""
    q = Fraction(q)
    ratio = Fraction(sl_class(c.r2).specialize(q)) / sl_class(c.r1).specialize(q)
    out = Z1.scale(ratio)
    for j in range(1, c.r1 + 1):
        out = out.times_binomial(q ** -j, c.d)
    for j in range(1, c.r2 + 1):
        out = out.over_binomial(q ** -j, c.d)
    return out


def random_truncated(rng, nvars, order):
    coeffs = {n: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
              for n in itertools.product(range(order + 1), repeat=nvars)
              if sum(n) <= order and rng.random() < 0.7}
    return TruncatedSeries(nvars, order, coeffs)


def test_numeric_transfers_match_reference_loops(monkeypatch):
    """The numeric transfers give the exact Fractions of the separate
    loops, for r1, r2 in 1..5, and l = 2 globally; each makes one scale and
    applies only the factors that do not cancel: r1 - r2 binomial or
    r2 - r1 geometric passes, none when r1 = r2."""
    passes = []
    for name in ("scale", "times_binomial", "over_binomial"):
        def counted(self, *args, _name=name, _real=getattr(TruncatedSeries, name)):
            passes.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(TruncatedSeries, name, counted)
    rng = random.Random(20261018)
    for r1, r2 in itertools.product(range(1, 6), repeat=2):
        for q in (2, 3, 5):
            c = CastlingDatum(r1 + r2, r1, r2, 1, (rng.randint(1, 3),))
            Z = random_truncated(rng, 1, 7)
            for transfer, reference in ((castle_igusa, reference_igusa),
                                        (castle_zeta_numeric, reference_zeta_numeric)):
                passes.clear()
                got = transfer(Z, q, c)
                assert passes == (["scale"] + ["times_binomial"] * max(r1 - r2, 0)
                                  + ["over_binomial"] * max(r2 - r1, 0))
                want = reference(Z, q, c)
                assert (got.order, got.coeffs) == (want.order, want.coeffs)
            c2 = CastlingDatum(r1 + r2, r1, r2, 2,
                               (rng.randint(1, 2), rng.randint(1, 2)))
            Z2 = random_truncated(rng, 2, 5)
            got = castle_zeta_numeric(Z2, q, c2)
            want = reference_zeta_numeric(Z2, q, c2)
            assert (got.order, got.coeffs) == (want.order, want.coeffs)


def chained_transfer(Z, scalar, top, bottom, N):
    """Z * scalar * prod_{nu in top}(1 - L^-nu T^N) / prod_{nu in bottom}
    (1 - L^-nu T^N) as chained passes, one rebuilt series per binomial and
    per geometric factor: the route the one-pass build replaces."""
    def times_binomial(s, nu):
        out = []
        for term in s.terms:
            out.append(term)
            out.append(SeriesTerm(RationalMotive(-term.coeff.num.shift(-nu),
                                                 term.coeff.den),
                                  tuple(a + b for a, b in zip(term.shift, N)),
                                  term.factors))
        return RationalSeries(s.nvars, out)

    def over_binomial(s, nu):
        f = SeriesFactor(nu, N)
        return RationalSeries(s.nvars, [SeriesTerm(term.coeff, term.shift,
                                                   term.factors + (f,))
                                        for term in s.terms])

    out = Z.scale(scalar)
    for nu in top:
        out = times_binomial(out, nu)
    for nu in bottom:
        out = over_binomial(out, nu)
    return out


def cancelled_chain(Z, c, e):
    """The transfer with scalar L^e U after the factors j <= min(r1, r2)
    cancel: U keeps (1 - L^-j) for min(r1, r2) < j <= max(r1, r2), one
    product (r2 > r1) or quotient (r1 > r2) each, and the series as many
    geometric factors or binomials."""
    js = range(min(c.r1, c.r2) + 1, max(c.r1, c.r2) + 1)
    scalar = RationalMotive(LaurentMotive({e: 1}))
    for j in js:
        one_minus = RationalMotive(LaurentMotive({0: 1, -j: -1}))
        scalar = scalar * one_minus if c.r2 >= c.r1 else scalar / one_minus
    if c.r2 >= c.r1:
        return chained_transfer(Z, scalar, (), js, c.d)
    return chained_transfer(Z, scalar, js, (), c.d)


def full_chain(Z, c, scalar):
    """The transfer with nothing cancelled: scalar, then all r1 binomials and
    all r2 geometric factors."""
    return chained_transfer(Z, scalar, range(1, c.r1 + 1), range(1, c.r2 + 1), c.d)


def random_rational(rng, nvars):
    """1-4 terms with Laurent or quotient coefficients over a few denominator
    classes, shifts and factor tuples drawn per term."""
    dens = [LaurentMotive.one(), L - 1, L + 1, L ** 2 - 1, 2 * L + 2, L ** 2 + L + 1]
    terms = []
    for _ in range(rng.randint(1, 4)):
        num = LaurentMotive({rng.randint(-3, 3): rng.randint(-4, 4)
                             for _ in range(rng.randint(1, 3))})
        shift = tuple(rng.randint(0, 2) for _ in range(nvars))
        factors = [(rng.randint(1, 4), tuple(rng.randint(0, 2) for _ in range(nvars)))
                   for _ in range(rng.randint(0, 2))]
        factors = [(nu, N) for nu, N in factors if any(N)]
        terms.append(RationalSeries.term(RationalMotive(num, rng.choice(dens)),
                                         shift, factors))
    return sum(terms, RationalSeries.zero(nvars))


def test_one_pass_transfer_prints_as_the_chained_passes():
    """Seeded: castle_zeta and castle_local_zeta print the bytes of the
    cancelled chain for r1, r2 in 1..5 (r2 < r1 included) in 1-3 variables,
    and the local transfer refuses exactly the negative shifts the chained
    series cannot take."""
    rng = random.Random(20261019)
    refused = 0
    for r1, r2 in itertools.product(range(1, 6), repeat=2):
        for _ in range(3):
            nvars = rng.randint(1, 3)
            c = CastlingDatum(r1 + r2, r1, r2, nvars,
                              tuple(rng.randint(1, 2) for _ in range(nvars)))
            Z = random_rational(rng, nvars)
            want = cancelled_chain(Z, c, r2 ** 2 - r1 ** 2)
            assert str(castle_zeta(Z, c)) == str(want)
            local = cancelled_chain(Z, c, 0)
            try:
                want = local.shifted(tuple((r2 - r1) * x for x in c.d))
            except ValueError:
                refused += 1
                with pytest.raises(CastlingError, match="degree bookkeeping"):
                    castle_local_zeta(Z, c)
                continue
            assert str(castle_local_zeta(Z, c)) == str(want)
    assert refused


def test_transfers_equal_the_uncancelled_chain():
    """Seeded: for r1, r2 in 1..5, castle_zeta expands to the values of the
    chain with the full SL class ratio and every binomial, and
    castle_local_zeta to those of the chain with the full unit U, to order 8."""
    def binomials(r):
        return prod((LaurentMotive({0: 1, -j: -1}) for j in range(1, r + 1)),
                    start=LaurentMotive.one())

    rng = random.Random(20261020)
    for r1, r2 in itertools.product(range(1, 6), repeat=2):
        nvars = rng.randint(1, 2)
        c = CastlingDatum(r1 + r2, r1, r2, nvars,
                          tuple(rng.randint(1, 2) for _ in range(nvars)))
        Z = random_rational(rng, nvars)
        want = full_chain(Z, c, RationalMotive(sl_class(r2), sl_class(r1)))
        got = castle_zeta(Z, c).expand(8)
        assert got.coeffs and got == want.expand(8)
        # raised first so that the local transfer's shift is never refused
        Z = Z.shifted(tuple(max(r1 - r2, 0) * x for x in c.d))
        want = full_chain(Z, c, RationalMotive(binomials(r2), binomials(r1)))
        want = want.shifted(tuple((r2 - r1) * x for x in c.d))
        got = castle_local_zeta(Z, c).expand(8)
        assert got.coeffs and got == want.expand(8)


def test_both_rings_read_one_ratio():
    """Seeded: for r1, r2 in 1..4 (r1 > r2 included), 1-2 variables and
    q in {2, 3, 5}, castle_zeta expanded and read at L = q equals
    castle_zeta_numeric on the expansion read at L = q, to order 6."""
    rng = random.Random(20261021)
    for r1, r2 in itertools.product(range(1, 5), repeat=2):
        nvars = rng.randint(1, 2)
        c = CastlingDatum(r1 + r2, r1, r2, nvars,
                          tuple(rng.randint(1, 2) for _ in range(nvars)))
        Z = random_rational(rng, nvars)
        symbolic = castle_zeta(Z, c).expand(6)
        for q in (2, 3, 5):
            got = symbolic.specialize(q)
            assert got.coeffs and got == castle_zeta_numeric(
                Z.expand(6).specialize(q), q, c)


def test_quadric_poles_are_roots_of_the_transferred_bfunction():
    """Every factor (1 - L^-nu T^N) printed by the (3, 1, 2) transfers of the
    quadric germ has nu/N among the roots {1, 1, 3/2, 3/2} of the transferred
    b-function: the shared factor (1 - L^-1 T^2), a pole at 1/2, cancels."""
    roots = castle_bfunction(BFunction.from_roots([1, Fraction(3, 2)]), QUADRIC)
    assert str(roots) == "{1, 1, 3/2, 3/2}"
    for transfer in (castle_zeta, castle_local_zeta):
        out = transfer(quadric_germ_zeta(), QUADRIC)
        poles = {Fraction(int(nu), int(N or 1)) for nu, N in
                 re.findall(r"\(1 - L\^-(\d+) \* T1\^?(\d*)\)", str(out))}
        assert poles and poles <= set(roots.as_counter())


def igusa_form(lams, d):
    """prod_{lam in lams} (1 - L^-lam) / (1 - L^-lam T^d), one variable: the
    series of an invariant with b-function roots lam/d."""
    coeff = prod((LaurentMotive({0: 1, -lam: -1}) for lam in lams),
                 start=LaurentMotive.one())
    return RationalSeries.term(coeff, (0,), [(lam, (d,)) for lam in lams])


def poly_times_binomial(p, a, N):
    """p(T) (1 - a T^N) for a list p of coefficients by degree."""
    out = p + [Fraction(0)] * N
    for k, c in enumerate(p):
        out[k + N] -= a * c
    return out


def poly_over_binomial(p, a, N):
    """p(T) / (1 - a T^N) if it divides p, else None."""
    while p and not p[-1]:
        p = p[:-1]
    quot = []
    for k in range(len(p) - N):
        quot.append(p[k] + (a * quot[k - N] if k >= N else 0))
    return quot if poly_times_binomial(quot, a, N) == p else None


def poles_in_lowest_terms(series, q):
    """A one-variable series at L = q over the common denominator of its
    terms, with each factor (1 - q^-nu T^N) that divides the numerator
    cancelled: the nu/N of the factors left, with multiplicity."""
    q = Fraction(q)
    den = Counter()
    for term in series.terms:
        den |= Counter((f.nu, f.N[0]) for f in term.factors)
    num = []
    for term in series.terms:
        part = [Fraction(0)] * term.shift[0] + [term.coeff.specialize(q)]
        for (nu, N), k in (den - Counter((f.nu, f.N[0]) for f in term.factors)).items():
            for _ in range(k):
                part = poly_times_binomial(part, q ** -nu, N)
        num = [x + y for x, y in itertools.zip_longest(num, part, fillvalue=0)]
    poles = Counter()
    for (nu, N), k in den.items():
        for _ in range(k):
            quot = poly_over_binomial(num, q ** -nu, N)
            if quot is None:
                poles[Fraction(nu, N)] += 1
            else:
                num = quot
    return poles


def test_poles_are_roots_of_the_transferred_bfunction():
    """Igusa-form inputs, prod (1 - L^-lam) / (1 - L^-lam T^d) over the roots
    R and the (1 - L^-j T^d), j <= r1, that the r1 partner carries, with
    b-function R plus every root castle_bfunction removes: each pole of
    castle_zeta and castle_local_zeta in lowest terms at L = q, counted with
    its order, is a root of the transferred b-function, whose degree moves
    by d (r2 - r1) as the invariant's does.  det_3's series prod_{i<=3}
    (1 - q^-i) / (1 - q^-i t), b = (s+1)(s+2)(s+3), is one fixed input."""
    rng = random.Random(20261020)
    cases = [([i for i in range(1, 4) if i > r1], r1, r2, 1)
             for r1 in range(1, 4) for r2 in range(1, 5)]
    for _ in range(40):
        d = rng.randint(1, 3)
        cases.append(([rng.randint(1, 4 * d) for _ in range(rng.randint(0, 3))],
                      rng.randint(1, 4), rng.randint(1, 4), d))
    for lams, r1, r2, d in cases:
        c = CastlingDatum(r1 + r2, r1, r2, 1, (d,))
        Z1 = igusa_form(lams + list(range(1, r1 + 1)), d)
        b1 = BFunction.from_roots([Fraction(lam, d) for lam in lams]
                                  + [Fraction(i + j, d) for i in range(1, r1 + 1)
                                     for j in range(d)])
        b2 = castle_bfunction(b1, c)
        assert b2.size() == b1.size() + d * (r2 - r1)
        # raised first so that the local transfer's shift is never refused
        for out in (castle_zeta(Z1, c),
                    castle_local_zeta(Z1.shifted((d * max(r1 - r2, 0),)), c)):
            for q in (2, 3):
                poles = poles_in_lowest_terms(out, q)
                assert poles and not poles - b2.as_counter(), (lams, r1, r2, d, q)


class TestNumeric:
    def test_igusa_involution(self):
        Z = igusa_coeffs(parse_poly("x1^2 + x2^2 + x3^2"), 3, 3)
        back = castle_igusa(castle_igusa(Z, 3, QUADRIC), 3, QUADRIC.swapped())
        assert back == Z

    def test_variable_count_mismatch(self):
        Z = TruncatedSeries(1, 3, {(0,): Fraction(1)})
        with pytest.raises(CastlingError):
            castle_zeta_numeric(Z, 3, SYM)
        with pytest.raises(CastlingError):
            castle_igusa(Z, 3, SYM)

    @pytest.mark.parametrize("q", [0, 1, -1])
    def test_degenerate_q_refused(self, q):
        Z = TruncatedSeries(1, 3, {(0,): Fraction(1)})
        for transfer in (castle_igusa, castle_zeta_numeric):
            with pytest.raises(CastlingError, match="no numeric transfer"):
                transfer(Z, q, QUADRIC.swapped())

    def test_zeta_numeric_matches_symbolic(self):
        Z = quadric_germ_zeta()
        order = 5
        sym = castle_zeta(Z, QUADRIC).expand(order).specialize(3)
        num = castle_zeta_numeric(Z.expand(order).specialize(3), 3, QUADRIC)
        assert sym == num

    def test_counting_series_includes_boundary(self):
        sys = PolySystem([parse_poly("x1")])
        Z = counting_series(sys, 3, 2, "one")
        # order zero asks x1 = 1 at the starting point: exactly one arc
        assert Z.coefficient((0,)) == 1
        for n in range(1, 3):
            assert Z.coefficient((n,)) == Fraction(1, 3 ** n)

    def test_verify_trivial_pair(self):
        sys1 = PolySystem([parse_poly("x1", 2), parse_poly("x2", 2)])
        report = verify_castling(sys1, sys1, SYM, 3, 3)
        assert report["all_equal"]
        assert report["leading"] == "any"
        assert report["max_verified_order"] == 3

    def test_budget_refuses_both_partners_before_either_sweeps(self, monkeypatch):
        """torus-m3 at q = 3, order 2: the partner on 3 variables is
        estimated at 3^6 rows and the one on 6 at 3^12, so a budget between
        them refuses the second plan after the first was built."""
        def no_sweep(self, threads=1):
            raise AssertionError("swept before the budget check")

        monkeypatch.setattr(CountPlan, "counts", no_sweep)
        s1, s2, c = castling_fixture("torus-m3")
        sys1, sys2 = PolySystem(s1), PolySystem(s2)
        with pytest.raises(BudgetExceeded) as exc:
            verify_castling(sys1, sys2, c, 3, 2, budget=3 ** 12 - 1)
        assert str(exc.value) == ("estimated 3^12 candidate rows exceeds budget %d"
                                  % (3 ** 12 - 1))
        targets = order_indices(3, 2, low=0)
        with pytest.raises(BudgetExceeded):
            CountPlan(sys2, 3, None, targets, budget=3 ** 12 - 1)
        CountPlan(sys2, 3, None, targets, budget=3 ** 12)
        CountPlan(sys1, 3, None, targets, budget=3 ** 6)
        assert estimate_work(sys2, (2, 0, 0), 3, leading="any") == 3 ** 12
        assert estimate_work(sys1, (2, 0, 0), 3, leading="any") == 3 ** 6

    def test_verify_rejects_mismatched_dimensions(self):
        sys1 = PolySystem([parse_poly("x1^2 + x2^2 + x3^2")])
        with pytest.raises(CastlingError):
            verify_castling(sys1, sys1, QUADRIC, 3, 1)

    def test_verify_rejects_wrong_invariant_degrees(self):
        # the partner on m*r2 = 6 variables has degree 2, not r2*d = 4
        sys1 = PolySystem([parse_poly("x1^2 + x2^2 + x3^2")])
        sys2 = PolySystem([parse_poly("x1*x4 - x2*x3 + x5*x6")])
        with pytest.raises(CastlingError, match="invariant degrees must be r_j"):
            verify_castling(sys1, sys2, QUADRIC, 3, 1)


# -- Plücker-dual pairs ------------------------------------------------------
# For any form P in one variable z_I per r1-subset I of the m rows,
# f1(x) = P(p_I(x)) on m x r1 matrices and f2(y) = P(eps_I p_{I^c}(y)) on
# m x r2 matrices (r2 = m - r1) are castling partners of degrees r1 d and
# r2 d: the Plücker vector of the orthogonal complement of a frame's span is
# the Hodge star of the frame's.  p_I is the minor on the rows I of the
# matrix read row by row ([[x1, .., xr], ..]), eps_I the sign of the
# permutation (I, I^c).


def _minors(m, r):
    """{I: p_I} over the r-subsets I of range(m), by Laplace expansion along
    the columns."""
    n = m * r
    x = [[Poly.var(n, i * r + j + 1) for j in range(r)] for i in range(m)]

    def det(rows, col):
        if col == r:
            return Poly.const(n, 1)
        return sum((x[i][col] * det(rows[:k] + rows[k + 1:], col + 1) * (-1) ** k
                    for k, i in enumerate(rows)), Poly.const(n, 0))
    return {I: det(I, 0) for I in itertools.combinations(range(m), r)}


def _plucker_pair(seed, m, r1, ds, primes):
    """(f1s, f2s, datum): one seeded P_i of degree d_i per entry of ds, each
    a sum of up to three monomials in the z_I with small coefficients.  A
    draw is redrawn while some f vanishes or drops degree (a Plücker
    relation) or vanishes mod a prime of primes, which check_padic refuses."""
    rng = random.Random(seed)
    r2 = m - r1
    p1, p2 = _minors(m, r1), _minors(m, r2)
    subsets = sorted(p1)
    duals = [(-1) ** (sum(I) - r1 * (r1 - 1) // 2)
             * p2[tuple(sorted(set(range(m)) - set(I)))] for I in subsets]
    while True:
        f1s, f2s = [], []
        for d in ds:
            monos = list(itertools.combinations_with_replacement(range(len(subsets)), d))
            P = {mono: rng.choice([-2, -1, 1, 2, 3])
                 for mono in rng.sample(monos, min(3, len(monos)))}
            f1s.append(sum(c * prod(p1[subsets[k]] for k in mono) for mono, c in P.items()))
            f2s.append(sum(c * prod(duals[k] for k in mono) for mono, c in P.items()))
        fit = all(not f.is_zero() and f.degree() == r * d
                  for fs, r in ((f1s, r1), (f2s, r2)) for f, d in zip(fs, ds))
        if fit and all(any(c % p for c in f.terms.values()) for f in f1s + f2s for p in primes):
            return f1s, f2s, CastlingDatum(m, r1, r2, len(ds), tuple(ds))


@pytest.mark.parametrize("m, r1, d, p, order", [
    (3, 1, 2, 2, 6), (3, 1, 2, 3, 3), (3, 1, 2, 5, 1), (3, 1, 3, 2, 4),
    (3, 2, 2, 2, 5), (3, 2, 2, 3, 3), (3, 2, 2, 5, 1),
    (4, 2, 1, 2, 3), (4, 2, 1, 3, 2),
])
def test_plucker_pairs_satisfy_the_padic_identity(m, r1, d, p, order):
    """castle_igusa carries the Igusa series of f1 to that of f2, with
    r1 < r2, r1 > r2 and the self-dual r1 = r2."""
    f1s, f2s, c = _plucker_pair(1000 * m + 100 * r1 + 10 * d + p, m, r1, [d], [p])
    for f in f1s + f2s:
        check_padic(f, p, order + 1)
    assert castle_igusa(igusa_coeffs(f1s[0], p, order), p, c) == igusa_coeffs(f2s[0], p, order)


@pytest.mark.parametrize("m, r1, ds, q, order", [
    (3, 1, (2,), 2, 3), (3, 2, (2,), 3, 2), (3, 2, (2,), 2, 3), (4, 2, (1,), 2, 2),
    (3, 1, (1, 2), 2, 2), (3, 2, (1, 1), 3, 2), (3, 2, (2, 1), 2, 2),
])
def test_plucker_pairs_verify(m, r1, ds, q, order):
    """verify_castling finds every coefficient equal on generated pairs, one
    invariant (leading one) or two (any leading)."""
    f1s, f2s, c = _plucker_pair(1000 * m + 100 * r1 + 10 * len(ds) + q, m, r1, ds, [q])
    assert verify_castling(PolySystem(f1s), PolySystem(f2s), c, q, order)["all_equal"]
