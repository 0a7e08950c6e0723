"""Castling transfer operators: algebra, fixtures, numeric verification."""

import itertools
import random
from fractions import Fraction

import pytest

from arczeta import (BFunction, CastlingDatum, CastlingError, LaurentMotive,
                     PolySystem, RationalMotive, ResolutionDatum, Spectrum,
                     TruncatedSeries,
                     castle_bfunction, castle_igusa, castle_local_zeta,
                     castle_milnor, castle_spectrum, castle_zeta,
                     castle_zeta_numeric, counting_series, igusa_coeffs,
                     globalize_by_degree, localize_by_degree, parse_poly,
                     series_equal, sl_class, verify_castling,
                     zeta_from_resolution)
from arczeta.fixtures import castling_fixture, resolution_fixture

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


def test_numeric_transfers_match_reference_loops():
    """The skeleton's numeric transfers give the exact Fractions of the
    separate loops, for r1 < r2, r1 = r2 and r1 > r2, and l = 2 globally."""
    rng = random.Random(20261018)
    for r1, r2 in [(1, 2), (1, 3), (2, 4), (1, 1), (2, 2), (2, 1), (3, 1), (4, 2)]:
        for q in (2, 3, 5):
            c = CastlingDatum(r1 + r2, r1, r2, 1, (rng.randint(1, 3),))
            Z = random_truncated(rng, 1, 7)
            for got, want in ((castle_igusa(Z, q, c), reference_igusa(Z, q, c)),
                              (castle_zeta_numeric(Z, q, c),
                               reference_zeta_numeric(Z, q, c))):
                assert (got.order, got.coeffs) == (want.order, want.coeffs)
            c2 = CastlingDatum(r1 + r2, r1, r2, 2,
                               (rng.randint(1, 2), rng.randint(1, 2)))
            Z2 = random_truncated(rng, 2, 5)
            got = castle_zeta_numeric(Z2, q, c2)
            want = reference_zeta_numeric(Z2, q, c2)
            assert (got.order, got.coeffs) == (want.order, want.coeffs)


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

    def test_verify_rejects_mismatched_dimensions(self):
        sys1 = PolySystem([parse_poly("x1^2 + x2^2 + x3^2")])
        with pytest.raises(CastlingError):
            verify_castling(sys1, sys1, QUADRIC, 3, 1)
