"""Resolution data: zeta series, Milnor fiber, spectrum, shipped fixtures."""

from collections import Counter
from fractions import Fraction

import pytest

from arczeta import (ArcConstraint, Component, CountPlan, LaurentMotive,
                     PolySystem, RationalMotive, RationalSeries, ResolutionDatum,
                     ResolutionError, Spectrum, Stratum, hsp_of_f, milnor_fiber,
                     parse_poly, zeta_from_resolution)
from arczeta.fixtures import RESOLUTION_FIXTURES, resolution_fixture

L = LaurentMotive.L()
t = Spectrum.t
half = Fraction(1, 2)


class TestValidation:
    def test_component_needs_positive_multiplicities(self):
        with pytest.raises(ResolutionError):
            Component("E", 0, 1)
        with pytest.raises(ResolutionError):
            Component("E", 1, 0)

    def test_stratum_consistency(self):
        E = Component("E", 1, 1)
        good = Stratum(frozenset({"E"}), LaurentMotive.one())
        with pytest.raises(ResolutionError):
            ResolutionDatum((E,), (Stratum(frozenset(), LaurentMotive.one()),))
        with pytest.raises(ResolutionError):
            ResolutionDatum((E,), (Stratum(frozenset({"F"}),
                                           LaurentMotive.one()),))
        with pytest.raises(ResolutionError):
            ResolutionDatum((E,), (good, good))
        with pytest.raises(ResolutionError):
            ResolutionDatum((E, E), (good,))

    def test_json_round_trip(self):
        for name in RESOLUTION_FIXTURES:
            R = resolution_fixture(name)
            assert ResolutionDatum.from_json(R.to_json()) == R


class TestSmoothLinearCase:
    def test_zeta_is_one_geometric_factor(self):
        R = resolution_fixture("x1")
        Z = zeta_from_resolution(R)
        got = Z.expand(4)
        for n in range(1, 5):
            assert got.coefficient((n,)) == RationalMotive(
                LaurentMotive({-n: 1}))

    def test_milnor_fiber_is_a_point(self):
        counting, spectrum = milnor_fiber(resolution_fixture("x1"))
        assert counting == LaurentMotive.one()
        assert spectrum == Spectrum.one()
        assert hsp_of_f(resolution_fixture("x1"), 1) == Spectrum.zero()


class TestAgainstArcCounts:
    @pytest.mark.parametrize("name,text,q,constraint", [
        ("x1", "x1", 3, None),
        ("x2", "x1^2", 3, None),
        ("x3", "x1^3", 7, None),
        ("xy-global", "x1*x2", 3, None),
        ("xy-local", "x1*x2", 3, "origin"),
        ("quadric3-local", "x1^2 + x2^2 + x3^2", 5, "origin"),
    ])
    def test_expansion_matches_counts(self, name, text, q, constraint):
        R = resolution_fixture(name)
        order = 4
        expected = CountPlan(
            PolySystem([parse_poly(text)]), q,
            ArcConstraint.parse(constraint) if constraint else None, order,
            min_order=1).series("one")
        got = zeta_from_resolution(R).expand(order).specialize(q)
        assert got == expected


class TestMilnorValues:
    def test_double_point(self):
        counting, spectrum = milnor_fiber(resolution_fixture("x2"))
        assert counting == LaurentMotive.const(2)
        assert spectrum == 1 + t(half)
        assert hsp_of_f(resolution_fixture("x2"), 1) == t(half)

    def test_quadric_germ(self):
        R = resolution_fixture("quadric3-local")
        counting, spectrum = milnor_fiber(R)
        assert counting == L + 1
        assert spectrum == 1 + t(Fraction(3, 2))
        assert hsp_of_f(R, 3) == t(Fraction(3, 2))

    def test_spectrum_requested_but_missing(self):
        with pytest.raises(ResolutionError, match="some stratum lacks it"):
            hsp_of_f(resolution_fixture("xy-global"), 2)

    def test_sign_dimension_override(self):
        R = resolution_fixture("x2")
        assert hsp_of_f(R, 2) == -t(half)


@pytest.fixture
def spy(monkeypatch):
    """Counts zeta-series terms built and limits taken at infinity."""
    calls = Counter()
    term, limit = RationalSeries.term.__func__, RationalSeries.limit_at_infinity

    def counted_term(cls, *args):
        calls["term"] += 1
        return term(cls, *args)

    def counted_limit(self):
        calls["limit"] += 1
        return limit(self)

    monkeypatch.setattr(RationalSeries, "term", classmethod(counted_term))
    monkeypatch.setattr(RationalSeries, "limit_at_infinity", counted_limit)
    return calls


class TestDerivedOnce:
    def test_zeta_series_and_check_run_once_per_datum(self, spy):
        R = resolution_fixture("quadric3-local")
        pair = milnor_fiber(R)
        assert hsp_of_f(R, 3) == t(Fraction(3, 2))
        assert milnor_fiber(R) is pair
        assert zeta_from_resolution(R) is zeta_from_resolution(R)
        assert spy == {"term": len(R.strata), "limit": 1}

    def test_equal_data_compute_their_own_values(self, spy):
        R1, R2 = resolution_fixture("xy-local"), resolution_fixture("xy-local")
        assert R1 == R2 and hash(R1) == hash(R2)
        Z1, Z2 = zeta_from_resolution(R1), zeta_from_resolution(R2)
        assert Z1 is not Z2 and str(Z1) == str(Z2)
        assert milnor_fiber(R1) == milnor_fiber(R2)
        assert spy == {"term": 2 * len(R1.strata), "limit": 2}
        assert R1 == R2 and hash(R1) == hash(R2)
        assert ResolutionDatum.from_json(R1.to_json()) == R1

    def test_cross_check_runs_on_every_fresh_datum(self, monkeypatch):
        checked = resolution_fixture("quadric3-local")
        pair = milnor_fiber(checked)
        monkeypatch.setattr(RationalSeries, "limit_at_infinity",
                            lambda self: RationalMotive(L ** 5))
        assert milnor_fiber(checked) is pair
        for call in (milnor_fiber, lambda R: hsp_of_f(R, 3)):
            R = resolution_fixture("quadric3-local")
            for _ in range(2):  # a failed check caches nothing
                with pytest.raises(ResolutionError, match="zeta limit disagrees"):
                    call(R)
