"""The symbolic transfers reduce each output value once.

RationalSeries.expand sums integer numerators per index and denominator
class, and castle_milnor and the spectrum transfers cancel the binomials both
sides share, then multiply the rest out before one reduction.  Each is
compared here with the computation it replaced, kept below as a reference: a
sum of reduced quotients taken one term at a time, and one product or
quotient per binomial, whose uncancelled form must give the same values.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (CastlingDatum, CastlingError, LaurentMotive,
                     RationalMotive, RationalSeries, ResolutionDatum, Spectrum,
                     castle_local_zeta, castle_milnor, castle_spectrum,
                     castle_zeta, zeta_from_resolution)
from arczeta.spectrum import SpectrumError

L = LaurentMotive.L()
ONE = LaurentMotive.one()


# -- references ----------------------------------------------------------------


def reference_expand(series, order):
    """{n: coefficient} of the expansion, summing one reduced quotient
    coeff * P_n per (term, index) in term order."""
    coeffs = {}
    for t in series.terms:
        room = order - sum(t.shift)
        if room < 0:
            continue
        prod = {(0,) * series.nvars: {0: 1}}
        for f in t.factors:
            out = {}
            for n, poly in prod.items():
                drop = 0
                while sum(n) <= room:
                    dst = out.setdefault(n, {})
                    for e, c in poly.items():
                        dst[e - drop] = dst.get(e - drop, 0) + c
                    n = tuple(x + y for x, y in zip(n, f.N))
                    drop += f.nu
            prod = out
        for n, poly in prod.items():
            n = tuple(x + y for x, y in zip(t.shift, n))
            part = RationalMotive(t.coeff.num * LaurentMotive(poly), t.coeff.den)
            coeffs[n] = coeffs[n] + part if n in coeffs else part
    return {n: c for n, c in coeffs.items() if c}


def reference_milnor(S1, c, cancel=True):
    """One product or quotient per binomial (1 - L^j) of the ratio, the shared
    j <= min(r1, r2) cancelled unless cancel is false."""
    counting, spectrum = S1 if isinstance(S1, tuple) else (S1, None)
    if not isinstance(counting, RationalMotive):
        counting = RationalMotive(counting)
    shared = min(c.r1, c.r2) if cancel else 0
    for j in range(shared + 1, c.r2 + 1):
        counting = counting * RationalMotive(LaurentMotive({0: 1, j: -1}))
    for j in range(shared + 1, c.r1 + 1):
        counting = counting / RationalMotive(LaurentMotive({0: 1, j: -1}))
    out_spec = None
    if spectrum is not None:
        num = spectrum
        for j in range(shared + 1, c.r2 + 1):
            num = num * Spectrum({0: 1, j: -1})
        den = Spectrum.one()
        for j in range(shared + 1, c.r1 + 1):
            den = den * Spectrum({0: 1, j: -1})
        try:
            out_spec = num.exact_div(den)
        except SpectrumError as exc:
            raise CastlingError("spectrum channel is not divisible: %s" % exc) from exc
    return (counting, out_spec) if spectrum is not None else counting


def reference_spectrum(h1, c):
    s1 = -1 if (c.m * c.r1 - 1) % 2 else 1
    s2 = -1 if (c.m * c.r2 - 1) % 2 else 1
    num = Spectrum.one() + s1 * h1
    for j in range(1, c.r2 + 1):
        num = num * Spectrum({0: 1, j: -1})
    den = Spectrum.one()
    for j in range(1, c.r1 + 1):
        den = den * Spectrum({0: 1, j: -1})
    try:
        quotient = num.exact_div(den)
    except SpectrumError as exc:
        raise CastlingError("not a castling-partner spectrum: %s" % exc) from exc
    return s2 * (quotient - Spectrum.one())


def outcome(fn, *args):
    """('ok', str of the value) or ('error', message)."""
    try:
        value = fn(*args)
    except CastlingError as exc:
        return "error", str(exc)
    if isinstance(value, tuple):
        return "ok", tuple(str(v) for v in value)
    return "ok", str(value)


# -- expand ------------------------------------------------------------------------


def random_series(rng, dens):
    nvars = rng.randint(1, 3)
    series = RationalSeries.zero(nvars)
    for _term in range(rng.randint(1, 6)):
        num = LaurentMotive({rng.randint(-4, 4): rng.randint(-6, 6)
                             for _ in range(rng.randint(1, 4))})
        den = (rng.choice(dens) * rng.choice((1, -1, 2, -3, 6))
               * LaurentMotive({rng.randint(-3, 3): 1}))
        shift = tuple(rng.randint(0, 2) for _ in range(nvars))
        factors = []
        for _f in range(rng.randint(0, 3)):
            N = [rng.randint(0, 2) for _ in range(nvars)]
            N[rng.randrange(nvars)] = rng.randint(1, 2)
            factors.append((rng.randint(1, 3), tuple(N)))
        series = series + RationalSeries.term(
            RationalMotive(num if num else L, den), shift, factors)
    return series


def test_expand_matches_termwise_sum_bytes_single_class():
    """Denominators c * L^k * d0 of one class: every coefficient prints the
    same as the sum taken one term at a time."""
    rng = random.Random(70001)
    classes = [ONE, L - 1, L ** 2 - 1, 2 * L + 3, L ** 3 - L + 1,
               LaurentMotive({0: 1, -2: -1}), (L - 1) * (L ** 2 - 1)]
    for _case in range(150):
        series = random_series(rng, [rng.choice(classes)])
        order = rng.randint(0, 7)
        got = series.expand(order).coeffs
        want = reference_expand(series, order)
        assert set(got) == set(want)
        for n in want:
            assert str(got[n]) == str(want[n]), (str(series), order, n)


def test_expand_matches_termwise_sum_values_mixed_classes():
    """Several denominator classes in one series: the values agree."""
    rng = random.Random(70002)
    classes = [ONE, L - 1, L + 1, L ** 2 + L + 1, 2 * L - 5]
    for _case in range(100):
        series = random_series(rng, rng.sample(classes, rng.randint(2, 4)))
        order = rng.randint(0, 6)
        got = series.expand(order).coeffs
        want = reference_expand(series, order)
        assert set(got) == set(want)
        for n in want:
            assert got[n] == want[n], (str(series), order, n)


def test_expand_mixed_classes_minus_and_plus_one():
    series = (RationalSeries.term(RationalMotive(L, L - 1), (0,), [(1, (1,))])
              + RationalSeries.term(RationalMotive(3, L + 1), (1,), [(2, (1,))]))
    got = series.expand(5).coeffs
    want = reference_expand(series, 5)
    assert set(got) == set(want) and all(got[n] == want[n] for n in want)
    assert got[(0,)].den == L - 1


def test_expand_cancels_to_zero():
    """Terms that cancel leave no coefficient, as the termwise sum does."""
    term = RationalSeries.term(RationalMotive(L + 2, 2 * L - 2), (1,), [(1, (1,))])
    opposite = RationalSeries.term(RationalMotive(-L - 2, 2 * L - 2), (1,),
                                   [(1, (1,))])
    assert (term + opposite).expand(4).coeffs == {}
    assert reference_expand(term + opposite, 4) == {}


def canonical_symbolic_zeta():
    """The zeta series of the symbolic benchmark's canonical resolution datum."""
    return zeta_from_resolution(ResolutionDatum.from_json({
        "components": [{"id": "E1", "N": 2, "nu": 3},
                       {"id": "E2", "N": 1, "nu": 1}],
        "strata": [{"I": ["E1"], "class": "L^2 + L"},
                   {"I": ["E2"], "class": "L + 1"},
                   {"I": ["E1", "E2"], "class": "L + 1"}],
    }))


@pytest.mark.parametrize("m,r1,r2", [(3, 1, 2), (3, 2, 1), (7, 2, 5)])
def test_transfer_expansions_match_termwise_sum(m, r1, r2):
    Z, c = canonical_symbolic_zeta(), CastlingDatum(m, r1, r2, 1, (2,))
    transfers = [castle_zeta(Z, c)]
    try:
        transfers.append(castle_local_zeta(Z, c))
    except CastlingError:
        assert r1 > r2  # a negative monomial shift may leave the series ring
    for series in transfers:
        for order in (4, 8, 12):
            got = series.expand(order).coeffs
            want = reference_expand(series, order)
            assert set(got) == set(want)
            assert {n: str(v) for n, v in got.items()} == \
                {n: str(v) for n, v in want.items()}
        assert got


# -- Milnor and spectrum transfers ---------------------------------------------------


laurent = st.dictionaries(st.integers(-3, 4), st.integers(-4, 4),
                          min_size=1, max_size=4).map(LaurentMotive)
exponents = st.fractions(min_value=0, max_value=4, max_denominator=3)
spectra = st.dictionaries(exponents, st.integers(-3, 3), max_size=4).map(Spectrum)
datums = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
    lambda r: CastlingDatum(r[0] + r[1], r[0], r[1], 1, (2,)))


def divisible_by_extra(x, c):
    """x times the binomials the r1 side has beyond the r2 side, so that the
    spectrum division is exact."""
    for j in range(c.r2 + 1, c.r1 + 1):
        x = x * Spectrum({0: 1, j: -1})
    return x


@settings(max_examples=150, deadline=None)
@given(datums, laurent, laurent, spectra, st.booleans())
def test_milnor_matches_sequential_products(c, num, den, spec, exact):
    counting = RationalMotive(num, den if den else ONE)
    if exact:
        spec = divisible_by_extra(spec, c)
    for S1 in (counting, (counting, spec)):
        got = outcome(castle_milnor, S1, c)
        assert got == outcome(reference_milnor, S1, c)
        if got[0] == "error":
            assert got == outcome(reference_milnor, S1, c, False)
        else:  # nothing cancelled, the values are the same
            assert castle_milnor(S1, c) == reference_milnor(S1, c, False)


@settings(max_examples=150, deadline=None)
@given(datums, spectra, st.booleans())
def test_spectrum_matches_sequential_products(c, spec, exact):
    if exact:
        s1 = -1 if (c.m * c.r1 - 1) % 2 else 1
        spec = s1 * (divisible_by_extra(Spectrum.one() + spec, c) - Spectrum.one())
    assert outcome(castle_spectrum, spec, c) == outcome(reference_spectrum, spec, c)


def test_inexact_divisions_raise_alike():
    """Both failure kinds, with r1 > r2, give the old messages."""
    c = CastlingDatum(3, 2, 1, 1, (2,))
    short = (RationalMotive(L + 1), Spectrum({0: 1, 1: 1}))
    assert outcome(castle_milnor, short, c) == outcome(reference_milnor, short, c)
    assert "degree too small" in outcome(castle_milnor, short, c)[1]
    rem = (RationalMotive(L + 1), Spectrum({0: 1, 1: 1, 2: 1}))
    got = outcome(castle_milnor, rem, c)
    assert got == outcome(reference_milnor, rem, c)
    assert got[1] == ("spectrum channel is not divisible: inexact spectrum "
                      "division (remainder starts with t)")
    late = (RationalMotive(L), Spectrum({1: 1, 2: 1, 3: 1}))
    got = outcome(castle_milnor, late, c)
    assert got == outcome(reference_milnor, late, c)
    assert got[1].endswith("(remainder starts with t^2)")
    half = Spectrum({Fraction(1, 2): 2, Fraction(5, 2): 1})
    assert outcome(castle_spectrum, half, c) == outcome(reference_spectrum, half, c)
    assert outcome(castle_spectrum, half, c)[0] == "error"
