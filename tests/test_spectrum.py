"""Spectra in Z[t^(1/Z)]: arithmetic, exact division, text grammar."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from arczeta import LaurentError, Spectrum, SpectrumError, parse_spectrum

t = Spectrum.t
half = Fraction(1, 2)

exponents = st.fractions(min_value=-2, max_value=3,
                         max_denominator=4)
spectrum_terms = st.dictionaries(exponents, st.integers(-5, 5), max_size=4)
spectra = spectrum_terms.map(Spectrum)
nonzero_spectra = spectra.filter(lambda s: not s.is_zero())


class TestArithmetic:
    def test_basic(self):
        s = Spectrum.one() + t(half)
        assert s - 1 == t(half)
        assert s * s == Spectrum.one() + 2 * t(half) + t(1)
        assert (1 - t(1)) ** 2 == Spectrum.one() - 2 * t(1) + t(2)

    def test_fractional_product(self):
        assert (1 + t(half)) * (1 - t(half)) == 1 - t(1)

    def test_pow_and_sign(self):
        assert (-1) * t(half) == Spectrum({half: -1})
        assert (1 - t(1)) ** 0 == Spectrum.one()


class TestStoredForm:
    """A value is stored as a Laurent polynomial in t^(1/den), den the least
    common denominator of its exponents, however it was built."""

    @given(terms=spectrum_terms)
    def test_one_stored_form_per_value(self, terms):
        direct = Spectrum(terms)
        summed = sum((c * t(e) for e, c in terms.items()), Spectrum.zero())
        padded = Spectrum({Fraction(1, 12): 0, Fraction(-5, 6): 0, **terms})
        for other in (summed, padded):
            assert other == direct
            assert hash(other) == hash(direct)
            assert str(other) == str(direct)
            assert other.den == direct.den
        assert direct.den == lcm(*(e.denominator for e, c in terms.items() if c))

    def test_cancelled_terms_leave_the_denominator(self):
        s = (1 + t(Fraction(1, 6))) - t(Fraction(1, 6))
        assert s == Spectrum.one() and s.den == 1
        assert (t(half) * t(half)).den == 1

    def test_negative_power_refused(self):
        with pytest.raises(SpectrumError, match="negative powers"):
            Spectrum.one() ** -1

    def test_non_integer_coefficient_refused(self):
        with pytest.raises(LaurentError, match="not an integer"):
            Spectrum({half: 1.5})


class TestExactDiv:
    def test_recovers_factor(self):
        num = (1 + t(half)) * (1 - t(1))
        assert num.exact_div(1 - t(1)) == 1 + t(half)
        assert num.exact_div(1 + t(half)) == 1 - t(1)

    def test_inexact_raises(self):
        with pytest.raises(SpectrumError):
            (Spectrum.one() + t(half)).exact_div(1 - t(1))

    def test_inexact_quotient_coefficient_raises(self):
        with pytest.raises(SpectrumError, match="coefficient 3/2"):
            Spectrum({0: 3, 1: 1}).exact_div(Spectrum({0: 2, 1: 1}))

    def test_zero_cases(self):
        assert Spectrum.zero().exact_div(1 - t(1)) == Spectrum.zero()
        with pytest.raises(SpectrumError):
            Spectrum.one().exact_div(Spectrum.zero())

    @given(a=nonzero_spectra, b=nonzero_spectra)
    def test_product_divides_exactly(self, a, b):
        assert (a * b).exact_div(b) == a


class TestGrammar:
    def test_examples(self):
        assert parse_spectrum("1 + t^(1/2)") == 1 + t(half)
        assert parse_spectrum("-2*t^(3/2) + t") == t(1) - 2 * t(Fraction(3, 2))
        assert parse_spectrum("t^2 - 1") == t(2) - 1
        assert parse_spectrum("0") == Spectrum.zero()

    def test_bad_input(self):
        with pytest.raises(SpectrumError):
            parse_spectrum("")
        with pytest.raises(SpectrumError):
            parse_spectrum("t^(1/2")

    @pytest.mark.parametrize("text, message", [
        ("", "empty spectrum expression"),
        ("1 + t^(1/0)", "zero denominator at '+ t^(1/0)'"),
        ("t^(1/2", "bad spectrum syntax at '^(1/2'"),
        ("t t", "missing sign before 't'"),
    ])
    def test_error_texts(self, text, message):
        with pytest.raises(SpectrumError) as exc:
            parse_spectrum(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", [
        "9" * 5000 + "*t", "t^" + "9" * 5000, "1 + t^(1/" + "9" * 5000 + ")",
        "t^(" + "9" * 5000 + "/2)"])
    def test_numbers_beyond_the_int_conversion_limit_refused(self, text):
        """A coefficient or exponent too long for int() is the grammar's own
        error, not Python's str-to-int limit."""
        with pytest.raises(SpectrumError, match=r"^number of 5000 digits in spectrum text \(at most 4300\)$"):
            parse_spectrum(text)
        assert parse_spectrum("t^(" + "9" * 4300 + "/9)") == t(Fraction(int("1" * 4300)))

    @given(s=nonzero_spectra)
    def test_round_trip(self, s):
        assert parse_spectrum(str(s)) == s
