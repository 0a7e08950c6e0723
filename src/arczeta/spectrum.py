"""Integer combinations of rational powers of t (the value ring of hsp).

Elements live in Z[t^(1/Z)]: finitely many terms c * t^(a/b).  A value is
stored as (den, poly): poly is a LaurentMotive in u = t^(1/den), and den is
the least common denominator of the exponents, so equal values are stored
alike.  Arithmetic brings both operands to the lcm of their den and is done
in the Laurent ring.  Division is only defined when exact; an inexact
division is always an input error at the call sites (a value that is not
the spectrum of a genuine partner).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .motive import LaurentMotive, _Frozen, _parse_terms, _Ring, _signed_text


class SpectrumError(ValueError):
    pass


class Spectrum(_Ring, _Frozen):
    """Finite sum of integer multiples of t^e with e rational, canonical form."""

    __slots__ = ("den", "poly")
    _error = SpectrumError

    def __new__(cls, terms=None):
        terms = {Fraction(e): c for e, c in dict(terms or {}).items()}
        den = lcm(*(e.denominator for e in terms))
        return cls._of(den, LaurentMotive({e * den: c for e, c in terms.items()}))

    @classmethod
    def _of(cls, den, poly):
        """The value poly(t^(1/den)), den and the exponents divided by their gcd."""
        g = gcd(den, *poly.terms)
        if g > 1:
            den //= g
            poly = LaurentMotive._of({k // g: c for k, c in poly.terms.items()})
        self = object.__new__(cls)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "poly", poly)
        return self

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, exponent=1):
        return cls({exponent: 1})

    __add__, __radd__, __sub__, __rsub__, __mul__, __rmul__, __eq__, __pow__ = _Ring._ops
    __hash__ = _Ring.__hash__

    @staticmethod
    def _lift(x):
        if isinstance(x, Spectrum):
            return x
        return Spectrum._of(1, LaurentMotive._of({0: x})) if type(x) is int else None

    def _aligned(self, other):
        """(den, a, b): self and other as Laurent polynomials in t^(1/den)."""
        den = lcm(self.den, other.den)
        return (den, _stretch(self.poly, den // self.den),
                _stretch(other.poly, den // other.den))

    def _add(self, other):
        den, a, b = self._aligned(other)
        return Spectrum._of(den, a + b)

    def __neg__(self):
        return Spectrum._of(self.den, -self.poly)

    def _mul(self, other):
        den, a, b = self._aligned(other)
        return Spectrum._of(den, a * b)

    def _eq(self, other):
        return self.den == other.den and self.poly == other.poly

    def _key(self):
        return self.poly._key() if self.den == 1 else (self.den, self.poly._key())

    def is_zero(self):
        return self.poly.is_zero()

    def exact_div(self, other):
        """Exact quotient self / other (a Spectrum or an int) in Z[t^(1/Z)];
        SpectrumError if inexact."""
        divisor = self._lift(other)
        if divisor is None:
            raise TypeError("cannot divide a Spectrum by %r" % (other,))
        if divisor.is_zero():
            raise SpectrumError("division by zero spectrum")
        if self.is_zero():
            return Spectrum.zero()
        den, a, b = self._aligned(divisor)
        # shift both to nonnegative integer exponents
        sa, sb = a.min_exp(), b.min_exp()
        try:
            q = _poly_div_exact(a.shift(-sa).terms, b.shift(-sb).terms)
        except _Remainder as exc:
            # the lowest term of the remainder: unchanged when both sides
            # are multiplied by a factor with constant term 1
            e, c = exc.args
            raise SpectrumError("inexact spectrum division (remainder starts "
                                "with %s)" % Spectrum._of(den, LaurentMotive({e + sa: c}))
                                ) from None
        return Spectrum._of(den, LaurentMotive(q).shift(sa - sb))

    def __str__(self):
        return _signed_text(((Fraction(k, self.den), c)
                             for k, c in sorted(self.poly.terms.items())), _t_power)

    def __repr__(self):
        return "Spectrum(%r)" % ({Fraction(k, self.den): c
                                  for k, c in self.poly.terms.items()},)


def _stretch(poly, k):
    """poly(u^k)."""
    if k == 1:
        return poly
    return LaurentMotive._of({e * k: c for e, c in poly.terms.items()})


def _t_power(e):
    if e.denominator > 1:
        return "t^(%s)" % e
    return "" if e == 0 else "t" if e == 1 else "t^%s" % e


class _Remainder(Exception):
    """(exponent, coefficient) of the lowest term of a nonzero remainder."""


def _poly_div_exact(a, b):
    """Exact division of integer-exponent polynomials given as dicts."""
    # ascending division: b has a constant term after shifting
    c0 = b[0]
    amax = max(a)
    bmax = max(b)
    if amax < bmax:
        raise SpectrumError("inexact spectrum division (degree too small)")
    qmax = amax - bmax
    rem = dict(a)
    quot = {}
    while rem:
        e = min(rem)
        if e > qmax:
            raise _Remainder(e, rem[e])
        c, r = divmod(rem[e], c0)
        if r:
            raise SpectrumError("inexact spectrum division (coefficient %d/%d)" % (rem[e], c0))
        quot[e] = c
        for be, bc in b.items():
            k = e + be
            v = rem.get(k, 0) - c * bc
            if v:
                rem[k] = v
            elif k in rem:
                del rem[k]
    return quot


def parse_spectrum(text):
    """Parse e.g. ``1 + t^(1/2)``, ``-2*t^(3/2) + t``, ``t^2 - 1``."""
    return Spectrum(_parse_terms(
        text, "t", r"\(\s*-?\d+\s*/\s*\d+\s*\)|-?\d+",
        lambda exp: Fraction(exp.strip("()").replace(" ", "")),
        "spectrum", SpectrumError))
