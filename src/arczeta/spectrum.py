"""Integer combinations of rational powers of t (the value ring of hsp).

Elements live in Z[t^(1/Z)]: finitely many terms c * t^(a/b).  Division is
only defined when exact; an inexact division is always an input error at the
call sites (a value that is not the spectrum of a genuine partner).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


class SpectrumError(ValueError):
    pass


class Spectrum:
    """Finite sum of integer multiples of t^e with e rational, canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in dict(terms).items():
                c = int(c)
                if c:
                    clean[Fraction(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    @classmethod
    def _of(cls, terms):
        """A value from exponents that are already Fractions; zeros dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, exponent=1):
        return cls({Fraction(exponent): 1})

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Spectrum._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Spectrum({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Spectrum._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise SpectrumError("negative powers not supported")
        out = Spectrum.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def exact_div(self, other):
        """Exact quotient self / other in Z[t^(1/Z)]; SpectrumError if inexact."""
        other = _coerce(other)
        if other.is_zero():
            raise SpectrumError("division by zero spectrum")
        if self.is_zero():
            return Spectrum.zero()
        denom = 1
        for e in list(self.terms) + list(other.terms):
            denom = lcm(denom, e.denominator)
        a = {int(e * denom): c for e, c in self.terms.items()}
        b = {int(e * denom): c for e, c in other.terms.items()}
        # shift both to nonnegative integer exponents
        sa, sb = min(a), min(b)
        a = {e - sa: c for e, c in a.items()}
        b = {e - sb: c for e, c in b.items()}
        try:
            q = _poly_div_exact(a, b)
        except _Remainder as exc:
            # the lowest term of the remainder: unchanged when both sides
            # are multiplied by a factor with constant term 1
            e, c = exc.args
            raise SpectrumError("inexact spectrum division (remainder starts "
                                "with %s)" % Spectrum({Fraction(e + sa, denom): c})
                                ) from None
        return Spectrum({Fraction(e + sa - sb, denom): c for e, c in q.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e.denominator == 1:
                    sym = "t" if e == 1 else "t^%d" % e
                else:
                    sym = "t^(%d/%d)" % (e.numerator, e.denominator)
                body = sym if mag == 1 else "%d*%s" % (mag, sym)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "Spectrum(%r)" % (self.terms,)


def _coerce(x):
    if isinstance(x, Spectrum):
        return x
    if isinstance(x, int):
        return Spectrum({0: x})
    raise TypeError("cannot coerce %r to Spectrum" % (x,))


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


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*t(?P<pow1>\^(?:\(\s*-?\d+\s*/\s*\d+\s*\)|-?\d+))?)?
          | t(?P<pow2>\^(?:\(\s*-?\d+\s*/\s*\d+\s*\)|-?\d+))?
        )\s*""",
    re.VERBOSE,
)


def _parse_pow(text):
    if text is None:
        return Fraction(1)
    text = text[1:].strip()
    if text.startswith("("):
        num, den = text[1:-1].split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_spectrum(text):
    """Parse e.g. ``1 + t^(1/2)``, ``-2*t^(3/2) + t``, ``t^2 - 1``."""
    text = text.strip()
    if not text:
        raise SpectrumError("empty spectrum expression")
    if text == "0":
        return Spectrum.zero()
    pos = 0
    terms = {}
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise SpectrumError("bad spectrum syntax at %r" % text[pos:])
        if m.group("sign") is None and not first:
            raise SpectrumError("missing sign before %r" % text[pos:])
        s = -1 if m.group("sign") == "-" else 1
        if m.group("coeff") is not None:
            c = int(m.group("coeff"))
            if "t" in m.group(0):
                e = _parse_pow(m.group("pow1"))
            else:
                e = Fraction(0)
        else:
            c = 1
            e = _parse_pow(m.group("pow2"))
        terms[e] = terms.get(e, 0) + s * c
        pos = m.end()
        first = False
    return Spectrum(terms)
