"""Exact arithmetic in the symbol L (Laurent polynomials and their quotients).

Point counts of the classes used throughout the package are obtained by
substituting a prime power for L, so everything here is kept exact: integer
coefficients, Fraction specialization, no floating point.  Quotients are
never factored: two of them are added over a shared denominator when their
denominators agree up to a power of L and an integer factor, and over the
product otherwise.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd


class LaurentError(ValueError):
    pass


class LaurentMotive:
    """Laurent polynomial in L with integer coefficients, canonical form.

    Stored as a mapping exponent -> nonzero coefficient.  Instances are
    immutable; all operations return new values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in dict(terms).items():
                c = _integer(c, LaurentError)
                if c:
                    clean[_integer(e, LaurentError)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMotive is immutable")

    @classmethod
    def _of(cls, terms):
        """A value from int exponents and int coefficients; zeros dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def L(cls, exponent=1, coeff=1):
        return cls({exponent: coeff})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentMotive._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentMotive._of({e: -c for e, c in self.terms.items()})

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
        return LaurentMotive._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise LaurentError("negative powers leave the Laurent ring; use RationalMotive")
        out = LaurentMotive.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RationalMotive):
            return other == self
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def min_exp(self):
        if not self.terms:
            raise LaurentError("zero polynomial has no exponents")
        return min(self.terms)

    def specialize(self, q):
        """Exact value at L = q (q a nonzero rational)."""
        q = Fraction(q)
        if q == 0:
            raise LaurentError("cannot specialize at q = 0")
        return sum((c * q ** e for e, c in self.terms.items()), Fraction(0))

    def shift(self, k):
        """Multiply by L^k."""
        return LaurentMotive._of({e + k: c for e, c in self.terms.items()})

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return _signed_text(sorted(self.terms.items(), reverse=True),
                            lambda e: "" if e == 0 else "L" if e == 1 else "L^%d" % e)

    def __repr__(self):
        return "LaurentMotive(%r)" % (self.terms,)


def _coerce(x):
    if isinstance(x, LaurentMotive):
        return x
    if isinstance(x, int):
        return LaurentMotive._of({0: x})
    raise TypeError("cannot coerce %r to LaurentMotive" % (x,))


def _integer(x, error):
    """x as an int; error if x has no integer value (0.5, Fraction(1, 2))."""
    i = int(x)
    if i != x:
        raise error("%r is not an integer" % (x,))
    return i


def _signed_text(items, power):
    """The text ``c1*X1 - c2*X2 + ...`` of (key, nonzero int coefficient)
    pairs in print order; power(key) is the key's monomial text, empty for
    the constant term.  A unit coefficient is left out before a monomial."""
    parts = []
    for key, c in items:
        sym, mag = power(key), abs(c)
        if not sym:
            body = str(mag)
        elif mag == 1:
            body = sym
        else:
            body = "%d*%s" % (mag, sym)
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _monomial_text(exps, symbol):
    """``X1^a1*X2^a2*...`` in the symbol X, factors with exponent 0 left out."""
    return "*".join("%s%d" % (symbol, i + 1) if e == 1
                    else "%s%d^%d" % (symbol, i + 1, e)
                    for i, e in enumerate(exps) if e)


def _parse_terms(text, symbol, exponent, convert, noun, error):
    """{exponent: coefficient} of a signed sum of terms ``c``, ``c*X^e`` and
    ``X^e`` in the symbol X.  ``exponent`` is the regex of the text of e and
    convert(text) its value; a bare X has exponent 1, a constant exponent 0.
    Malformed text raises error, with noun naming the kind of expression."""
    text = text.strip()
    if not text:
        raise error("empty %s expression" % noun)
    power = r"%s(?:\^(%s))?" % (symbol, exponent)
    term = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*(?:\*\s*(%s))?|(%s))\s*"
                      % (power, power))
    terms = {}
    pos = 0
    while pos < len(text):
        m = term.match(text, pos)
        if not m:
            raise error("bad %s syntax at %r" % (noun, text[pos:]))
        sign, coeff, scaled, scaled_exp, bare, bare_exp = m.groups()
        if sign is None and pos:
            raise error("missing sign before %r" % text[pos:])
        exp = scaled_exp or bare_exp
        try:
            e = convert(exp) if exp else 1 if scaled or bare else 0
        except ZeroDivisionError:
            raise error("zero denominator at %r" % text[pos:]) from None
        c = 1 if coeff is None else int(coeff)
        terms[e] = terms.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return terms


def parse_laurent(text):
    """Parse the Laurent text grammar: e.g. ``L^3 - L``, ``1 + L^-2``, ``-5*L^2``."""
    return LaurentMotive._of(_parse_terms(text, "L", r"-?\d+", int,
                                          "Laurent", LaurentError))


class RationalMotive:
    """Quotient of Laurent polynomials in L.

    Equality is decided by cross-multiplication; no factorization is ever
    attempted.  A cheap normalization (integer content and monomial factors)
    keeps intermediate results small.  A sum of two quotients whose
    denominators agree up to a power of L and an integer factor is taken
    over their least common multiple, which has the same terms; any other
    sum is taken over the product of the denominators.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = LaurentMotive.one() if den is None else _coerce(den)
        if den.is_zero():
            raise LaurentError("zero denominator")
        num, den = _reduce_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMotive is immutable")

    @classmethod
    def zero(cls):
        return cls(LaurentMotive.zero())

    @classmethod
    def one(cls):
        return cls(LaurentMotive.one())

    def __add__(self, other):
        other = _coerce_rm(other)
        shared = _shift_between(self.den, other.den)
        if shared is None:
            return RationalMotive(self.num * other.den + other.num * self.den,
                                  self.den * other.den)
        s, u, v = shared
        if (u, v) == (1, 1):
            return RationalMotive(self.num.shift(s) + other.num, other.den)
        return RationalMotive(self.num.shift(s) * u + other.num * v, other.den * v)

    __radd__ = __add__

    def __neg__(self):
        return RationalMotive(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rm(other))

    def __rsub__(self, other):
        return _coerce_rm(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rm(other)
        return RationalMotive(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rm(other)
        if other.num.is_zero():
            raise LaurentError("division by zero")
        return RationalMotive(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rm(other) / self

    def __eq__(self, other):
        try:
            other = _coerce_rm(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # Hash only the zero/nonzero distinction cheaply; full canonical
        # hashing would require factorization.
        return hash(self.num.is_zero())

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == LaurentMotive.one()

    def as_laurent(self):
        if not self.is_polynomial():
            raise LaurentError("not a Laurent polynomial: %s" % self)
        return self.num

    def specialize(self, q):
        d = self.den.specialize(q)
        if d == 0:
            raise LaurentError("denominator vanishes at q=%s" % q)
        return self.num.specialize(q) / d

    def __str__(self):
        if self.den == LaurentMotive.one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RationalMotive(%r, %r)" % (self.num.terms, self.den.terms)


def _coerce_rm(x):
    if isinstance(x, RationalMotive):
        return x
    return RationalMotive(_coerce(x))


def _shift_between(a, b):
    """(s, u, v) with a * L^s * u == b * v for the least integers u, v with
    v > 0, or None if b is not an integer multiple of a shifted copy of a."""
    if len(a.terms) != len(b.terms):
        return None
    s = b.min_exp() - a.min_exp()
    ca, cb = a.terms[a.min_exp()], b.terms[b.min_exp()]
    g = gcd(ca, cb) * (1 if ca > 0 else -1)
    u, v = cb // g, ca // g
    bt = b.terms
    for e, c in a.terms.items():
        if bt.get(e + s, 0) * v != c * u:
            return None
    return s, u, v


def _reduce_pair(num, den):
    """Divide out the common integer content and a common power of L."""
    if num.is_zero():
        # normalize 0/den to 0/1
        return num, LaurentMotive.one()
    if len(den.terms) == 1:
        # monomials are units: absorb the whole power of L into the numerator
        shift = den.min_exp()
    else:
        shift = min(num.min_exp(), den.min_exp())
    if shift:
        num = num.shift(-shift)
        den = den.shift(-shift)
    g = gcd(*num.terms.values(), *den.terms.values())
    if g > 1:
        num = LaurentMotive._of({e: c // g for e, c in num.terms.items()})
        den = LaurentMotive._of({e: c // g for e, c in den.terms.items()})
    # fix sign of the denominator's leading coefficient
    if den.terms[max(den.terms)] < 0:
        num, den = -num, -den
    return num, den


# ---------------------------------------------------------------------------
# Named classes
# ---------------------------------------------------------------------------


def sl_class(r):
    """Point-count class of SL_r: L^(r^2-1) * prod_{2<=i<=r} (1 - L^-i)."""
    if r < 1:
        raise LaurentError("r must be >= 1")
    out = LaurentMotive({r * r - 1: 1})
    for i in range(2, r + 1):
        out = out * LaurentMotive({0: 1, -i: -1})
    return out


class Permutation:
    """A permutation of {1..r}, stored as the image sequence w(1), ..., w(r)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise LaurentError("not a permutation of 1..%d: %r" % (len(images), images))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __len__(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    @staticmethod
    def all(r):
        for p in itertools.permutations(range(1, r + 1)):
            yield Permutation(p)


def z_w_class(w, r):
    """The cell class (L-1)^(r-1) * L^(sum_i (r-1-m_i)) attached to a permutation.

    m_i counts the integers 1 <= k < w(i) not among w(1), ..., w(i-1).
    """
    if len(w) != r:
        raise LaurentError("permutation length %d != r=%d" % (len(w), r))
    exp = 0
    seen = set()
    for i in range(1, r + 1):
        wi = w(i)
        m_i = sum(1 for k in range(1, wi) if k not in seen)
        if m_i > r - 1:
            raise AssertionError("m_i=%d exceeds r-1 for w=%r" % (m_i, w))
        exp += r - 1 - m_i
        seen.add(wi)
    torus = LaurentMotive({1: 1, 0: -1}) ** (r - 1)
    return torus * LaurentMotive({exp: 1})


def zw_sum_identity(r):
    """True iff the cell classes over all permutations sum to sl_class(r)."""
    total = LaurentMotive.zero()
    for w in Permutation.all(r):
        total = total + z_w_class(w, r)
    return total == sl_class(r)


def compositions(total, parts):
    """All tuples e in N^parts with sum(e) == total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def partition_weight_sum(m, r, k):
    """Sum over e in N^r with |e| = k of prod_i L^(-(m+1-i) e_i)."""
    out = LaurentMotive.zero()
    for e in compositions(k, r):
        exp = -sum((m + 1 - i) * e[i - 1] for i in range(1, r + 1))
        out = out + LaurentMotive({exp: 1})
    return out


def fibration_factor(m, r, n, k):
    """L^(n(r^2-1) + k((m-r)r+1)) times the weighted sum over |e| = k."""
    if not (1 <= r <= m):
        raise LaurentError("need 1 <= r <= m")
    if n < 0 or k < 0:
        raise LaurentError("n, k must be >= 0")
    head = n * (r * r - 1) + k * ((m - r) * r + 1)
    return LaurentMotive({head: 1}) * partition_weight_sum(m, r, k)
