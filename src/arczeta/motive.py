"""Exact arithmetic in the symbol L (Laurent polynomials and their quotients).

Point counts of the classes used throughout the package are obtained by
substituting a prime power for L, so everything here is kept exact: integer
coefficients, Fraction specialization, no floating point.  Quotients are
never factored.  A denominator's class is d0 in c * L^k * d0, d0 primitive
(_denominator_class); it is the one rule for sharing a denominator, read by
RationalMotive addition and by RationalSeries.expand.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm


class LaurentError(ValueError):
    pass


class _Frozen:
    """Base of the immutable value types: assignment is refused (constructors
    use object.__setattr__), and a copy or unpickled value gets the slots of
    the original back from the state (None, {slot: value}) of protocol >= 2."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class _Ring:
    """Base of LaurentMotive, RationalMotive, Spectrum and Poly: one body for
    the derived operators, operand rule and hash.  A type gives _lift (its
    own values and ints, not truth values, as values; else None), _add,
    _mul, __neg__, _eq, is_zero, _key (a constant's is its int, so equal
    values hash equal, ints included) and _error.  An operand _lift refuses
    returns NotImplemented, so Python raises its own TypeError naming the
    operator."""

    __slots__ = ()

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._add(-other)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other._add(-self)

    def __mul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._mul(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self._eq(other)

    def __pow__(self, n):
        n = _integer(n, self._error)
        if n < 0:
            raise self._error("negative powers of %s are refused" % type(self).__name__)
        return _power(self, n, self._lift(1), type(self)._mul)

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero()

    # perfbench/tracing.py wraps the operators in a class's own namespace, so
    # LaurentMotive, RationalMotive and Spectrum bind these there, and __hash__
    # too: a class body that assigns __eq__ drops an inherited hash.
    _ops = (__add__, __radd__, __sub__, __rsub__, __mul__, __rmul__, __eq__, __pow__)


class LaurentMotive(_Ring, _Frozen):
    """Laurent polynomial in L with integer coefficients, canonical form.

    Stored as a mapping exponent -> nonzero coefficient.  Instances are
    immutable; all operations return new values.
    """

    __slots__ = ("terms",)
    _error = LaurentError

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in dict(terms).items():
                c = _integer(c, LaurentError)
                if c:
                    clean[_integer(e, LaurentError)] = c
        object.__setattr__(self, "terms", clean)

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

    __add__, __radd__, __sub__, __rsub__, __mul__, __rmul__, __eq__, __pow__ = _Ring._ops
    __hash__ = _Ring.__hash__

    @staticmethod
    def _lift(x):
        if isinstance(x, LaurentMotive):
            return x
        return LaurentMotive._of({0: x}) if type(x) is int else None

    def _add(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentMotive._of(out)

    def __neg__(self):
        return LaurentMotive._of({e: -c for e, c in self.terms.items()})

    def _mul(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentMotive._of(out)

    def _eq(self, other):
        return self.terms == other.terms

    def _key(self):
        terms = self.terms
        return terms.get(0, 0) if terms.keys() <= {0} else frozenset(terms.items())

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
    out = LaurentMotive._lift(x)
    if out is None:
        raise TypeError("cannot coerce %r to LaurentMotive" % (x,))
    return out


def _power(x, n, one, mul):
    """x^n for an int n >= 0 by square-and-multiply from one with mul; x is
    squared only while a higher bit of n is left."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def _integer(x, error):
    """x as an int; error unless x has an integer value and is no truth value
    (not 0.5, "1", None, True, or numpy's True_: its dtype kind is "b")."""
    truth = isinstance(x, bool) or getattr(getattr(x, "dtype", None), "kind", "") == "b"
    try:
        if (i := int(x)) == x and not truth:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise error("%r is not an integer" % (x,))


def _index(n, length, error, low=0):
    """n as a tuple of ints (a number n is (n,)); error unless it has length
    entries, each an integer (_integer) and >= low (any, if low is None)."""
    if type(n) is not tuple:
        n = tuple(n) if hasattr(n, "__iter__") else (n,)
    if not {int}.issuperset(map(type, n)):  # numpy ints, 2.0 and the refusals
        n = tuple(_integer(x, error) for x in n)
    if len(n) != length:
        raise error("length mismatch: multi-index %r needs %d entries" % (n, length))
    if low is not None and n and min(n) < low:
        raise error("multi-index %r has an entry below %d" % (n, low))
    return n


def _json(value, shape, error, path="data"):
    """value read as shape: int (by _integer), a type such as str or
    str | None, [shape] (a list of them) or {key: shape} (an object); error
    names the path of the first value that does not fit."""
    if isinstance(shape, dict):
        if isinstance(value, dict):
            return {k: _json(value.get(k), s, error, path + "." + k) for k, s in shape.items()}
    elif isinstance(shape, list):
        if isinstance(value, list):
            return [_json(v, shape[0], error, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    elif shape is int:
        try:
            return _integer(value, error)
        except error:
            pass
    elif isinstance(value, shape):
        return value
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    raise error("%s needs type %s, got %r" % (path, getattr(kind, "__name__", kind), value))


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


_MAX_DIGITS = 4300  # Python's default str-to-int limit; the readers refuse more


def _check_digits(text, noun, error):
    """Refuse, as error, a number of more than _MAX_DIGITS digits in text."""
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if longest > _MAX_DIGITS:
        raise error("number of %d digits in %s text (at most %d)"
                    % (longest, noun, _MAX_DIGITS))


def _parse_terms(text, symbol, exponent, convert, noun, error):
    """{exponent: coefficient} of a signed sum of terms ``c``, ``c*X^e`` and
    ``X^e`` in the symbol X.  ``exponent`` is the regex of the text of e and
    convert(text) its value; a bare X has exponent 1, a constant exponent 0.
    Malformed text, or a number of more than _MAX_DIGITS digits, raises
    error, with noun naming the kind of expression."""
    text = text.strip()
    if not text:
        raise error("empty %s expression" % noun)
    _check_digits(text, noun, error)
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


class RationalMotive(_Ring, _Frozen):
    """Quotient of Laurent polynomials in L.

    Equality is decided by cross-multiplication; no factorization is ever
    attempted.  A cheap normalization (integer content and monomial factors)
    keeps intermediate results small.  A sum of two quotients whose
    denominators share a class (_denominator_class) is taken over their
    least common multiple, which has the same terms; any other sum is taken
    over the product of the denominators.
    """

    __slots__ = ("num", "den")
    _error = LaurentError

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = LaurentMotive.one() if den is None else _coerce(den)
        if den.is_zero():
            raise LaurentError("zero denominator")
        num, den = _reduce_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def zero(cls):
        return cls(LaurentMotive.zero())

    @classmethod
    def one(cls):
        return cls(LaurentMotive.one())

    __add__, __radd__, __sub__, __rsub__, __mul__, __rmul__, __eq__, __pow__ = _Ring._ops
    # a quotient is never factored, so it has no canonical form to hash
    __hash__ = None

    @staticmethod
    def _lift(x):
        if isinstance(x, RationalMotive):
            return x
        return RationalMotive(x) if type(x) is int or isinstance(x, LaurentMotive) else None

    def _add(self, other):
        key, ca, ea = _denominator_class(self.den)
        other_key, cb, eb = _denominator_class(other.den)
        if key != other_key:
            return RationalMotive(self.num * other.den + other.num * self.den,
                                  self.den * other.den)
        # self.den = ca L^ea d0 and other.den = cb L^eb d0: one formula over
        # c L^(ea+eb) d0, c = lcm(ca, cb)
        c = lcm(ca, cb)
        num = self.num.shift(eb) * (c // ca) + other.num.shift(ea) * (c // cb)
        return RationalMotive(num, LaurentMotive._of({e + ea + eb: c * v for e, v in key}))

    def __neg__(self):
        return RationalMotive(-self.num, self.den)

    def _mul(self, other):
        return RationalMotive(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise LaurentError("division by zero")
        return RationalMotive(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other / self

    def _eq(self, other):
        return self.num * other.den == other.num * self.den

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


def _denominator_class(den):
    """(key, c, k) with den = c * L^k * d0, d0 primitive with lowest exponent
    0; key is d0 as sorted (exponent, coefficient) pairs.  c > 0, so d0
    has the sign of den's top coefficient, positive once den is reduced.

    Integer content and lowest exponent are multiplicative (Gauss's lemma),
    so _reduce_pair gives a value one canonical form over all denominators
    of the class {c * L^k * d0}: summing numerators over C * d0, C the lcm
    of the class's c, and reducing once yields the same bytes as summing
    the reduced quotients one at a time, in any grouping."""
    terms = den.terms
    k = min(terms)
    c = gcd(*terms.values())
    return tuple(sorted((e - k, v // c) for e, v in terms.items())), c, k


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


def _binomials(lo, hi, sign=1):
    """prod_{lo<j<=hi}(1 - L^(sign*j)): the one product behind the SL_r
    classes and every castling transfer."""
    out = LaurentMotive.one()
    for j in range(lo + 1, hi + 1):
        out = out * LaurentMotive._of({0: 1, sign * j: -1})
    return out


def sl_class(r):
    """Point-count class of SL_r: L^(r^2-1) * prod_{2<=i<=r} (1 - L^-i)."""
    if r < 1:
        raise LaurentError("r must be >= 1")
    return _binomials(1, r, -1).shift(r * r - 1)


class Permutation(_Frozen):
    """A permutation of {1..r}, stored as the image sequence w(1), ..., w(r)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(_integer(x, LaurentError) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise LaurentError("not a permutation of 1..%d: %r" % (len(images), images))
        object.__setattr__(self, "images", images)

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
