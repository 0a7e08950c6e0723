"""Rational generating series in T_1..T_l and their truncated expansions.

A series is a sum of factored terms coeff * T^a / prod_j (1 - L^-v_j T^N_j);
no common denominator is ever formed.  Identities are certified by expanding
both sides to a caller-chosen order, which is recorded by the CLI whenever it
reports one.

Expansion works in the Laurent ring, on integer dicts.  A term's denominator
is c * L^k * d0 with d0 primitive; the terms that share a factor tuple and a
class d0 sum their numerators over C * d0 (C the lcm of the class's c) into
rows at their shifts, and each factor (1 - L^-nu T^N) divides the rows by one
recurrence, row[n + N] += L^-nu row[n] in ascending |n|.  Only then is one
RationalMotive built per (index, class), the classes of an index added in the
order of the earliest term that reaches it.  The class is motive's
_denominator_class, whose reduction argument makes a single-class sum (every
transfer of the package) print exactly as the reduced term-by-term sum.

Every exponent of T is >= 0.

The text form is one grammar, read and written here: str() prints terms
``(coeff) * T1^a1*T2^a2 / ((1 - L^-nu * T-monomial)...)`` joined by "  +  ",
and RationalSeries.parse(text, nvars) reads back every text str() prints; a
T index above the caller's nvars is refused before any term is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add

from .motive import (_MAX_DIGITS, LaurentMotive, RationalMotive, _denominator_class,
                     _Frozen, _index, _integer, _monomial_text, parse_laurent)


class SeriesError(ValueError):
    pass


def mi_add(a, b):
    return tuple(map(add, a, b))

def mi_scale(k, a):
    return tuple(k * x for x in a)


@dataclass(frozen=True)
class SeriesFactor:
    """One denominator factor (1 - L^-nu T^N)^-1."""
    nu: int
    N: tuple

    def __post_init__(self):
        if self.nu < 1:
            raise SeriesError("factor needs nu >= 1")
        if min(self.N) < 0 or not any(self.N):
            raise SeriesError("factor needs N >= 0 and N != 0, got %r" % (self.N,))


@dataclass(frozen=True)
class SeriesTerm:
    coeff: RationalMotive
    shift: tuple
    factors: tuple

    @property
    def nvars(self):
        return len(self.shift)


class RationalSeries(_Frozen):
    """Sum of factored terms, all in the same number of T variables; immutable
    (terms is a tuple), so a datum's zeta series can be shared."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        nvars = _integer(nvars, SeriesError)
        if nvars < 1:
            raise SeriesError("need at least one T variable")
        kept = []
        for t in terms:
            if t.nvars != nvars:
                raise SeriesError("term has %d variables, series has %d"
                                  % (t.nvars, nvars))
            if min(t.shift) < 0:
                raise SeriesError("term shift %r leaves the series ring" % (t.shift,))
            for f in t.factors:
                if len(f.N) != nvars:
                    raise SeriesError("factor multi-index length mismatch")
            if not t.coeff.is_zero():
                kept.append(t)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tuple(kept))

    @classmethod
    def zero(cls, nvars=1):
        return cls(nvars)

    @classmethod
    def term(cls, coeff, shift, factors=()):
        """coeff T^shift / prod (1 - L^-nu T^N); the constructors check each N."""
        shift = _index(shift, len(shift), SeriesError, None)
        fs = tuple(SeriesFactor(_integer(nu, SeriesError),
                                _index(N, len(N), SeriesError, None)) for nu, N in factors)
        if not isinstance(coeff, RationalMotive):
            coeff = RationalMotive(coeff)
        return cls(len(shift), [SeriesTerm(coeff, shift, fs)])

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise SeriesError("variable count mismatch")
        return RationalSeries(self.nvars, self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            if self.nvars != other.nvars:
                raise SeriesError("variable count mismatch")
            out = []
            for a in self.terms:
                for b in other.terms:
                    out.append(SeriesTerm(a.coeff * b.coeff,
                                          mi_add(a.shift, b.shift),
                                          a.factors + b.factors))
            return RationalSeries(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a scalar (RationalMotive, LaurentMotive or int)."""
        if not isinstance(c, RationalMotive):
            c = RationalMotive(c)
        return RationalSeries(self.nvars,
                              [SeriesTerm(t.coeff * c, t.shift, t.factors)
                               for t in self.terms])

    def shifted(self, delta):
        """Multiply by T^delta; delta entries may be negative if every term
        stays inside the series ring (the constructor refuses it otherwise)."""
        delta = _index(delta, self.nvars, SeriesError, None)
        return RationalSeries(self.nvars, [
            SeriesTerm(t.coeff, mi_add(t.shift, delta), t.factors) for t in self.terms])

    def expand(self, order):
        """Exact truncated expansion: coefficients of all T^n with |n| <= order.

        One table of rows n -> [position, {exponent of L: integer over C * d0}]
        per factor tuple and denominator class (see _denominator_class), each
        divided by its factors (_divide); the position is that of the earliest
        term reaching the row, and orders the classes added at an index.  An
        order below 0 reaches no term and is refused by TruncatedSeries."""
        live, classes = [], {}
        for pos, t in enumerate(self.terms):
            if sum(t.shift) <= order:
                key, c, k = _denominator_class(t.coeff.den)
                classes[key] = lcm(classes.get(key, 1), c)
                live.append((pos, t, key, c, k))
        tables = {}  # (factors, class key) -> {n: [position, numerator]}
        for pos, t, key, c, k in live:
            row = tables.setdefault((t.factors, key), {}).setdefault(t.shift, [pos, {}])
            num, scale = row[1], classes[key] // c
            for e, v in t.coeff.num.terms.items():
                num[e - k] = num.get(e - k, 0) + v * scale
        sums = {}  # n -> {class key: [position, numerator]}
        for (factors, key), rows in tables.items():
            for f in factors:
                _divide(rows, f, order)
            for n, (pos, num) in rows.items():
                row = sums.setdefault(n, {}).setdefault(key, [pos, {}])
                row[0] = min(row[0], pos)
                _add_shifted(row[1], num, 0)
        dens = {key: LaurentMotive._of({e: C * v for e, v in key})
                for key, C in classes.items()}
        coeffs = {}
        for n, by_class in sums.items():
            parts = sorted(by_class.items(), key=lambda item: item[1][0])
            coeffs[n] = reduce(add, (RationalMotive(LaurentMotive._of(acc), dens[key])
                                     for key, (_pos, acc) in parts))
        return TruncatedSeries(self.nvars, order, coeffs, zero=RationalMotive.zero())

    def limit_at_infinity(self):
        """Constant term of the T^-1 expansion (the genuine T -> infinity limit).

        Every term needs shift <= tot, the sum of its factor exponents; so
        along T_i = S^a_i (all a_i > 0) a term tends to 0 unless shift = tot,
        in every direction alike, and then to coeff * (-1)^k L^(sum of nu)."""
        out = RationalMotive.zero()
        for t in self.terms:
            tot = (0,) * self.nvars
            for f in t.factors:
                tot = mi_add(tot, f.N)
            if any(a > b for a, b in zip(t.shift, tot)):
                raise SeriesError(
                    "limit undefined: term with shift %r exceeds factor total %r"
                    % (t.shift, tot))
            if t.shift == tot:
                lim = t.coeff.num.shift(sum(f.nu for f in t.factors))
                out = out + RationalMotive(-lim if len(t.factors) % 2 else lim,
                                           t.coeff.den)
        return out

    # -- text form ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(_term_str(t) for t in self.terms)

    @classmethod
    def parse(cls, text, nvars):
        """Read the text form that __str__ prints (see _TERM): terms joined by
        "  +  ", in T_1..T_nvars; a larger T index is refused before any term
        is built."""
        text = text.strip()
        for var in re.findall(r"T(\d+)", text):
            var = var.lstrip("0")
            if len(var) > len(str(nvars)) or var and int(var) > nvars:
                raise SeriesError("T%s in a series of %d variables"
                                  % (var if len(var) <= 20 else var[:20] + "...", nvars))
        if text == "0":
            return cls(nvars)
        terms = []
        for chunk in text.split("  +  "):
            m = _TERM.fullmatch(chunk)
            if not m:
                raise SeriesError("bad series term %r" % chunk)
            laurent, num, den, shift, factors = m.group(1, 2, 3, 4, 5)
            coeff = (RationalMotive(parse_laurent(laurent)) if den is None else
                     RationalMotive(parse_laurent(num), parse_laurent(den)))
            terms.append(SeriesTerm(coeff, _parse_monomial(shift, nvars), tuple(
                SeriesFactor(_int(nu), _parse_monomial(mono, nvars))
                for nu, mono in re.findall(_FACTOR, factors or ""))))
        return cls(nvars, terms)


def _divide(rows, f, order):
    """Divide rows n -> [position, {exponent of L: int}] by (1 - L^-nu T^N)
    in place, up to |n| <= order: in ascending |n|, each row adds its
    numerator times L^-nu to the row at n + N and passes on its position
    if that is earlier."""
    step = sum(f.N)
    levels = [[] for _ in range(order + 1)]
    for n in rows:
        levels[sum(n)].append(n)
    for total in range(order + 1 - step):
        for n in levels[total]:
            pos, num = rows[n]
            m = mi_add(n, f.N)
            row = rows.get(m)
            if row is None:
                row = rows[m] = [pos, {}]
                levels[total + step].append(m)
            row[0] = min(row[0], pos)
            _add_shifted(row[1], num, -f.nu)


def _add_shifted(acc, num, s):
    """acc += num * L^s, on {exponent of L: int} dicts."""
    for e, v in num.items():
        e += s
        acc[e] = acc.get(e, 0) + v


def _term_str(t):
    head = "(%s)" % t.coeff
    mono = _monomial_text(t.shift, "T")
    if mono:
        head += " * " + mono
    if not t.factors:
        return head
    dens = []
    for f in t.factors:
        dens.append("(1 - L^-%d * %s)" % (f.nu, _monomial_text(f.N, "T")))
    return head + " / (" + "".join(dens) + ")"


# The grammar of one printed term: "(coeff)", then optionally " * " and a
# T-monomial, then optionally " / (", one or more factors
# "(1 - L^-nu * T-monomial)" and ")".  coeff is Laurent text or
# "(num) / (den)"; Laurent text has no parentheses, and parse_laurent reads it.
_MONOMIAL = r"T\d+(?:\^\d+)?(?:\*T\d+(?:\^\d+)?)*"
_FACTOR = r"\(1 - L\^-(\d+) \* (%s)\)" % _MONOMIAL
_TERM = re.compile(r"\((?:([^()]*)|\(([^()]*)\) / \(([^()]*)\))\)"
                   r"(?: \* (%s))?(?: / \(((?:%s)+)\))?" % (_MONOMIAL, _FACTOR))


def _parse_monomial(text, nvars):
    """The exponents in T_1..T_nvars of a T-monomial matching _MONOMIAL (None
    for 1); a repeated variable adds its exponents."""
    exps = [0] * nvars
    for var, exp in re.findall(r"T(\d+)(?:\^(\d+))?", text or ""):
        if int(var) < 1:
            raise SeriesError("T-variable index below 1 in %r" % text)
        exps[int(var) - 1] += _int(exp or "1")
    return tuple(exps)


def _int(digits):
    """The value of an exponent's digits, SeriesError beyond _MAX_DIGITS."""
    if len(digits) > _MAX_DIGITS:
        raise SeriesError("exponent of %d digits (at most %d)" % (len(digits), _MAX_DIGITS))
    return int(digits)


class TruncatedSeries(_Frozen):
    """Coefficients of T^n for |n| <= order, over any exact coefficient ring.

    The ring is whatever the coefficients are (Fraction or RationalMotive);
    operations only use +, * and equality.  ``zero`` is the ring's zero,
    returned for every index without a coefficient; by default it is taken
    from the type of the coefficients given (Fraction(0) if there are none).
    """

    __slots__ = ("nvars", "order", "coeffs", "zero")

    def __init__(self, nvars, order, coeffs=None, zero=None):
        nvars, order = _integer(nvars, SeriesError), _integer(order, SeriesError)
        if order < 0:
            raise SeriesError("order must be >= 0")
        kept = {}
        if coeffs:
            for n, c in coeffs.items():
                n = _index(n, nvars, SeriesError)
                if sum(n) > order:
                    raise SeriesError("index %r beyond order %d" % (n, order))
                if c:
                    kept[n] = c
        if zero is None:
            zero = _zero_like(next(iter(coeffs.values()))) if coeffs else Fraction(0)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", kept)
        object.__setattr__(self, "zero", zero)

    def coefficient(self, n):
        n = _index(n, self.nvars, SeriesError)
        if sum(n) > self.order:
            raise SeriesError("coefficient %r beyond truncation order %d" % (n, self.order))
        return self.coeffs.get(n, self.zero)

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = _cut(self.coeffs, order)
        for n, c in _cut(other.coeffs, order).items():
            out[n] = out[n] + c if n in out else c
        return TruncatedSeries(self.nvars, order, out, self.zero)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = {}
        for n1, c1 in self.coeffs.items():
            if sum(n1) > order:
                continue
            for n2, c2 in other.coeffs.items():
                n = mi_add(n1, n2)
                if sum(n) > order:
                    continue
                v = c1 * c2
                out[n] = out[n] + v if n in out else v
        return TruncatedSeries(self.nvars, order, out, self.zero)

    def scale(self, c):
        return TruncatedSeries(self.nvars, self.order,
                               {n: v * c for n, v in self.coeffs.items()}, self.zero)

    def times_binomial(self, c, d):
        """Multiply by (1 - c*T^d)."""
        d = _index(d, self.nvars, SeriesError)
        out = dict(self.coeffs)
        for n, v in self.coeffs.items():
            k = mi_add(n, d)
            if sum(k) > self.order:
                continue
            w = -(v * c)
            out[k] = out[k] + w if k in out else w
        return TruncatedSeries(self.nvars, self.order, out, self.zero)

    def over_binomial(self, c, d):
        """Multiply by the geometric expansion of (1 - c*T^d)^-1: the
        coefficient v at n adds v c^k at n + k d while |n + k d| <= order."""
        d = _index(d, self.nvars, SeriesError)
        if not any(d):
            raise SeriesError("geometric factor needs T-degree > 0")
        step = sum(d)
        out = {}
        for n, v in self.coeffs.items():
            total = sum(n)
            while True:
                out[n] = out[n] + v if n in out else v
                total += step
                if total > self.order:
                    break
                n, v = mi_add(n, d), v * c
        return TruncatedSeries(self.nvars, self.order, out, self.zero)

    def specialize(self, q):
        out = {}
        for n, c in self.coeffs.items():
            out[n] = c.specialize(q)
        return TruncatedSeries(self.nvars, self.order, out, Fraction(0))

    def __eq__(self, other):
        """Equal coefficients up to the common order; only nonzero
        coefficients are stored."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return (self.nvars == other.nvars
                and _cut(self.coeffs, order) == _cut(other.coeffs, order))

    def __repr__(self):
        return "TruncatedSeries(%d, %d, %r)" % (self.nvars, self.order, self.coeffs)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries) or self.nvars != other.nvars:
            raise SeriesError("incompatible truncated series")


def _cut(coeffs, order):
    return {n: c for n, c in coeffs.items() if sum(n) <= order}


def _zero_like(c):
    if isinstance(c, RationalMotive):
        return RationalMotive.zero()
    if isinstance(c, (Fraction, int)):
        return Fraction(0)
    return c * 0


def series_equal(a, b, order):
    """Coefficientwise equality of the expansions to the given order."""
    return a.expand(order) == b.expand(order)
