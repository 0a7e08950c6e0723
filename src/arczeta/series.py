"""Rational generating series in T_1..T_l and their truncated expansions.

A series is a sum of factored terms coeff * T^a / prod_j (1 - L^-v_j T^N_j);
no common denominator is ever formed.  Identities are certified by expanding
both sides to a caller-chosen order, which is recorded by the CLI whenever it
reports one.

Expansion works in the Laurent ring: the geometric factors of a term have
monomial coefficients L^(-nu k), so their product is expanded with integer
arithmetic, once per factor tuple.  The coefficients are summed as integer
dicts: a term's denominator is c * L^k * d0 with d0 primitive, and each index
keeps one integer numerator per class d0 over C * d0, C the lcm of the
class's c.  Only then is one RationalMotive built per (index, class); the
classes of an index are added in order of first appearance.  Content and
lowest L-exponent are multiplicative (Gauss's lemma), so RationalMotive's
reduction is one canonical form within a class, and a single-class sum (every
transfer of the package) prints exactly as the reduced term-by-term sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .motive import LaurentMotive, RationalMotive, _monomial_text, parse_laurent


class SeriesError(ValueError):
    pass


def _index(N, nvars):
    """N as a tuple of ints; SeriesError unless it has nvars entries."""
    N = tuple(int(x) for x in N)
    if len(N) != nvars:
        raise SeriesError("multi-index %r needs %d entries" % (N, nvars))
    return N


def mi_add(a, b):
    return tuple(map(add, a, b))

def mi_scale(k, a):
    return tuple(k * x for x in a)

def mi_total(a):
    return sum(a)


@dataclass(frozen=True)
class SeriesFactor:
    """One denominator factor (1 - L^-nu T^N)^-1."""
    nu: int
    N: tuple

    def __post_init__(self):
        if self.nu < 1:
            raise SeriesError("factor needs nu >= 1")
        if all(x == 0 for x in self.N):
            raise SeriesError("factor needs N != 0")


@dataclass(frozen=True)
class SeriesTerm:
    coeff: RationalMotive
    shift: tuple
    factors: tuple

    @property
    def nvars(self):
        return len(self.shift)


class RationalSeries:
    """Sum of factored terms, all in the same number of T variables."""

    def __init__(self, nvars, terms=()):
        self.nvars = int(nvars)
        if self.nvars < 1:
            raise SeriesError("need at least one T variable")
        self.terms = []
        for t in terms:
            if t.nvars != self.nvars:
                raise SeriesError("term has %d variables, series has %d"
                                  % (t.nvars, self.nvars))
            for f in t.factors:
                if len(f.N) != self.nvars:
                    raise SeriesError("factor multi-index length mismatch")
            if not t.coeff.is_zero():
                self.terms.append(t)

    @classmethod
    def zero(cls, nvars=1):
        return cls(nvars)

    @classmethod
    def term(cls, coeff, shift, factors=()):
        shift = tuple(int(x) for x in shift)
        fs = tuple(SeriesFactor(int(nu), tuple(int(x) for x in N)) for nu, N in factors)
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
        stays inside the series ring."""
        delta = _index(delta, self.nvars)
        out = []
        for t in self.terms:
            s = tuple(x + d for x, d in zip(t.shift, delta))
            if any(x < 0 for x in s):
                raise SeriesError("monomial shift by %r leaves the series ring "
                                  "on term with shift %r" % (delta, t.shift))
            out.append(SeriesTerm(t.coeff, s, t.factors))
        return RationalSeries(self.nvars, out)

    def times_binomial(self, nu, N):
        """Multiply by the polynomial (1 - L^-nu T^N)."""
        N = _index(N, self.nvars)
        mono = RationalMotive(LaurentMotive({-nu: -1}))
        out = []
        for t in self.terms:
            out.append(t)
            out.append(SeriesTerm(t.coeff * mono, mi_add(t.shift, N), t.factors))
        return RationalSeries(self.nvars, out)

    def over_binomial(self, nu, N):
        """Divide by (1 - L^-nu T^N), i.e. append a geometric factor."""
        f = SeriesFactor(int(nu), _index(N, self.nvars))
        return RationalSeries(self.nvars,
                              [SeriesTerm(t.coeff, t.shift, t.factors + (f,))
                               for t in self.terms])

    def expand(self, order):
        """Exact truncated expansion: coefficients of all T^n with |n| <= order.

        Each term contributes coeff * P_n at T^(shift + n), where P_n is the
        Laurent polynomial of its geometric factors' product at T^n.  The
        numerators are summed as integer dicts, one per index and class of
        denominators (see _denominator_class), and each sum is reduced once."""
        if order < 0:
            raise SeriesError("order must be >= 0")
        live, classes = [], {}
        for t in self.terms:
            if mi_total(t.shift) <= order:
                key, c, k = _denominator_class(t.coeff.den)
                classes[key] = lcm(classes.get(key, 1), c)
                live.append((t, key, c, k))
        # numerators over C * d0 (C the lcm of the class's contents), summed
        # over the terms that share their factors, shift and class
        groups = {}
        for t, key, c, k in live:
            num = groups.setdefault((t.factors, t.shift, key), {})
            scale = classes[key] // c
            for e, v in t.coeff.num.terms.items():
                num[e - k] = num.get(e - k, 0) + v * scale
        rooms = {}
        for factors, shift, _key in groups:
            rooms[factors] = max(order - mi_total(shift), rooms.get(factors, 0))
        # one product per factor tuple, cut at each term's room
        products = {fs: _geometric_product(fs, room, self.nvars)
                    for fs, room in rooms.items()}
        sums = {}  # n -> {class key: numerator over C * d0}
        for (factors, shift, key), num in groups.items():
            room = order - mi_total(shift)
            num = list(num.items())
            for total, n, poly in products[factors]:
                if total > room:
                    break
                acc = sums.setdefault(mi_add(shift, n), {}).setdefault(key, {})
                for e1, c1 in num:
                    for e2, c2 in poly.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        coeffs = {}
        for n, by_class in sums.items():
            total = None
            for key, acc in by_class.items():
                den = LaurentMotive({e: classes[key] * v for e, v in key})
                part = RationalMotive(LaurentMotive(acc), den)
                total = part if total is None else total + part
            coeffs[n] = total
        return TruncatedSeries(self.nvars, order, coeffs, zero=RationalMotive.zero())

    def limit_at_infinity(self):
        """Constant term of the T^-1 expansion (the genuine T -> infinity limit).

        Every term must satisfy shift <= sum of factor exponents componentwise.
        In several variables the reduction T_i -> S^alpha_i is applied for two
        distinct positive alpha and the results compared.
        """
        for t in self.terms:
            tot = tuple(0 for _ in range(self.nvars))
            for f in t.factors:
                tot = mi_add(tot, f.N)
            if any(a > b for a, b in zip(t.shift, tot)):
                raise SeriesError(
                    "limit undefined: term with shift %r exceeds factor total %r"
                    % (t.shift, tot))
        if self.nvars == 1:
            return self._limit_1d()
        alphas = [tuple(1 for _ in range(self.nvars)),
                  tuple(range(1, self.nvars + 1))]
        vals = [self._substitute_alpha(a)._limit_1d() for a in alphas]
        if vals[0] != vals[1]:
            raise SeriesError("limit depends on the substitution direction")
        return vals[0]

    def _substitute_alpha(self, alpha):
        out = []
        for t in self.terms:
            shift = (sum(a * x for a, x in zip(alpha, t.shift)),)
            fs = tuple(SeriesFactor(f.nu, (sum(a * x for a, x in zip(alpha, f.N)),))
                       for f in t.factors)
            out.append(SeriesTerm(t.coeff, shift, fs))
        return RationalSeries(1, out)

    def _limit_1d(self):
        out = RationalMotive.zero()
        for t in self.terms:
            tot = sum(f.N[0] for f in t.factors)
            if t.shift[0] < tot:
                continue
            sign = -1 if len(t.factors) % 2 else 1
            lsum = sum(f.nu for f in t.factors)
            out = out + t.coeff * RationalMotive(LaurentMotive({lsum: sign}))
        return out

    # -- text / JSON forms -------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(_term_str(t) for t in self.terms)

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {
                    "coeff_num": str(t.coeff.num),
                    "coeff_den": str(t.coeff.den),
                    "shift": list(t.shift),
                    "factors": [{"nu": f.nu, "N": list(f.N)} for f in t.factors],
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data):
        terms = []
        for t in data["terms"]:
            coeff = RationalMotive(parse_laurent(t["coeff_num"]),
                                   parse_laurent(t.get("coeff_den", "1")))
            terms.append(SeriesTerm(coeff, tuple(t["shift"]),
                                    tuple(SeriesFactor(f["nu"], tuple(f["N"]))
                                          for f in t["factors"])))
        return cls(data["nvars"], terms)

    @classmethod
    def parse(cls, text):
        """Parse the term-list text form produced by __str__."""
        text = text.strip()
        if text == "0":
            return cls(1)
        terms = []
        nvars = None
        for chunk in text.split("  +  "):
            term = _parse_term(chunk)
            if nvars is None:
                nvars = term.nvars
            terms.append(term)
        return cls(nvars, terms)


def _denominator_class(den):
    """(key, c, k) with den = c * L^k * d0, d0 primitive with lowest exponent
    0; key is d0 as sorted (exponent, coefficient) pairs.  den is a reduced
    denominator, so its top coefficient and c are positive.

    Integer content and lowest exponent are multiplicative (Gauss's lemma),
    so RationalMotive's reduction gives a value one canonical form over all
    denominators of the class {c * L^k * d0}: summing numerators over C * d0,
    C the lcm of the class's |c|, and reducing once yields the same bytes as
    summing the reduced quotients one at a time."""
    terms = den.terms
    k = min(terms)
    c = gcd(*terms.values())
    return tuple(sorted((e - k, v // c) for e, v in terms.items())), c, k


def _geometric_product(factors, order, nvars):
    """prod_j (1 - L^-nu_j T^N_j)^-1 up to |n| <= order, as a list of
    (|n|, n, {exponent of L: multiplicity}) sorted by |n|."""
    prod = {(0,) * nvars: {0: 1}}
    for f in factors:
        out = {}
        step = mi_total(f.N)
        for n, poly in prod.items():
            total, drop = mi_total(n), 0
            while total <= order:
                dst = out.setdefault(n, {})
                for e, c in poly.items():
                    dst[e - drop] = dst.get(e - drop, 0) + c
                n = mi_add(n, f.N)
                total += step
                drop += f.nu
        prod = out
    return sorted(((mi_total(n), n, poly) for n, poly in prod.items()),
                  key=lambda item: item[0])


def _term_str(t):
    head = "(%s)" % t.coeff
    mono = _monomial_text(t.shift, "T")
    if mono:
        head += " * " + mono
    if not t.factors:
        return head
    dens = []
    for f in t.factors:
        dens.append("(1 - L^-%d * %s)" % (f.nu, _monomial_text(f.N, "T") or "1"))
    return head + " / (" + "".join(dens) + ")"


def _parse_monomial(text):
    """Parse T1^a1*...*Tl^al; returns a dict var->exp."""
    out = {}
    for piece in filter(None, (p.strip() for p in text.split("*"))):
        if piece == "1":
            continue
        if not piece.startswith("T"):
            raise SeriesError("bad T-monomial %r" % text)
        var, hat, exp = piece[1:].partition("^")
        if int(var) < 1:
            raise SeriesError("T-variable index below 1 in %r" % text)
        out[int(var)] = int(exp) if hat else 1
    return out


def _parse_term(chunk):
    chunk = chunk.strip()
    if not chunk.startswith("("):
        raise SeriesError("term must start with a parenthesized coefficient: %r" % chunk)
    depth = 0
    for i, ch in enumerate(chunk):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                break
    coeff_text = chunk[1:i]
    rest = chunk[i + 1:].strip()
    if "/" in coeff_text:
        ntext, _, dtext = coeff_text.partition("/")
        coeff = RationalMotive(parse_laurent(ntext.strip().strip("()")),
                               parse_laurent(dtext.strip().strip("()")))
    else:
        coeff = RationalMotive(parse_laurent(coeff_text))
    if "/" in rest:
        mono_text, _, den = rest.partition("/")
        den = den.strip()
        if not (den.startswith("(") and den.endswith(")")):
            raise SeriesError("bad denominator %r" % den)
        den = den[1:-1]
        factor_texts = [p for p in den.replace(")(", ")|(").split("|") if p]
    else:
        mono_text, factor_texts = rest, []
    mono_text = mono_text.strip()
    if mono_text.startswith("*"):
        mono_text = mono_text[1:].strip()
    shift_map = _parse_monomial(mono_text) if mono_text else {}
    factors = []
    nvars = max(shift_map, default=1)
    parsed_factors = []
    for ft in factor_texts:
        ft = ft.strip()
        if not (ft.startswith("(") and ft.endswith(")")):
            raise SeriesError("bad factor %r" % ft)
        body = ft[1:-1].strip()
        if not body.startswith("1 - L^-"):
            raise SeriesError("bad factor body %r" % body)
        body = body[len("1 - L^-"):]
        nu_text, _, mono = body.partition("*")
        mono_map = _parse_monomial(mono)
        parsed_factors.append((int(nu_text), mono_map))
        nvars = max(nvars, max(mono_map, default=1))
    shift = tuple(shift_map.get(i + 1, 0) for i in range(nvars))
    for nu, mono_map in parsed_factors:
        factors.append(SeriesFactor(nu, tuple(mono_map.get(i + 1, 0) for i in range(nvars))))
    return SeriesTerm(coeff, shift, tuple(factors))


class TruncatedSeries:
    """Coefficients of T^n for |n| <= order, over any exact coefficient ring.

    The ring is whatever the coefficients are (Fraction or RationalMotive);
    operations only use +, * and equality.  ``zero`` is the ring's zero,
    returned for every index without a coefficient; by default it is taken
    from the type of the coefficients given (Fraction(0) if there are none).
    """

    def __init__(self, nvars, order, coeffs=None, zero=None):
        self.nvars = int(nvars)
        self.order = int(order)
        self.coeffs = {}
        if coeffs:
            for n, c in coeffs.items():
                n = tuple(int(x) for x in n)
                if len(n) != self.nvars:
                    raise SeriesError("multi-index length mismatch")
                if mi_total(n) > self.order:
                    raise SeriesError("index %r beyond order %d" % (n, self.order))
                if c:
                    self.coeffs[n] = c
        if zero is None:
            zero = _zero_like(next(iter(coeffs.values()))) if coeffs else Fraction(0)
        self.zero = zero

    def coefficient(self, n):
        n = tuple(int(x) for x in n)
        if mi_total(n) > self.order:
            raise SeriesError("coefficient %r beyond truncation order %d" % (n, self.order))
        return self.coeffs.get(n, self.zero)

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = {}
        for n, c in self.coeffs.items():
            if mi_total(n) <= order:
                out[n] = c
        for n, c in other.coeffs.items():
            if mi_total(n) <= order:
                out[n] = out[n] + c if n in out else c
        return TruncatedSeries(self.nvars, order, out, self.zero)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        out = {}
        for n1, c1 in self.coeffs.items():
            if mi_total(n1) > order:
                continue
            for n2, c2 in other.coeffs.items():
                n = mi_add(n1, n2)
                if mi_total(n) > order:
                    continue
                v = c1 * c2
                out[n] = out[n] + v if n in out else v
        return TruncatedSeries(self.nvars, order, out, self.zero)

    def scale(self, c):
        return TruncatedSeries(self.nvars, self.order,
                               {n: v * c for n, v in self.coeffs.items()}, self.zero)

    def times_binomial(self, c, d):
        """Multiply by (1 - c*T^d)."""
        d = _index(d, self.nvars)
        out = dict(self.coeffs)
        for n, v in self.coeffs.items():
            k = mi_add(n, d)
            if mi_total(k) > self.order:
                continue
            w = -(v * c)
            out[k] = out[k] + w if k in out else w
        return TruncatedSeries(self.nvars, self.order, out, self.zero)

    def over_binomial(self, c, d):
        """Multiply by the geometric expansion of (1 - c*T^d)^-1."""
        d = _index(d, self.nvars)
        if all(x == 0 for x in d):
            raise SeriesError("geometric factor needs T-degree > 0")
        geom = {}
        power = _one_like(c)
        k = 0
        while k * mi_total(d) <= self.order:
            geom[mi_scale(k, d)] = power
            power = power * c
            k += 1
        return self * TruncatedSeries(self.nvars, self.order, geom, self.zero)

    def specialize(self, q):
        out = {}
        for n, c in self.coeffs.items():
            out[n] = c.specialize(q)
        return TruncatedSeries(self.nvars, self.order, out, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        order = min(self.order, other.order)
        keys = set(self.coeffs) | set(other.coeffs)
        for n in keys:
            if mi_total(n) > order:
                continue
            a = self.coeffs.get(n)
            b = other.coeffs.get(n)
            if a is None:
                if b:
                    return False
            elif b is None:
                if a:
                    return False
            elif a != b:
                return False
        return True

    def __repr__(self):
        return "TruncatedSeries(%d, %d, %r)" % (self.nvars, self.order, self.coeffs)

    def _check(self, other):
        if not isinstance(other, TruncatedSeries) or self.nvars != other.nvars:
            raise SeriesError("incompatible truncated series")


def _zero_like(c):
    if isinstance(c, RationalMotive):
        return RationalMotive.zero()
    if isinstance(c, (Fraction, int)):
        return Fraction(0)
    return c * 0


def _one_like(c):
    if isinstance(c, RationalMotive):
        return RationalMotive.one()
    return Fraction(1)


def series_equal(a, b, order):
    """Coefficientwise equality of the expansions to the given order."""
    return a.expand(order) == b.expand(order)
