"""Integer polynomials in x1..xr with a small expression parser.

These are the inputs of the counting engine: coefficients stay ordinary
Python integers, and evaluation is generic so a polynomial can be composed
with values from any commutative ring (numbers, residues, other polynomials).
"""

from __future__ import annotations

import re

from .motive import _integer, _monomial_text, _signed_text


class PolyError(ValueError):
    pass


class Poly:
    """Multivariate integer polynomial, stored as exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        if nvars < 1:
            raise PolyError("need at least one variable")
        clean = {}
        if terms:
            for mono, c in dict(terms).items():
                mono = tuple(_integer(e, PolyError) for e in mono)
                if len(mono) != nvars:
                    raise PolyError("monomial %r has wrong arity" % (mono,))
                if any(e < 0 for e in mono):
                    raise PolyError("negative exponent in %r" % (mono,))
                c = _integer(c, PolyError)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.nvars, self.terms)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        """The variable x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise PolyError("variable index %d out of range 1..%d" % (i, nvars))
        mono = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    def _check(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly) or other.nvars != self.nvars:
            raise PolyError("arity mismatch")
        return other

    def __add__(self, other):
        return Poly(self.nvars, _add(self.terms, self._check(other).terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        return Poly(self.nvars, _mul(self.terms, self._check(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PolyError("negative power")
        return Poly(self.nvars, _pow(self.terms, n, self.nvars))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            raise PolyError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        return len(degs) == 1

    def evaluate(self, values, one=1):
        """Evaluate at values[i] substituted for x_{i+1}.

        Works over any commutative ring: the values only need +, * and
        multiplication by Python ints; ``one`` is the ring identity.
        """
        if len(values) != self.nvars:
            raise PolyError("expected %d values, got %d" % (self.nvars, len(values)))
        total = None
        for mono, c in self.terms.items():
            prod = one * c
            for v, e in zip(values, mono):
                for _ in range(e):
                    prod = prod * v
            total = prod if total is None else total + prod
        if total is None:
            return one * 0
        return total

    def __str__(self):
        return _signed_text(sorted(self.terms.items(),
                                   key=lambda mc: (-sum(mc[0]), mc[0])),
                            lambda mono: _monomial_text(mono, "x"))

    def __repr__(self):
        return "Poly(%d, %r)" % (self.nvars, self.terms)


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise PolyError("bad polynomial syntax at %r" % text[pos:])
        if m.group("int") is not None:
            out.append(("int", int(m.group("int"))))
        elif m.group("var") is not None:
            out.append(("var", int(m.group("var")[1:])))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


# Arithmetic on term dicts (exponent tuple -> nonzero coefficient), shared by
# Poly and the parser, which builds no Poly until the end.


def _add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pow(a, n, nvars):
    out = {(0,) * nvars: 1}
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses; * binds tighter
    than + and -, ^ tighter than *, and only integer exponents are allowed.
    Values are term dicts, as in Poly.terms."""

    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise PolyError("unexpected end of expression")
        self.pos += 1
        return t

    def expr(self):
        sign = 1
        t = self.peek()
        if t == ("op", "+") or t == ("op", "-"):
            self.take()
            sign = -1 if t[1] == "-" else 1
        out = _add({}, self.product(), sign)
        while True:
            t = self.peek()
            if t == ("op", "+") or t == ("op", "-"):
                self.take()
                out = _add(out, self.product(), 1 if t[1] == "+" else -1)
            else:
                return out

    def product(self):
        out = self.power()
        while True:
            t = self.peek()
            if t == ("op", "*"):
                self.take()
                out = _mul(out, self.power())
            elif t is not None and t[0] in ("int", "var") or t == ("op", "("):
                # implicit multiplication, e.g. 2x1 or (x1+1)(x2+1)
                out = _mul(out, self.power())
            else:
                return out

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            t = self.take()
            if t[0] != "int":
                raise PolyError("exponent must be a nonnegative integer")
            return _pow(base, t[1], self.nvars)
        return base

    def atom(self):
        t = self.take()
        if t[0] == "int":
            if self.nvars < 1:
                raise PolyError("need at least one variable")
            return {(0,) * self.nvars: t[1]} if t[1] else {}
        if t[0] == "var":
            if not 1 <= t[1] <= self.nvars:
                raise PolyError("variable index %d out of range 1..%d"
                                % (t[1], self.nvars))
            return {tuple(int(j == t[1] - 1) for j in range(self.nvars)): 1}
        if t == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise PolyError("missing closing parenthesis")
            return inner
        if t == ("op", "-"):
            return _add({}, self.atom(), -1)
        raise PolyError("unexpected token %r" % (t,))


def parse_poly(text, nvars=None):
    """Parse a polynomial in x1..xr; r defaults to the largest index used."""
    tokens = _tokenize(text)
    if nvars is None:
        nvars = max((t[1] for t in tokens if t[0] == "var"), default=1)
    p = _Parser(tokens, nvars)
    out = p.expr()
    if p.peek() is not None:
        raise PolyError("trailing input at token %r" % (p.peek(),))
    return Poly(nvars, out)


def parse_system(texts, nvars=None):
    """Parse several polynomials over a shared variable set."""
    if nvars is None:
        nvars = 1
        for text in texts:
            nvars = max(nvars, max((t[1] for t in _tokenize(text) if t[0] == "var"),
                                   default=1))
    return [parse_poly(text, nvars) for text in texts]
