"""Integer polynomials in x1..xr with a small expression parser.

These are the inputs of the counting engine: coefficients stay ordinary
Python integers, and evaluation is generic so a polynomial can be composed
with values from any commutative ring (numbers, residues, other polynomials).
"""

from __future__ import annotations

import re
from operator import add

from .motive import (_Frozen, _check_digits, _index, _integer, _monomial_text, _power,
                     _Ring, _signed_text)


class PolyError(ValueError):
    pass


class Poly(_Ring, _Frozen):
    """Multivariate integer polynomial, stored as exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")
    _error = PolyError

    def __init__(self, nvars, terms=None):
        nvars = _integer(nvars, PolyError)
        if nvars < 1:
            raise PolyError("need at least one variable")
        clean = {}
        if terms:
            for mono, c in dict(terms).items():
                mono = _index(mono, nvars, PolyError)
                c = _integer(c, PolyError)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, nvars, terms):
        """A Poly from clean parts, not checked again: nvars >= 1 and terms a
        fresh dict of int exponent tuples of that length, entries >= 0, to
        nonzero int coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

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

    def _lift(self, x):
        if type(x) is int:
            return Poly._of(self.nvars, {(0,) * self.nvars: x} if x else {})
        return x if isinstance(x, Poly) else None

    def _add(self, other):
        if other.nvars != self.nvars:
            raise PolyError("arity mismatch")
        return Poly._of(self.nvars, _add(self.terms, other.terms))

    def __neg__(self):
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def _mul(self, other):
        if other.nvars != self.nvars:
            raise PolyError("arity mismatch")
        return Poly._of(self.nvars, _mul(self.terms, other.terms))

    def _eq(self, other):
        return self.nvars == other.nvars and self.terms == other.terms

    def _key(self):
        zero = (0,) * self.nvars
        terms = self.terms
        return terms.get(zero, 0) if terms.keys() <= {zero} else frozenset(terms.items())

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


# The grammar: tokens are integers, variables x<digits> and - + * ^ ( ), with
# whitespace allowed between any two of them and at either end.  Trailing
# whitespace is cut first; then one match of _TOKENS reaches the end of the
# text exactly when the text is made of tokens, and otherwise stops at the
# whitespace before the first bad one.  A number has at most 4300 digits.
_TOKENS = re.compile(r"(?:\s*(?:x?\d+|[-+*^()]))*")
_TOKEN = re.compile(r"\s*(x?\d+|[-+*^()])")
_END = ""  # closes every token list, so the parser never reads past it
_OPS = frozenset("-+*^()")
# The tokens that end a product; any other token but "*" starts a factor
# multiplied implicitly, as in 2x1 or (x1 + 1)(x2 + 1).
_PRODUCT_ENDS = frozenset(("+", "-", "^", ")", _END))


def _tokens(text):
    """The tokens of text as strings, closed by _END."""
    text = text.rstrip()
    end = _TOKENS.match(text).end()
    if end < len(text):
        raise PolyError("bad polynomial syntax at %r" % text[end:])
    _check_digits(text, "polynomial", PolyError)
    toks = _TOKEN.findall(text)
    toks.append(_END)
    return toks


def _arity(toks):
    """The largest variable index among the tokens, 1 if there is none."""
    return max((int(t[1:]) for t in toks if t[:1] == "x"), default=1)


# Arithmetic on term dicts (exponent tuple -> nonzero coefficient), shared by
# Poly and the parser, which builds no Poly until the end.  A product pairs at
# most _MAX_PAIRS terms: (x1 + .. + x6)^10 takes 27,027, ^20 would take 2.6M.
_MAX_PAIRS = 1 << 18


def _add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _mul(a, b):
    if len(a) * len(b) > _MAX_PAIRS:
        raise PolyError("product of %d by %d terms exceeds the limit of %d pairs"
                        % (len(a), len(b), _MAX_PAIRS))
    if len(b) == 1:
        ((m2, c2),) = b.items()
        return {tuple(map(add, m1, m2)): c1 * c2 for m1, c1 in a.items()}
    if len(a) == 1:
        ((m1, c1),) = a.items()
        return {tuple(map(add, m1, m2)): c1 * c2 for m2, c2 in b.items()}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


# Recursive descent over a token list: * binds tighter than + and -, ^
# tighter than *, and only integer exponents are allowed.  Each rule takes
# the index of its first token and returns (term dict, index after it).
# An operator token is quoted as ('op', '+') in the error messages, as the
# parser has always printed it.


def _expr(toks, i, nvars):
    """expr := [+|-] product {(+|-) product}"""
    sign = toks[i]
    if sign == "+" or sign == "-":
        i += 1
    out, i = _product(toks, i, nvars)
    if sign == "-":
        out = {m: -c for m, c in out.items()}
    while True:
        op = toks[i]
        if op != "+" and op != "-":
            return out, i
        rhs, i = _product(toks, i + 1, nvars)
        out = _add(out, rhs, 1 if op == "+" else -1)


def _product(toks, i, nvars):
    """product := power {[*] power}, power := atom [^ integer]"""
    out = None
    while True:
        base, i = _atom(toks, i, nvars)
        if toks[i] == "^":
            exp = toks[i + 1]
            if exp == _END:
                raise PolyError("unexpected end of expression")
            if exp[0] == "x" or exp in _OPS:
                raise PolyError("exponent must be a nonnegative integer")
            base = _power(base, int(exp), {(0,) * nvars: 1}, _mul)
            i += 2
        out = base if out is None else _mul(out, base)
        tok = toks[i]
        if tok == "*":
            i += 1
        elif tok in _PRODUCT_ENDS:
            return out, i


def _atom(toks, i, nvars):
    """atom := integer | variable | ( expr ) | - atom"""
    tok = toks[i]
    if tok == "(":
        inner, i = _expr(toks, i + 1, nvars)
        if toks[i] != ")":
            raise PolyError("missing closing parenthesis" if toks[i]
                            else "unexpected end of expression")
        return inner, i + 1
    if tok == "-":
        inner, i = _atom(toks, i + 1, nvars)
        return {m: -c for m, c in inner.items()}, i
    if tok == _END:
        raise PolyError("unexpected end of expression")
    if tok in _OPS:
        raise PolyError("unexpected token ('op', %r)" % tok)
    if tok[0] == "x":
        k = int(tok[1:])
        if not 1 <= k <= nvars:
            raise PolyError("variable index %d out of range 1..%d" % (k, nvars))
        return {(0,) * (k - 1) + (1,) + (0,) * (nvars - k): 1}, i + 1
    if nvars < 1:
        raise PolyError("need at least one variable")
    c = int(tok)
    return ({(0,) * nvars: c} if c else {}), i + 1


def _parse(toks, nvars):
    nvars = _integer(nvars, PolyError)
    out, i = _expr(toks, 0, nvars)
    if toks[i] != _END:
        raise PolyError("trailing input at token ('op', %r)" % toks[i])
    return Poly._of(nvars, out)


def parse_poly(text, nvars=None):
    """Parse a polynomial in x1..xr; r defaults to the largest index used.

    The text is tokenized by one regular-expression pass and parsed by one
    descent over the tokens; whitespace may stand between any two tokens and
    at either end, so "x1 + 1 " reads as "x1 + 1"."""
    toks = _tokens(text)
    return _parse(toks, _arity(toks) if nvars is None else nvars)


def parse_system(texts, nvars=None):
    """Parse several polynomials over a shared variable set; without nvars,
    every text is tokenized before any is parsed."""
    if nvars is not None:
        return [parse_poly(text, nvars) for text in texts]
    tokens = [_tokens(text) for text in texts]
    nvars = max([1] + [_arity(toks) for toks in tokens])
    return [_parse(toks, nvars) for toks in tokens]
