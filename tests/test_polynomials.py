"""Integer polynomial arithmetic and the x1..xr expression grammar."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arczeta import LaurentMotive, Poly, PolyError, parse_poly, parse_system

x = lambda i, n=2: Poly.var(n, i)


class TestPoly:
    def test_arithmetic(self):
        p = (x(1) + x(2)) ** 2
        assert p == x(1) ** 2 + 2 * x(1) * x(2) + x(2) ** 2
        assert p - p == Poly(2)
        assert p.degree() == 2
        assert p.is_homogeneous()

    def test_degree_of_zero_rejected(self):
        with pytest.raises(PolyError):
            Poly(2).degree()

    def test_inhomogeneous(self):
        assert not (x(1) ** 2 + x(2)).is_homogeneous()

    def test_evaluate_integers(self):
        p = x(1) ** 3 - 2 * x(2)
        assert p.evaluate([2, 5]) == 8 - 10

    def test_evaluate_generic_ring(self):
        # evaluation works over the Laurent ring as well
        L = LaurentMotive.L()
        p = x(1) * x(2) + 1
        assert p.evaluate([L, L - 1], one=LaurentMotive.one()) == L * (L - 1) + 1

    @pytest.mark.parametrize("terms", [{(1,): 2.7}, {(1.5,): 1},
                                       {(Fraction(1, 2),): 1}])
    def test_non_integers_refused(self, terms):
        with pytest.raises(PolyError, match="not an integer"):
            Poly(1, terms)

    @pytest.mark.parametrize("build,message", [
        (lambda: Poly(2, {(1,): 1}), "wrong arity"),
        (lambda: Poly(1, {(-1,): 1}), "negative exponent"),
        (lambda: Poly.var(2, 3), "out of range 1..2"),
    ])
    def test_malformed_terms_and_variables_refused(self, build, message):
        with pytest.raises(PolyError, match=message):
            build()

    def test_mixed_arity_rejected(self):
        with pytest.raises(PolyError):
            x(1, 2) + x(1, 3)


class TestGrammar:
    def test_examples(self):
        assert parse_poly("x1^2 + x2^2 + x3^2") == (
            Poly.var(3, 1) ** 2 + Poly.var(3, 2) ** 2 + Poly.var(3, 3) ** 2)
        assert parse_poly("x1*x4 - x2*x3").nvars == 4
        assert parse_poly("2x1") == 2 * Poly.var(1, 1)
        assert parse_poly("(x1 + 1)(x1 - 1)") == Poly.var(1, 1) ** 2 - 1
        assert parse_poly("-x1^3") == -(Poly.var(1, 1) ** 3)

    def test_explicit_arity(self):
        p = parse_poly("x1 + x2", nvars=4)
        assert p.nvars == 4

    def test_errors(self):
        with pytest.raises(PolyError):
            parse_poly("x1 +")
        with pytest.raises(PolyError):
            parse_poly("y1")
        with pytest.raises(PolyError):
            parse_poly("x1 ^ x2")
        with pytest.raises(PolyError):
            parse_poly("(x1")

    def test_parse_system_shares_variables(self):
        polys = parse_system(["x1", "x2", "x3"])
        assert all(p.nvars == 3 for p in polys)

    @given(coeffs=st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 3),
                                     st.integers(0, 3)), min_size=1, max_size=4))
    def test_round_trip(self, coeffs):
        p = Poly(2, {(a, b): c for c, a, b in coeffs})
        if p.is_zero():
            return
        assert parse_poly(str(p), nvars=2) == p

    def test_trailing_whitespace_reads_as_the_stripped_text(self):
        assert parse_poly("x1^2 + x2^2 + x3^2 \t\n") == parse_poly("x1^2 + x2^2 + x3^2")
        assert parse_system(["x1 ", " x2  "]) == parse_system(["x1", " x2"])
        with pytest.raises(PolyError, match=r"syntax at ' y'$"):
            parse_poly("x1 y  ")

    @pytest.mark.parametrize("text", ["9" * 5000 + "*x1", "x" + "1" * 5000,
                                      "x1^" + "9" * 5000])
    def test_number_beyond_the_int_conversion_limit(self, text):
        """A coefficient, variable index or exponent of 5000 digits is the
        reader's input error, not Python's int-conversion limit."""
        with pytest.raises(PolyError, match=r"^number of 5000 digits in "
                                            r"polynomial text \(at most 4300\)$"):
            parse_poly(text)
        with pytest.raises(PolyError, match="5000 digits"):
            parse_system(["x1", text])

    def test_numbers_of_4300_digits_are_read(self):
        assert parse_poly("9" * 4300 + "*x1").terms == {(1,): int("9" * 4300)}
        assert parse_poly("x1^" + "0" * 4299 + "2").terms == {(2,): 1}

    @pytest.mark.parametrize("text", ["(x1 + x2 + x3 + x4 + x5 + x6)^20",
                                      "(x1 + x2 + x3 + x4)^40"])
    def test_oversized_product_refused_early(self, text):
        start = time.perf_counter()
        with pytest.raises(PolyError, match="exceeds the limit of 262144 pairs"):
            parse_poly(text)
        assert time.perf_counter() - start < 0.5

    def test_products_below_the_limit_are_read(self):
        assert len(parse_poly("(x1 + x2 + x3 + x4 + x5 + x6)^10").terms) == 3003
        with pytest.raises(PolyError, match="product of 513 by 513 terms"):
            Poly(1, {(e,): 1 for e in range(513)}) ** 2


# -- the route the one-pass parser replaced, kept to check it against ----------

_OLD_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*^()]))")


def old_tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
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


def old_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def old_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def old_pow(a, n, nvars):
    out = {(0,) * nvars: 1}
    while n:
        if n & 1:
            out = old_mul(out, a)
        n >>= 1
        if n:
            a = old_mul(a, a)
    return out


class OldParser:
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
        out = old_add({}, self.product(), sign)
        while True:
            t = self.peek()
            if t == ("op", "+") or t == ("op", "-"):
                self.take()
                out = old_add(out, self.product(), 1 if t[1] == "+" else -1)
            else:
                return out

    def product(self):
        out = self.power()
        while True:
            t = self.peek()
            if t == ("op", "*"):
                self.take()
                out = old_mul(out, self.power())
            elif t is not None and t[0] in ("int", "var") or t == ("op", "("):
                out = old_mul(out, self.power())
            else:
                return out

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            t = self.take()
            if t[0] != "int":
                raise PolyError("exponent must be a nonnegative integer")
            return old_pow(base, t[1], self.nvars)
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
            return old_add({}, self.atom(), -1)
        raise PolyError("unexpected token %r" % (t,))


def old_parse_poly(text, nvars=None):
    tokens = old_tokenize(text)
    if nvars is None:
        nvars = max((t[1] for t in tokens if t[0] == "var"), default=1)
    p = OldParser(tokens, nvars)
    out = p.expr()
    if p.peek() is not None:
        raise PolyError("trailing input at token %r" % (p.peek(),))
    return Poly(nvars, out)


def outcome(parse, *args):
    """(nvars, terms in order) of the parsed Poly, or the PolyError message."""
    try:
        p = parse(*args)
    except PolyError as exc:
        return "error: %s" % exc
    return p.nvars, list(p.terms.items())


# Good tokens and pieces, and among them x0, both parentheses alone and ^x1;
# then tokens the grammar refuses.
GOOD = ["x1", "x2", "x3", "x0", "x01", "0", "1", "2", "3", "10", "+", "-", "-",
        "*", "*", "^", "^2", "^x1", "(", ")", "x1^3", "(x1 + x2)", "2x3",
        "(x2 - 1)^2", "x1*x3"]
BAD = ["y", "x", "1.5", "$", "x-"]


def random_expr(rng, depth=2):
    """A text of the grammar: sums of products of powers, both kinds of
    multiplication and signs, x0 and index 4 now and then."""
    def atom():
        roll = rng.random()
        if depth and roll < 0.25:
            return "(" + random_expr(rng, depth - 1) + ")"
        if roll < 0.35:
            return "-" + atom()
        if roll < 0.65:
            return str(rng.choice((0, 1, 2, 3, 10, 12)))
        return "x%d" % rng.choice((1, 2, 3, 1, 2, 3, 4, 0))

    def power():
        return atom() + (" ^ %d" % rng.randint(0, 3) if rng.random() < 0.3 else "")

    def product():
        out = power()
        for _ in range(rng.randint(0, 2)):
            out += rng.choice(("*", " * ", "")) + power()
        return out

    out = rng.choice(("", "", "-", "+ ")) + product()
    for _ in range(rng.randint(0, 3)):
        out += rng.choice((" + ", " - ", "+", "-")) + product()
    return out


def random_text(rng):
    """A grammar text, at times with one character replaced by a stray
    token, or tokens drawn at random; at times whitespace at either end.
    Exponents keep one digit, so that no power grows past a few hundred
    terms."""
    text = "^10"
    while re.search(r"\^\s*\d\d", text):
        text = _random_text(rng)
    return text


def _random_text(rng):
    if rng.random() < 0.5:
        text = random_expr(rng)
        if rng.random() < 0.3:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + rng.choice(BAD + GOOD) + text[cut + 1:]
    else:
        text = "".join(rng.choice(("", "", " ", "  ", "\t"))
                       + rng.choice(BAD if rng.random() < 0.03 else GOOD)
                       for _ in range(rng.randint(0, 9)))
    return (rng.choice(("", "", " ", "\t")) + text
            + rng.choice(("", "", "", " ", " \n", "\t ")))


def test_parser_matches_the_route_it_replaced():
    """Seeded: the one-pass parser gives the Poly (terms in the same order)
    or the PolyError message of the old tokenizer and peek/take parser, with
    and without an explicit arity; a text with trailing whitespace reads as
    the stripped text."""
    rng = random.Random(20261019)
    parsed = failed = 0
    for _ in range(3000):
        text = random_text(rng)
        for nvars in (None, rng.randint(0, 4)):
            args = (text,) if nvars is None else (text, nvars)
            want = outcome(old_parse_poly, text.rstrip(), *args[1:])
            assert outcome(parse_poly, *args) == want, args
            if isinstance(want, str):
                failed += 1
            else:
                parsed += 1
    assert parsed > 500 and failed > 500
