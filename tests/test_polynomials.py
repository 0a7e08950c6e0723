"""Integer polynomial arithmetic and the x1..xr expression grammar."""

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
