"""Arc counting against a direct enumeration oracle, plus the p-adic engine."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (ArcConstraint, ArcError, CountPlan, Poly, PolySystem,
                     count_arcs, count_pair, count_stratum, estimate_work,
                     homogeneity_check, igusa_coeffs, padic_solution_counts,
                     parse_poly, parse_system, zeta_coeffs_from_counts)
from arczeta.arcs import build_count_table, is_prime, order_indices


def brute_count(polys, n, q, leading="one", origin=False, nonzero_start=False):
    """Enumerate every truncated arc (levels 0..|n|) of the ambient space and
    apply the order conditions directly: ord_t f_i = n_i for each polynomial,
    with leading coefficient 1 (leading='one') or nonzero (leading='any')."""
    polys = [polys] if isinstance(polys, Poly) else list(polys)
    n = (n,) if isinstance(n, int) else tuple(n)
    r, top = polys[0].nvars, sum(n)
    width = r * (top + 1)
    arcs = np.indices((q,) * width).reshape(width, -1).T.reshape(-1, r, top + 1)
    ok = np.ones(len(arcs), dtype=bool)
    if origin:
        ok &= ~arcs[:, :, 0].any(axis=1)
    if nonzero_start:
        ok &= arcs[:, :, 0].any(axis=1)
    for f, ni in zip(polys, n):
        value = np.zeros((len(arcs), top + 1), dtype=np.int64)
        for mono, c in f.terms.items():
            prod = np.zeros_like(value)
            prod[:, 0] = c % q
            for j, e in enumerate(mono):
                for _ in range(e):
                    nxt = np.zeros_like(prod)
                    for a in range(top + 1):
                        for b in range(top + 1 - a):
                            nxt[:, a + b] += prod[:, a] * arcs[:, j, b]
                    prod = nxt % q
            value = (value + prod) % q
        ok &= ~value[:, :ni].any(axis=1)
        ok &= value[:, ni] == 1 if leading == "one" else value[:, ni] != 0
    return int(ok.sum())


class TestAgainstBruteForce:
    @pytest.mark.parametrize("text,q,n", [
        ("x1^2", 3, 2), ("x1*x2", 2, 2), ("x1^2 + x2^2", 3, 1),
        ("x1^3 - x2", 2, 2), ("x1^2 - x2^2", 3, 2),
    ])
    def test_unconstrained(self, text, q, n):
        poly = parse_poly(text)
        sys = PolySystem([poly])
        for leading in ("one", "any"):
            assert count_arcs(sys, (n,), q, leading=leading) == brute_count(
                poly, n, q, leading)

    @pytest.mark.parametrize("text,q,n", [
        ("x1^2 + x2^2", 3, 2), ("x1*x2", 3, 2),
    ])
    def test_origin_constraint(self, text, q, n):
        poly = parse_poly(text)
        sys = PolySystem([poly])
        got = count_arcs(sys, (n,), q, ArcConstraint.origin())
        assert got == brute_count(poly, n, q, origin=True)

    def test_full_rank_vector_constraint(self):
        # a 2x1 matrix has full rank iff the starting vector is nonzero
        poly = parse_poly("x1^2 + x2^2")
        sys = PolySystem([poly])
        got = count_arcs(sys, (2,), 3, ArcConstraint.full_rank(2, 1))
        assert got == brute_count(poly, 2, 3, nonzero_start=True)

    def test_order_zero_stratum(self):
        poly = parse_poly("x1^2 + x2")
        sys = PolySystem([poly])
        assert count_stratum(sys, (0,), 3) == brute_count(poly, 0, 3, "one")
        assert count_stratum(sys, (0,), 3, leading="any") == brute_count(
            poly, 0, 3, "any")

    def test_multi_invariant(self):
        # two invariants, ambient jet length |n|: brute force both order
        # conditions at once
        p1, p2 = parse_poly("x1", nvars=2), parse_poly("x2", nvars=2)
        sys = PolySystem([p1, p2])
        n = (1, 2)
        top = sum(n)
        total = 0
        q = 3
        for flat in itertools.product(range(q), repeat=2 * (top + 1)):
            a = flat[:top + 1]
            b = flat[top + 1:]
            if a[0] == 0 and a[1] != 0 and b[0] == b[1] == 0 and b[2] != 0:
                total += 1
        assert count_arcs(sys, n, q, leading="any") == total


class TestValidationAndHelpers:
    def setup_method(self):
        self.sys = PolySystem([parse_poly("x1^2 + x2^2")])

    def test_rejects_bad_input(self):
        with pytest.raises(ArcError):
            count_arcs(self.sys, (1, 1), 3)
        with pytest.raises(ArcError):
            count_arcs(self.sys, (0,), 3)
        with pytest.raises(ArcError):
            count_arcs(self.sys, (1,), 4)
        with pytest.raises(ArcError):
            count_arcs(PolySystem([parse_poly("x1", 2), parse_poly("x2", 2)]),
                       (1, 1), 3, leading="one")

    def test_constraint_parsing(self):
        assert ArcConstraint.parse("none").kind == "none"
        assert ArcConstraint.parse("origin").kind == "origin"
        fr = ArcConstraint.parse("full-rank:3,2")
        assert (fr.kind, fr.m, fr.r_mat) == ("full_rank", 3, 2)
        with pytest.raises(ArcError):
            ArcConstraint.parse("rank:1")

    def test_estimate_bounds_count(self):
        est = estimate_work(self.sys, (2,), 3)
        assert est >= count_arcs(self.sys, (2,), 3, leading="any")

    def test_count_pair_and_table(self):
        one, all_ = count_pair(self.sys, (1,), 3)
        assert one == count_arcs(self.sys, (1,), 3, leading="one")
        assert all_ == count_arcs(self.sys, (1,), 3, leading="any")
        table = build_count_table(self.sys, 3, 2)
        assert table.entries[(1,)] == (one, all_)

    def test_homogeneity_check(self):
        assert homogeneity_check(self.sys, 3, 1)
        assert homogeneity_check(self.sys, 3, 2)

    def test_zeta_coeffs_monomial(self):
        sys = PolySystem([parse_poly("x1")])
        series = zeta_coeffs_from_counts(sys, 3, 3)
        for n in range(1, 4):
            assert series.coefficient((n,)) == Fraction(1, 3 ** n)

    def test_estimate_charges_every_expandable_level(self):
        # levels 0..max(n)-1 may be expanded, each with q^r rows
        plan = CountPlan(self.sys, 3, None, order_indices(1, 4))
        assert plan.estimate() == 3 ** (2 * 4)
        origin = CountPlan(self.sys, 3, ArcConstraint.origin(), [(4,)])
        assert origin.estimate() == 3 ** (2 * 3)

    def test_threads_agree(self):
        sys = PolySystem([parse_poly("x1*x4 - x2*x3")])
        a = count_arcs(sys, (2,), 3, threads=1)
        b = count_arcs(sys, (2,), 3, threads=4)
        assert a == b


class TestInt64Regressions:
    # q^e > 2^63 once overflowed the power loop of the old evaluator
    def test_high_power_any_leading(self):
        sys = PolySystem([parse_poly("x1^10 - 1")])
        assert count_arcs(sys, 1, 101, leading="any") == 1000

    def test_high_power_order_zero(self):
        sys = PolySystem([parse_poly("x1^10")])
        assert count_stratum(sys, 0, 101, leading="one") == 10


PRIMES = [p for p in range(2, 200) if is_prime(p)]


@st.composite
def single_polynomials(draw):
    """(poly, q): one variable with q < 200, or two with q < 14 (so that the
    oracle stays small); degree <= 12."""
    r = draw(st.sampled_from([1, 2]))
    q = draw(st.sampled_from([p for p in PRIMES if r == 1 or p < 14]))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 12 // r)] * r),
                          min_size=1, max_size=5))
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6).map(lambda c: c or 1),
                           min_size=len(monos), max_size=len(monos)))
    poly = Poly(r, dict(zip(monos, coeffs)))
    return (poly if poly.terms else Poly(r, {monos[0]: 1})), q


@settings(max_examples=150, deadline=None)
@given(case=single_polynomials(), n=st.integers(0, 1),
       origin=st.booleans(), leading=st.sampled_from(["one", "any"]))
def test_single_polynomial_matches_oracle(case, n, origin, leading):
    poly, q = case
    constraint = ArcConstraint.origin() if origin else None
    got = count_stratum(PolySystem([poly]), n, q, constraint, leading)
    assert got == brute_count(poly, n, q, leading, origin=origin)


def _random_poly(rng, r, singular):
    """A few random terms; singular=True keeps only degrees >= 2, so that
    the origin is a singular starting point."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * r
        for _ in range(rng.randint(2 if singular else 0, 3)):
            mono[rng.randrange(r)] += 1
        terms[tuple(mono)] = rng.choice([-2, -1, 1, 2, 3])
    poly = Poly(r, terms)
    return poly if poly.terms else Poly.var(r, 1) ** 2


# (q, r, order) with at most q^(r (order + 1)) <= 20000 arcs for the oracle
CORPUS_SHAPES = [(2, 1, 4), (2, 2, 3), (2, 3, 3), (3, 1, 3), (3, 2, 3),
                 (3, 3, 2), (5, 1, 3), (5, 2, 2), (5, 3, 1)]


def test_plan_matches_oracle_on_random_systems():
    rng = random.Random(20260)
    for _ in range(40):
        q, r, order = rng.choice(CORPUS_SHAPES)
        l = rng.choice([1, 2])
        polys = [_random_poly(rng, r, rng.random() < 0.5) for _ in range(l)]
        kind = rng.choice(["none", "origin", "full_rank"])
        constraint = {"none": None, "origin": ArcConstraint.origin(),
                      "full_rank": ArcConstraint.full_rank(r, 1)}[kind]
        counts = CountPlan(PolySystem(polys), q, constraint,
                           order_indices(l, order, low=0)).counts()
        for n, (one, any_) in counts.items():
            want = [brute_count(polys, n, q, leading, origin=kind == "origin",
                                nonzero_start=kind == "full_rank")
                    for leading in ("one", "any")]
            assert (one, any_) == tuple(want) if l == 1 else any_ == want[1], \
                (polys, q, kind, n)


@pytest.mark.parametrize("polys,q,constraint,order", [
    (("x1*x4 - x2*x3", "x1*x6 - x2*x5", "x3*x6 - x4*x5"), 3, None, 2),
    (("x1*x4 - x2*x3",), 3, ArcConstraint.origin(), 4),
    (("x1^2 - x2^3",), 5, None, 6),
])
def test_plan_distribution_is_thread_independent(polys, q, constraint, order):
    sys = PolySystem(parse_system(list(polys)))
    plans = [CountPlan(sys, q, constraint, order_indices(sys.l, order, low=0))
             for _ in range(2)]
    assert plans[0].counts(threads=1) == plans[1].counts(threads=2)


class TestPadic:
    def brute_padic(self, poly, p, k):
        if k == 0:
            return 1
        mod = p ** k
        r = poly.nvars
        return sum(1 for x in itertools.product(range(mod), repeat=r)
                   if poly.evaluate(list(x)) % mod == 0)

    @pytest.mark.parametrize("text,p,k_max", [
        ("x1^2 + x2^2", 5, 3), ("x1^2 + x2^2", 3, 3), ("x1*x2", 2, 3),
        ("x1^3", 7, 2),
    ])
    def test_solution_counts(self, text, p, k_max):
        poly = parse_poly(text)
        got = padic_solution_counts(poly, p, k_max)
        assert got == [self.brute_padic(poly, p, k) for k in range(k_max + 1)]

    def test_igusa_linear(self):
        # f = x: the measure of {ord x = n} is (1 - 1/p) p^-n
        series = igusa_coeffs(parse_poly("x1"), 5, 4)
        for n in range(5):
            assert series.coefficient((n,)) == Fraction(4, 5) * Fraction(1, 5 ** n)

    def test_igusa_product(self):
        # f = x*y factors as two independent linear integrals
        series = igusa_coeffs(parse_poly("x1*x2"), 3, 3)
        unit = Fraction(2, 3)
        for n in range(4):
            assert series.coefficient((n,)) == (
                (n + 1) * unit * unit * Fraction(1, 3 ** n))
