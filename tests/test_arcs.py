"""Arc counting against a direct enumeration oracle, plus the p-adic engine."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (ArcConstraint, ArcError, CountPlan, Poly, PolySystem,
                     count_arcs, count_pair, count_stratum, estimate_work,
                     homogeneity_check, igusa_coeffs, padic_solution_counts,
                     parse_poly, parse_system, zeta_coeffs_from_counts)
from arczeta import arcs
from arczeta.arcs import (_SlotTable, _eval_poly_mod, _residue_grid,
                          arc_value_coefficients, is_prime,
                          order_indices)


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
        assert (CountPlan(self.sys, 3, None, order_indices(1, 2)).counts()[(1,)]
                == (one, all_))

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


def test_residue_grid_limit_refuses_before_allocating():
    """q^r = 101^4 (about 1.04e8 rows) is beyond the grid limit: the plan
    and the p-adic counter refuse without building the grid."""
    f = parse_poly("x1*x4 - x2*x3")
    plan = CountPlan(PolySystem([f]), 101, None, [(1,)])
    assert plan.estimate() == 101 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(ArcError, match="grid"):
            plan.counts()
        with pytest.raises(ArcError, match="grid"):
            count_arcs(PolySystem([f]), (1,), 101, leading="any")
        with pytest.raises(ArcError, match="grid"):
            padic_solution_counts(f, 101, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_residue_grid_limit_counts_cells():
    """2^24 rows of 24 cells each: a 24-variable polynomial at q=2 is beyond
    the cell limit, so it is refused the same way."""
    f = parse_poly(" + ".join("x%d^2" % i for i in range(1, 25)))
    tracemalloc.start()
    try:
        with pytest.raises(ArcError, match="grid"):
            CountPlan(PolySystem([f]), 2, None, [(1,)]).counts()
        with pytest.raises(ArcError, match="grid"):
            padic_solution_counts(f, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_residue_grid_order_and_memory():
    assert _residue_grid(3, 4).tolist() == [
        list(x) for x in itertools.product(range(3), repeat=4)]
    tracemalloc.start()
    try:
        grid = _residue_grid(2, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (2 ** 18, 18) and grid[-1].tolist() == [1] * 18
    assert peak < 48 << 20


def brute_padic_counts(poly, p, k_max):
    """[A_0, ..., A_k_max] from one enumeration of (Z/p^k_max)^m: f mod p^k
    depends on x mod p^k only, so A_k is the number of x with f(x) = 0 mod
    p^k over the p^(m (k_max - k)) lifts of each class mod p^k."""
    mod, m = p ** k_max, poly.nvars
    X = np.indices((mod,) * m).reshape(m, -1).T
    value = np.zeros(len(X), dtype=np.int64)
    for mono, c in poly.terms.items():
        term = np.full(len(X), c % mod, dtype=np.int64)
        for j, e in enumerate(mono):
            for _ in range(e):
                term = term * X[:, j] % mod
        value = (value + term) % mod
    return [int((value % p ** k == 0).sum()) // p ** (m * (k_max - k))
            for k in range(k_max + 1)]


def oracle_depth(p, m):
    """The largest k with p^(mk) <= 2e5 points for the oracle."""
    k = 0
    while p ** (m * (k + 1)) <= 200_000:
        k += 1
    return k


def padic_poly(pick, p, m, family):
    """A polynomial of degree <= 6 in m variables that does not vanish
    identically mod p, its coefficients carrying p-power content; pick(seq)
    chooses one element (a seeded rng.choice, or a hypothesis draw).  Every
    family but 'plain' is singular at each of its zeros mod p: g^2, a sum of
    squares at p = 2, and p g + h^2."""
    def terms(degree):
        out = {}
        for i in range(pick(range(1, 5))):
            mono = [0] * m
            for _ in range(pick(range(degree + 1))):
                mono[pick(range(m))] += 1
            unit = pick([u for u in range(-6, 7) if u % p])
            out[tuple(mono)] = unit * p ** (pick(range(4)) if i else 0)
        return Poly(m, out)

    while True:
        if family == "plain":
            f = terms(6)
        elif family == "square":
            f = terms(3) ** 2
        elif family == "sum of squares":
            f = terms(3) ** 2 + terms(3) ** 2 + terms(3) ** 2
        else:
            f = p * terms(6) + terms(3) ** 2
        if any(c % p for c in f.terms.values()):
            return f


PADIC_FAMILIES = ("plain", "square", "sum of squares", "p g + h^2")


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

    def test_matches_oracle_on_random_polynomials(self):
        rng = random.Random(5150)
        for _ in range(60):
            family = rng.choice(PADIC_FAMILIES)
            p = 2 if family == "sum of squares" else rng.choice([2, 3, 5, 7])
            m = rng.randint(1, 3)
            f = padic_poly(rng.choice, p, m, family)
            k = oracle_depth(p, m)
            assert padic_solution_counts(f, p, k) == brute_padic_counts(f, p, k), \
                (str(f), p, family)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), m=st.integers(1, 3),
           family=st.sampled_from(PADIC_FAMILIES), shallower=st.integers(0, 2))
    def test_matches_oracle_hypothesis(self, data, p, m, family, shallower):
        p = 2 if family == "sum of squares" else p
        f = padic_poly(lambda seq: data.draw(st.sampled_from(seq)), p, m, family)
        k = max(oracle_depth(p, m) - shallower, 0)
        assert padic_solution_counts(f, p, k) == brute_padic_counts(f, p, k)

    def test_benchmark_quartic(self):
        # the castling partner of x1^2 + x2^2 + x3^2: singular everywhere mod 2
        g = parse_poly("(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2"
                       " + (x3*x6 - x4*x5)^2")
        tracemalloc.start()
        try:
            got = padic_solution_counts(g, 2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [1, 40, 1408, 53248, 1638400, 60817408]
        assert peak < 16 << 20
        assert padic_solution_counts(g, 3, 3) == [1, 297, 123201, 33126489]

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


def python_value(terms, row):
    """A polynomial in monomial form at one row, with Python ints."""
    total = 0
    for mono, c in terms.items():
        for v in mono:
            c *= int(row[v])
        total += c
    return total


def random_terms(rng, width, degree, count):
    """Up to `count` monomials of degree <= `degree` in the column ids
    0..width-1, with signed coefficients (a constant term sometimes)."""
    out = {}
    for _ in range(count):
        mono = tuple(sorted(rng.randrange(width)
                            for _ in range(rng.randint(0, degree))))
        out[mono] = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 12))
    return out


class TestSlotEvaluator:
    # p^(k+1) <= 2^31 is the callers' guard on p-adic moduli; the
    # evaluator itself is exact up to 2^31
    MODULI = (2, 3, 113, 127, 131, 251, 2 ** 30, 3 ** 18, 7 ** 10, 2 ** 31 - 1)

    @pytest.mark.parametrize("mod", MODULI)
    def test_matches_python_ints(self, mod):
        rng = random.Random(mod)
        for trial in range(12):
            width = rng.randint(1, 8)
            polys = [random_terms(rng, width, rng.randint(0, 12), rng.randint(0, 40))
                     for _ in range(rng.randint(1, 3))]
            dtype = np.int8 if mod <= 127 and trial % 2 else np.int64
            X = np.array([[rng.randrange(mod) for _ in range(width)]
                          for _ in range(rng.randint(0, 60))],
                         dtype=dtype).reshape(-1, width)
            got = _eval_poly_mod(_SlotTable(polys), X, mod)
            assert got.dtype == np.int64 and got.shape == (len(X), len(polys))
            want = [[python_value(f, row) % mod for f in polys] for row in X]
            assert got.tolist() == want, (mod, trial)

    def test_high_powers_reduce_lazily(self):
        # x^12 at mod 2^30 needs a reduction after every product; x^12 at
        # mod 2 none
        for mod in (2, 5, 127, 2 ** 30):
            X = np.arange(min(mod, 300)).reshape(-1, 1)
            got = _eval_poly_mod(_SlotTable([{(0,) * 12: -3, (): 5}]), X, mod)
            assert got[:, 0].tolist() == [(-3 * x ** 12 + 5) % mod for x in range(len(X))]

    def test_large_coefficient_sums(self):
        # 20 products near 2^31 times coefficients near -2^30 sum past 2^63;
        # an odd modulus, as int64 wrapping is invisible mod a power of 2
        mod = 2 ** 31 - 1
        terms = {(j,): -(mod // 2) for j in range(20)}
        terms.update({(j, j): mod // 2 - 1 for j in range(20)})
        X = np.full((3, 20), mod - 1)
        got = _eval_poly_mod(_SlotTable([terms, {(0,): 1}]), X, mod)
        assert got.tolist() == [[python_value(terms, row) % mod, mod - 1] for row in X]

    def test_temporaries_stay_within_chunk(self, monkeypatch):
        monkeypatch.setattr(arcs, "_CHUNK", 1 << 12)
        rng = random.Random(7)
        table = _SlotTable([random_terms(rng, 20, 6, 40)])
        X = np.array([[rng.randrange(5) for _ in range(20)] for _ in range(1 << 14)],
                     dtype=np.int8)
        _eval_poly_mod(table, X[:10], 5)  # compile outside the measurement
        tracemalloc.start()
        try:
            got = _eval_poly_mod(table, X, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unchunked, the products alone would take 16384 x 40 x 8 = 5.2 MB
        assert peak <= got.nbytes + 4 * 8 * arcs._CHUNK
        assert got[:50, 0].tolist() == [python_value(table.polys[0], row) % 5
                                        for row in X[:50]]


def arc_substitution(poly, arc, maxdeg):
    """poly(a(t)) truncated at t^maxdeg, with Python ints; arc[j][k] is the
    t^k coefficient of coordinate j."""
    out = [0] * (maxdeg + 1)
    for mono, c in poly.terms.items():
        term = [c] + [0] * maxdeg
        for j, e in enumerate(mono):
            for _ in range(e):
                term = [sum(term[i] * arc[j][k - i] for i in range(k + 1))
                        for k in range(maxdeg + 1)]
        out = [a + b for a, b in zip(out, term)]
    return out


def test_jets_match_arc_substitution():
    rng = random.Random(2718)
    for _ in range(80):
        r, maxdeg, origin = rng.randint(1, 3), rng.randint(0, 5), rng.random() < 0.5
        f = Poly(r, {tuple(rng.randint(0, 4) for _ in range(r)): rng.randint(-9, 9)
                     for _ in range(rng.randint(1, 5))} or {(0,) * r: 1})
        if f.is_zero():
            continue
        jets = arc_value_coefficients(f, maxdeg, origin)
        for _ in range(3):
            arc = [[0 if origin and k == 0 else rng.randint(-20, 20)
                    for k in range(maxdeg + 1)] for _ in range(r)]
            row = [arc[v % r][v // r] for v in range(r * (maxdeg + 1))]
            assert [python_value(jet, row) for jet in jets] == \
                arc_substitution(f, arc, maxdeg), (str(f), maxdeg, origin)
            for jet in jets:
                assert all(list(mono) == sorted(mono) for mono in jet)
                assert not origin or all(v >= r for mono in jet for v in mono)


def test_jets_match_arc_substitution_high_powers():
    """Powers x_j^e with e >= 6, where each monomial of x_j(t)^e comes from
    one multiset of levels with its multinomial coefficient."""
    rng = random.Random(6180)
    for _ in range(40):
        r, maxdeg, origin = rng.randint(1, 2), rng.randint(6, 14), rng.random() < 0.5
        f = Poly(r, {tuple(rng.choice((0, 1, 2, 6, 7, 9, 12)) for _ in range(r)):
                     rng.choice((-3, -1, 1, 2, 5)) for _ in range(rng.randint(1, 3))})
        if f.is_zero():
            continue
        jets = arc_value_coefficients(f, maxdeg, origin)
        arc = [[0 if origin and k == 0 else rng.randint(-9, 9)
                for k in range(maxdeg + 1)] for _ in range(r)]
        row = [arc[v % r][v // r] for v in range(r * (maxdeg + 1))]
        assert [python_value(jet, row) for jet in jets] == \
            arc_substitution(f, arc, maxdeg), (str(f), maxdeg, origin)
    for e, lo, maxdeg in ((6, 0, 10), (7, 1, 12), (9, 0, 8)):
        jets = arc_value_coefficients(Poly(1, {(e,): 1}), maxdeg, lo == 1)
        for k, jet in enumerate(jets):
            want = {}
            for levels in itertools.combinations_with_replacement(range(lo, k + 1), e):
                if sum(levels) == k:
                    coef = math.factorial(e)
                    for m in Counter(levels).values():
                        coef //= math.factorial(m)
                    want[levels] = coef
            assert jet == want, (e, lo, k)
