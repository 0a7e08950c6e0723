"""Arc counting against a direct enumeration oracle, plus the p-adic engine."""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arczeta import (ArcConstraint, ArcError, BudgetExceeded, CountPlan, Poly,
                     PolySystem, count_arcs, count_stratum, estimate_work,
                     homogeneity_check, igusa_coeffs, padic_solution_counts,
                     parse_poly, parse_system)
from arczeta import arcs
from arczeta.arcs import (_SlotTable, _eval_poly_mod, _residue_grid,
                          arc_value_coefficients, is_prime,
                          order_indices)
from arczeta.cli import main
from arczeta.fixtures import castling_fixture

VERIFY_OUTPUT = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify.txt"


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

    def test_leading_one_on_a_system_is_refused_before_the_sweep(self, monkeypatch):
        def no_sweep(self, threads=1):
            raise AssertionError("swept before validating")

        monkeypatch.setattr(CountPlan, "counts", no_sweep)
        plan = CountPlan(PolySystem([parse_poly("x1", 2), parse_poly("x2", 2)]), 3,
                         None, 2, min_order=1)
        with pytest.raises(ArcError, match="leading-coefficient-one"):
            plan.count((1, 1), "one")
        with pytest.raises(ArcError, match="leading-coefficient-one"):
            plan.series("one")

    @pytest.mark.parametrize("polys,message", [
        ([1], "takes Poly values"),
        ([parse_poly("x1"), "x1"], "takes Poly values"),
        ([], "at least one polynomial"),
        ([parse_poly("x1"), parse_poly("x1*x2")], "different spaces"),
    ])
    def test_poly_system_refusals(self, polys, message):
        """Every entry is checked to be a Poly before any is read, so a
        non-Poly first entry is refused as such, not by an AttributeError."""
        with pytest.raises(ArcError, match=message):
            PolySystem(polys)

    def test_q_one_is_not_a_prime(self):
        with pytest.raises(ArcError, match="q must be prime"):
            CountPlan(self.sys, 1, None, [(1,)])

    def test_lookup_of_a_non_target_is_an_arc_error(self):
        plan = CountPlan(PolySystem([parse_poly("x1")]), 3, None, [(1,)])
        with pytest.raises(ArcError, match=r"\(2,\) is not a target"):
            plan.count((2,))
        assert plan.count(1) == 2

    def test_series_needs_a_plan_built_for_an_order(self):
        """A series reads a missing target as a zero coefficient, so only a
        plan built for an order N has one: its targets are every n with
        |n| <= N and all n_i >= min_order, listed by the plan itself.  A plan
        built from an index list, even the full one, has none."""
        cusp = PolySystem([parse_poly("x1^2 - x2^3")])
        pair = PolySystem(parse_system(["x1", "x2"]))
        lines = PolySystem(parse_system(["x1", "x2", "x3"]))
        for sys, targets in ((cusp, order_indices(1, 5)), (cusp, [(2,), (3,)]),
                             (pair, order_indices(2, 4)), (lines, [])):
            with pytest.raises(ArcError, match="built for an order"):
                CountPlan(sys, 2, None, targets).series("any")
        for sys, order, low in ((cusp, 5, 1), (pair, 4, 1), (pair, 1, 1),
                                (lines, 2, 0), (lines, 2, 1), (lines, -1, 0)):
            plan = CountPlan(sys, 2, None, order, min_order=low)
            targets = order_indices(sys.l, order, low)
            assert plan.targets == targets
            assert plan.depth == max(map(max, targets), default=0)
            assert plan.counts() == CountPlan(sys, 2, None, targets).counts()
        series = CountPlan(cusp, 2, None, 5, min_order=1).series("one")
        assert series.order == 5
        assert [series.coefficient((n,)) for n in (3, 4, 5)] == [
            Fraction(3, 8), Fraction(3, 16), Fraction(1, 32)]
        assert CountPlan(pair, 2, None, 1, min_order=1).series("any").coeffs == {}
        assert CountPlan(lines, 2, None, 2).series("any").coefficient(
            (0, 0, 2)) == Fraction(1, 4)

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
        one, all_ = CountPlan(self.sys, 3, None, [(1,)]).counts()[(1,)]
        assert one == count_arcs(self.sys, (1,), 3, leading="one")
        assert all_ == count_arcs(self.sys, (1,), 3, leading="any")
        assert (CountPlan(self.sys, 3, None, order_indices(1, 2)).counts()[(1,)]
                == (one, all_))

    def test_homogeneity_check(self):
        assert homogeneity_check(self.sys, 3, 1)
        assert homogeneity_check(self.sys, 3, 2)
        with pytest.raises(ArcError, match="takes a single polynomial"):
            homogeneity_check(PolySystem(parse_system(["x1", "x2"])), 3, 1)
        with pytest.raises(ArcError, match="not homogeneous"):
            homogeneity_check(PolySystem([parse_poly("x1^2 + x2")]), 3, 1)

    def test_leading_is_one_or_any(self):
        plan = CountPlan(PolySystem([parse_poly("x1")]), 3, None, [(1,)])
        with pytest.raises(ArcError, match="leading must be 'one' or 'any'"):
            plan.count(1, "some")

    def test_zeta_coeffs_monomial(self):
        sys = PolySystem([parse_poly("x1")])
        series = CountPlan(sys, 3, None, 3, min_order=1).series("one")
        for n in range(1, 4):
            assert series.coefficient((n,)) == Fraction(1, 3 ** n)

    def test_estimate_charges_every_expandable_level(self):
        # levels 0..max(n)-1 may be expanded, each with q^r rows
        assert estimate_work(self.sys, (4,), 3) == 3 ** (2 * 4)
        assert estimate_work(self.sys, (4,), 3, ArcConstraint.origin()) == 3 ** (2 * 3)

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


def test_plan_matches_oracle_on_random_three_polynomial_systems():
    rng = random.Random(20261)
    shapes = [s for s in CORPUS_SHAPES if s[0] in (2, 3)]
    for i in range(30):
        q, r, order = rng.choice(shapes)
        polys = [_random_poly(rng, r, rng.random() < 0.5) for _ in range(3)]
        kind = ("none", "origin", "full_rank")[i % 3]
        constraint = {"none": None, "origin": ArcConstraint.origin(),
                      "full_rank": ArcConstraint.full_rank(r, 1)}[kind]
        counts = CountPlan(PolySystem(polys), q, constraint,
                           order_indices(3, order, low=0)).counts()
        for n, (_one, any_) in counts.items():
            assert any_ == brute_count(polys, n, q, "any", origin=kind == "origin",
                                       nonzero_start=kind == "full_rank"), \
                (polys, q, kind, n)


def orders_oracle(polys, q, top):
    """Counter of (min(ord_t f_i, top + 1))_i over all arcs with levels 0..top."""
    r = polys[0].nvars
    tally = Counter()
    for digits in itertools.product(range(q), repeat=r * (top + 1)):
        arc = [digits[j * (top + 1):(j + 1) * (top + 1)] for j in range(r)]
        tally[tuple(next((k for k, v in enumerate(arc_substitution(f, arc, top))
                          if v % q), top + 1) for f in polys)] += 1
    return tally


def test_rank_deficient_start_settles_on_a_full_rank_subset():
    """At a_0 = 0, J = (e1; e2; e1) has rank 2 < 3 while J_{f1,f2} has full
    rank.  A prefix with a_1 = (0, 0, 1) and a_2 = 0 ends f3 at order 2 (its
    t^2 coefficient is a_21 + a_13^2) and carries the open set {f1, f2}
    into level 3, where the closed form reads that subset's rank.  Orders
    n_i <= 3 depend on levels 0..3 only, so arcs of length |n| number the
    count over those levels times q^(r (|n| - 3))."""
    polys = parse_system(["x1", "x2", "x1 + x3^2"])
    q, r, top = 2, 3, 3
    targets = [n for n in order_indices(3, 8, low=0) if max(n) <= top]
    plan = CountPlan(PolySystem(polys), q, None, targets)
    counts = plan.counts()
    assert not plan.full[0b111][0] and plan.full[0b011][0]
    tally = orders_oracle(polys, q, top)
    for n in targets:
        want = Fraction(tally[n] * q ** (r * sum(n)), q ** (r * top))
        assert counts[n][1] == want, n
        if sum(n) <= 3:
            assert counts[n][1] == brute_count(polys, n, q, "any"), n
    assert counts[(3, 3, 2)][1] > 0


def test_plans_settled_at_level_one_build_no_level_tables(monkeypatch, capsys):
    """On the torus-m3 pair at q = 3, order 2, every start settles at
    level 1: both plans take their jets to t^1 only and print the stored
    verify output under 1 and 2 threads.  The same pair at q = 2 matches
    the oracle.  x1^2 - x2^3 at target (3,) keeps rows past level 1, so
    its levels are built, to its depth."""
    degrees, jets = [], arcs.arc_value_coefficients

    def spy(poly, maxdeg, origin, mod=None):
        degrees.append(maxdeg)
        return jets(poly, maxdeg, origin, mod)

    monkeypatch.setattr(arcs, "arc_value_coefficients", spy)
    for threads in ("1", "2"):
        assert main(["verify", "--fixture", "torus-m3", "--q", "3", "--order", "2",
                     "--threads", threads, "--deterministic"]) == 0
        assert capsys.readouterr().out == VERIFY_OUTPUT.read_text()
    assert degrees and set(degrees) == {1}
    for polys in castling_fixture("torus-m3")[:2]:
        counts = CountPlan(PolySystem(polys), 2, None, order_indices(3, 2, low=0)).counts()
        for n, (_one, any_) in counts.items():
            assert any_ == brute_count(polys, n, 2, "any"), (polys, n)
    degrees.clear()
    plan = CountPlan(PolySystem([parse_poly("x1^2 - x2^3")]), 2, None, [(3,)])
    plan.counts()
    assert degrees == [1, 3] and plan.need[3] == 2


def _rank_mod(rows, q):
    """The rank of integer rows over F_q, by elimination in Python."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _gradient(f, x):
    """grad f at the integer point x."""
    return [sum(c * e[j] * math.prod(v ** (k - (t == j))
                                     for t, (v, k) in enumerate(zip(x, e)))
                for e, c in f.terms.items() if e[j]) for j in range(len(x))]


def test_start_ranks_match_a_rank_per_start():
    """full[U][a_0] is the rank test of J_U(a_0) over F_q at every start
    whose level-0 orders lead to a target that carries the open set U
    (|U| >= 2) at some level k >= 1, under 1 and 2 threads."""
    rng = random.Random(20263)
    seen = Counter()
    for i in range(24):
        q, l, r = (2, 3, 5)[i % 3], rng.randint(2, 3), rng.randint(1, 3)
        polys = [_random_poly(rng, r, rng.random() < 0.3) for _ in range(l)]
        targets = order_indices(l, rng.randint(2, 4), low=0)
        for threads in (1, 2):
            plan = CountPlan(PolySystem(polys), q, None, targets)
            plan.counts(threads)
            for a0, x in enumerate(plan.start.tolist()):
                level0 = tuple(f.evaluate(x) % q != 0 for f in polys)
                needed = {sum(1 << j for j in range(l) if n[j] >= k)
                          for n in targets if tuple(ni == 0 for ni in n) == level0
                          for k in range(1, max(n) + 1)}
                J = [_gradient(f, x) for f in polys]
                for u in (u for u in needed if u.bit_count() >= 2):
                    rows = [J[j] for j in range(l) if u >> j & 1]
                    want = _rank_mod(rows, q) == len(rows)
                    assert plan.full[u][a0] == want, (polys, q, x, u, threads)
                    seen[want] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("polys,q,constraint,order", [
    (("x1*x4 - x2*x3", "x1*x6 - x2*x5", "x3*x6 - x4*x5"), 3, None, 2),
    (("x1*x4 - x2*x3",), 3, ArcConstraint.origin(), 4),
    (("x1^2 - x2^3",), 5, None, 6),
    (("x1*x4 - x2*x3", "x1*x6 - x2*x5", "x3*x6 - x4*x5"), 5, None, 2),
])
def test_plan_distribution_is_thread_independent(polys, q, constraint, order):
    sys = PolySystem(parse_system(list(polys)))
    plans = [CountPlan(sys, q, constraint, order_indices(sys.l, order, low=0))
             for _ in range(2)]
    assert plans[0].counts(threads=1) == plans[1].counts(threads=2)


@pytest.mark.parametrize("text,q,top", [
    ("x1^2 - x2^3", 2, 5), ("x1^4 - x2^2", 2, 5), ("x1^3 + x2^3", 3, 4),
    ("2*x1 - 4*x2^3", 2, 5),
])
def test_reduced_jets_match_oracle_deep(text, q, top):
    """Mod q the jets of x^q read only the levels of its Frobenius terms, so
    flat prefixes carry fewer levels; every count still matches the oracle.
    2*x1 - 4*x2^3 is 0 mod 2: its jets are empty and no arc ends."""
    poly = parse_poly(text)
    for kind, constraint in (("none", None), ("origin", ArcConstraint.origin()),
                             ("full_rank", ArcConstraint.full_rank(2, 1))):
        counts = CountPlan(PolySystem([poly]), q, constraint,
                           order_indices(1, top, low=0)).counts()
        for n, pair in counts.items():
            assert pair == tuple(
                brute_count(poly, n, q, leading, origin=kind == "origin",
                            nonzero_start=kind == "full_rank")
                for leading in ("one", "any")), (text, kind, n)
    plan = CountPlan(PolySystem([parse_poly("x1^2 - x2^3")]), 2, None, [(3,)])
    plan.counts()
    # t^3 of x1^2 - x2^3 mod 2 is a_{0,1}^2 a_{3,1} + a_{1,1}^3: levels 0..1
    assert plan.need[3] == 2


def fitting(plan, code, level):
    """The targets a prefix of length `level` with this code can end at, by
    their definition: n_i = ord f_i where the code knows it and n_i >= level
    on the open set U (for U empty, level <= depth + 1); each as (n, sum of
    n_i over U, |U|)."""
    b = plan.depth + 2
    ords = [code // b ** i % b - 1 for i in range(plan.sys.l)]
    U = [i for i, o in enumerate(ords) if o < 0]
    return sorted((n, sum(n[i] for i in U), len(U)) for n in plan.targets
                  if all(ni == o for ni, o in zip(n, ords) if o >= 0)
                  and min([n[i] for i in U], default=plan.depth + 1) >= level)


def _target_plans(seed, count, max_l, max_top):
    rng = random.Random(seed)
    for _ in range(count):
        l, low = rng.randint(1, max_l), rng.choice([0, 1])
        top = rng.randint(l, max_top)
        indices = order_indices(l, top, low)
        targets = rng.sample(indices, rng.randint(1, len(indices)))
        yield CountPlan(PolySystem([parse_poly("x%d" % (i + 1), l) for i in range(l)]),
                        2, None, targets)


def _seeded_target_plans():
    return _target_plans(1009, 16, 3, 5)


def _scattered_tables(plan):
    """reach and open as one scatter over targets x all 2^l open sets: per
    (n, U), the code with the digits n_i + 1 off U gets at least the least
    n_i over U (depth + 1 for U empty); open holds every code's zero digits."""
    l, b = plan.sys.l, plan.depth + 2
    base = b ** np.arange(l)
    sets = (np.arange(1 << l)[:, None] >> np.arange(l) & 1).astype(bool)
    n = np.array(plan.targets)[:, None, :]
    reach = np.full(b ** l, -1)
    np.maximum.at(reach, (np.where(sets, 0, n + 1) @ base).ravel(),
                  np.where(sets, n, b - 1).min(axis=2).ravel())
    codes = np.arange(b ** l)
    open_ = ((codes[:, None] // base % b == 0) * (1 << np.arange(l))).sum(axis=1)
    return reach, open_


def _readable(plan):
    """(codes, level) per level a sweep can ask about: the codes whose every
    known order lies below the level."""
    l, b = plan.sys.l, plan.depth + 2
    codes = np.arange(b ** l)
    known = (codes[:, None] // b ** np.arange(l) % b).max(axis=1) - 1
    return [(codes[known < level], level) for level in range(b + 1)]


def _check_tables(plan):
    plan._paths()
    reach, open_ = _scattered_tables(plan)
    b, pairs = plan.depth + 2, 0
    assert len(plan.reach) == len(plan.open) == b ** plan.sys.l
    assert plan.reach.dtype == np.int8 and plan.open.dtype == np.uint8
    for codes, level in _readable(plan):
        live = codes[reach[codes] >= level]
        assert np.array_equal(plan.reach[codes] >= level, reach[codes] >= level), \
            (plan.targets, level)
        assert np.array_equal(plan.reach[codes] == level, reach[codes] == level), \
            (plan.targets, level)
        assert np.array_equal(plan.open[live], open_[live]), (plan.targets, level)
        if level <= plan.depth:  # a step's closed form skips no level a prefix ends at
            assert plan._ending[level] or not (reach[codes] == level).any()
        pairs += len(codes)
    return pairs


def test_code_tables_match_fitting():
    """The walked tables agree with fitting and with a scatter over all open
    sets at every (code, level) a sweep can read: reach >= level exactly
    where the code fits a target at that level, reach == level alike, and
    open holds the zero digits of every live code."""
    for plan in _seeded_target_plans():
        _check_tables(plan)
        for codes, level in _readable(plan):
            for code in codes.tolist():
                assert (plan.reach[code] >= level) == bool(fitting(plan, code, level)), \
                    (plan.targets, code, level)


def test_code_tables_match_scatter_on_random_targets():
    """300 random target sets, up to four polynomials and depth 7."""
    assert sum(_check_tables(plan) for plan in _target_plans(2027, 300, 4, 7)) > 10 ** 5


def test_target_paths_match_fitting_where_a_sweep_asks():
    """A sweep asks about a code at a level only once every order the code
    knows is below that level; there the targets whose path passes the code
    with least open n_i >= level are exactly the fitting ones.  (Elsewhere
    the two differ, and no sweep asks.)"""
    for plan in _seeded_target_plans():
        plan._paths()
        for codes, level in _readable(plan):
            for code in codes.tolist():
                got = sorted((n, total, u) for n, low, total, u
                             in plan.through.get(code, ()) if low >= level)
                assert got == fitting(plan, code, level), (plan.targets, code, level)


def test_code_table_limit_refuses_before_prepare(monkeypatch):
    """(depth + 2)^l codes beyond the cell limit: refused at construction,
    once the listed targets are read and before the grid, the jets or the
    tables are built."""
    def no_build(*args):
        raise AssertionError("built before the code table check")

    monkeypatch.setattr(CountPlan, "_prepare", no_build)
    monkeypatch.setattr(CountPlan, "_paths", no_build)
    monkeypatch.setattr(arcs, "_MAX_GRID_CELLS", 1000)
    with pytest.raises(ArcError, match="code table of 12\\^3"):
        CountPlan(PolySystem(parse_system(["x1", "x2", "x3"])), 2, None,
                  order_indices(3, 12))


def test_start_point_setup_stays_within_grid_and_chunk(monkeypatch):
    """Smoothness at the starts costs the grid plus _CHUNK-cell blocks.

    f_i = x_i + a quadratic form in x4..x14 at q = 2: J_U(a_0) has full rank
    for every U, so every count is settled at level 1 and the peak falls in
    the work at the start points.  That work holds the grid (G = 8 r q^r
    bytes) and its int8 copy (G/8); int64 columns per start (the l values,
    the code of the orders and its settled copy, open-set and gradient bits,
    row indices and their temporaries; orders are one code column, not l),
    at most 2l + 12 = 18 of them, where r = 14 columns make one G; and the
    Jacobian, evaluated _CHUNK cells at a time, with its rank copies and
    the evaluator's temporaries, a few such blocks.  Hence 3G + 32 blocks
    of _CHUNK int64 cells (measured: 1.91G; 2.25G when the orders were l
    columns).  The Jacobian of every start alone would take l G = 3G more."""
    monkeypatch.setattr(arcs, "_CHUNK", 1 << 12)
    q, r = 2, 14
    polys = parse_system(["x%d + " % (i + 1) + " + ".join(
        "x%d*x%d" % (j, j + 1 + i) for j in range(4, r - i)) for i in range(3)])
    plan = CountPlan(PolySystem(polys), q, None, order_indices(3, 3, low=0))
    tracemalloc.start()
    try:
        counts = plan.counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 8 * r * q ** r
    assert peak <= 3 * grid + 32 * 8 * arcs._CHUNK
    # q^(r-3) starts vanish on all three, each with q^(r-3) levels a_1 that
    # end them at order 1 (q = 2), and levels 2 and 3 are free
    assert counts[(1, 1, 1)][1] == q ** (r - 3) * q ** (r - 3) * q ** (2 * r)


def test_residue_grid_limit_refuses_before_allocating():
    """q^r = 101^4 (about 1.04e8 rows) is beyond the grid limit: the plan
    and the p-adic counter refuse without building the grid."""
    f = parse_poly("x1*x4 - x2*x3")
    tracemalloc.start()
    try:
        with pytest.raises(ArcError, match="grid"):
            CountPlan(PolySystem([f]), 101, None, [(1,)])
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
            CountPlan(PolySystem([f]), 2, None, [(1,)])
        with pytest.raises(ArcError, match="grid"):
            padic_solution_counts(f, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.fixture
def no_trial_division(monkeypatch):
    def refuse(q):
        raise AssertionError("trial division before the O(1) limits")

    monkeypatch.setattr(arcs, "is_prime", refuse)


def test_plan_refuses_a_grid_before_trial_division(no_trial_division):
    """q = 10^18 + 3 is prime, and proving it takes 10^9 trial divisions:
    the plan refuses its q^1 x 1 grid first."""
    with pytest.raises(ArcError, match="residue grid of 1000000000000000003\\^1"):
        CountPlan(PolySystem([parse_poly("x1")]), 10 ** 18 + 3, None, [(1,)])


def test_lifter_refuses_a_modulus_before_trial_division(no_trial_division):
    with pytest.raises(ArcError, match="modulus p\\^2 too large"):
        padic_solution_counts(parse_poly("x1"), 10 ** 18 + 3, 2)


def test_beyond_agrees_with_the_power():
    """The one size rule answers base^exp > limit exactly, on limits around
    the power itself and on the library's own limits."""
    for base in list(range(2, 13)) + [10 ** 18 + 3]:
        for exp in range(81):
            power = base ** exp
            for limit in (-1, 0, 1, power - 1, power, power + 1, 2 ** 26, 2 ** 31,
                          10 ** 9):
                assert arcs._beyond(base, exp, limit) == (power > limit)


def test_budget_refusal_names_the_power():
    """An estimate of 3^10000 rows has more than 4,300 digits: the refusal
    names the power, and builds neither it nor its decimal text."""
    with pytest.raises(BudgetExceeded, match="^estimated 3\\^10000 candidate rows "
                                             "exceeds budget 1000000000$"):
        CountPlan(PolySystem([parse_poly("x1^2 - x2^3")]), 3, None, 5000,
                  min_order=1, budget=10 ** 9)


def test_degree_limit_refuses_before_any_jet(monkeypatch):
    """A power beyond _MAX_DEGREE is refused by the plan and by the p-adic
    count before any jet or grid is built.  One at the limit is
    counted: x2 -> x2 + x1^1000 maps arcs one to one, so x1^1000 + x2 has
    the counts of x2."""
    def no_build(*args):
        raise AssertionError("built before the degree check")

    f = parse_poly("x1^%d + x2" % (arcs._MAX_DEGREE + 1))
    with monkeypatch.context() as m:
        for name in ("arc_value_coefficients", "_residue_grid"):
            m.setattr(arcs, name, no_build)
        with pytest.raises(ArcError, match="degree exceeds the limit of 1000"):
            CountPlan(PolySystem([f]), 2, None, [(1,)])
        with pytest.raises(ArcError, match="degree exceeds the limit of 1000"):
            padic_solution_counts(f, 2, 3)
    at_limit = PolySystem([parse_poly("x1^%d + x2" % arcs._MAX_DEGREE)])
    linear = PolySystem([parse_poly("x2", 2)])
    assert (CountPlan(at_limit, 3, None, order_indices(1, 3)).counts()
            == CountPlan(linear, 3, None, order_indices(1, 3)).counts())


def test_level_multisets_of_a_large_power():
    """x(t)^e up to t^2 has four level multisets for any e >= 2, and a level
    is taken only as often as the remaining factors leave room for."""
    e = 10 ** 5
    start = time.perf_counter()
    got = arcs._level_multisets(e, 0, 2)
    assert time.perf_counter() - start < 0.5
    zeros = (0,) * (e - 2)
    assert sorted(got) == [(0, zeros + (0, 0), 1), (1, zeros + (0, 1), e),
                           (2, zeros + (0, 2), e), (2, zeros + (1, 1), math.comb(e, 2))]


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

    def test_candidates_stay_within_chunk(self, monkeypatch):
        """The quadric-m3 partner at p = 2, k = 4 with _CHUNK = 2048: each
        block of candidates holds at most _CHUNK cells (m = 6 cells a
        candidate), so the peak stays within four blocks of _CHUNK int64
        cells above the peak at a 64-cell _CHUNK, where only the tables and
        the grid count (measured: 2.4 blocks).  Counting _CHUNK in
        candidates, not cells, held 9.7 blocks above it."""
        g = parse_poly("(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2"
                       " + (x3*x6 - x4*x5)^2")
        want = padic_solution_counts(g, 2, 4)
        peaks = []
        for chunk in (64, 2048):
            monkeypatch.setattr(arcs, "_CHUNK", chunk)
            tracemalloc.start()
            try:
                assert padic_solution_counts(g, 2, 4) == want
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4 * 8 * arcs._CHUNK
        assert want == [1, 40, 1408, 53248, 1638400]

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


# Closed forms after Igusa, An Introduction to the Theory of Local Zeta
# Functions (2000), ch. 10; the quadric and g forms hold for p odd only.
CLOSED_FORM_POLYS = {
    "det2": "x1*x4 - x2*x3",
    "det3": "x1*x5*x9 - x1*x6*x8 - x2*x4*x9 + x2*x6*x7 + x3*x4*x8 - x3*x5*x7",
    "quadric": "x1^2 + x2^2 + x3^2",
    "g": "(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2 + (x3*x6 - x4*x5)^2",
    "torus": "x1*x4 - x2*x3; x1*x6 - x2*x5; x3*x6 - x4*x5",
}


def closed_form(name, p, order):
    """{n: coefficient} for |n| <= order of the named zeta function at p:
    scalar * prod (1 - a T^N) / prod (1 - a T^N) over the numerator and
    denominator factors (a, N).

    det_n: prod_{i<=n} (1-p^-i)/(1-p^-i t).
    Ternary quadric: (1-p^-1)(1-p^-3 t) / ((1-p^-1 t)(1-p^-3 t^2)).
    g: (1-p^-1)(1-p^-2)(1-p^-3 t) / ((1-p^-1 t)(1-p^-2 t^2)(1-p^-3 t^2)).
    Torus partner: (1-p^-2) phi(T1) phi(T2) phi(T3) / (1 - p^-2 T1 T2 T3),
    phi(T) = (1-p^-1)/(1-p^-1 T)."""
    u = Fraction(1, p)
    scalar, numer, denom = {
        "det2": ((1 - u) * (1 - u ** 2), [], [(u, (1,)), (u ** 2, (1,))]),
        "det3": ((1 - u) * (1 - u ** 2) * (1 - u ** 3), [],
                 [(u, (1,)), (u ** 2, (1,)), (u ** 3, (1,))]),
        "quadric": (1 - u, [(u ** 3, (1,))], [(u, (1,)), (u ** 3, (2,))]),
        "g": ((1 - u) * (1 - u ** 2), [(u ** 3, (1,))],
              [(u, (1,)), (u ** 2, (2,)), (u ** 3, (2,))]),
        "torus": ((1 - u ** 2) * (1 - u) ** 3, [],
                  [(u, (1, 0, 0)), (u, (0, 1, 0)), (u, (0, 0, 1)), (u ** 2, (1, 1, 1))]),
    }[name]
    l = len(denom[0][1])
    out = {(0,) * l: scalar}
    factors = [{(0,) * l: 1, N: -a} for a, N in numer] + [
        {tuple(k * x for x in N): a ** k for k in range(order + 1)} for a, N in denom]
    for factor in factors:
        prod = {}
        for n, c in out.items():
            for m, d in factor.items():
                nm = tuple(map(sum, zip(n, m)))
                if sum(nm) <= order:
                    prod[nm] = prod.get(nm, 0) + c * d
        out = prod
    return out


@pytest.mark.parametrize("name, p, order", [
    ("det2", 2, 8), ("det2", 3, 8), ("det3", 2, 4), ("quadric", 3, 12),
    ("quadric", 5, 8), ("g", 3, 4)])
def test_igusa_matches_closed_form_at_depth(name, p, order):
    series = igusa_coeffs(parse_poly(CLOSED_FORM_POLYS[name]), p, order)
    want = closed_form(name, p, order)
    assert ([series.coefficient((n,)) for n in range(order + 1)]
            == [want[(n,)] for n in range(order + 1)])


@pytest.mark.parametrize("name, p, order", [
    ("det2", 2, 30), ("det2", 3, 18), ("det2", 7, 10), ("quadric", 3, 18),
    ("quadric", 5, 12), ("quadric", 7, 10)])
def test_lifter_admits_every_modulus_up_to_2_31(name, p, order):
    """igusa_coeffs lifts to order + 1, and the lifter forms no modulus
    above p^(order + 1): the largest order with p^(order + 1) <= 2^31 is
    admitted and exact, and the next one is refused."""
    f = parse_poly(CLOSED_FORM_POLYS[name])
    series = igusa_coeffs(f, p, order)
    want = closed_form(name, p, order)
    assert ([series.coefficient((n,)) for n in range(order + 1)]
            == [want[(n,)] for n in range(order + 1)])
    with pytest.raises(ArcError, match="modulus p\\^%d too large" % (order + 2)):
        igusa_coeffs(f, p, order + 1)


@pytest.mark.parametrize("name, q, order", [
    ("det2", 2, 8), ("det2", 3, 6), ("quadric", 3, 6), ("g", 3, 3),
    ("torus", 2, 7), ("torus", 3, 4)])
def test_any_leading_series_matches_closed_form_at_depth(name, q, order):
    """The any-leading counting series, orders 0 included, is q^r times the
    same closed form."""
    sys = PolySystem(parse_system(CLOSED_FORM_POLYS[name].split(";")))
    targets = order_indices(sys.l, order, low=0)
    series = CountPlan(sys, q, None, order).series("any")
    want = closed_form(name, q, order)
    assert ([series.coefficient(n) for n in targets]
            == [q ** sys.r * want[n] for n in targets])


def _rank_by_inverses(rows, q):
    """Rank mod the prime q by textbook elimination: each pivot row is
    scaled by pow(pivot, -1, q)."""
    rows, rank = [[x % q for x in row] for row in rows], 0
    for col in range(len(rows[0])):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("q", [2, 3, 5, 127, 65521])
def test_full_row_rank_matches_elimination_with_inverses(q):
    """Seeded: _full_row_rank, which scales rows by their pivots instead of
    inverting them, agrees with elimination by inverses on batches of k x c
    matrices up to 4 x 6, int8 (q <= 127) and int64, with zero rows,
    repeated rows and multiples of a row mixed in, and leaves its input as
    it was."""
    rng = random.Random(q)
    for k, c in itertools.product(range(1, 5), range(1, 7)):
        batch = []
        for _ in range(40):
            top = rng.choice([2, q])
            A = [[rng.randrange(min(top, q)) for _ in range(c)] for _ in range(k)]
            if k > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(k), 2)
                A[j] = rng.choice([[0] * c, list(A[i]),
                                   [rng.randrange(1, q) * x % q for x in A[i]]])
            batch.append(A)
        want = [_rank_by_inverses(A, q) == k for A in batch]
        for dtype in (np.int8, np.int64) if q <= 127 else (np.int64,):
            A = np.array(batch, dtype=dtype)
            before = A.copy()
            assert arcs._full_row_rank(A, q).tolist() == want, (k, c, dtype)
            assert A.dtype == dtype and (A == before).all()


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


def test_reduced_jets_are_the_jets_mod_q():
    """With a prime modulus q the jets are the integer jets reduced into
    [0, q), zero entries dropped; exponents q, 2q and q^2 and coefficients
    divisible by q exercise the pruning."""
    rng = random.Random(3571)
    for q in (2, 3, 5, 7):
        exps = (0, 1, 2, q, 2 * q, q * q)
        for _ in range(12):
            r, maxdeg, origin = rng.randint(1, 2), rng.randint(0, q + 3), rng.random() < 0.5
            f = Poly(r, {tuple(rng.choice(exps) for _ in range(r)):
                         rng.choice((1, -1, 2, q, -q, 3 * q, q + 1))
                         for _ in range(rng.randint(1, 4))})
            if f.is_zero():
                continue
            want = [{m: c % q for m, c in jet.items() if c % q}
                    for jet in arc_value_coefficients(f, maxdeg, origin)]
            assert arc_value_coefficients(f, maxdeg, origin, q) == want, \
                (str(f), q, maxdeg, origin)
        # (sum a_k t^k)^q = sum a_k^q t^(qk) mod q
        jets = arc_value_coefficients(Poly(1, {(q,): 1}), 2 * q + 1, False, q)
        assert jets == [{(d // q,) * q: 1} if d % q == 0 else {}
                        for d in range(2 * q + 2)]


def test_threads_below_one_are_refused():
    plan = CountPlan(PolySystem([parse_poly("x1*x2")]), 3, None, [(2,)])
    for threads in (0, -1):
        with pytest.raises(ArcError, match="threads must be >= 1"):
            plan.counts(threads)


@pytest.mark.parametrize("threads", ["2", 1.5, True, None])
def test_threads_are_read_as_an_integer(threads):
    """A thread count is an integer: "2" is no TypeError and 1.5 no count."""
    sys = PolySystem([parse_poly("x1^2 - x2^3")])
    with pytest.raises(ArcError, match="is not an integer"):
        count_arcs(sys, (2,), 3, threads=threads)
    assert (count_arcs(sys, (2,), 3, threads=np.int64(2))
            == count_arcs(sys, (2,), 3, threads=2.0) == count_arcs(sys, (2,), 3))


def test_threads_are_capped_at_the_cpu_count(monkeypatch):
    """10000 threads asked on a plan with rows to spare run os.cpu_count()
    workers over as many shards.  A fake executor records both and runs the
    shards in this thread."""
    seen = []

    class FakeExecutor:
        def __init__(self, max_workers):
            seen.append(("workers", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            shards = list(shards)
            seen.append(("shards", len(shards)))
            return map(fn, shards)

    monkeypatch.setattr(arcs, "ThreadPoolExecutor", FakeExecutor)
    monkeypatch.setattr(arcs.os, "cpu_count", lambda: 3)
    sys = PolySystem([parse_poly("x1^2 - x2^3")])
    targets = order_indices(1, 6, low=0)
    want = CountPlan(sys, 5, None, targets).counts(1)
    assert seen == []  # one thread sweeps in place, with no executor
    assert CountPlan(sys, 5, None, targets).counts(10000) == want
    assert seen == [("workers", 3), ("shards", 3)]


@pytest.mark.parametrize("polys,q,order", [
    (("x1^2 - x2^3",), 2, 10),
    (("x1*x4 - x2*x3", "x1*x6 - x2*x5"), 2, 3),
])
def test_small_chunks_give_the_same_counts(monkeypatch, polys, q, order):
    """With _CHUNK at 64 cells every chunked loop takes many steps, and each
    chunk goes to the next level as it is, so more chunks are settled than
    at the default size; no count changes."""
    sys = PolySystem(parse_system(list(polys)))
    targets = order_indices(sys.l, order)
    settled = []

    def settle(self, code, one, v, k, _real=CountPlan._settle):
        settled.append(len(code))
        return _real(self, code, one, v, k)

    monkeypatch.setattr(CountPlan, "_settle", settle)
    want = CountPlan(sys, q, None, targets).counts()
    whole = len(settled)
    monkeypatch.setattr(arcs, "_CHUNK", 64)
    assert CountPlan(sys, q, None, targets).counts() == want
    assert len(settled) - whole > whole


def test_sweep_holds_about_one_chunk_per_level(monkeypatch):
    """det2 from the origin to order 4 at q = 5 with _CHUNK = 4096: each
    expanded chunk goes straight to the next level, so the sweep's peak is
    about 14 int64 chunks (8 _CHUNK bytes each); regrouping chunks into
    _CHUNK-row batches held twice that (measured: 14.4 and 28.5)."""
    monkeypatch.setattr(arcs, "_CHUNK", 1 << 12)
    plan = CountPlan(PolySystem(parse_system(["x1*x4 - x2*x3"])), 5,
                     ArcConstraint.origin(), [(4,)])
    tracemalloc.start()
    try:
        counts = plan.counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 8 * arcs._CHUNK
    assert counts == {(4,): (1453125000, 5812500000)}


@pytest.mark.parametrize("polys,q,constraint,targets", [
    (("x1*x4 - x2*x3",), 3, ArcConstraint.origin(), [(5,)]),
    (("x1*x4 - x2*x3", "x1*x6 - x2*x5", "x3*x6 - x4*x5"), 2, None, 4),
])
def test_every_expanded_block_holds_at_most_chunk_cells(monkeypatch, polys, q,
                                                        constraint, targets):
    """With _CHUNK = 4096 every block _expand yields holds at most
    max(_CHUNK, q^r (w + r)) cells, w + r its width: one row of a level's
    expansion is q^r (w + r) cells.  Counting _CHUNK in rows, each block
    held up to w + r times _CHUNK cells.  No count changes."""
    sys = PolySystem(parse_system(list(polys)))
    want = CountPlan(sys, q, constraint, targets).counts()
    blocks = []

    def expand(self, rows, width, _real=CountPlan._expand):
        for got in _real(self, rows, width):
            blocks.append(got[0].shape)
            yield got

    monkeypatch.setattr(CountPlan, "_expand", expand)
    monkeypatch.setattr(arcs, "_CHUNK", 1 << 12)
    assert CountPlan(sys, q, constraint, targets).counts() == want
    M = q ** sys.r
    assert max(n for n, w in blocks) > M  # several rows expanded per block
    assert all(n * w <= max(arcs._CHUNK, M * w) for n, w in blocks)


def test_record_matches_a_counter_tally():
    """_record against a plain per-row tally, on both sides, with weights
    past 2^63 that only Python ints carry."""
    rng = random.Random(63)
    for trial in range(25):
        n = rng.randint(0, 400)
        codes = np.array([rng.randrange(rng.choice((1, 7, 300))) for _ in range(n)],
                         dtype=np.int64)
        one = np.array([rng.random() < 0.4 for _ in range(n)], dtype=bool)
        w_one, w_any = rng.choice((1, 3, 2 ** 64 + 5)), 2 ** 63 + trial
        rec, want = Counter({(2, 0, 0): 9}), Counter({(2, 0, 0): 9})
        arcs._record(rec, 2, codes, one, w_one, w_any)
        for c, o in zip(codes.tolist(), one.tolist()):
            want[2, c, 1] += w_any
            if o:
                want[2, c, 0] += w_one
        assert rec == want, trial
        assert all(type(c) is int and type(v) is int for (_, c, _), v in rec.items())


def test_expand_pairs_every_row_with_every_digit_tuple(monkeypatch):
    """Two levels enumerated in chunks of one row: each row is followed by
    every pair of digit tuples once, in itertools.product order, with its
    start, code and flag repeated alongside."""
    monkeypatch.setattr(arcs, "_CHUNK", 16)
    plan = CountPlan(PolySystem([parse_poly("x1^2 - x2^3")]), 3, None, [(2,)])
    plan._prepare()
    rng = random.Random(9)
    X = np.array([[rng.randrange(3) for _ in range(2)] for _ in range(5)],
                 dtype=plan.dtype)
    a0, code = np.array([4, 0, 8, 2, 6]), np.array([1, 3, 0, 2, 1], dtype=np.int64)
    one = np.array([True, False, True, True, False])
    batches = list(plan._expand((X, a0, code, one), 3))
    assert len(batches) == 5 * 9 and all(len(b[1]) == 9 for b in batches)
    got = [np.concatenate(p) for p in zip(*batches)]
    assert got[0].dtype == plan.dtype
    digits = list(itertools.product(range(3), repeat=2))
    assert got[0].tolist() == [list(x) + list(d1) + list(d2) for x in X.tolist()
                               for d1 in digits for d2 in digits]
    for have, col in zip(got[1:], (a0, code, one)):
        assert have.tolist() == [v for v in col.tolist() for _ in range(81)]


@pytest.mark.parametrize("mod", (2, 3, 2 ** 31 - 1))
def test_compiled_bound_is_the_largest_absolute_column_sum(mod):
    """The bound that keeps _eval_poly_mod within int64 is exactly the
    largest absolute column sum of the reduced coefficient matrix, on
    negative and 40-digit coefficients, constant-only and empty polynomials."""
    rng = random.Random(mod)
    tables = [[], [{}], [{(): -7}], [{(): 10 ** 39 + 1}, {}], [{}, {(0, 1): -(10 ** 39)}]]
    for _ in range(40):
        polys = [random_terms(rng, rng.randint(1, 6), rng.randint(0, 5), rng.randint(0, 8))
                 for _ in range(rng.randint(1, 4))]
        for f in polys:
            for m in list(f)[::2]:
                f[m] = rng.choice((-1, 1)) * rng.randrange(10 ** 39, 10 ** 40)
        tables.append(polys)
    for polys in tables:
        _slots, C, _const, csum = _SlotTable(polys).compiled(mod)
        assert type(csum) is int
        assert csum == int(np.abs(C).sum(axis=0).max(initial=0)), polys
