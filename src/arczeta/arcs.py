"""Truncated-arc counting over prime fields by one level sweep per plan.

An arc of length N over F_q is an r-tuple of polynomials in t of degree <= N.
A CountPlan is built once per (system, q, constraint, order or order indices)
and one sweep over the arc levels yields, for every index n, the number of
arcs with ord_t f_i = n_i, with leading coefficients 1 and with any nonzero
leading coefficients.  Prefixes that start at a smooth point of the open
f_i are settled in closed form (Hensel), prefixes that cannot reach any
requested index are dropped, and only the rest are enumerated; see
CountPlan for the rules.  Smoothness is decided per start from gradient bits,
with one rank elimination per open-set size for the open sets a live start
can carry; level tables are built only if a prefix survives level 1.

A plan is compiled once into integer data.  Its symbolic jets are taken mod q
(x(t)^q = sum a_k^q t^(qk) there, so they read few levels) and written in
monomial form: the arc variable of level k and coordinate j has id k*r + j,
which is also its column in the sweep's row arrays, and a monomial is the
sorted tuple of the ids of its variables, a power repeating the id.  Splitting
a coefficient by level only filters these tuples.  Polynomials compile into
slot tables (_SlotTable): slot i holds the i-th column id of every monomial of
degree > i, and the coefficients form a matrix.  One kernel, _eval_poly_mod,
evaluates a table at a block of rows with one gather and one multiply per slot;
it reduces mod `mod` only when its running bound on the products, (mod-1)^s
after s slots and at most T max|coef| times that in the final sum, could pass
2^62.  Each row carries the code of its orders; liveness, the open set and the
targets a code can end at come from one pass over the targets' paths of codes
(CountPlan._paths).  Every block of rows built here holds at most _CHUNK
cells, or one row if a row is larger (_batches).

Also here: p-adic solution counting by stationary-phase lifting (Hensel at
smooth zeros), the local zeta series of f at a prime, with f and its gradient
evaluated by the same kernel and admitted as a plan is (_admit).  Every limit
bounds a power and is compared through its exponent (_beyond).
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, isqrt

import numpy as np

from .motive import _Frozen, _index, _integer
from .polynomials import Poly
from .series import TruncatedSeries

_CHUNK = 1 << 21
# Largest residue grid (q^r rows x r int64 cells) a plan or p-adic count builds.
_MAX_GRID_CELLS = 1 << 26
# Largest polynomial degree counted: a monomial repeats a variable's id once
# per power, and the kernel gathers once per repeat.
_MAX_DEGREE = 1000


class ArcError(ValueError):
    pass


class BudgetExceeded(Exception):
    pass


def is_prime(q):
    return q >= 2 and all(q % i for i in range(2, isqrt(q) + 1))


def _beyond(base, exp, limit):
    """base^exp > limit (exp >= 0): False for base < 2; True once exp >=
    limit.bit_length(), as base^exp >= 2^exp > limit; else the exact power."""
    return base >= 2 and (exp >= limit.bit_length() or base ** exp > limit)


def _admit(q, r, degree, name):
    """Refuse before any work, cheapest first: a q^r x r grid beyond
    _MAX_GRID_CELLS, a degree beyond _MAX_DEGREE, then a q that is not prime
    (q < 2, or at most sqrt(_MAX_GRID_CELLS) trial divisions once the grid
    fits); no refusal builds or prints the power it bounds."""
    if _beyond(q, r, _MAX_GRID_CELLS // r):
        raise ArcError("residue grid of %d^%d rows x %d cells exceeds the "
                       "limit of %d" % (q, r, r, _MAX_GRID_CELLS))
    if degree > _MAX_DEGREE:
        raise ArcError("polynomial degree exceeds the limit of %d" % _MAX_DEGREE)
    if not is_prime(q):
        raise ArcError(name + " must be prime (prime-power fields are not implemented)")


def _batches(n, cells_per_row):
    """Slices of range(n) of at most _CHUNK cells each, one row at least."""
    per = max(1, _CHUNK // cells_per_row)
    return (slice(lo, lo + per) for lo in range(0, n, per))


def _residue_grid(q, r, dtype=int):
    """The rows [0, q)^r in itertools.product order, as a transposed view."""
    return np.indices((q,) * r, dtype=dtype).reshape(r, q ** r).T


class PolySystem(_Frozen):
    """One or more nonzero integer polynomials on a common affine space."""

    __slots__ = ("r", "polys", "degrees", "homogeneous")

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise ArcError("need at least one polynomial")
        if not all(isinstance(f, Poly) for f in polys):
            raise ArcError("PolySystem takes Poly values")
        r = polys[0].nvars
        for f in polys:
            if f.nvars != r:
                raise ArcError("polynomials live on different spaces")
            if f.is_zero():
                raise ArcError("zero polynomial in system")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "degrees", [f.degree() for f in polys])
        object.__setattr__(self, "homogeneous", [f.is_homogeneous() for f in polys])

    @property
    def l(self):
        return len(self.polys)


@dataclass(frozen=True)
class ArcConstraint:
    """Where the arc is allowed to start: anywhere, at the origin, or at a
    matrix of full rank (the ambient space read as an m x r_mat matrix,
    row-major)."""

    kind: str
    m: int = 0
    r_mat: int = 0

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def origin(cls):
        return cls("origin")

    @classmethod
    def full_rank(cls, m, r_mat):
        m, r_mat = _integer(m, ArcError), _integer(r_mat, ArcError)
        if m < 1 or r_mat < 1 or r_mat > m:
            raise ArcError("full rank needs 1 <= r_mat <= m")
        return cls("full_rank", m, r_mat)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text == "none":
            return cls.none()
        if text == "origin":
            return cls.origin()
        if text.startswith("full-rank:"):
            parts = text[len("full-rank:"):].split(",")
            if len(parts) != 2:
                raise ArcError("expected full-rank:m,r")
            return cls.full_rank(int(parts[0]), int(parts[1]))
        raise ArcError("unknown constraint %r" % text)


# ---------------------------------------------------------------------------
# Symbolic coefficients of f(arc) as polynomials in the arc coefficients
# ---------------------------------------------------------------------------
# Arc variable (level k, coordinate j) gets the integer id k*r + j, which is
# also its column in the row arrays of the sweep.  A monomial is the sorted
# tuple of the ids of its variables, a power repeating the id (a_{0,0}^2
# a_{1,1} is (0, 0, r + 1)); a polynomial is a dict monomial -> coefficient.


def _monomials(poly):
    """The terms of a Poly in monomial form (variable x_(j+1) has id j)."""
    return {tuple(j for j, e in enumerate(mono) for _ in range(e)): c
            for mono, c in poly.terms.items()}


def _partial(terms, j):
    """d/dx_j of a polynomial in monomial form."""
    out = {}
    for mono, c in terms.items():
        e = mono.count(j)
        if e:
            i = mono.index(j)
            out[mono[:i] + mono[i + 1:]] = c * e
    return out


def _level_multisets(e, lo, maxdeg, mod=None):
    """The terms of x(t)^e = (sum_{k>=lo} a_k t^k)^e up to t^maxdeg, each
    once: (degree, levels, multinomial coefficient) for every nondecreasing
    e-tuple of levels >= lo with sum <= maxdeg; with a modulus, a branch
    whose coefficient is 0 mod `mod` is dropped with all its completions."""
    out = []

    def extend(levels, start, left, budget, coef):
        if not left:
            out.append((maxdeg - budget, levels, coef))
            return
        for k in range(start, budget // left + 1):
            # level k taken m times; the other left - m factors need levels > k
            for m in range(max(1, (k + 1) * left - budget), left + 1):
                c = coef * comb(left, m)
                if not mod or c % mod:
                    extend(levels + (k,) * m, k + 1, left - m, budget - k * m, c)

    extend((), lo, e, maxdeg, 1)
    return out


def arc_value_coefficients(poly, maxdeg, origin, mod=None):
    """Coefficients of t^0..t^maxdeg of poly(a_0 + a_1 t + ...), each a
    polynomial in the arc variables in monomial form; origin=True
    substitutes a_0 = 0.  With a prime modulus every coefficient is reduced
    into [0, mod) and the monomials that are 0 mod `mod` are dropped.

    x_j(t)^e is enumerated by the multisets of its levels, so each monomial
    is produced once and sorted once: its sorted ids k*r + j fix the term of
    poly and every variable's level multiset, and a product of residues that
    are nonzero mod a prime is nonzero.  Mod a prime q, most multisets of
    x_j(t)^q have a multinomial coefficient divisible by q and are never
    produced ((sum a_k t^k)^q = sum a_k^q t^(qk) mod q)."""
    r = poly.nvars
    lo = 1 if origin else 0
    powers = {}  # (j, e) -> the terms of x_j(t)^e
    out = [{} for _ in range(maxdeg + 1)]
    for mono, c in poly.terms.items():
        parts = [((), 0, c)] if not mod or c % mod else []  # (ids, degree, coef)
        for j, e in enumerate(mono):
            if not e:
                continue
            if (j, e) not in powers:
                powers[j, e] = [(d, tuple(k * r + j for k in ks), m)
                                for d, ks, m in _level_multisets(e, lo, maxdeg, mod)]
            parts = [(ids + more, deg + d, coef * m)
                     for ids, deg, coef in parts
                     for d, more, m in powers[j, e] if deg + d <= maxdeg]
        for ids, deg, coef in parts:
            out[deg][tuple(sorted(ids))] = coef % mod if mod else coef
    return out


# ---------------------------------------------------------------------------
# Vectorized evaluation mod q
# ---------------------------------------------------------------------------
# _eval_poly_mod keeps its products and sums within 2^62, which leaves room in
# int64 for the constant terms.
_EXACT = 1 << 62


def _full_row_rank(A, q):
    """True where the k x c matrix A[n] has rank k mod the prime q, by
    Gaussian elimination on all the matrices at once.  Row j is replaced by
    piv * row j - A[j, col] * row i: the pivot is a unit, so the rank stays
    and no inverse is needed, and entries in [0, q) keep products below q^2."""
    A = A.astype(np.int64) % q
    rows = np.arange(len(A))
    ok = np.ones(len(A), dtype=bool)
    for i in range(A.shape[1]):
        col = (A[:, i] != 0).argmax(axis=1)
        piv = A[rows, i, col]
        ok &= piv != 0
        for j in range(i + 1, A.shape[1]):
            A[:, j] = (piv[:, None] * A[:, j] - A[rows, j, col][:, None] * A[:, i]) % q
    return ok


class _SlotTable:
    """Polynomials f_1..f_p in monomial form, compiled on first use into
    integer arrays for _eval_poly_mod.

    The T distinct nonconstant monomials are sorted by degree, longest
    first; slot i holds the i-th variable id of every monomial of degree
    > i, a prefix of the monomials.  Coefficients become a T x p matrix,
    reduced into [-mod/2, mod/2) once per modulus."""

    __slots__ = ("polys", "_slots", "_row", "_coefs")

    def __init__(self, polys):
        self.polys = list(polys)
        self._slots = None
        self._coefs = {}

    def compiled(self, mod):
        """(slots, coefficient matrix, constants, largest absolute column
        sum of the matrix) mod `mod`; the column sums are taken in the loop
        that fills the matrix."""
        if self._slots is None:
            monos = sorted({m for f in self.polys for m in f if m}, key=len,
                           reverse=True)
            self._row = {m: t for t, m in enumerate(monos)}
            self._slots = [np.array([m[i] for m in monos if len(m) > i], dtype=np.intp)
                           for i in range(len(monos[0]) if monos else 0)]
        got = self._coefs.get(mod)
        if got is None:
            half, csum = mod // 2, 0
            C = np.zeros((len(self._row), len(self.polys)), dtype=np.int64)
            const = np.zeros(len(self.polys), dtype=np.int64)
            for j, f in enumerate(self.polys):
                col = 0
                for m, c in f.items():
                    c = (c + half) % mod - half
                    if m:
                        C[self._row[m], j] = c
                        col += abs(c)
                    else:
                        const[j] = c
                csum = max(csum, col)
            got = self._coefs[mod] = (self._slots, C, const, csum)
        return got


def _eval_poly_mod(table, X, mod):
    """The polynomials of a _SlotTable at the rows of X, reduced mod `mod`,
    as a rows x p int64 array.  Exact for entries of X in [0, mod) of any
    integer dtype and mod <= 2^31 (guarded by the callers).

    Per slot one gather of columns and one multiply; a running bound on the
    products, (mod-1)^s after s slots, triggers a reduction mod `mod` only
    where the next product or the sum against the coefficients (bound times
    the largest absolute column sum, at most T max|coef|) could pass 2^62.
    Rows go in _batches of T cells a row (P is rows x T)."""
    slots, C, const, csum = table.compiled(mod)
    out = np.empty((len(X), len(const)), dtype=np.int64)
    if not slots:
        out[:] = const % mod
        return out
    for s in _batches(len(X), len(C)):
        Xc = X[s]
        P = Xc[:, slots[0]].astype(np.int64)
        bound = mod - 1
        for cols in slots[1:]:
            if bound * (mod - 1) > _EXACT:
                P %= mod
                bound = mod - 1
            P[:, :len(cols)] *= Xc[:, cols]
            bound *= mod - 1
        if bound * csum > _EXACT:
            P %= mod
            bound = mod - 1
        if bound * csum > _EXACT:  # only for huge moduli: reduce each product
            out[s] = np.stack([(P * C[:, j] % mod).sum(axis=1)
                               for j in range(len(const))], axis=1)
        else:
            out[s] = P @ C
    out += const
    out %= mod
    return out


# ---------------------------------------------------------------------------
# The counting plan
# ---------------------------------------------------------------------------


def order_indices(l, n_max, low=1):
    """Every order multi-index n with all n_i >= low and |n| <= n_max, sorted."""
    return [(a,) + rest for a in range(low, n_max - low * (l - 1) + 1)
            for rest in order_indices(l - 1, n_max - a, low)] if l else [()]


def _level_split(terms, h, r):
    """[c0, w_0, .., w_(r-1)] with terms = c0 + sum_j w_j a_{h,j} once the
    monomials reading levels above h are dropped, c0 and the w_j reading
    levels 0..h-1 only; None if the terms are not affine in level h."""
    lo, hi = h * r, (h + 1) * r
    parts = [{} for _ in range(r + 1)]
    for mono, c in terms.items():
        top = mono[-1] if mono else -1
        if top >= hi:
            continue
        if top < lo:
            parts[0][mono] = c
        elif len(mono) > 1 and mono[-2] >= lo:
            return None
        else:
            parts[top - lo + 1][mono[:-1]] = c
    return parts


class CountPlan:
    """Exact arc counts for a set of order multi-indices from one level sweep.

    At level k the sweep holds the arc prefixes on which some f_i (the open
    set U) vanish to order >= k.  For k >= 1 the t^k coefficient of f_i is
    g_ik(a_0..a_{k-1}) + J_i(a_0).a_k, J the Jacobian.  A prefix whose
    J_U(a_0) has rank |U| is settled in closed form (Hensel).  A flat one,
    J_U(a_0) = 0, never reads a_k, so its t^k coefficients are evaluated
    before level k is enumerated; any other prefix gets a_k enumerated.
    Both tests come from per-start gradient bits, and ranks for |U| >= 2
    only where a live start can carry U, one elimination per size |U|
    (_start_bits); the level tables (_levels) are built only if a prefix
    survives level 1.
    Prefixes that can no longer reach a target are dropped.  Counts come in
    pairs: every leading coefficient 1, and any nonzero leading coefficients.

    The jets are reduced mod q, so no level read only through multiples of
    q is carried.  A row is (levels, start index, code, leading-one flag),
    code = sum_i (ord f_i + 1) (depth+2)^i, digit 0 for an open f_i; every
    per-row question is a gather from the code tables (see _paths).

    The targets are a list of indices, or an int N for every n with all
    n_i >= min_order and |n| <= N (order_indices), the only plans with a
    series.  Construction refuses the grid, the degree and q (_admit) before
    any target is read; then reads every listed target (_index: l integers
    n_i >= min_order) and refuses, from the depth alone, q^exponent rows
    over a given budget (BudgetExceeded), then more than _MAX_GRID_CELLS
    codes, before an order's targets are listed or a list is sorted and
    before any grid or jet is built; count and series check only leading.
    """

    def __init__(self, sys, q, constraint=None, targets=(), min_order=0,
                 budget=None):
        self.constraint = constraint = constraint or ArcConstraint.none()
        if constraint.kind == "full_rank" and sys.r != constraint.m * constraint.r_mat:
            raise ArcError("full rank needs ambient dimension m*r_mat = %d"
                           % (constraint.m * constraint.r_mat))
        _admit(q, sys.r, max(sys.degrees), "q")
        self.sys, self.q, self.r = sys, q, sys.r
        self.order = targets if isinstance(targets, int) else None
        if self.order is None:
            raw = [_index(n, sys.l, ArcError, min_order) for n in targets]
            self.depth = max(chain.from_iterable(raw), default=0)
        else:  # the largest n_i of an index with the others at min_order
            top = targets - min_order * (sys.l - 1)
            self.depth = top if top >= min_order else 0
        self.origin = constraint.kind == "origin"
        # q^r rows charged per level below the deepest, with no credit for pruning
        self.exponent = sys.r * (max(self.depth, 1) - self.origin)
        if budget is not None and _beyond(q, self.exponent, budget):
            raise BudgetExceeded("estimated %d^%d candidate rows exceeds budget %d"
                                 % (q, self.exponent, budget))
        if _beyond(self.depth + 2, sys.l, _MAX_GRID_CELLS):
            raise ArcError("code table of %d^%d entries exceeds the limit of %d"
                           % (self.depth + 2, sys.l, _MAX_GRID_CELLS))
        self.targets = (sorted(set(raw)) if self.order is None
                        else order_indices(sys.l, targets, min_order))
        self._base = (self.depth + 2) ** np.arange(sys.l)
        self._dist = None

    def count(self, n, leading="any", threads=1):
        """The count at the target n, leading 'one' or 'any'."""
        side, n = self._side(leading), _index(n, self.sys.l, ArcError)
        if n not in self.targets:
            raise ArcError("order multi-index %s is not a target of this plan"
                           % (n,))
        return self.counts(threads)[n][side]

    def counts(self, threads=1):
        """{n: (leading-one count, any-leading count)} for every target; at
        most os.cpu_count() threads run, and the counts never depend on how
        many."""
        if threads < 1:
            raise ArcError("threads must be >= 1, got %d" % threads)
        if self._dist is None:
            self._dist = self._assemble(self._sweep(threads))
        return self._dist

    def series(self, leading, threads=1):
        """Truncated zeta series to the plan's order: the T^n coefficient is
        count(n) q^(-|n| r).  Only a plan built for an order has one, since an
        index missing from a list would read as a zero coefficient."""
        side = self._side(leading)
        if self.order is None:
            raise ArcError("a series needs a plan built for an order, not an "
                           "index list")
        coeffs = {n: Fraction(c[side], self.q ** (sum(n) * self.r))
                  for n, c in self.counts(threads).items() if c[side]}
        return TruncatedSeries(self.sys.l, self.order, coeffs)

    def _side(self, leading):
        """0 for leading 'one', 1 for 'any': the index into a count pair."""
        if leading not in ("one", "any"):
            raise ArcError("leading must be 'one' or 'any'")
        if leading == "one" and self.sys.l != 1:
            raise ArcError("leading-coefficient-one counts exist only for one polynomial")
        return leading == "any"

    # -- the sweep --------------------------------------------------------

    def _prepare(self):
        """The starts, the level digits and the level-0 values."""
        q, r = self.q, self.r
        self.dtype = np.int8 if q <= 127 else np.int64
        self.digits = _residue_grid(q, r, self.dtype)
        start = np.zeros((1, r), dtype=self.dtype) if self.origin else self.digits
        if self.constraint.kind == "full_rank":
            m, r_mat = self.constraint.m, self.constraint.r_mat
            start = start[_full_row_rank(
                start.reshape(-1, m, r_mat).transpose(0, 2, 1), q)]
        self.start = start
        return _eval_poly_mod(_SlotTable([arc_value_coefficients(f, 0, self.origin, q)[0]
                                          for f in self.sys.polys]), start, q)

    def _levels(self):
        """Per level k >= 1: the t^k coefficients (c); the levels 0..need[k]-1
        they read besides a_k; without their a_k terms (g, all a flat prefix
        needs); and, per f_i, split at the top level h of those into c0 and
        the w_j (None where not affine in it), with lone[k][U] true for the
        open sets U = {f_i} of an affine f_i.  Tables compile on first use."""
        q, r = self.q, self.r
        jets = [arc_value_coefficients(f, self.depth, self.origin, q) for f in self.sys.polys]
        self.c, self.need, self.g, self.split, self.lone = [None], [None], [None], [None], [None]
        for k in range(1, self.depth + 1):
            self.c.append(_SlotTable([jet[k] for jet in jets]))
            self.need.append(1 + max([v // r for jet in jets for mono in jet[k]
                                      for v in mono if v < k * r], default=0))
            self.g.append(_SlotTable([_level_split(jet[k], k, r)[0] for jet in jets]))
            parts = [_level_split(jet[k], max(self.need[k] - 1, 1), r) for jet in jets]
            self.split.append([p and (_SlotTable(p[:1]), _SlotTable(p[1:]))
                               for p in parts])
            self.lone.append(np.zeros(1 << self.sys.l, dtype=bool))
            self.lone[k][[1 << i for i, p in enumerate(parts) if p is not None]] = True

    def _sweep(self, threads):
        """{(level, code, side): prefixes} of every settled prefix.  Each
        chunk a level yields goes straight to the next level, so a sweep
        holds about one chunk per level.  One thread sweeps its rows in
        place; more split them into as many shards, each swept into a
        Counter of its own on a thread pool."""
        rec = Counter()
        if not self.targets:
            return rec
        self._paths()
        v0 = self._prepare()
        code, one, u = self._settle(np.zeros(len(v0), dtype=np.int64),
                                    np.ones(len(v0), dtype=bool), v0, 0)
        self._start_bits(code)
        keep = self._classify(code, one, u, np.arange(len(v0)), 1, 1, rec)
        if not keep.any():
            return rec
        self._levels()  # before any shard starts: threads only read the plan
        chunks = [(self.start[keep], np.flatnonzero(keep), code[keep], one[keep])]
        # one thread per CPU at most; shard once there is a row per thread
        k0, threads = 1, min(threads, os.cpu_count() or 1)
        while 0 < sum(len(c[1]) for c in chunks) < threads and k0 <= self.depth:
            chunks = list(self._step(chunks, k0, rec))
            k0 += 1

        def run(chunks, part):
            for k in range(k0, self.depth + 1):
                chunks = self._step(chunks, k, part)
            for _ in chunks:
                pass
            return part

        if threads == 1:
            return run(chunks, rec)
        shards = [[tuple(a[s] for a in c) for c in chunks] for s in zip(*[
            np.array_split(np.arange(len(c[1])), threads) for c in chunks])]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            for part in ex.map(lambda shard: run(shard, Counter()), shards or [[]]):
                rec.update(part)
        return rec

    def _paths(self):
        """The code tables from one pass over the targets.  A prefix of length k
        with code c can end at the target n exactly when c has digit n_i + 1
        for n_i < k and 0 for n_i >= k: n's path passes one code per k in
        {0} u {n_i + 1}, the open set U losing the f_i in increasing n_i.  Per
        path code c, through[c] lists (n, least n_i over U or depth+1 for U
        empty, sum of n_i over U, |U|) per target whose path passes c; reach[c]
        is the largest such least n_i, the deepest level at which a prefix can
        still reach a target (-1 off every path), and open[c] the bits of U.
        ranked holds the open sets U of two or more f_i that a path passes at
        a level k >= 1."""
        l, b = self.sys.l, self.depth + 2
        digits = list(zip(self._base.tolist(), [1 << i for i in range(l)]))
        self.through, self.ranked = {}, set()
        self.reach = np.full(b ** l, -1, dtype=np.min_scalar_type(-b))
        self.open = np.zeros(b ** l, dtype=np.min_scalar_type((1 << l) - 1))
        for n in self.targets:
            code, u, total, size, last = 0, (1 << l) - 1, sum(n), l, None
            for low, (step, bit) in sorted(zip(n, digits)) + [(self.depth + 1, (0, 0))]:
                if low != last:
                    self.through.setdefault(code, []).append((n, low, total, size))
                    self.reach[code], self.open[code] = max(self.reach[code], low), u
                    if low and size >= 2:
                        self.ranked.add(u)
                    last = low
                code, u, total, size = code + (low + 1) * step, u ^ bit, total - low, size - 1
        self._adds = (np.arange(1 << l)[:, None] >> np.arange(l) & 1) @ self._base
        self._ending = np.bincount(self.reach[self.reach >= 0], minlength=b) > 0

    def _start_bits(self, codes):
        """Bit i of nz[a_0] says grad f_i(a_0) != 0 mod q; full[U][a_0] says
        J_U(a_0) has rank |U| mod q, for each U in ranked within the start's
        level-0 open set (open sets only shrink along a path).  The Jacobian
        is evaluated at live starts with U(a_0) nonempty only, in _batches of
        l r cells a start, and the J_U of one size |U| go through one
        elimination."""
        q, r, l = self.q, self.r, self.sys.l
        jac = _SlotTable([_partial(f, j) for f in map(_monomials, self.sys.polys)
                          for j in range(r)])
        us, sizes = np.array(sorted(self.ranked), dtype=np.int64), {}
        for i, u in enumerate(us.tolist()):  # |U| -> [(index of U, the f_i in U)]
            sizes.setdefault(u.bit_count(), []).append((i, [j for j in range(l)
                                                            if u >> j & 1]))
        self.nz, full = np.zeros(len(codes), np.int64), np.zeros((len(us), len(codes)), bool)
        self.full = dict(zip(us.tolist(), full))  # rows of one array
        cand = np.flatnonzero((self.reach[codes] >= 1) & (codes != self._base.sum()))
        for a0 in (cand[s] for s in _batches(len(cand), l * r)):
            J = _eval_poly_mod(jac, self.start[a0], q).reshape(len(a0), l, r)
            self.nz[a0] = _bits(J.any(axis=2))
            u0 = self.open[codes[a0]]
            for group in sizes.values():
                ids, fs = map(np.array, zip(*group))
                which, at = np.nonzero((u0 & us[ids, None]) == us[ids, None])
                full[ids[which], a0[at]] = _full_row_rank(J[at[:, None], fs[which]], q)

    def _expand(self, rows, width):
        """The rows with the levels below `width` enumerated: a level adds
        the r columns of the next level, each row followed by every digit
        tuple in itertools.product order with its start, code and flag
        repeated.  One level of n rows of width w is one broadcast into an
        n x q^r x (w + r) array, its rows taken in _batches of q^r (w + r)
        cells, so a chunk holds at most max(_CHUNK, q^r (w + r)) cells."""
        X, a0, code, one = rows
        M, r = self.digits.shape
        if X.shape[1] >= width * r:
            yield rows
            return
        for s in _batches(len(X), M * (X.shape[1] + r)):
            n, w = X[s].shape
            Y = np.empty((n, M, w + r), dtype=X.dtype)
            Y[:, :, :w] = X[s, None]
            Y[:, :, w:] = self.digits
            yield from self._expand((Y.reshape(n * M, w + r), np.repeat(a0[s], M),
                                     np.repeat(code[s], M), np.repeat(one[s], M)), width)

    def _step(self, chunks, k, rec):
        """Settle the t^k coefficients of the prefixes of length k in each of
        the chunks (rows of one width); yields, chunk by chunk, the prefixes
        of length k+1 that stay open.

        A flat prefix carries only the levels its coefficients have read so
        far (a level it skips is free: q^r ways); any other prefix carries
        all its levels and gets a_k enumerated here.  A flat prefix whose one
        open f_i must end at order k, with a t^k coefficient affine in the
        top level h it reads and no level from h on enumerated, is counted in
        closed form."""
        q, r, need = self.q, self.r, self.need[k]
        h = max(need - 1, 1)
        affine = [i for i, sp in enumerate(self.split[k]) if sp is not None]
        for rows in chunks:
            X, a0, code, one = rows
            u = self.open[code]
            flat = (self.nz[a0] & u) == 0
            ends = None
            if self._ending[k] and X.shape[1] // r <= h:  # one open f_i, affine
                ends = flat & (self.reach[code] == k) & self.lone[k][u]
                if not ends.any():
                    ends = None
            for i in affine if ends is not None else ():
                c0_table, w_table = self.split[k][i]
                for Xs, _a, c, o1 in self._expand(tuple(a[ends & (u == 1 << i)]
                                                        for a in rows), h):
                    c0 = _eval_poly_mod(c0_table, Xs, q)[:, 0]
                    wnz = _eval_poly_mod(w_table, Xs, q).any(axis=1)
                    c = c + (k + 1) * self._base[i]
                    w = q ** (r * (k - h) + r - 1)
                    _record(rec, k + 1, c[wnz], o1[wnz], w, w * (q - 1))
                    hit = ~wnz & (c0 != 0)
                    _record(rec, k + 1, c[hit], (o1 & (c0 == 1))[hit], w * q, w * q)
            # the rest read levels 0..need-1 (flat) or 0..k (any other), which
            # an expansion to that width enumerates where not yet carried
            rest = (flat, ~flat) if ends is None else (~ends & flat, ~ends & ~flat)
            for sel, w in zip(rest, (need, k + 1)):
                for part in _take(rows, sel):
                    for X, a0, code, one in self._expand(part, w):
                        width = X.shape[1] // r
                        v = _eval_poly_mod(self.g[k] if width <= k else self.c[k], X, q)
                        code, one, u = self._settle(code, one, v, k)
                        keep = self._classify(code, one, u, a0, k + 1,
                                              q ** (r * (k + 1 - width)), rec)
                        yield from _take((X, a0, code, one), keep)

    def _settle(self, code, one, v, k):
        """Codes, leading-one flags and open sets after the t^k coefficients
        v: an open f_i with v_i != 0 gets order k (digit k+1 of the code)
        and leaves the open set (the new code's open[] wherever it is on a
        path)."""
        u = self.open[code]
        hit = u & _bits(v != 0)
        return (code + (k + 1) * self._adds[hit], one & ((hit & _bits(v > 1)) == 0),
                u ^ hit)

    def _classify(self, code, one, u, a0, level, weight, rec):
        """Of the prefixes of length `level` that can still reach a target
        (reach[code] >= level), record those that are settled (no open f_i
        in u, or J_U(a_0) of full rank) and return the mask of the others.
        A live prefix with |U| >= 2 always finds its rank test in full (see
        _start_bits)."""
        live = self.reach[code] >= level
        done = (self.nz[a0] & u) == u
        for s, full in self.full.items():
            at = u == s
            done[at] = full[a0[at]]
        done &= live
        if done.any():
            _record(rec, level, code[done], one[done], weight, weight)
        return live & ~done

    def _assemble(self, rec):
        """Closed form per record: a prefix of length k with open set U has
        prod_{j=k..m} q^(r-|U_j|) (q-1)^(s_j) completions with ord f_i = n_i
        (i in U), m = max n, U_j = {n_i >= j}, s_j = #{n_i = j}; 1 for q-1
        when every leading coefficient must be 1.  Levels past m are free:
        q^(r(|n|-m)).  As every n_i (i in U) lies in [k, m], the product is
        q^(r(m-k+1) - sum_U (n_i-k+1)) (q-1)^|U|, for the n of through[code]."""
        q, r = self.q, self.r
        dist = {n: [0, 0] for n in self.targets}
        for (k, code, side), mult in rec.items():
            for n, low, total, u in self.through.get(code, ()):
                if low >= k:
                    e = r * (sum(n) - max(n) + max(max(n) - k + 1, 0)) - total + u * (k - 1)
                    dist[n][side] += mult * q ** e * (q - 1) ** (u * side)
        return {n: tuple(v) for n, v in dist.items()}


# Bit i of an open-set mask stands for f_i; the code table limit keeps l < 27.
_BIT = 1 << np.arange(32, dtype=np.int64)


def _bits(act):
    """The open set of each row as a bit mask (bit i for f_i)."""
    return act @ _BIT[:act.shape[1]]


def _take(rows, mask):
    """The rows where mask holds, as a list of at most one chunk: none if it
    holds nowhere, the rows themselves (no copies) if it holds everywhere."""
    n = np.count_nonzero(mask)
    return [] if not n else [rows] if n == len(mask) else [tuple(a[mask] for a in rows)]


def _record(rec, level, codes, one, w_one, w_any):
    """Add w per prefix to rec[level, code, side]; side 0 counts only the
    prefixes whose leading coefficients are all 1.  One bincount per side,
    its nonzero codes and their counts read out as Python ints, so that the
    weights (Python ints) never meet an int64."""
    for side, cs, w in ((0, codes[one], w_one), (1, codes, w_any)):
        cnt = np.bincount(cs)
        at = cnt.nonzero()[0]
        for c, m in zip(at.tolist(), cnt[at].tolist()):
            rec[level, c, side] += w * m


def count_arcs(sys, n, q, constraint=None, leading="one", threads=1):
    """Exact number of arcs of length |n| with ord_t f_i = n_i for all i.

    leading='one' additionally asks the t^n coefficient of f to be 1 (single
    polynomial only); the constraint restricts the arc's starting point.
    """
    return CountPlan(sys, q, constraint, [n], min_order=1).count(n, leading, threads)


def count_stratum(sys, n, q, constraint=None, leading="one", threads=1):
    """Like count_arcs but allowing n_i = 0 (order zero means the value of
    f_i at the starting point is nonzero, or 1 under leading='one').

    The transfer identities relate full generating series whose T^0 strata
    are exactly these boundary counts, so verification drivers need them even
    though the zeta coefficients themselves start at order one.
    """
    return CountPlan(sys, q, constraint, [n]).count(n, leading, threads)


def estimate_work(sys, n, q, constraint=None, leading="one"):
    """Upper bound on candidate rows: the q^exponent a plan charges to its budget."""
    plan = CountPlan(sys, q, constraint, [n])
    plan._side(leading)
    return q ** plan.exponent


def homogeneity_check(sys, q, n, threads=1):
    """For homogeneous f of degree d: does count(ord = n, leading 1) times
    q^((d-1)r) equal the origin-based count at order n + d?"""
    if sys.l != 1:
        raise ArcError("homogeneity check takes a single polynomial")
    if not sys.homogeneous[0]:
        raise ArcError("polynomial is not homogeneous")
    d = sys.degrees[0]
    lhs = count_arcs(sys, (n,), q, ArcConstraint.none(), "one", threads)
    rhs = count_arcs(sys, (n + d,), q, ArcConstraint.origin(), "one", threads)
    return lhs * q ** ((d - 1) * sys.r) == rhs


# ---------------------------------------------------------------------------
# p-adic solution counting
# ---------------------------------------------------------------------------


def check_padic(f, p, k_max):
    """Refuse padic_solution_counts(f, p, k_max) before any work, cheapest first:
    k_max < 0, p^(k_max+1) > 2^31 (by _beyond), _admit, then f = 0 mod p."""
    if k_max < 0:
        raise ArcError("order must be >= 0")
    if _beyond(p, k_max + 1, 2 ** 31):
        raise ArcError("modulus p^%d too large for exact vector arithmetic" % k_max)
    _admit(p, f.nvars, max(map(sum, f.terms), default=0), "p")
    if all(c % p == 0 for c in f.terms.values()):
        raise ArcError("polynomial vanishes identically mod p")


def padic_solution_counts(f, p, k_max):
    """[A_0, ..., A_k_max] with A_k = #{x in (Z/p^k)^m : f(x) = 0 mod p^k}.

    Depth d holds base points a mod p^d on which f(a + p^d y) / p^(2d) has
    integer coefficients; each stands for p^(md) zeros mod p^(2d).  Its
    candidates c = a + p^d y0, y0 in [0, p)^m, are settled by four rules.
    Zero, f(c) = 0 mod p^(2d+1): p^(md) zeros mod p^(2d+1).  Smooth zero, some
    df/dx_i(c) != 0 mod p^(d+1): p^(md) p^((m-1)(j-1)) zeros mod p^(2d+j) for
    every j >= 2 (Hensel), never lifted.  Singular zero with f(c) = 0 mod
    p^(2d+2): a base point at depth d+1.  Any other singular zero: no zeros
    mod p^(2d+2).  Depths run while 2d < k_max, so moduli stay <= p^k_max.
    Candidates go in _batches of p^m m cells a base point."""
    check_padic(f, p, k_max)
    m = f.nvars
    grid = _residue_grid(p, m)
    terms = _monomials(f)
    values, grads = _SlotTable([terms]), _SlotTable([_partial(terms, i) for i in range(m)])
    A = [0] * (k_max + 1)
    base, d = np.zeros((1, m), dtype=np.int64), 0
    while len(base):
        w = p ** (m * d)
        A[2 * d] += len(base) * w
        if 2 * d >= k_max:
            break
        lifts = []
        for s in _batches(len(base), len(grid) * m):
            c = (base[s, None] + p ** d * grid).reshape(-1, m)
            v = _eval_poly_mod(values, c, p ** min(2 * d + 2, k_max))[:, 0]
            zero = v % p ** (2 * d + 1) == 0
            c, v = c[zero], v[zero]
            A[2 * d + 1] += len(c) * w
            if 2 * d + 2 > k_max:
                continue
            smooth = _eval_poly_mod(grads, c, p ** (d + 1)).any(axis=1)
            for j in range(2, k_max - 2 * d + 1):
                A[2 * d + j] += int(smooth.sum()) * w * p ** ((m - 1) * (j - 1))
            lifts.append(c[~smooth & (v == 0)])
        base, d = (np.concatenate(lifts) if lifts else base[:0]), d + 1
    return A


def igusa_coeffs(f, p, n_max):
    """Local zeta series of f at p as a truncated series in t = q^(-s): the
    t^n coefficient is the measure of {ord_p f = n}, an exact rational."""
    A = padic_solution_counts(f, p, n_max + 1)
    m = f.nvars
    coeffs = {}
    for n in range(n_max + 1):
        c = Fraction(A[n] * p ** m - A[n + 1], p ** (m * (n + 1)))
        if c:
            coeffs[(n,)] = c
    return TruncatedSeries(1, n_max, coeffs)
