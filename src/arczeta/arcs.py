"""Truncated-arc counting over prime fields by one level sweep per plan.

An arc of length N over F_q is an r-tuple of polynomials in t of degree <= N.
A CountPlan is built once per (system, q, constraint, set of order indices)
and one sweep over the arc levels yields, for every index n, the number of
arcs with ord_t f_i = n_i, with leading coefficients 1 and with any nonzero
leading coefficients.  Prefixes that start at a smooth point of the open
f_i are settled in closed form (Hensel), prefixes that cannot reach any
requested index are dropped, and only the rest are enumerated; see
CountPlan for the rules.

A plan is compiled once into integer data.  Its symbolic jets are written in
monomial form: the arc variable of level k and coordinate j has id k*r + j,
which is also its column in the sweep's row arrays, and a monomial is the
sorted tuple of the ids of its variables, a power repeating the id.  Splitting
a coefficient by level only filters these tuples.  Polynomials compile into
slot tables (_SlotTable): slot i holds the i-th column id of every monomial of
degree > i, and the coefficients form a matrix.  One kernel, _eval_poly_mod,
evaluates a table at a block of rows with one gather and one multiply per slot;
it reduces mod `mod` only when its running bound on the products, (mod-1)^s
after s slots and at most T max|coef| times that in the final sum, could pass
2^62.  Whether a prefix can still reach a target is a table lookup by the code
of its orders, decided once per (code, level) and reused by the final sum.

Also here: p-adic solution counting by stationary-phase lifting (Hensel at
smooth zeros), which realizes the local zeta series of a polynomial at a prime.
It evaluates f and its gradient with the same kernel.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .polynomials import Poly
from .series import TruncatedSeries

_CHUNK = 1 << 21
# Largest residue grid (q^r rows x r int64 cells) a plan or p-adic count builds.
_MAX_GRID_CELLS = 1 << 26


class ArcError(ValueError):
    pass


def is_prime(q):
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def _check_grid(q, r):
    """Refuse a q^r x r residue grid beyond _MAX_GRID_CELLS before building it."""
    if q ** r * r > _MAX_GRID_CELLS:
        raise ArcError("residue grid of %d^%d rows x %d = %d cells exceeds the "
                       "limit of %d" % (q, r, r, q ** r * r, _MAX_GRID_CELLS))


def _residue_grid(q, r):
    """The rows [0, q)^r in itertools.product order, as a transposed view."""
    return np.indices((q,) * r).reshape(r, q ** r).T


class PolySystem:
    """One or more nonzero integer polynomials on a common affine space."""

    __slots__ = ("r", "polys", "degrees", "homogeneous")

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise ArcError("need at least one polynomial")
        r = polys[0].nvars
        for f in polys:
            if not isinstance(f, Poly):
                raise ArcError("PolySystem takes Poly values")
            if f.nvars != r:
                raise ArcError("polynomials live on different spaces")
            if f.is_zero():
                raise ArcError("zero polynomial in system")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "degrees", [f.degree() for f in polys])
        object.__setattr__(self, "homogeneous", [f.is_homogeneous() for f in polys])

    def __setattr__(self, name, value):
        raise AttributeError("PolySystem is immutable")

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
        if m < 1 or r_mat < 1 or r_mat > m:
            raise ArcError("full rank needs 1 <= r_mat <= m")
        return cls("full_rank", int(m), int(r_mat))

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


def _level_multisets(e, lo, maxdeg):
    """The terms of x(t)^e = (sum_{k>=lo} a_k t^k)^e up to t^maxdeg, each
    once: (degree, levels, multinomial coefficient) for every nondecreasing
    e-tuple of levels >= lo with sum <= maxdeg."""
    out = []

    def extend(levels, start, left, budget, coef):
        if not left:
            out.append((maxdeg - budget, levels, coef))
            return
        for k in range(start, budget // left + 1):
            for m in range(1, left + 1):  # level k taken m times
                if k * m > budget:
                    break
                extend(levels + (k,) * m, k + 1, left - m, budget - k * m,
                       coef * comb(left, m))

    extend((), lo, e, maxdeg, 1)
    return out


def arc_value_coefficients(poly, maxdeg, origin):
    """Coefficients of t^0..t^maxdeg of poly(a_0 + a_1 t + ...), each a
    polynomial in the arc variables in monomial form; origin=True
    substitutes a_0 = 0.

    x_j(t)^e is enumerated by the multisets of its levels, so each monomial
    of a term of poly is produced once and sorted once."""
    r = poly.nvars
    lo = 1 if origin else 0
    powers = {}  # (j, e) -> the terms of x_j(t)^e
    out = [{} for _ in range(maxdeg + 1)]
    for mono, c in poly.terms.items():
        parts = [((), 0, c)]  # (ids, degree, coefficient) of the term so far
        for j, e in enumerate(mono):
            if not e:
                continue
            if (j, e) not in powers:
                powers[j, e] = [(d, tuple(k * r + j for k in ks), m)
                                for d, ks, m in _level_multisets(e, lo, maxdeg)]
            parts = [(ids + more, deg + d, coef * m)
                     for ids, deg, coef in parts
                     for d, more, m in powers[j, e] if deg + d <= maxdeg]
        for ids, deg, coef in parts:
            acc, m = out[deg], tuple(sorted(ids))
            s = acc.get(m, 0) + coef
            if s:
                acc[m] = s
            else:
                del acc[m]
    return out


# ---------------------------------------------------------------------------
# Vectorized evaluation mod q
# ---------------------------------------------------------------------------
# _eval_poly_mod keeps its products and sums within 2^62, which leaves room in
# int64 for the constant terms.
_EXACT = 1 << 62


def _full_row_rank(A, q):
    """True where the k x c matrix A[n] has rank k mod the prime q, by
    Gaussian elimination on all the matrices at once."""
    A = A % q
    rows = np.arange(len(A))
    ok = np.ones(len(A), dtype=bool)
    for i in range(A.shape[1]):
        col = (A[:, i] != 0).argmax(axis=1)
        piv = A[rows, i, col]
        ok &= piv != 0
        inv = _pow_mod(piv, 2 * q - 3, q)  # 1/x = x^(2q-3) for x != 0, q = 2 too
        for j in range(i + 1, A.shape[1]):
            A[:, j] = (A[:, j] - (A[rows, j, col] * inv % q)[:, None] * A[:, i]) % q
    return ok


def _pow_mod(col, e, mod):
    """col^e mod `mod` for e >= 1, squaring with a reduction at every step."""
    base = col.astype(np.int64)
    out = None
    while True:
        if e & 1:
            out = base if out is None else out * base % mod
        e >>= 1
        if not e:
            return out
        base = base * base % mod


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
        sum of the matrix) mod `mod`."""
        if self._slots is None:
            monos = sorted({m for f in self.polys for m in f if m}, key=len,
                           reverse=True)
            self._row = {m: t for t, m in enumerate(monos)}
            self._slots = [np.array([m[i] for m in monos if len(m) > i], dtype=np.intp)
                           for i in range(len(monos[0]) if monos else 0)]
        got = self._coefs.get(mod)
        if got is None:
            half = mod // 2
            C = np.zeros((len(self._row), len(self.polys)), dtype=np.int64)
            const = np.zeros(len(self.polys), dtype=np.int64)
            for j, f in enumerate(self.polys):
                for m, c in f.items():
                    c = (c + half) % mod - half
                    if m:
                        C[self._row[m], j] = c
                    else:
                        const[j] = c
            got = self._coefs[mod] = (self._slots, C, const,
                                      int(np.abs(C).sum(axis=0).max(initial=0)))
        return got


def _eval_poly_mod(table, X, mod):
    """The polynomials of a _SlotTable at the rows of X, reduced mod `mod`,
    as a rows x p int64 array.  Exact for entries of X in [0, mod) of any
    integer dtype and mod <= 2^31 (guarded by the callers).

    Per slot one gather of columns and one multiply; a running bound on the
    products, (mod-1)^s after s slots, triggers a reduction mod `mod` only
    where the next product or the sum against the coefficients (bound times
    the largest absolute column sum, at most T max|coef|) could pass 2^62.
    Rows go in chunks, so each temporary has at most _CHUNK cells."""
    slots, C, const, csum = table.compiled(mod)
    out = np.empty((len(X), len(const)), dtype=np.int64)
    if not slots:
        out[:] = const % mod
        return out
    per = max(1, _CHUNK // len(C))
    for lo in range(0, len(X), per):
        Xc = X[lo:lo + per]
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
            out[lo:lo + per] = np.stack([(P * C[:, j] % mod).sum(axis=1)
                                         for j in range(len(const))], axis=1)
        else:
            out[lo:lo + per] = P @ C
    out += const
    out %= mod
    return out


# ---------------------------------------------------------------------------
# The counting plan
# ---------------------------------------------------------------------------


def order_indices(l, n_max, low=1):
    """Every order multi-index n with all n_i >= low and |n| <= n_max."""
    return [n for n in itertools.product(range(low, n_max + 1), repeat=l)
            if sum(n) <= n_max]


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


def _settle(ords, one, v, k):
    """Orders and leading-one flags after the t^k coefficients v: an open f_i
    (order -1) with v_i != 0 gets order k."""
    hit = (ords < 0) & (v != 0)
    return np.where(hit, k, ords), one & ~(hit & (v != 1)).any(axis=-1)


class CountPlan:
    """Exact arc counts for a set of order multi-indices from one level sweep.

    At level k the sweep holds the arc prefixes on which some f_i (the open
    set U) vanish to order >= k.  For k >= 1 the t^k coefficient of f_i is
    g_ik(a_0..a_{k-1}) + J_i(a_0).a_k, J the Jacobian.  A prefix whose
    J_U(a_0) has rank |U| is settled in closed form (Hensel).  A flat one,
    J_U(a_0) = 0, never reads a_k, so its t^k coefficients are evaluated
    before level k is enumerated; any other prefix gets a_k enumerated.
    Prefixes that can no longer reach a target are dropped.  Counts come in
    pairs: every leading coefficient 1, and any nonzero leading coefficients.
    """

    def __init__(self, sys, q, constraint=None, targets=()):
        self.constraint = constraint = constraint or ArcConstraint.none()
        if constraint.kind == "full_rank" and sys.r != constraint.m * constraint.r_mat:
            raise ArcError("full rank needs ambient dimension m*r_mat = %d"
                           % (constraint.m * constraint.r_mat))
        self.sys, self.q, self.r = sys, q, sys.r
        self.targets = sorted({_validate(sys, n, q, "any", 0) for n in targets})
        self.depth = max((max(n) for n in self.targets), default=0)
        self.origin = constraint.kind == "origin"
        self._base = (self.depth + 2) ** np.arange(sys.l)
        self._ends, self._fits, self._dist = {}, {}, None

    def estimate(self):
        """Candidate rows charged to the sweep: q^(r E) for the E levels below
        the deepest target level, with no credit for pruning or closed forms."""
        return self.q ** (self.r * (max(self.depth, 1) - self.origin))

    def count(self, n, leading="any", threads=1):
        """The count at the target n, leading 'one' or 'any'."""
        one, all_ = self.counts(threads)[_validate(self.sys, n, self.q, leading, 0)]
        return one if leading == "one" else all_

    def counts(self, threads=1):
        """{n: (leading-one count, any-leading count)} for every target."""
        if self._dist is None:
            self._dist = self._assemble(self._sweep(threads))
        return self._dist

    def series(self, n_max, leading, threads=1):
        """Truncated zeta series: the T^n coefficient is count(n) q^(-|n| r)."""
        coeffs = {n: Fraction(c, self.q ** (sum(n) * self.r)) for n in self.targets
                  if (c := self.count(n, leading, threads))}
        return TruncatedSeries(self.sys.l, n_max, coeffs)

    # -- the sweep --------------------------------------------------------

    def _prepare(self):
        q, r, polys = self.q, self.r, self.sys.polys
        _check_grid(q, r)
        self.grid = _residue_grid(q, r)
        start = np.zeros((1, r), dtype=np.int64) if self.origin else self.grid
        if self.constraint.kind == "full_rank":
            m, r_mat = self.constraint.m, self.constraint.r_mat
            start = start[_full_row_rank(
                start.reshape(-1, m, r_mat).transpose(0, 2, 1), q)]
        self.start = start
        monos = [_monomials(f) for f in polys]
        jac = _eval_poly_mod(_SlotTable([_partial(f, j) for f in monos for j in range(r)]),
                             start, q).reshape(len(start), len(polys), r)
        # per open set U (bit i for f_i) and start: is J_U of full rank, is it 0?
        subsets = [[i for i in range(len(polys)) if u >> i & 1]
                   for u in range(1 << len(polys))]
        self.smooth = np.array([_full_row_rank(jac[:, U], q) for U in subsets])
        self.flat = np.array([~jac[:, U].any(axis=(1, 2)) for U in subsets])
        jets = [arc_value_coefficients(f, self.depth, self.origin) for f in polys]
        # per level k >= 1: the t^k coefficients (c); the levels 0..need[k]-1
        # they read besides a_k; without their a_k terms (g, all a flat prefix
        # needs); and, per f_i, split at the top level h of those into c0 and
        # the w_j (None where not affine in it).  Tables compile on first use.
        self.c, self.need, self.g, self.split = [None], [None], [None], [None]
        for k in range(1, self.depth + 1):
            self.c.append(_SlotTable([jet[k] for jet in jets]))
            self.need.append(1 + max([v // r for jet in jets for mono in jet[k]
                                      for v in mono if v < k * r], default=0))
            self.g.append(_SlotTable([_level_split(jet[k], k, r)[0] for jet in jets]))
            parts = [_level_split(jet[k], max(self.need[k] - 1, 1), r) for jet in jets]
            self.split.append([p and (_SlotTable(p[:1]), _SlotTable(p[1:]))
                               for p in parts])
        self.dtype = np.int8 if q <= 127 else np.int64
        self.digits = self.grid.astype(self.dtype)
        return _eval_poly_mod(_SlotTable([jet[0] for jet in jets]), start, q)

    def _sweep(self, threads):
        rec = Counter()
        if not self.targets:
            return rec
        v0 = self._prepare()
        m0, l = v0.shape
        ords, one = _settle(np.full((m0, l), -1), np.ones(m0, dtype=bool), v0, 0)
        keep = self._classify(ords, one, np.arange(m0), 1, 1, rec)
        chunks = [(self.start[keep].astype(self.dtype), np.flatnonzero(keep),
                   ords[keep], one[keep])]
        k0, threads = 1, max(threads, 1)  # shard once there is a row per thread
        while 0 < sum(len(c[1]) for c in chunks) < threads and k0 <= self.depth:
            chunks = list(self._step(_batches(chunks), k0, rec))
            k0 += 1

        def run(shard):
            part, chunks = Counter(), shard
            for k in range(k0, self.depth + 1):
                chunks = self._step(_batches(chunks), k, part)
            for _ in chunks:
                pass
            return part

        shards = [[tuple(a[s] for a in c) for c in chunks] for s in zip(*[
            np.array_split(np.arange(len(c[1])), threads) for c in chunks])]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            for part in (ex.map if threads > 1 else map)(run, shards or [[]]):
                rec.update(part)
        return rec

    def _expand(self, rows, width):
        """The rows with the levels below `width` enumerated, in chunks of
        at most _CHUNK rows."""
        X, a0, ords, one = rows
        M = len(self.digits)
        if X.shape[1] >= width * self.r:
            yield rows
            return
        per = max(1, _CHUNK // M)
        for lo in range(0, len(X), per):
            s = slice(lo, lo + per)
            yield from self._expand((
                np.hstack([np.repeat(X[s], M, axis=0), np.tile(self.digits, (len(X[s]), 1))]),
                np.repeat(a0[s], M), np.repeat(ords[s], M, axis=0),
                np.repeat(one[s], M)), width)

    def _step(self, batches, k, rec):
        """Settle the t^k coefficients of prefixes of length k; yields the
        prefixes of length k+1 that stay open.

        A flat prefix carries only the levels its coefficients have read so
        far (a level it skips is free: q^r ways); any other prefix carries
        all its levels and gets a_k enumerated here.  A flat prefix whose one
        open f_i must end at order k, with a t^k coefficient affine in the
        top level h it reads and no level from h on enumerated, is counted in
        closed form."""
        q, r, need = self.q, self.r, self.need[k]
        h = max(need - 1, 1)
        affine = np.array([sp is not None for sp in self.split[k]])
        for rows in batches:
            X, a0, ords, one = rows
            width, act = X.shape[1] // r, ords < 0
            flat = self.flat[_bits(act), a0]
            ends = flat & (act.sum(axis=1) == 1) & (act & affine).any(axis=1)
            if width <= h and ends.any():
                ends &= ~self._live_mask((ords + 1) @ self._base, k + 1)
            else:
                ends[:] = False
            for i in np.flatnonzero(affine if ends.any() else []):
                c0_table, w_table = self.split[k][i]
                sel = tuple(a[ends & act[:, i]] for a in rows)
                for Xs, _a, o, o1 in self._expand(sel, h):
                    c0 = _eval_poly_mod(c0_table, Xs, q)[:, 0]
                    wnz = _eval_poly_mod(w_table, Xs, q).any(axis=1)
                    codes_i = (o + 1) @ self._base + (k + 1) * self._base[i]
                    w = q ** (r * (k - h) + r - 1)
                    _record(rec, k + 1, codes_i[wnz], o1[wnz], w, w * (q - 1))
                    hit = ~wnz & (c0 != 0)
                    _record(rec, k + 1, codes_i[hit], (o1 & (c0 == 1))[hit],
                            w * q, w * q)
            # the rest read levels 0..need-1 (flat) or 0..k (any other), which
            # an expansion to that width enumerates where not yet carried
            for sel, w in ((~ends & flat, need), (~ends & ~flat, k + 1)):
                if not sel.any():
                    continue
                for X, a0, ords, one in self._expand(tuple(a[sel] for a in rows), w):
                    width = X.shape[1] // r
                    v = _eval_poly_mod(self.g[k] if width <= k else self.c[k], X, q)
                    o, o1 = _settle(ords, one, v, k)
                    keep = self._classify(o, o1, a0, k + 1, q ** (r * (k + 1 - width)),
                                          rec)
                    yield X[keep], a0[keep], o[keep], o1[keep]

    def _classify(self, ords, one, a0, level, weight, rec):
        """Of the prefixes of length `level` that can still reach a target,
        record those that are settled (no open f_i, or a Jacobian of full
        rank on the open ones) and return the mask of the others."""
        codes = (ords + 1) @ self._base
        live = self._live_mask(codes, level)
        done = live & self.smooth[_bits(ords < 0), a0]
        _record(rec, level, codes[done], one[done], weight, weight)
        return live & ~done

    def _live_mask(self, codes, level):
        """Which rows can still reach a target at this level: a table over
        the codes present, indexed by code."""
        present = np.bincount(codes)
        table = np.zeros(len(present), dtype=bool)
        for code in np.flatnonzero(present):
            table[code] = bool(self._fitting(int(code), level))
        return table[codes]

    def _fitting(self, code, level):
        """The targets n a prefix of length `level` with this code can end
        at (n_i = ord f_i where known, n_i >= level on the open set U), each
        with the exponent of q and |U| in its closed form (see _assemble)."""
        # shared by the shards; a race only computes the same value twice
        key = (code, level)
        if key not in self._fits:
            b, r = self.depth + 2, self.r
            ords = [code // b ** i % b - 1 for i in range(self.sys.l)]
            U = [i for i, o in enumerate(ords) if o < 0]
            if code not in self._ends:
                # the targets with these known orders, with their least n_i
                # over U (past every level for U empty), largest first
                self._ends[code] = sorted(
                    ((min([n[i] for i in U], default=self.depth + 1), n)
                     for n in self.targets
                     if all(ni == o for ni, o in zip(n, ords) if o >= 0)),
                    reverse=True)
            ends = self._ends[code]
            self._fits[key] = [
                (n, r * (sum(n) - max(n) + max(max(n) - level + 1, 0))
                 - sum(n[i] - level + 1 for i in U), len(U))
                for low, n in itertools.takewhile(lambda e: e[0] >= level, ends)]
        return self._fits[key]

    def _assemble(self, rec):
        """Closed form per record: a prefix of length k with open set U has
        prod_{j=k..m} q^(r-|U_j|) (q-1)^(s_j) completions with ord f_i = n_i
        (i in U), m = max n, U_j = {n_i >= j}, s_j = #{n_i = j}; 1 for q-1
        when every leading coefficient must be 1.  Levels past m are free:
        q^(r(|n|-m)).  As every n_i (i in U) lies in [k, m], the product is
        q^(r(m-k+1) - sum_U (n_i-k+1)) (q-1)^|U|."""
        q = self.q
        dist = {n: [0, 0] for n in self.targets}
        for (k, code, side), mult in rec.items():
            for n, e, u in self._fitting(code, k):
                dist[n][side] += mult * q ** e * (q - 1) ** (u * side)
        return {n: tuple(v) for n, v in dist.items()}


def _bits(act):
    """The open set of each row as a bit mask (bit i for f_i)."""
    return act @ (1 << np.arange(act.shape[1]))


def _batches(chunks):
    """Row chunks regrouped into batches of about _CHUNK rows of one width."""
    bufs = {}
    for chunk in chunks:
        buf = bufs.setdefault(chunk[0].shape[1], [])
        buf.append(chunk)
        if sum(len(c[1]) for c in buf) >= _CHUNK:
            yield _concat(buf)
            buf.clear()
    for buf in bufs.values():
        if buf:
            yield _concat(buf)


def _concat(chunks):
    """One batch from row chunks of one width."""
    return chunks[0] if len(chunks) == 1 else tuple(np.concatenate(p) for p in zip(*chunks))


def _record(rec, level, codes, one, w_one, w_any):
    """Add w per prefix to rec[level, code, side]; side 0 counts only the
    prefixes whose leading coefficients are all 1."""
    for side, cs, w in ((0, codes[one], w_one), (1, codes, w_any)):
        for c, cnt in enumerate(np.bincount(cs)):
            if cnt:
                rec[level, c, side] += w * int(cnt)


def _validate(sys, n, q, leading, min_order=1):
    if isinstance(n, int):
        n = (n,)
    n = tuple(int(x) for x in n)
    if len(n) != sys.l:
        raise ArcError("order multi-index has length %d, system has %d polynomials"
                       % (len(n), sys.l))
    if any(x < min_order for x in n):
        raise ArcError("all n_i must be >= %d" % min_order)
    if leading not in ("one", "any"):
        raise ArcError("leading must be 'one' or 'any'")
    if leading == "one" and sys.l != 1:
        raise ArcError("leading-coefficient-one counts exist only for one polynomial")
    if not is_prime(q):
        raise ArcError("q must be prime (prime-power fields are not implemented)")
    return n


def count_arcs(sys, n, q, constraint=None, leading="one", threads=1):
    """Exact number of arcs of length |n| with ord_t f_i = n_i for all i.

    leading='one' additionally asks the t^n coefficient of f to be 1 (single
    polynomial only); the constraint restricts the arc's starting point.
    """
    n = _validate(sys, n, q, leading)
    return CountPlan(sys, q, constraint, [n]).count(n, leading, threads)


def count_stratum(sys, n, q, constraint=None, leading="one", threads=1):
    """Like count_arcs but allowing n_i = 0 (order zero means the value of
    f_i at the starting point is nonzero, or 1 under leading='one').

    The transfer identities relate full generating series whose T^0 strata
    are exactly these boundary counts, so verification drivers need them even
    though the zeta coefficients themselves start at order one.
    """
    n = _validate(sys, n, q, leading, min_order=0)
    return CountPlan(sys, q, constraint, [n]).count(n, leading, threads)


def estimate_work(sys, n, q, constraint=None, leading="one"):
    """Upper bound on candidate rows the enumeration may materialize."""
    n = _validate(sys, n, q, leading, min_order=0)
    return CountPlan(sys, q, constraint, [n]).estimate()


def count_pair(sys, n, q, constraint=None, threads=1):
    """(leading-one count or None, any-leading count) at the multi-index n."""
    n = _validate(sys, n, q, "any")
    one, all_ = CountPlan(sys, q, constraint, [n]).counts(threads)[n]
    return (one if sys.l == 1 else None), all_


def zeta_coeffs_from_counts(sys, q, n_max, constraint=None, leading="one",
                            threads=1):
    """Truncated zeta series over exact rationals: the T^n coefficient is the
    arc count at n times q^(-|n| r)."""
    plan = CountPlan(sys, q, constraint, order_indices(sys.l, n_max))
    return plan.series(n_max, leading, threads)


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
    """
    if not is_prime(p):
        raise ArcError("p must be prime")
    if all(c % p == 0 for c in f.terms.values()):
        raise ArcError("polynomial vanishes identically mod p")
    if p ** (k_max + 1) > 2 ** 31:
        raise ArcError("modulus p^%d too large for exact vector arithmetic" % k_max)
    m = f.nvars
    _check_grid(p, m)
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
        per = max(1, _CHUNK // len(grid))
        for a in (base[lo:lo + per] for lo in range(0, len(base), per)):
            c = np.repeat(a, len(grid), axis=0) + p ** d * np.tile(grid, (len(a), 1))
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
