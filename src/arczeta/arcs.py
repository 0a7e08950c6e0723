"""Truncated-arc counting over prime fields by one level sweep per plan.

An arc of length N over F_q is an r-tuple of polynomials in t of degree <= N.
A CountPlan is built once per (system, q, constraint, set of order indices)
and one sweep over the arc levels yields, for every index n, the number of
arcs with ord_t f_i = n_i, with leading coefficients 1 and with any nonzero
leading coefficients.  Prefixes that start at a smooth point of the open
f_i are settled in closed form (Hensel), prefixes that cannot reach any
requested index are dropped, and only the rest are enumerated; see
CountPlan for the rules.

Also here: p-adic solution counting by digit lifting, which realizes the
coefficients of the local zeta series of a polynomial at a prime.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import Poly
from .series import TruncatedSeries

_CHUNK = 1 << 21


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


@dataclass(frozen=True)
class ArcCountTable:
    """Exact counts per order multi-index; leading-one counts only exist for
    a single polynomial."""

    q: int
    n_max: int
    entries: dict

    def __post_init__(self):
        for n, (one, all_) in self.entries.items():
            if one is not None and not 0 <= one <= all_:
                raise ArcError("count invariant violated at %r" % (n,))


# ---------------------------------------------------------------------------
# Symbolic coefficients of f(arc) as polynomials in the arc coefficients
# ---------------------------------------------------------------------------
# Arc variable (level k, coordinate j) gets the integer id k*r + j; a monomial
# is a sorted tuple of (id, exponent) pairs.


def _mono_mul(m1, m2):
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _tp_add_into(acc, other):
    for mono, c in other.items():
        v = acc.get(mono, 0) + c
        if v:
            acc[mono] = v
        elif mono in acc:
            del acc[mono]


def _tp_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def _series_mul(a, b, maxdeg):
    out = [dict() for _ in range(maxdeg + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(maxdeg - i + 1):
            if b[j]:
                _tp_add_into(out[i + j], _tp_mul(ai, b[j]))
    return out


def arc_value_coefficients(poly, maxdeg, origin):
    """Coefficients of t^0..t^maxdeg of poly(a_0 + a_1 t + ...), each a
    polynomial in the arc variables; origin=True substitutes a_0 = 0."""
    r = poly.nvars
    xs = []
    for j in range(r):
        s = [dict() for _ in range(maxdeg + 1)]
        for k in range(1 if origin else 0, maxdeg + 1):
            s[k] = {((k * r + j, 1),): 1}
        xs.append(s)
    out = [dict() for _ in range(maxdeg + 1)]
    for mono, c in poly.terms.items():
        term = [{(): c}] + [dict() for _ in range(maxdeg)]
        for j, e in enumerate(mono):
            for _ in range(e):
                term = _series_mul(term, xs[j], maxdeg)
        for k in range(maxdeg + 1):
            _tp_add_into(out[k], term[k])
    return out


# ---------------------------------------------------------------------------
# Vectorized evaluation mod q
# ---------------------------------------------------------------------------


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


def _eval_poly_mod(poly, X, mod):
    """poly at the rows of X, reduced mod `mod`.  Exact for entries of X in
    [0, 2^31) of any integer dtype and mod <= 2^31 (guarded by the callers):
    no product exceeds 2^62."""
    acc = np.zeros(X.shape[0], dtype=np.int64)
    for mono, c in poly.terms.items():
        t = c % mod
        for j, e in enumerate(mono):
            if e:
                t = _pow_mod(X[:, j], e, mod) * t % mod
        acc += t
    return acc % mod


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


# ---------------------------------------------------------------------------
# The counting plan
# ---------------------------------------------------------------------------


def order_indices(l, n_max, low=1):
    """Every order multi-index n with all n_i >= low and |n| <= n_max."""
    return [n for n in itertools.product(range(low, n_max + 1), repeat=l)
            if sum(n) <= n_max]


def _level_split(terms, k, r):
    """[c0, w_0, .., w_(r-1)] with terms = c0 + sum_j w_j a_{k,j} once the
    terms in levels above k are dropped, as Polys in the arc variables of
    levels 0..k-1; None if the terms are not affine in level k."""
    parts = [dict() for _ in range(r + 1)]
    for mono, c in terms.items():
        top = [(v, e) for v, e in mono if v >= k * r]
        if any(v >= (k + 1) * r for v, _e in top):
            continue
        if top and (len(top) > 1 or top[0][1] > 1):
            return None
        exps = [0] * (k * r)
        for v, e in mono:
            if v < k * r:
                exps[v] = e
        parts[top[0][0] - k * r + 1 if top else 0][tuple(exps)] = c
    return [Poly(k * r, part) for part in parts]


def _settle(ords, one, v, k):
    """Orders and leading-one flags after the t^k coefficients v: an open f_i
    (order -1) with v_i != 0 gets order k."""
    hit = (ords < 0) & (v != 0)
    return np.where(hit, k, ords), one & ~(hit & (v != 1)).any(axis=-1)


def _fits(ords, n, level):
    """Can a prefix of length `level` with these orders (-1 = still open)
    end at the multi-index n?"""
    return all(ni == o if o >= 0 else ni >= level for o, ni in zip(ords, n))


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
        self._live, self._dist = {}, None

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
        self.grid = np.array(list(itertools.product(range(q), repeat=r)),
                             dtype=np.int64)
        start = np.zeros((1, r), dtype=np.int64) if self.origin else self.grid
        if self.constraint.kind == "full_rank":
            m, r_mat = self.constraint.m, self.constraint.r_mat
            start = start[_full_row_rank(
                start.reshape(-1, m, r_mat).transpose(0, 2, 1), q)]
        self.start = start
        jac = np.stack([np.stack([_eval_poly_mod(_partial(f, j), start, q)
                                  for j in range(r)], axis=1) for f in polys], axis=1)
        # per open set U (bit i for f_i) and start: is J_U of full rank, is it 0?
        subsets = [[i for i in range(len(polys)) if u >> i & 1]
                   for u in range(1 << len(polys))]
        self.smooth = np.array([_full_row_rank(jac[:, U], q) for U in subsets])
        self.flat = np.array([~jac[:, U].any(axis=(1, 2)) for U in subsets])
        jets = [arc_value_coefficients(f, self.depth, self.origin) for f in polys]
        # per level k: the t^k coefficients; the levels 0..need[k]-1 they read
        # besides a_k; without their a_k terms (all a flat prefix needs); and
        # split at the top level h of those (None where not affine in it)
        sloped = not (self.smooth | self.flat).all()  # some prefix reads all of t^k
        self.c, self.need, self.g, self.split = [], [], [], []
        for k in range(self.depth + 1):
            self.c.append(sloped and [_level_split(c[k], k + 1, r)[0] for c in jets])
            self.need.append(1 + max([v // r for c in jets for mono in c[k]
                                      for v, _e in mono if v < k * r], default=0))
            h = max(self.need[k] - 1, 1)
            self.g.append([_level_split(c[k], k, r)[0] for c in jets] if k else None)
            self.split.append([_level_split(c[k], h, r) for c in jets] if k else None)
        self.dtype = np.int8 if q <= 127 else np.int64
        return np.stack([_eval_poly_mod(f, start, q) for f in polys], axis=1)

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
        M = len(self.grid)
        if X.shape[1] >= width * self.r:
            yield rows
            return
        per = max(1, _CHUNK // M)
        grid = self.grid.astype(self.dtype)
        for lo in range(0, len(X), per):
            s = slice(lo, lo + per)
            yield from self._expand((
                np.hstack([np.repeat(X[s], M, axis=0), np.tile(grid, (len(X[s]), 1))]),
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
            codes = (ords + 1) @ self._base
            ends = flat & (act.sum(axis=1) == 1) & (act & affine).any(axis=1)
            ends &= (width <= h) & ~self._live_mask(codes, k + 1)
            for i in np.flatnonzero(affine if ends.any() else []):
                sel = tuple(a[ends & act[:, i]] for a in rows)
                for Xs, _a, o, o1 in self._expand(sel, h):
                    c0 = _eval_poly_mod(self.split[k][i][0], Xs, q)
                    wnz = np.any([_eval_poly_mod(wj, Xs, q) != 0
                                  for wj in self.split[k][i][1:]], axis=0)
                    codes_i = (o + 1) @ self._base + (k + 1) * self._base[i]
                    w = q ** (r * (k - h) + r - 1)
                    _record(rec, k + 1, codes_i[wnz], o1[wnz], w, w * (q - 1))
                    hit = ~wnz & (c0 != 0)
                    _record(rec, k + 1, codes_i[hit], (o1 & (c0 == 1))[hit],
                            w * q, w * q)
            wide = ~ends & (np.where(flat, need, k + 1) > width)
            for sel, w in ((wide & flat, need), (wide & ~flat, k + 1)):
                if sel.any():
                    yield from self._step(_batches(self._expand(
                        tuple(a[sel] for a in rows), w)), k, rec)
            rest = ~ends & ~wide
            if not rest.any():
                continue
            X, a0, ords, one = (a[rest] for a in rows)
            polys = self.g[k] if width <= k else self.c[k]
            v = np.stack([_eval_poly_mod(p, X, q) for p in polys], axis=1)
            o, o1 = _settle(ords, one, v, k)
            keep = self._classify(o, o1, a0, k + 1, q ** (r * (k + 1 - width)), rec)
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
        return np.isin(codes, [c for c in _present(codes) if self._is_live(c, level)])

    def _decode(self, code):
        b = self.depth + 2
        return [code // b ** i % b - 1 for i in range(self.sys.l)]

    def _is_live(self, code, level):
        # shared by the shards; a race only computes the same value twice
        key = (code, level)
        if key not in self._live:
            ords = self._decode(code)
            self._live[key] = any(_fits(ords, n, level) for n in self.targets)
        return self._live[key]

    def _assemble(self, rec):
        """Closed form per record: a prefix of length k with open set U has
        prod_{j=k..max n} q^(r-|U_j|) (q-1)^(s_j) completions with ord f_i =
        n_i (i in U), U_j = {n_i >= j}, s_j = #{n_i = j}; 1 for q-1 when every
        leading coefficient must be 1.  Levels past max n are free."""
        q, r = self.q, self.r
        dist = {n: [0, 0] for n in self.targets}
        for (k, code, side), mult in rec.items():
            ords = self._decode(code)
            U = [i for i, o in enumerate(ords) if o < 0]
            for n in (n for n in self.targets if _fits(ords, n, k)):
                m = max(n)
                p = mult * q ** (r * (sum(n) - m))
                for j in range(k, m + 1):
                    p *= (q ** (r - sum(n[i] >= j for i in U))
                          * (q - 1 if side else 1) ** sum(n[i] == j for i in U))
                dist[n][side] += p
        return {n: tuple(v) for n, v in dist.items()}


def _bits(act):
    """The open set of each row as a bit mask (bit i for f_i)."""
    return sum(act[:, i].astype(np.int64) << i for i in range(act.shape[1]))


def _present(values):
    """The distinct values of a nonnegative int array, as Python ints."""
    return [int(v) for v in np.flatnonzero(np.bincount(values))]


def _batches(chunks):
    """Row chunks regrouped into batches of about _CHUNK rows of one width."""
    bufs = {}
    for chunk in chunks:
        buf = bufs.setdefault(chunk[0].shape[1], [])
        buf.append(chunk)
        if sum(len(c[1]) for c in buf) >= _CHUNK:
            yield tuple(np.concatenate(p) for p in zip(*buf))
            buf.clear()
    for buf in bufs.values():
        if buf:
            yield tuple(np.concatenate(p) for p in zip(*buf))


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


def build_count_table(sys, q, n_max, constraint=None, threads=1):
    counts = CountPlan(sys, q, constraint, order_indices(sys.l, n_max)).counts(threads)
    return ArcCountTable(q, n_max, {n: (one if sys.l == 1 else None, all_)
                                    for n, (one, all_) in counts.items()})


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


def _partial(f, j):
    out = {}
    for mono, c in f.terms.items():
        e = mono[j]
        if e:
            down = mono[:j] + (e - 1,) + mono[j + 1:]
            out[down] = out.get(down, 0) + c * e
    return Poly(f.nvars, out)


def padic_solution_counts(f, p, k_max):
    """[A_0, ..., A_k_max] with A_k = #{x in (Z/p^k)^m : f(x) = 0 mod p^k},
    computed by lifting digit by digit.

    For k >= 1 the value on a lift x + p^k y is f(x) + p^k grad f(x).y modulo
    p^(k+1), affine in the new digits, so the last requested level is counted
    in closed form per survivor instead of being enumerated.
    """
    if not is_prime(p):
        raise ArcError("p must be prime")
    if all(c % p == 0 for c in f.terms.values()):
        raise ArcError("polynomial vanishes identically mod p")
    if p ** (k_max + 1) > 2 ** 31:
        raise ArcError("modulus p^%d too large for exact vector arithmetic" % k_max)
    m = f.nvars
    grid = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    A = [1]
    if k_max == 0:
        return A
    sols = grid[_eval_poly_mod(f, grid, p) == 0]
    A.append(sols.shape[0])
    grads = [_partial(f, j) for j in range(m)]
    for k in range(1, k_max):
        mod = p ** (k + 1)
        pk = p ** k
        keep = k + 1 < k_max
        if not keep:
            c = _eval_poly_mod(f, sols, mod) // pk  # f(x) = 0 mod p^k already
            gnz = np.zeros(sols.shape[0], dtype=bool)
            for g in grads:
                if g.terms:
                    gnz |= _eval_poly_mod(g, sols, p) != 0
            per = np.where(gnz, p ** (m - 1),
                           np.where(c % p == 0, p ** m, 0))
            A.append(int(per.sum(dtype=np.int64)))
            continue
        rows = max(1, _CHUNK // grid.shape[0])
        count = 0
        parts = []
        for lo in range(0, sols.shape[0], rows):
            chunk = sols[lo:lo + rows]
            cand = (np.repeat(chunk, grid.shape[0], axis=0)
                    + pk * np.tile(grid, (chunk.shape[0], 1)))
            mask = _eval_poly_mod(f, cand, mod) == 0
            count += int(mask.sum())
            parts.append(cand[mask])
        A.append(count)
        sols = (np.concatenate(parts) if parts
                else np.zeros((0, m), dtype=np.int64))
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
