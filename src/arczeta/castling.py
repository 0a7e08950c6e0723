"""Transfer operators between castling partners, plus verification drivers.

A castling datum fixes m = r1 + r2 and the degrees d of the shared invariants;
the operators push each realization of the zeta data of one partner (series,
Milnor fiber class, spectrum, b-function roots, p-adic series) to the other.
All of them are exact and invertible by swapping r1 and r2.

Every transfer but the b-function's moves its data by one ratio,
prod_{j<=r2}(1 - X^j) / prod_{j<=r1}(1 - X^j), with X = L^-1 in the series
scalars, L in the Milnor class, t in the spectrum and q^-1 at L = q; the series
themselves take its inverse in X^j T^d.  The factors j <= min(r1, r2) always
cancel, and _remaining is the one rule for the ones left: j in
(min(r1, r2), max(r1, r2)], in the numerator when r2 >= r1 and in the
denominator otherwise.  _ratio is the one rule that turns them into the
series ratio: _transfer multiplies by it as a RationalSeries, and
_numeric_transfer reads the same ratio at L = q.  No shared factor is a zero
divisor, so the cancelled ratio has the value of the full one, and the
spectrum's exact division fails exactly when the full one does.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .arcs import CountPlan
from .motive import LaurentMotive, RationalMotive, _binomials, _index, _json
from .series import RationalSeries, mi_scale
from .spectrum import Spectrum, SpectrumError


class CastlingError(ValueError):
    pass


@dataclass(frozen=True)
class CastlingDatum:
    m: int
    r1: int
    r2: int
    l: int
    d: tuple

    def __post_init__(self):
        if self.r1 < 1 or self.r2 < 1:
            raise CastlingError("r1 and r2 must be >= 1")
        if self.m != self.r1 + self.r2:
            raise CastlingError("m must equal r1 + r2")
        if self.l < 1:
            raise CastlingError("need at least one invariant")
        object.__setattr__(self, "d", _index(self.d, self.l, CastlingError, 1))

    def swapped(self):
        return CastlingDatum(self.m, self.r2, self.r1, self.l, self.d)

    @classmethod
    def from_json(cls, data):
        return cls(**_json(data, {"m": int, "r1": int, "r2": int, "l": int, "d": [int]},
                           CastlingError))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        return {"m": self.m, "r1": self.r1, "r2": self.r2,
                "l": self.l, "d": list(self.d)}


def castle_zeta(Z1, c):
    """Transfer of the global zeta series: multiply by the ratio of special
    linear group classes, sl_class(r2)/sl_class(r1) = L^(r2^2 - r1^2) U with
    U as in castle_local_zeta, and trade r1 binomials (1 - L^-j T^d) for r2
    geometric factors, T^d meaning the product of T_i^d_i."""
    return _transfer(Z1, c, c.r2 ** 2 - c.r1 ** 2)


def castle_local_zeta(Z1_0, c):
    """Transfer of the zeta series of the germ at the origin.

    Solving the displayed local relation for the second partner and clearing
    the T^-d factors by a global monomial multiplier gives
    Z2_0 = T^(d(r2-r1)) Z1_0 U prod_{j<=r1}(1 - L^-j T^d)
           / prod_{j<=r2}(1 - L^-j T^d)
    with U = prod_{j<=r2}(1 - L^-j) / prod_{j<=r1}(1 - L^-j); for r2 < r1 the
    monomial shift is negative and fails loudly if a term would leave the
    series ring (degree bookkeeping error).
    """
    return _transfer(Z1_0, c, 0, c.r2 - c.r1)


def _remaining(c):
    """(lo, hi, up): the factors lo < j <= hi of the castling ratio
    prod_{j<=r2}(1 - X^j) / prod_{j<=r1}(1 - X^j) that do not cancel, in the
    numerator when up (r2 >= r1) and in the denominator otherwise."""
    return min(c.r1, c.r2), max(c.r1, c.r2), c.r2 >= c.r1


def _ratio(c, e):
    """(scalar, top, bottom): L^e U prod_{j<=r1}(1 - L^-j T^d)
    / prod_{j<=r2}(1 - L^-j T^d), the factors of _remaining only, as the
    scalar L^e U (a RationalMotive), the j of the binomials (1 - L^-j T^d)
    and the j of the geometric factors; the one rule both rings read."""
    lo, hi, up = _remaining(c)
    js, unit = tuple(range(lo + 1, hi + 1)), _binomials(lo, hi, -1)
    if up:
        return RationalMotive(unit.shift(e)), (), js
    return RationalMotive(LaurentMotive({e: 1}), unit), js, ()


def _transfer(Z, c, e, shift=0):
    """Z * T^(shift d) * _ratio(c, e): the shift is taken on the terms of Z,
    the ratio by one product with it built as a RationalSeries.  The
    binomials only raise shifts, so a term of the result leaves the series
    ring exactly when the shifted term of Z it comes from does."""
    _check_arity(Z, c)
    if shift:
        try:
            Z = Z.shifted(mi_scale(shift, c.d))
        except ValueError as exc:
            raise CastlingError("degree bookkeeping failed: %s" % exc) from exc
    scalar, top, bottom = _ratio(c, e)
    one = (0,) * c.l
    ratio = RationalSeries.term(scalar, one, [(j, c.d) for j in bottom])
    for j in top:
        ratio = ratio * (RationalSeries.term(1, one)
                         + RationalSeries.term(LaurentMotive({-j: -1}), c.d))
    return Z * ratio


def _numeric_transfer(Z, q, c, e):
    """_ratio(c, e) at L = q on a truncated series Z with Fraction
    coefficients, by one Z.times_ratio call.  The truncated series form a
    ring, so the cancelled product gives every Fraction of the uncancelled
    one.  q = 0 and q = +-1, where the uncancelled ratio divides by zero,
    are refused."""
    _check_arity(Z, c)
    q = Fraction(q)
    if q in (0, 1, -1):
        raise CastlingError("no numeric transfer at q = %s" % q)
    scalar, top, bottom = _ratio(c, e)
    return Z.times_ratio(scalar.specialize(q), [q ** -j for j in top],
                         [q ** -j for j in bottom], c.d)


def _check_arity(Z, c):
    if Z.nvars != c.l:
        raise CastlingError("series has %d variables, datum says %d"
                            % (Z.nvars, c.l))


def localize_by_degree(Z, c, side):
    """Lemma-style passage from the global series to the series of the germ:
    Z_{f,0} = L^(-m r) T^(r d) Z_f for the partner on side 1 or 2."""
    r = c.r1 if side == 1 else c.r2
    out = Z * RationalMotive(LaurentMotive({-c.m * r: 1}))
    return out.shifted(mi_scale(r, c.d))


def globalize_by_degree(Z0, c, side):
    """Inverse of localize_by_degree; errors if the series does not actually
    vanish to the required order."""
    r = c.r1 if side == 1 else c.r2
    out = Z0 * RationalMotive(LaurentMotive({c.m * r: 1}))
    try:
        return out.shifted(mi_scale(-r, c.d))
    except ValueError as exc:
        raise CastlingError("degree bookkeeping failed: %s" % exc) from exc


def castle_milnor(S1, c):
    """Transfer of the virtual Milnor fiber: multiply by
    prod_{j<=r2}(1 - L^j) / prod_{j<=r1}(1 - L^j), the factors of _remaining
    only; the optional spectrum channel does the same with t for L and must
    divide exactly."""
    counting, spectrum = S1 if isinstance(S1, tuple) else (S1, None)
    if not isinstance(counting, RationalMotive):
        counting = RationalMotive(counting)
    lo, hi, up = _remaining(c)
    extra = RationalMotive(_binomials(lo, hi))
    counting = counting * extra if up else counting / extra
    if spectrum is None:
        return counting
    try:
        return counting, _spectrum_ratio(spectrum, c)
    except SpectrumError as exc:
        raise CastlingError("spectrum channel is not divisible: %s" % exc) from exc


def castle_spectrum(h1, c):
    """Transfer of the Hodge spectrum at the origin: the displayed identity
    (1 + (-1)^(m r - 1) h) / prod_{j<=r}(1 - t^j) is equal on both sides; an
    inexact division means h1 is not the spectrum of a genuine partner."""
    s1 = -1 if (c.m * c.r1 - 1) % 2 else 1
    s2 = -1 if (c.m * c.r2 - 1) % 2 else 1
    try:
        quotient = _spectrum_ratio(Spectrum.one() + s1 * h1, c)
    except SpectrumError as exc:
        raise CastlingError("not a castling-partner spectrum: %s" % exc) from exc
    return s2 * (quotient - Spectrum.one())


def _spectrum_ratio(x, c):
    """x * prod_{j<=r2}(1 - t^j) / prod_{j<=r1}(1 - t^j), the factors of
    _remaining only: one product, or one exact division (SpectrumError if
    inexact, reporting the lowest remainder term, which the cancelled
    factors, constant term 1, leave unchanged)."""
    lo, hi, up = _remaining(c)
    extra = Spectrum._of(1, _binomials(lo, hi))
    return x * extra if up else x.exact_div(extra)


@dataclass(frozen=True)
class BFunction:
    """A b-function through its multiset of root magnitudes: b(s) = prod (s + rho)."""

    roots: tuple  # sorted tuple of (Fraction rho, multiplicity)

    @classmethod
    def from_roots(cls, roots):
        try:
            count = Counter(Fraction(r) for r in roots)
        except ZeroDivisionError:
            raise CastlingError("b-function root with zero denominator") from None
        if any(r <= 0 for r in count):
            raise CastlingError("b-function roots must be positive rationals")
        return cls(tuple(sorted(count.items())))

    def as_counter(self):
        return Counter(dict(self.roots))

    def size(self):
        return sum(m for _r, m in self.roots)

    def __str__(self):
        parts = []
        for r, mult in self.roots:
            text = str(r)
            parts.extend([text] * mult)
        return "{" + ", ".join(parts) + "}"

    def to_json(self):
        return {"roots": [{"root": str(r), "multiplicity": m}
                          for r, m in self.roots]}


def castle_bfunction(b1, c):
    """Root multiset transfer: add {(i+j)/d : i <= r2, 0 <= j < d}, remove the
    same set with r1; removing a root that is not present means the input was
    not the b-function of a castling partner."""
    check_pair(c, transfer="b-function")
    d = c.d[0]
    roots = b1.as_counter()
    for i in range(1, c.r2 + 1):
        for j in range(d):
            roots[Fraction(i + j, d)] += 1
    for i in range(1, c.r1 + 1):
        for j in range(d):
            rho = Fraction(i + j, d)
            if roots[rho] <= 0:
                raise CastlingError("cancellation failed at root %s" % rho)
            roots[rho] -= 1
    return BFunction.from_roots(
        [r for r, m in roots.items() for _ in range(m)])


def castle_igusa(Z1, q, c):
    """Transfer of the p-adic series in t = q^-s: multiply by
    prod_{j<=r2} (1 - q^-j)/(1 - q^-j t^d) and divide the r1 version out,
    with exact rational arithmetic at the input truncation order: the local
    transfer at L = q without its monomial shift."""
    check_pair(c, transfer="p-adic")
    return _numeric_transfer(Z1, q, c, 0)


def castle_zeta_numeric(Z1, q, c):
    """castle_zeta on a q-specialized truncated series (L already replaced
    by the rational q): the SL class ratio at q is q^(r2^2 - r1^2) times
    the local unit."""
    return _numeric_transfer(Z1, q, c, c.r2 ** 2 - c.r1 ** 2)


def counting_series(sys, q, order, leading, threads=1):
    """Numeric zeta series from exhaustive counts, including the order-zero
    boundary strata: coefficient at T^n is count(n) q^(-|n| r), every n
    counted by one plan."""
    return CountPlan(sys, q, None, order).series(leading, threads)


def check_pair(c, *sides, transfer=None):
    """Before any counting or lifting, refuse a datum of l != 1 for a named
    one-invariant transfer, then partners that do not fit it: side j (1, then
    2 if given) needs l polynomials on m r_j variables, the i-th of degree r_j d_i."""
    if transfer and c.l != 1:
        raise CastlingError("%s transfer needs a single invariant" % transfer)
    sides = list(zip(sides, (c.r1, c.r2)))
    if any(len(fs) != c.l for fs, _r in sides):
        raise CastlingError("polynomial systems do not match the datum arity")
    if any(f.nvars != c.m * r for fs, r in sides for f in fs):
        raise CastlingError("ambient dimensions must be m*r1 and m*r2")
    if any(f.degree() != r * d for fs, r in sides for f, d in zip(fs, c.d)):
        raise CastlingError("invariant degrees must be r_j * d_i")


def verify_castling(sys1, sys2, c, q, order, threads=1, budget=None):
    """Count both partners, transfer the first series, and compare
    coefficientwise; returns a JSON-ready report.  Both counting plans are
    built before either sweeps, so a plan beyond the budget (BudgetExceeded)
    or beyond a limit of its own (ArcError) is refused before any counting."""
    check_pair(c, sys1.polys, sys2.polys)
    leading = "one" if c.l == 1 else "any"
    plans = [CountPlan(s, q, None, order, budget=budget) for s in (sys1, sys2)]
    Z1, Z2 = (plan.series(leading, threads) for plan in plans)
    predicted = castle_zeta_numeric(Z1, q, c)
    rows = []
    worst = order
    keys = sorted(set(Z2.coeffs) | set(predicted.coeffs))
    for n in keys:
        lhs = predicted.coefficient(n)
        rhs = Z2.coefficient(n)
        equal = lhs == rhs
        if not equal:
            worst = min(worst, sum(n) - 1)
        rows.append({"n": list(n), "lhs": str(lhs), "rhs": str(rhs),
                     "equal": equal})
    return {
        "q": q,
        "order": order,
        "leading": leading,
        "castling": c.to_json(),
        "coefficients": rows,
        "all_equal": all(row["equal"] for row in rows),
        "max_verified_order": worst,
    }
