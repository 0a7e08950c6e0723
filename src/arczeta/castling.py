"""Transfer operators between castling partners, plus verification drivers.

A castling datum fixes m = r1 + r2 and the degrees d of the shared invariants;
the operators push each realization of the zeta data of one partner (series,
Milnor fiber class, spectrum, b-function roots, p-adic series) to the other.
All of them are exact and invertible by swapping r1 and r2.

The four series transfers share one skeleton, _transfer: a scalar, then r1
binomials (1 - L^-j T^d) traded for r2 geometric factors.  castle_zeta and
castle_local_zeta run it on RationalSeries; castle_zeta_numeric and
castle_igusa are its specialization at L = q, on truncated Fraction series.

The symbolic transfers reduce each output value once.  The Milnor transfer
multiplies numerator and denominator of its counting channel by the
binomials (1 - L^j) in the Laurent ring and builds one RationalMotive; it does
not cancel the factors the two sides share, because its denominator is
printed as it stands and quotients are never factored.  A spectrum is an
element of Z[t^(1/Z)], not a quotient, and one value has one stored form
(a Laurent polynomial in t^(1/den), see spectrum.py), so the spectrum channel
and castle_spectrum cancel the shared factors j <= min(r1, r2) first: one
product when r2 >= r1 and one exact division otherwise.  Z[t^(1/Z)] is an
integral domain, so the cancelled division is inexact exactly when the
uncancelled one is, and its error reports the lowest remainder term, which
the shared factors (constant term 1) leave unchanged.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .arcs import CountPlan, order_indices
from .motive import LaurentMotive, RationalMotive, sl_class
from .series import mi_scale
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
        if self.l < 1 or len(self.d) != self.l:
            raise CastlingError("need one degree per invariant")
        if any(x < 1 for x in self.d):
            raise CastlingError("degrees must be >= 1")

    def swapped(self):
        return CastlingDatum(self.m, self.r2, self.r1, self.l, self.d)

    @classmethod
    def from_json(cls, data):
        return cls(int(data["m"]), int(data["r1"]), int(data["r2"]),
                   int(data["l"]), tuple(int(x) for x in data["d"]))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        return {"m": self.m, "r1": self.r1, "r2": self.r2,
                "l": self.l, "d": list(self.d)}


def castle_zeta(Z1, c):
    """Transfer of the global zeta series: multiply by the ratio of special
    linear group classes and trade r1 binomials (1 - L^-j T^d) for r2
    geometric factors, T^d meaning the product of T_i^d_i."""
    return _transfer(Z1, c, _sl_ratio(c), lambda j: j)


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
    out = _transfer(Z1_0, c, _local_unit(c), lambda j: j)
    try:
        return out.shifted(mi_scale(c.r2 - c.r1, c.d))
    except ValueError as exc:
        raise CastlingError("degree bookkeeping failed: %s" % exc) from exc


def _transfer(Z, c, scalar, x):
    """Z * scalar * prod_{j<=r1}(1 - x(j) T^d) / prod_{j<=r2}(1 - x(j) T^d),
    x(j) the exponent j of L^-j (RationalSeries) or the rational q^-j."""
    if Z.nvars != c.l:
        raise CastlingError("series has %d variables, datum says %d"
                            % (Z.nvars, c.l))
    out = Z.scale(scalar)
    for j in range(1, c.r1 + 1):
        out = out.times_binomial(x(j), c.d)
    for j in range(1, c.r2 + 1):
        out = out.over_binomial(x(j), c.d)
    return out


def _sl_ratio(c):
    return RationalMotive(sl_class(c.r2), sl_class(c.r1))


def _local_unit(c):
    """U = prod_{j<=r2}(1 - L^-j) / prod_{j<=r1}(1 - L^-j)."""
    return RationalMotive(
        LaurentMotive({-e: v for e, v in _binomials(0, c.r2).items()}),
        LaurentMotive({-e: v for e, v in _binomials(0, c.r1).items()}))


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
    prod_{j<=r2}(1 - L^j) / prod_{j<=r1}(1 - L^j); the optional spectrum
    channel does the same with t for L and must divide exactly."""
    counting, spectrum = S1 if isinstance(S1, tuple) else (S1, None)
    if not isinstance(counting, RationalMotive):
        counting = RationalMotive(counting)
    counting = RationalMotive(counting.num * LaurentMotive(_binomials(0, c.r2)),
                              counting.den * LaurentMotive(_binomials(0, c.r1)))
    if spectrum is None:
        return counting
    try:
        return counting, _spectrum_ratio(spectrum, c.r1, c.r2)
    except SpectrumError as exc:
        raise CastlingError("spectrum channel is not divisible: %s" % exc) from exc


def castle_spectrum(h1, c):
    """Transfer of the Hodge spectrum at the origin: the displayed identity
    (1 + (-1)^(m r - 1) h) / prod_{j<=r}(1 - t^j) is equal on both sides; an
    inexact division means h1 is not the spectrum of a genuine partner."""
    s1 = -1 if (c.m * c.r1 - 1) % 2 else 1
    s2 = -1 if (c.m * c.r2 - 1) % 2 else 1
    try:
        quotient = _spectrum_ratio(Spectrum.one() + s1 * h1, c.r1, c.r2)
    except SpectrumError as exc:
        raise CastlingError("not a castling-partner spectrum: %s" % exc) from exc
    return s2 * (quotient - Spectrum.one())


def _binomials(lo, hi):
    """prod_{lo<j<=hi}(1 - X^j) as a dict exponent -> integer coefficient."""
    out = {0: 1}
    for j in range(lo + 1, hi + 1):
        nxt = dict(out)
        for e, v in out.items():
            nxt[e + j] = nxt.get(e + j, 0) - v
        out = nxt
    return out


def _spectrum_ratio(x, r1, r2):
    """x * prod_{j<=r2}(1 - t^j) / prod_{j<=r1}(1 - t^j) with the shared
    factors j <= min(r1, r2) cancelled: one product, or one exact division
    (SpectrumError if inexact)."""
    if r2 >= r1:
        return x * Spectrum(_binomials(r1, r2))
    return x.exact_div(Spectrum(_binomials(r2, r1)))


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
    if c.l != 1:
        raise CastlingError("b-function transfer needs a single invariant")
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
    if c.l != 1:
        raise CastlingError("p-adic transfer needs a single invariant")
    q = Fraction(q)
    return _transfer(Z1, c, _local_unit(c).specialize(q), lambda j: q ** -j)


def castle_zeta_numeric(Z1, q, c):
    """castle_zeta on a q-specialized truncated series (L already replaced
    by the rational q)."""
    q = Fraction(q)
    return _transfer(Z1, c, _sl_ratio(c).specialize(q), lambda j: q ** -j)


def counting_series(sys, q, order, leading, threads=1):
    """Numeric zeta series from exhaustive counts, including the order-zero
    boundary strata: coefficient at T^n is count(n) q^(-|n| r), every n
    counted by one plan."""
    plan = CountPlan(sys, q, None, order_indices(sys.l, order, low=0))
    return plan.series(order, leading, threads)


def verify_castling(sys1, sys2, c, q, order, threads=1, budget=None):
    """Count both partners, transfer the first series, and compare
    coefficientwise; returns a JSON-ready report.  Both counting plans are
    built, and refused with BudgetExceeded if either estimate exceeds the
    budget, before either sweeps."""
    if sys1.l != c.l or sys2.l != c.l:
        raise CastlingError("polynomial systems do not match the datum arity")
    if sys1.r != c.m * c.r1 or sys2.r != c.m * c.r2:
        raise CastlingError("ambient dimensions must be m*r1 and m*r2")
    for i in range(c.l):
        if sys1.degrees[i] != c.r1 * c.d[i] or sys2.degrees[i] != c.r2 * c.d[i]:
            raise CastlingError("invariant degrees must be r_j * d_i")
    leading = "one" if c.l == 1 else "any"
    plans = [CountPlan(s, q, None, order_indices(c.l, order, low=0), budget=budget)
             for s in (sys1, sys2)]
    Z1, Z2 = (plan.series(order, leading, threads) for plan in plans)
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
