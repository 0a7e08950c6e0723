"""Zeta series, Milnor fiber and Hodge spectrum from resolution data.

A resolution datum lists the exceptional components (with the multiplicities
N of f and nu of the pulled-back volume form) and, per nonempty component
subset I, the two realizations of the associated cover of the open stratum:
a point-count class in L and, optionally, a spectrum value.  The data is
user-supplied input; computing resolutions is out of scope.  Count classes
are typically only valid under a congruence condition on q, which the datum
carries along as the ``valid_q`` annotation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .motive import LaurentMotive, RationalMotive, _json, parse_laurent
from .series import RationalSeries
from .spectrum import Spectrum, parse_spectrum


class ResolutionError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    id: str
    N: int
    nu: int

    def __post_init__(self):
        if self.N < 1 or self.nu < 1:
            raise ResolutionError("component %s needs N >= 1 and nu >= 1" % self.id)


@dataclass(frozen=True)
class Stratum:
    I: frozenset
    cls: LaurentMotive
    spectrum: Spectrum | None = None


@dataclass(frozen=True)
class ResolutionDatum:
    components: tuple
    strata: tuple
    valid_q: str | None = None

    def __post_init__(self):
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ResolutionError("duplicate component ids")
        known = set(ids)
        seen = set()
        for s in self.strata:
            if not s.I:
                raise ResolutionError("empty stratum subset")
            if not s.I <= known:
                raise ResolutionError("stratum references unknown components %r"
                                      % sorted(s.I - known))
            if s.I in seen:
                raise ResolutionError("duplicate stratum subset %r" % sorted(s.I))
            seen.add(s.I)

    @cached_property
    def _zeta(self):
        """The series of zeta_from_resolution, built on first use."""
        out = RationalSeries.zero(1)
        lminus1 = LaurentMotive({1: 1, 0: -1})
        for s in self.strata:
            comps = [self.component(cid) for cid in sorted(s.I)]
            coeff = RationalMotive((lminus1 ** (len(comps) - 1) * s.cls)
                                   .shift(-sum(c.nu for c in comps)))
            shift = (sum(c.N for c in comps),)
            factors = [(c.nu, (c.N,)) for c in comps]
            out = out + RationalSeries.term(coeff, shift, factors)
        return out

    @cached_property
    def _milnor(self):
        """The pair of milnor_fiber, checked against the zeta limit on first use."""
        one_minus_l = LaurentMotive({0: 1, 1: -1})
        counting = LaurentMotive.zero()
        for s in self.strata:
            counting = counting + one_minus_l ** (len(s.I) - 1) * s.cls
        if -self._zeta.limit_at_infinity() != RationalMotive(counting):
            raise ResolutionError(
                "zeta limit disagrees with the stratum sum; inconsistent datum")
        spectrum = None
        if self.has_spectra():
            one_minus_t = Spectrum({0: 1, 1: -1})
            spectrum = Spectrum.zero()
            for s in self.strata:
                spectrum = spectrum + one_minus_t ** (len(s.I) - 1) * s.spectrum
        return counting, spectrum

    def component(self, cid):
        for c in self.components:
            if c.id == cid:
                return c
        raise ResolutionError("no component %r" % cid)

    def has_spectra(self):
        return all(s.spectrum is not None for s in self.strata)

    @classmethod
    def from_json(cls, data):
        data = _json(data, {"components": [{"id": str, "N": int, "nu": int}],
                            "strata": [{"I": [str], "class": str, "spectrum": str | None}],
                            "valid_q": str | None}, ResolutionError)
        strata = tuple(Stratum(frozenset(s["I"]), parse_laurent(s["class"]),
                               None if s["spectrum"] is None else parse_spectrum(s["spectrum"]))
                       for s in data["strata"])
        return cls(tuple(Component(**c) for c in data["components"]), strata, data["valid_q"])

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        out = {
            "components": [{"id": c.id, "N": c.N, "nu": c.nu}
                           for c in self.components],
            "strata": [],
        }
        for s in self.strata:
            entry = {"I": sorted(s.I), "class": str(s.cls)}
            if s.spectrum is not None:
                entry["spectrum"] = str(s.spectrum)
            out["strata"].append(entry)
        if self.valid_q is not None:
            out["valid_q"] = self.valid_q
        return out


def zeta_from_resolution(R):
    """The zeta series as a sum over strata: the subset I contributes
    (L-1)^(|I|-1) [cover class] prod_{i in I} L^-nu_i T^N_i / (1 - L^-nu_i T^N_i).
    It is built once per datum object and shared (a series is immutable).
    """
    return R._zeta


def milnor_fiber(R):
    """(counting class, spectrum or None) of the virtual Milnor fiber
    sum over strata of (1-L)^(|I|-1) [cover class]; the spectrum is None
    when some stratum lacks one.

    The counting value is cross-checked against minus the limit at infinity
    of the zeta series.  Pair and check are computed once per datum object;
    a failed check caches nothing, so every call on that datum raises.
    """
    return R._milnor


def hsp_of_f(R, dim):
    """Hodge spectrum at the chosen point: (-1)^(dim-1) (spectrum of the datum's
    Milnor fiber, computed and checked once, minus 1); dim only fixes the sign."""
    _, spec = R._milnor
    if spec is None:
        raise ResolutionError("spectrum requested but some stratum lacks it")
    sign = -1 if (dim - 1) % 2 else 1
    return sign * (spec - Spectrum.one())
