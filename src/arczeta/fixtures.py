"""Shipped example data: resolution data for small germs and the castling
pairs used throughout the verification drivers.

Resolution fixtures were computed by hand (blow-up coordinates for the
3-variable quadric, the identity chart otherwise) and each one is
cross-validated against exhaustive arc counts in the test suite.  The class
entries are point counts of covers and are only valid for q satisfying the
recorded congruence, if any.
"""

from __future__ import annotations

import json
from importlib import resources

from .castling import CastlingDatum
from .polynomials import parse_poly
from .resolution import ResolutionDatum

RESOLUTION_FIXTURES = ("x1", "x2", "x3", "xy-global", "xy-local",
                       "quadric3-local")
CASTLING_FIXTURES = ("quadric-m3", "torus-m3", "sym-m2")


def _read(kind, name, names):
    if name not in names:
        raise KeyError("unknown %s fixture %r (have: %s)" % (kind, name, ", ".join(names)))
    ref = resources.files("arczeta") / "data" / (name + ".json")
    with ref.open() as fh:
        return json.load(fh)


def resolution_fixture(name):
    return ResolutionDatum.from_json(_read("resolution", name, RESOLUTION_FIXTURES))


def castling_fixture(name):
    """(sys1 polys, sys2 polys, CastlingDatum) for a named castling pair."""
    data = _read("castling", name, CASTLING_FIXTURES)
    datum = CastlingDatum.from_json(data["castling"])
    sys1 = [parse_poly(text, datum.m * datum.r1) for text in data["sys1"]]
    sys2 = [parse_poly(text, datum.m * datum.r2) for text in data["sys2"]]
    return sys1, sys2, datum
