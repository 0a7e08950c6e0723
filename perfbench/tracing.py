"""Span tracer for the traced run, applied to arczeta from outside.

install() replaces each traced public name with a wrapper in every arczeta
module that imported it (arczeta.cli.count_arcs and arczeta.castling.
count_stratum as well as arczeta.arcs.count_arcs), and wraps the traced
methods on their classes; uninstall() puts the originals back.  Spans are
kept in memory and written out by dump().

A layer's self time is its span's duration minus the time its child spans
cover.  A call into a layer from inside the same layer opens no new span, so
`calls` counts entries into a layer; truncated-series arithmetic inside
RationalSeries.expand is likewise part of the expansion.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

_MOTIVE_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__eq__", "specialize")
_SPECTRUM_OPS = _MOTIVE_OPS[:-1] + ("__pow__", "exact_div")

# layer -> (module, traced names); "Class.method" names are wrapped on the class.
LAYERS = {
    "polynomials.parse": ("polynomials", ("parse_poly", "parse_system")),
    "arcs.estimate": ("arcs", ("estimate_work",)),
    "arcs.jets": ("arcs", ("arc_value_coefficients",)),
    "arcs.count": ("arcs", ("count_arcs", "count_stratum")),
    "arcs.padic": ("arcs", ("igusa_coeffs", "padic_solution_counts")),
    "series.expand": ("series", ("RationalSeries.expand",)),
    "series.truncated": ("series", tuple(
        "TruncatedSeries." + m for m in
        ("__add__", "__sub__", "__mul__", "__eq__", "scale", "times_binomial",
         "over_binomial", "specialize", "coefficient"))),
    "motive": ("motive", tuple(
        ["LaurentMotive." + m for m in _MOTIVE_OPS + ("__pow__",)]
        + ["RationalMotive." + m for m in _MOTIVE_OPS
           + ("__init__", "__truediv__", "__rtruediv__")]
        + ["parse_laurent"])),
    "spectrum": ("spectrum", tuple(
        ["Spectrum." + m for m in _SPECTRUM_OPS] + ["parse_spectrum"])),
    "resolution": ("resolution", (
        "zeta_from_resolution", "milnor_fiber", "hsp_of_f",
        "ResolutionDatum.from_json", "ResolutionDatum.load")),
    "castling": ("castling", (
        "castle_zeta", "castle_local_zeta", "castle_milnor", "castle_spectrum",
        "castle_bfunction", "castle_igusa", "castle_zeta_numeric",
        "counting_series", "verify_castling", "CastlingDatum.load",
        "BFunction.from_roots")),
}

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # (op id, layer, name, start, end, parent index)
        self._stack = []  # open frames: [layer, start, child time, span index]
        self._patches = []  # (owner, attribute, original)
        self._thread = threading.get_ident()
        self._op = None

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "arczeta" or k.startswith("arczeta.")) and m]
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules["arczeta." + modname]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(layer, name, raw.__func__))
                    else:
                        new = self.wrap(layer, name, raw)
                    self._patch(cls, attr, raw, new)
                    continue
                orig = getattr(module, name)
                new = self.wrap(layer, name, orig)
                for m in modules:
                    if m.__dict__.get(name) is orig:
                        self._patch(m, name, orig, new)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def wrap(self, layer, name, fn):
        """fn recording a span of `layer` when called inside an op."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if not stack or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            if parent == layer or (parent == "series.expand"
                                   and layer == "series.truncated"):
                return fn(*args, **kwargs)
            self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if layer == "arcs.estimate":
                self._counts["arcs.estimate.rows"] += result
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, layer):
        self.spans.append(None)
        self._stack.append([layer, perf_counter(), 0.0, len(self.spans) - 1])

    def _close(self, name):
        end = perf_counter()
        layer, start, child, idx = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans[idx] = (self._op, layer, name, start, end,
                           parent[3] if parent else None)
        self._self[layer] += dur - child
        self._counts[layer + ".calls"] += 1
        return dur - child

    def run_op(self, op_id, fn):
        """Run fn under a root span; returns (result, per-op layer record)."""
        self._op = op_id
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        self._open(ROOT)
        try:
            result = fn()
        finally:
            own = self._close(ROOT)
        record = {
            "root_self_s": own,
            "self_s": {k: v for k, v in self._self.items() if k != ROOT},
            "counts": {k: v for k, v in self._counts.items()
                       if k != ROOT + ".calls"},
        }
        return result, record

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
