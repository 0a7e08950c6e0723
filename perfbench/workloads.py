"""The four benchmark workloads: how each op is built from the seed, how it
runs, and how its output is checked.

Every op of a workload has the same cost.  The CLI-shaped workloads draw
their inputs from the seed through relabelings that keep both cost and
counts: a permutation of the variables and unit scalings x_i -> u_i x_i
(u_i a unit mod q).  Arc and p-adic counts are invariant under both, so the
output of every op equals the stored output of the canonical op.  The
symbolic workload draws the coefficients of a resolution datum of fixed
shape from the seed; its outputs change with the seed and are checked by
two independent routes instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
DATA = HERE / "data"

NAMES = ("verify", "zeta-count", "castle-igusa", "symbolic-transfer")

TORUS_SYS1 = ["x1", "x2", "x3"]
TORUS_SYS2 = ["x1*x4 - x2*x3", "x1*x6 - x2*x5", "x3*x6 - x4*x5"]
QUADRIC_F = "x1^2 + x2^2 + x3^2"
QUADRIC_G = "(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2 + (x3*x6 - x4*x5)^2"
CUSP = "x1^2 - x2^3"

# Two-digit units, so that ops rarely repeat an input and every relabeled
# text has the same length.
UNITS = {q: tuple(u for u in range(11, 100) if u % q) for q in (2, 3)}


def relabel_system(texts, nvars, q, rng):
    """texts with x_k -> (u_k*x_perm(k)) for a seeded permutation of
    x1..x_nvars and units u_k mod q; rng=None gives the identity."""
    perm = list(range(1, nvars + 1))
    units = [1] * nvars
    if rng is not None:
        rng.shuffle(perm)
        units = [rng.choice(UNITS[q]) for _ in perm]

    def sub(m):
        k = int(m.group(1)) - 1
        return "(%d*x%d)" % (units[k], perm[k])

    return [re.sub(r"x(\d+)", sub, t) for t in texts]


def cli_argv(name, rng=None):
    """argv of one op of a CLI-shaped workload; rng=None is the canonical op."""
    if name == "verify":
        polys1 = relabel_system(TORUS_SYS1, 3, 3, rng)
        polys2 = relabel_system(TORUS_SYS2, 6, 3, rng)
        return ["verify", "--castling", str(DATA / "torus-m3.json"),
                "--polys1", ";".join(polys1), "--polys2", ";".join(polys2),
                "--q", "3", "--order", "2", "--threads", "1",
                "--deterministic"]
    if name == "zeta-count":
        (poly,) = relabel_system([CUSP], 2, 2, rng)
        return ["zeta-count", "--poly", poly, "--q", "2", "--order", "10",
                "--threads", "1", "--deterministic"]
    if name == "castle-igusa":
        (f,) = relabel_system([QUADRIC_F], 3, 2, rng)
        (g,) = relabel_system([QUADRIC_G], 6, 2, rng)
        return ["castle-igusa", "--castling", str(DATA / "quadric-m3.json"),
                "--poly", f, "--p", "2", "--order", "3", "--partner", g,
                "--deterministic"]
    raise KeyError(name)


# -- symbolic-transfer --------------------------------------------------------

# (m, r1, r2, l, d) of the castling datum the transfers run through.
SYMBOLIC_CASTLING = (7, 2, 5, 1, (2,))
EXPAND_ORDER = 8
CHECK_Q = 3
# Roots the b-function must contain for the r1 = 2, d = 2 removal step.
BASE_ROOTS = ("1/2", "1", "1", "3/2")
EXTRA_ROOTS = ("1/3", "2/3", "5/4", "7/4", "5/2")


def symbolic_input(rng=None):
    """(resolution datum JSON, b-function roots) with components
    (N, nu) = (2, 3), (1, 1); rng=None gives the canonical coefficients."""
    a = [rng.randint(1, 5) for _ in range(11)] if rng else [1] * 11
    datum = {
        "components": [{"id": "E1", "N": 2, "nu": 3},
                       {"id": "E2", "N": 1, "nu": 1}],
        "strata": [
            {"I": ["E1"], "class": "%d*L^2 + %d*L" % (a[0], a[1]),
             "spectrum": "%d*t^2 + %d*t^(3/2)" % (a[2], a[3])},
            {"I": ["E2"], "class": "%d*L + %d" % (a[4], a[5]),
             "spectrum": "%d*t" % a[6]},
            {"I": ["E1", "E2"], "class": "%d*L + %d" % (a[7], a[8]),
             "spectrum": "%d + %d*t" % (a[9], a[10])},
        ],
    }
    extra = rng.sample(EXTRA_ROOTS, 2) if rng else list(EXTRA_ROOTS[:2])
    return datum, list(BASE_ROOTS) + extra


class SymbolicOp:
    """Parse one resolution datum and push its zeta data through every
    library transfer."""

    def __init__(self, arczeta, datum, roots):
        self.az = arczeta
        self.datum = datum
        self.roots = [Fraction(r) for r in roots]
        self.c = arczeta.CastlingDatum(*SYMBOLIC_CASTLING)

    def __call__(self):
        az, c = self.az, self.c
        R = az.ResolutionDatum.from_json(self.datum)
        Z = az.zeta_from_resolution(R)
        return {
            "Z": Z,
            "castle_zeta": az.castle_zeta(Z, c).expand(EXPAND_ORDER),
            "castle_local_zeta": az.castle_local_zeta(Z, c).expand(EXPAND_ORDER),
            "castle_milnor": az.castle_milnor(az.milnor_fiber(R), c),
            "castle_spectrum": az.castle_spectrum(az.hsp_of_f(R, 3), c),
            "castle_bfunction": az.castle_bfunction(
                az.BFunction.from_roots(self.roots), c),
        }

    def inputs(self):
        """The transfer inputs, rebuilt outside timing for the checks."""
        az = self.az
        R = az.ResolutionDatum.from_json(self.datum)
        return (az.milnor_fiber(R), az.hsp_of_f(R, 3),
                az.BFunction.from_roots(self.roots))


def symbolic_to_json(out):
    """Exact text form of a symbolic op's outputs; rational coefficients are
    kept as (numerator, denominator) so that they compare as values."""
    def series(s):
        return {",".join(map(str, n)): [str(v.num), str(v.den)]
                for n, v in sorted(s.coeffs.items())}
    counting, spec = out["castle_milnor"]
    return {
        "castle_zeta": series(out["castle_zeta"]),
        "castle_local_zeta": series(out["castle_local_zeta"]),
        "castle_milnor": [str(counting.num), str(counting.den), str(spec)],
        "castle_spectrum": str(out["castle_spectrum"]),
        "castle_bfunction": str(out["castle_bfunction"]),
    }


def max_den_terms(out):
    """Largest number of terms in a denominator of the expanded series."""
    return max(len(v.den.terms)
               for key in ("castle_zeta", "castle_local_zeta")
               for v in out[key].coeffs.values())


# -- workload objects ---------------------------------------------------------


class Workload:
    """The op sequence of one workload for one seed, plus the output checks.

    run(op) returns (status, output); check(op, status, output) returns None
    when the output is right and a one-line reason otherwise.
    """

    def __init__(self, name, seed, arczeta):
        if name not in NAMES:
            raise KeyError("unknown workload %r (have: %s)"
                           % (name, ", ".join(NAMES)))
        self.name = name
        self.az = arczeta
        self.rng = random.Random("%s:%d" % (name, seed))
        if name == "symbolic-transfer":
            self.canonical = SymbolicOp(arczeta, *symbolic_input())
            with open(EXPECTED / "symbolic-transfer.json") as fh:
                self.expected = json.load(fh)
        else:
            from arczeta.cli import build_parser
            self.parser = build_parser()
            self.canonical = self.parser.parse_args(cli_argv(name))
            self.expected = (EXPECTED / (name + ".txt")).read_text()

    def next_op(self):
        """The next op of the seed's sequence, each with fresh inputs."""
        if self.name == "symbolic-transfer":
            return SymbolicOp(self.az, *symbolic_input(self.rng))
        return self.parser.parse_args(cli_argv(self.name, self.rng))

    def run(self, op):
        if self.name == "symbolic-transfer":
            return 0, op()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = op.func(op, 0.0)
        return status, buf.getvalue()

    def check(self, op, status, output):
        if status != 0:
            return "exit status %d" % status
        if self.name == "symbolic-transfer":
            return check_symbolic(self.az, op, output)
        if output != self.expected:
            return "output differs from the stored canonical output"
        data = json.loads(output)
        if self.name == "verify" and data.get("all_equal") is not True:
            return "verify did not report all_equal"
        if self.name == "castle-igusa" and data.get("partner_matches") is not True:
            return "castle-igusa did not report partner_matches"
        return None

    def check_canonical(self, status, output):
        """The canonical op must also match the stored outputs exactly."""
        bad = self.check(self.canonical, status, output)
        if bad or self.name != "symbolic-transfer":
            return bad
        return compare_symbolic(self.az, symbolic_to_json(output),
                                self.expected)

    def threads_identical(self):
        """--threads 2 must print the same bytes as --threads 1."""
        op = self.canonical
        one = self.run(op)
        op.threads = 2
        try:
            two = self.run(op)
        finally:
            op.threads = 1
        return one == two


def check_symbolic(az, op, out):
    """Two routes to the specialized series, the local transfer against the
    global one, and every invertible transfer undone by the swapped datum."""
    c = op.c
    swapped = c.swapped()
    glob = out["castle_zeta"].specialize(CHECK_Q)
    numeric = az.castle_zeta_numeric(
        out["Z"].expand(EXPAND_ORDER).specialize(CHECK_Q), CHECK_Q, c)
    if glob != numeric:
        return "castle_zeta disagrees with castle_zeta_numeric at q=%d" % CHECK_Q
    # local = T^(d (r2 - r1)) U SL(r1)/SL(r2) global, with
    # U = prod_{j<=r2} (1 - q^-j) / prod_{j<=r1} (1 - q^-j)
    q = Fraction(CHECK_Q)
    factor = (az.sl_class(c.r1).specialize(q) / az.sl_class(c.r2).specialize(q))
    for j in range(1, c.r2 + 1):
        factor *= 1 - q ** -j
    for j in range(1, c.r1 + 1):
        factor /= 1 - q ** -j
    shift = c.d[0] * (c.r2 - c.r1)
    local = out["castle_local_zeta"].specialize(CHECK_Q)
    for n in range(EXPAND_ORDER + 1):
        want = glob.coefficient((n - shift,)) * factor if n >= shift else 0
        if local.coefficient((n,)) != want:
            return "castle_local_zeta disagrees with castle_zeta at T^%d" % n
    milnor, hsp, bfun = op.inputs()
    counting, spec = az.castle_milnor(out["castle_milnor"], swapped)
    if (counting, spec) != (az.RationalMotive(milnor[0]), milnor[1]):
        return "castle_milnor is not undone by the swapped datum"
    if az.castle_spectrum(out["castle_spectrum"], swapped) != hsp:
        return "castle_spectrum is not undone by the swapped datum"
    if az.castle_bfunction(out["castle_bfunction"], swapped) != bfun:
        return "castle_bfunction is not undone by the swapped datum"
    return None


def compare_symbolic(az, got, want):
    """Compare two symbolic_to_json forms as exact values."""
    def motive(pair):
        num, den = pair
        return az.RationalMotive(az.parse_laurent(num), az.parse_laurent(den))

    for key in ("castle_zeta", "castle_local_zeta"):
        if set(got[key]) != set(want[key]):
            return "%s has other nonzero coefficients than stored" % key
        for n in want[key]:
            if motive(got[key][n]) != motive(want[key][n]):
                return "%s coefficient at T^%s differs from stored" % (key, n)
    if motive(got["castle_milnor"][:2]) != motive(want["castle_milnor"][:2]):
        return "castle_milnor class differs from stored"
    for key, value in (("castle_milnor", got["castle_milnor"][2]),
                       ("castle_spectrum", got["castle_spectrum"]),
                       ("castle_bfunction", got["castle_bfunction"])):
        stored = want[key][2] if key == "castle_milnor" else want[key]
        if value != stored:
            return "%s differs from stored" % key
    return None
