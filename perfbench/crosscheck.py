"""Cross-check the stored canonical outputs by independent routes.

    python3 perfbench/crosscheck.py            # check perfbench/expected/
    python3 perfbench/crosscheck.py --record   # recompute, check, then store

Run from the root of a checkout.  The routes do not use arczeta's counting
engine:

- zeta-count: every arc of length n over F_2 is enumerated and the value of
  x1^2 - x2^3 expanded by truncated-series products in numpy;
- castle-igusa: the partner's solutions mod 2^k are enumerated over
  (Z/16)^6 and give its Igusa coefficients, which the stored transferred
  series must equal (the castling identity);
- verify: every stored row must satisfy the castling identity lhs == rhs,
  and the partner's rows with |n| <= 1 are recounted by enumeration;
- symbolic-transfer: the two-route and swap-involution checks of the
  benchmark itself.

--record writes a file only if its check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


# -- truncated power series over Z/q, one row per arc ------------------------


def ts_mul(a, b, q):
    n = a.shape[1]
    out = np.zeros_like(a)
    for i in range(n):
        out[:, i:] = (out[:, i:] + a[:, i:i + 1] * b[:, :n - i]) % q
    return out


def arcs(q, nvars, levels):
    """All arcs with `levels` coefficients per variable, as a list of
    (rows, levels) arrays, one per variable."""
    width = nvars * levels
    idx = np.arange(q ** width, dtype=np.int64)[:, None]
    digits = idx // q ** np.arange(width - 1, -1, -1, dtype=np.int64) % q
    return [digits[:, j * levels:(j + 1) * levels] for j in range(nvars)]


def order_and_lead(v, q):
    """ord_t and leading coefficient per row (ord = width when v = 0)."""
    nz = v != 0
    ord_ = np.where(nz.any(axis=1), nz.argmax(axis=1), v.shape[1])
    lead = v[np.arange(v.shape[0]), np.minimum(ord_, v.shape[1] - 1)]
    return ord_, lead


# -- zeta-count --------------------------------------------------------------


def cusp_coefficients(order):
    q = 2
    out = {}
    for n in range(1, order + 1):
        count = 0
        levels = n + 1
        # enumerate x1 fully and x2 fully, in chunks over x1's coefficients
        x1_all = arcs(q, 1, levels)[0]
        x2 = arcs(q, 1, levels)[0]
        x2cube = ts_mul(ts_mul(x2, x2, q), x2, q)
        for row in x1_all:
            x1 = np.broadcast_to(row, x2.shape)
            sq = ts_mul(x1[:1], x1[:1], q)
            v = (sq - x2cube) % q
            ord_, lead = order_and_lead(v, q)
            count += int(((ord_ == n) & (lead == 1)).sum())
        if count:
            out[str(n)] = str(Fraction(count, q ** (2 * n)))
    return out


def check_zeta_count(text):
    data = json.loads(text)
    want = cusp_coefficients(data["order"])
    if data["coefficients"] != want:
        return "stored %r, enumeration gives %r" % (data["coefficients"], want)
    return None


# -- castle-igusa ------------------------------------------------------------


def igusa_by_enumeration(poly_fn, nvars, p, order):
    """Igusa coefficients from solution counts A_k mod p^k, k <= order+1,
    enumerated over (Z/p^(order+1))^nvars."""
    top = order + 1
    mod = p ** top
    inner = max(0, nvars - 2)
    tail = np.array(list(itertools.product(range(mod), repeat=inner)),
                    dtype=np.int64).reshape(-1, inner)
    zeros = [0] * (top + 1)
    for head in itertools.product(range(mod), repeat=nvars - inner):
        cols = [np.full(tail.shape[0], h, dtype=np.int64) for h in head]
        cols += [tail[:, j] for j in range(inner)]
        val = poly_fn(cols) % mod
        for k in range(top + 1):
            zeros[k] += int((val % p ** k == 0).sum())
    A = [zeros[k] // (mod // p ** k) ** nvars for k in range(top + 1)]
    coeffs = {}
    for n in range(order + 1):
        c = Fraction(A[n] * p ** nvars - A[n + 1], p ** (nvars * (n + 1)))
        if c:
            coeffs[str(n)] = str(c)
    return coeffs


def quadric_partner(x):
    m1 = x[0] * x[3] - x[1] * x[2]
    m2 = x[0] * x[5] - x[1] * x[4]
    m3 = x[2] * x[5] - x[3] * x[4]
    return m1 * m1 + m2 * m2 + m3 * m3


def check_castle_igusa(text):
    data = json.loads(text)
    want = igusa_by_enumeration(quadric_partner, 6, data["p"], data["order"])
    if data["coefficients"] != want:
        return "transferred %r, partner enumeration gives %r" % (
            data["coefficients"], want)
    if data.get("partner_matches") is not True:
        return "partner_matches is not true"
    return None


# -- verify ------------------------------------------------------------------


def minors_stratum_coefficient(n, q):
    """Coefficient at T^n of the torus-m3 partner (three 2x2 minors of a
    3x2 matrix), leading coefficient any, by enumerating arcs."""
    total = sum(n)
    x = arcs(q, 6, total + 1)
    sub = lambda a, b: (a - b) % q  # noqa: E731
    vals = [sub(ts_mul(x[0], x[3], q), ts_mul(x[1], x[2], q)),
            sub(ts_mul(x[0], x[5], q), ts_mul(x[1], x[4], q)),
            sub(ts_mul(x[2], x[5], q), ts_mul(x[3], x[4], q))]
    ok = np.ones(x[0].shape[0], dtype=bool)
    for v, ni in zip(vals, n):
        ord_, _lead = order_and_lead(v, q)
        ok &= ord_ == ni
    return Fraction(int(ok.sum()), q ** (total * 6))


def check_verify(text):
    data = json.loads(text)
    if data.get("all_equal") is not True:
        return "all_equal is not true"
    if data["max_verified_order"] != data["order"]:
        return "max_verified_order is below the order"
    q = data["q"]
    for row in data["coefficients"]:
        if not row["equal"] or row["lhs"] != row["rhs"]:
            return "row %r breaks the castling identity" % (row["n"],)
        if sum(row["n"]) <= 1:
            want = minors_stratum_coefficient(tuple(row["n"]), q)
            if Fraction(row["rhs"]) != want:
                return "row %r: stored %s, enumeration gives %s" % (
                    row["n"], row["rhs"], want)
    return None


# -- main --------------------------------------------------------------------


def canonical_cli_output(name):
    from arczeta.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(workloads.cli_argv(name))
    if status != 0:
        raise SystemExit("%s canonical op exited with %d" % (name, status))
    return buf.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import arczeta

    checks = {"verify": check_verify, "zeta-count": check_zeta_count,
              "castle-igusa": check_castle_igusa}
    bad = 0
    for name in workloads.NAMES:
        if name == "symbolic-transfer":
            op = workloads.SymbolicOp(arczeta, *workloads.symbolic_input())
            out = op()
            why = workloads.check_symbolic(arczeta, op, out)
            path = workloads.EXPECTED / "symbolic-transfer.json"
            text = json.dumps(workloads.symbolic_to_json(out), indent=1,
                              sort_keys=True) + "\n"
            if why is None and not args.record:
                stored = json.loads(path.read_text())
                why = workloads.compare_symbolic(
                    arczeta, workloads.symbolic_to_json(out), stored)
        else:
            path = workloads.EXPECTED / (name + ".txt")
            text = (canonical_cli_output(name) if args.record
                    else path.read_text())
            why = checks[name](text)
        print("%-18s %s" % (name, "ok" if why is None else "FAILED: " + why))
        if why is None and args.record:
            path.write_text(text)
        bad += why is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
