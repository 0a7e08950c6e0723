"""Golden CLI output: the printed bytes of the symbolic commands, of the
p-adic castling transfer and of the arc-counting commands are pinned.

The expected stdout, stderr and exit code of every case live in
``tests/golden/cli.json``.  They were recorded from a known-good build; a
change that alters any of them changes what users see and must be
deliberate.  To record them again after such a change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import shlex
import sys
from importlib import resources
from pathlib import Path

import pytest

from arczeta.cli import main
from arczeta.fixtures import RESOLUTION_FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# (m, r1, r2) with a single invariant of degree 2.
CASTLINGS = ((3, 1, 2), (3, 2, 1), (7, 2, 5))

QUADRIC = "x1^2 + x2^2 + x3^2"
# The castling partner of QUADRIC under (3, 1, 2): a sum of squares, so it is
# singular everywhere mod 2.
PARTNER = "(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2 + (x3*x6 - x4*x5)^2"
# The printed zeta series of the quadric3-local datum; --series with this
# text must print the bytes of --datum.
QUADRIC_SERIES = ("(L^-1 + L^-2) * T1^2 / ((1 - L^-3 * T1^2))  +  "
                  "(L^-2 - L^-4) * T1^3 / ((1 - L^-3 * T1^2)(1 - L^-1 * T1))")
# The (3, 1, 2) transfer of t^(3/2): castle-spectrum under (3, 2, 1) takes it
# back to t^(3/2), while t^(3/2) itself is no (3, 2, 1) input.
PARTNER_SPECTRUM = "-t^(3/2) + t^2 + t^(7/2)"
# b-function roots that contain every root an r1 <= 2, d = 2 transfer removes;
# castle-bfun under (3, 2, 1) refuses "1/3", which lacks them.
BFUN_ROOTS = "1/2,1,1,3/2,2/3"
# (p, order, with the partner) of the castle-igusa cases.
IGUSA = ((2, 3, True), (3, 2, True), (2, 4, True), (5, 4, False))
# The arc-counting commands, each pinned under its own argv: three castling
# verifications, a two-polynomial zeta-count, and origin and full-rank counts;
# then two refusals, the budget (exit 3) and the code-table limit, 38^5 codes
# for targets of depth 36 (exit 2).
COUNTS = (
    ["verify", "--fixture", "torus-m3", "--q", "2", "--order", "3"],
    ["verify", "--fixture", "quadric-m3", "--q", "2", "--order", "2"],
    ["verify", "--fixture", "sym-m2", "--q", "3", "--order", "3"],
    ["zeta-count", "--polys", "x1*x2; x1 + x2^2", "--q", "3", "--order", "4"],
    ["count", "--poly", "x1*x4 - x2*x3", "--n", "3", "--q", "3",
     "--constraint", "origin"],
    ["count", "--poly", QUADRIC, "--n", "2", "--q", "3",
     "--constraint", "full-rank:3,1", "--leading", "any"],
)
REFUSALS = (
    ["verify", "--fixture", "quadric-m3", "--q", "3", "--order", "4"],
    ["zeta-count", "--polys", "x1;x2;x3;x4;x5", "--q", "2", "--order", "40",
     "--budget", str(10 ** 70)],
)


def _data(name):
    return str(resources.files("arczeta") / "data" / (name + ".json"))


def castling_path(tmp, m, r1, r2):
    return Path(tmp) / ("castling-%d-%d-%d.json" % (m, r1, r2))


def write_castlings(tmp):
    for m, r1, r2 in CASTLINGS:
        castling_path(tmp, m, r1, r2).write_text(json.dumps(
            {"m": m, "r1": r1, "r2": r2, "l": 1, "d": [2]}))


def cases(tmp):
    """case id -> argv, reading castling files from the directory tmp."""
    out = {}
    for name in RESOLUTION_FIXTURES:
        datum = _data(name)
        # order 12 runs every factor's recurrence well past its first step
        for order in ("4", "12"):
            out["zeta-resolution %s --expand %s" % (name, order)] = [
                "zeta-resolution", "--datum", datum, "--expand", order]
            out["zeta-resolution %s --expand %s --q 5" % (name, order)] = [
                "zeta-resolution", "--datum", datum, "--expand", order,
                "--q", "5"]
        out["milnor %s" % name] = ["milnor", "--datum", datum]
        for dim in (2, 3):
            out["hsp %s --dim %d" % (name, dim)] = [
                "hsp", "--datum", datum, "--dim", str(dim)]
    for m, r1, r2 in CASTLINGS:
        path = castling_path(tmp, m, r1, r2)
        tag = "{m:%d,r1:%d,r2:%d,d:[2]}" % (m, r1, r2)
        for cmd in ("castle-zeta", "castle-local"):
            for name in RESOLUTION_FIXTURES:
                out["%s %s %s" % (cmd, name, tag)] = [
                    cmd, "--castling", str(path), "--datum", _data(name)]
            out["%s --series quadric3-local %s" % (cmd, tag)] = [
                cmd, "--castling", str(path), "--series", QUADRIC_SERIES]
        out["castle-bfun '%s' %s" % (BFUN_ROOTS, tag)] = [
            "castle-bfun", "--castling", str(path), "--roots", BFUN_ROOTS]
        out["castle-milnor 'L^2 + L' %s" % tag] = [
            "castle-milnor", "--castling", str(path), "--value", "L^2 + L"]
        out["castle-milnor 'L + 1' '1 + t' %s" % tag] = [
            "castle-milnor", "--castling", str(path), "--value", "L + 1",
            "--spectrum", "1 + t"]
        out["castle-spectrum 't^(3/2)' %s" % tag] = [
            "castle-spectrum", "--castling", str(path), "--spectrum", "t^(3/2)"]
    out["castle-bfun '1/3' {m:3,r1:2,r2:1,d:[2]}"] = [
        "castle-bfun", "--castling", str(castling_path(tmp, 3, 2, 1)),
        "--roots", "1/3"]
    out["castle-spectrum '%s' {m:3,r1:2,r2:1,d:[2]}" % PARTNER_SPECTRUM] = [
        "castle-spectrum", "--castling", str(castling_path(tmp, 3, 2, 1)),
        "--spectrum", PARTNER_SPECTRUM]
    path = castling_path(tmp, 3, 1, 2)
    for p, order, partner in IGUSA:
        case = "castle-igusa %r --p %d --order %d%s {m:3,r1:1,r2:2,d:[2]}" % (
            QUADRIC, p, order, " --partner" if partner else "")
        out[case] = ["castle-igusa", "--castling", str(path), "--poly", QUADRIC,
                     "--p", str(p), "--order", str(order)]
        if partner:
            out[case] += ["--partner", PARTNER]
    for argv in COUNTS + REFUSALS:
        out[shlex.join(argv)] = list(argv)
    return out


def test_series_text_prints_the_datum_bytes():
    golden = json.loads(GOLDEN.read_text())
    pairs = [(case, case.replace(" --series", "")) for case in golden
             if " --series " in case]
    assert len(pairs) == 2 * len(CASTLINGS)
    for series_case, datum_case in pairs:
        assert golden[series_case] == golden[datum_case]
        assert json.loads(golden[datum_case]["stdout"])["input"] == QUADRIC_SERIES


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--deterministic"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_file_covers_every_case(tmp_path):
    assert set(json.loads(GOLDEN.read_text())) == set(cases(tmp_path))


@pytest.mark.parametrize("case", sorted(cases(Path("."))))
def test_cli_bytes_match_golden(case, tmp_path):
    want = json.loads(GOLDEN.read_text())[case]
    write_castlings(tmp_path)
    assert run_case(cases(tmp_path)[case]) == want


@pytest.mark.parametrize("argv", COUNTS, ids=shlex.join)
def test_counting_bytes_do_not_depend_on_threads(argv):
    """Two threads print the golden bytes of one.  (The refusals come before
    any thread starts.)"""
    want = json.loads(GOLDEN.read_text())[shlex.join(argv)]
    assert run_case(list(argv) + ["--threads", "2"]) == want


def record(tmp):
    write_castlings(tmp)
    golden = {case: run_case(argv) for case, argv in sorted(cases(tmp).items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
