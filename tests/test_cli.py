"""Command-line interface: output contracts and exit codes, run in-process
(the size refusals also as a process of their own, under a timeout)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arczeta import arcs
from arczeta.arcs import ArcError, BudgetExceeded, CountPlan
from arczeta.castling import CastlingError
from arczeta.cli import main
from arczeta.fixtures import castling_fixture, resolution_fixture
from arczeta.motive import LaurentError
from arczeta.polynomials import PolyError
from arczeta.resolution import ResolutionError
from arczeta.series import SeriesError
from arczeta.spectrum import SpectrumError

TORUS_M3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "data"
               / "torus-m3.json")
TORUS_SYS2 = "x1*x4 - x2*x3; x1*x6 - x2*x5; x3*x6 - x4*x5"
QUADRIC_M3 = str(Path(TORUS_M3).with_name("quadric-m3.json"))
# The quadric's castling partner without its last square: not a partner.
WRONG_PARTNER = "(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2"


@pytest.fixture
def quadric_datum_file(tmp_path):
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(resolution_fixture("quadric3-local").to_json()))
    return str(path)


@pytest.fixture
def castling_file(tmp_path):
    _s1, _s2, c = castling_fixture("quadric-m3")
    path = tmp_path / "castling.json"
    path.write_text(json.dumps(c.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_count_json(self, capsys):
        code, out, _ = run(capsys, "count", "--poly", "x1^2 + x2^2",
                           "--n", "2", "--q", "3", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == [2]
        assert payload["count_leading_one"] * 2 == payload["count_all"]
        assert "elapsed_ms" not in payload

    def test_timing_field(self, capsys):
        """Without --deterministic the payload gains an int elapsed_ms and
        nothing else."""
        args = ("count", "--poly", "x1*x2", "--n", "2", "--q", "3")
        code, out, _ = run(capsys, *args)
        timed = json.loads(out)
        elapsed = timed.pop("elapsed_ms")
        assert code == 0 and type(elapsed) is int and elapsed >= 0
        _, out, _ = run(capsys, *args, "--deterministic")
        assert timed == json.loads(out)

    def test_threads_below_one_are_an_input_error(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1*x2", "--n", "2",
                           "--q", "3", "--threads", "0")
        assert (code, err) == (2, "error: threads must be >= 1, got 0\n")

    def test_deterministic_output_is_stable(self, capsys):
        args = ("count", "--poly", "x1*x2", "--n", "2", "--q", "3",
                "--deterministic")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "count", "--poly", "x1", "--n", "1",
                           "--q", "3", "--deterministic", "--format", "plain")
        assert code == 0
        assert any(line.startswith("count_leading_one ")
                   for line in out.splitlines())

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1^2 + x2^2 + x3^2",
                           "--n", "6", "--q", "7", "--budget", "1000")
        assert code == 3
        assert "refused" in err

    def test_order_zero_is_an_input_error_under_any_budget(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1^2+x2^2", "--n", "0",
                           "--q", "3", "--budget", "1")
        assert code == 2
        assert "multi-index (0,) has an entry below 1" in err

    def test_input_error(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1 +", "--n", "1",
                           "--q", "3")
        assert code == 2
        assert "error" in err

    def test_full_rank_needs_the_matrix_dimension(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1*x4 - x2*x3", "--n", "2",
                           "--q", "3", "--constraint", "full-rank:3,1")
        assert code == 2
        assert "full rank needs ambient dimension m*r_mat = 3" in err

    def test_leading_one_on_a_system_is_refused_before_counting(self, capsys,
                                                                monkeypatch):
        def no_sweep(self, threads=1):
            raise AssertionError("counted before the leading check")

        monkeypatch.setattr(CountPlan, "counts", no_sweep)
        polys = "x1*x2 - x3*x4; x1*x3 - x2*x4"
        for argv in (("count", "--polys", polys, "--n", "3,3", "--q", "5",
                      "--leading", "one"),
                     ("zeta-count", "--polys", polys, "--order", "4", "--q", "5",
                      "--leading", "one")):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "leading-coefficient-one" in err

    def test_leading_defaults_to_any_on_a_system(self, capsys):
        """ord x1 = ord x2 = 1 at q = 3: a_0 = 0, each a_1 coordinate one of
        two units, a_2 free, so (2 * 3)^2 arcs of length 2."""
        code, out, _ = run(capsys, "count", "--polys", "x1; x2", "--n", "1,1",
                           "--q", "3", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["count_leading_one"] is None
        assert payload["count_all"] == 36
        assert payload["coeff"] == "36/81"
        code, out, _ = run(capsys, "zeta-count", "--polys", "x1; x2", "--order", "2",
                           "--q", "3", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["leading"] == "any"
        assert payload["coefficients"] == {"1,1": "4/9"}

    def test_prints_numbers_beyond_the_int_text_limit(self, capsys):
        """ord x1 = ord x2 = 7000 at q = 2: 2^14000 arcs (4,215 digits) and
        the coefficient's denominator 2^28000 (8,429 digits, beyond Python's
        default 4,300-digit int-to-text limit) print exactly; main lifts the
        limit while the command runs and gives the caller its own back."""
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "count", "--polys", "x1;x2", "--n", "7000,7000",
                             "--q", "2", "--budget", "1" + "0" * 4299)
        assert (code, err, sys.get_int_max_str_digits()) == (0, "", limit)
        sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(out)
            assert payload["count_all"] == 2 ** 14000
            assert payload["coeff"] == "%d/%d" % (2 ** 14000, 2 ** 28000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_leading_defaults_to_one_on_one_polynomial(self, capsys):
        """ord x1 = n with leading coefficient 1: one arc of length n."""
        code, out, _ = run(capsys, "zeta-count", "--poly", "x1", "--order", "2",
                           "--q", "3", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["leading"] == "one"
        assert payload["coefficients"] == {"1": "1/3", "2": "1/9"}
        code, out, _ = run(capsys, "count", "--poly", "x1", "--n", "1", "--q", "3",
                           "--deterministic")
        assert json.loads(out)["coeff"] == "1/3"

    def test_polynomial_reader_limits(self, capsys):
        """A 5000-digit coefficient is the reader's input error, not Python's
        int-conversion limit; an oversized product is refused by the reader."""
        assert run(capsys, "count", "--poly", "9" * 5000 + "*x1", "--n", "1", "--q", "2") == (
            2, "", "error: number of 5000 digits in polynomial text (at most 4300)\n")
        code, _, err = run(capsys, "count", "--poly", "(x1 + x2 + x3 + x4)^40",
                           "--n", "1", "--q", "2")
        assert (code, err) == (2, "error: product of 969 by 969 terms exceeds "
                                  "the limit of 262144 pairs\n")

    @pytest.mark.parametrize("argv", [
        ("count", "--poly", "x1^100000 + x2", "--n", "1", "--q", "2"),
        ("count", "--poly", "x1^%s + x2" % ("9" * 4300), "--n", "1", "--q", "2"),
        ("castle-igusa", "--castling", str(Path(TORUS_M3).with_name("quadric-m3.json")),
         "--poly", "x1^%s + x2^2 + x3^2" % ("9" * 4300), "--p", "2", "--order", "3"),
    ], ids=["count", "count-4300-digits", "castle-igusa"])
    def test_large_power_is_refused_early(self, capsys, argv):
        start = time.perf_counter()
        assert run(capsys, *argv) == (
            2, "", "error: polynomial degree exceeds the limit of 1000\n")
        assert time.perf_counter() - start < 0.5


class TestResolutionCommands:
    def test_zeta_resolution_expansion(self, capsys, quadric_datum_file):
        code, out, _ = run(capsys, "zeta-resolution", "--datum",
                           quadric_datum_file, "--expand", "3", "--q", "5",
                           "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["expansion_order"] == 3
        assert payload["valid_q"] == "q = 1 mod 4"
        assert "2" in payload["expansion"]

    def test_milnor_and_hsp(self, capsys, quadric_datum_file):
        code, out, _ = run(capsys, "milnor", "--datum", quadric_datum_file,
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["counting"] == "L + 1"
        code, out, _ = run(capsys, "hsp", "--datum", quadric_datum_file,
                           "--dim", "3", "--deterministic")
        assert code == 0
        assert json.loads(out)["hsp"] == "t^(3/2)"


class TestCastlingCommands:
    def test_castle_zeta_from_datum(self, capsys, castling_file,
                                    quadric_datum_file):
        code, out, _ = run(capsys, "castle-zeta", "--castling", castling_file,
                           "--datum", quadric_datum_file, "--deterministic")
        assert code == 0
        assert "output" in json.loads(out)

    def test_castle_spectrum(self, capsys, castling_file):
        code, out, _ = run(capsys, "castle-spectrum", "--castling",
                           castling_file, "--spectrum", "t^(3/2)",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["spectrum"] == "-t^(3/2) + t^2 + t^(7/2)"

    def test_castle_bfun(self, capsys, castling_file):
        code, out, _ = run(capsys, "castle-bfun", "--castling", castling_file,
                           "--roots", "1,3/2", "--deterministic")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert roots == [{"root": "1", "multiplicity": 2},
                         {"root": "3/2", "multiplicity": 2}]

    @pytest.mark.parametrize("argv", [
        ("castle-spectrum", "--spectrum", "t^(1/0)"),
        ("castle-milnor", "--value", "L", "--spectrum", "t^(1/0)"),
        ("castle-bfun", "--roots", "1/0"),
        ("castle-zeta", "--series", "(1) * T0*T1 / ((1 - L^-1 * T1^2))"),
        ("castle-zeta", "--series", "(1) * T1^2*T1^-1 / ((1 - L^-1 * T1^2))"),
    ])
    def test_malformed_value_is_an_input_error(self, capsys, castling_file, argv):
        code, _, err = run(capsys, argv[0], "--castling", castling_file,
                           *argv[1:], "--deterministic")
        assert code == 2
        assert err.startswith("error: ")

    def test_series_takes_the_datum_variable_count(self, capsys):
        """A --series text has the datum's l variables, also when it never
        mentions T_l; a larger T index is an input error."""
        code, out, _ = run(capsys, "castle-zeta", "--castling", TORUS_M3,
                           "--series", "(1) * T1 / ((1 - L^-1 * T1))",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["input"] == "(1) * T1 / ((1 - L^-1 * T1))"
        code, _, err = run(capsys, "castle-zeta", "--castling", TORUS_M3,
                           "--series", "(1) * T4 / ((1 - L^-1 * T1))",
                           "--deterministic")
        assert code == 2
        assert "T4 in a series of 3 variables" in err

    def test_series_index_beyond_the_int_conversion_limit(self, capsys):
        """A T index of 5000 digits is the reader's input error, not
        Python's int-conversion limit."""
        code, _, err = run(capsys, "castle-zeta", "--castling", TORUS_M3,
                           "--series", "(1) * T" + "9" * 5000, "--deterministic")
        assert code == 2
        assert "in a series of 3 variables" in err and "limit" not in err

    @pytest.mark.parametrize("coeff", ["9" * 5000, "L^" + "9" * 5000])
    def test_series_coefficient_beyond_the_int_conversion_limit(self, capsys, coeff):
        """A term's coefficient or L exponent of 5000 digits is the Laurent
        reader's input error, not Python's int-conversion limit."""
        code, _, err = run(capsys, "castle-zeta", "--castling", TORUS_M3,
                           "--series", "(%s) * T1" % coeff, "--deterministic")
        assert code == 2
        assert err == "error: number of 5000 digits in Laurent text (at most 4300)\n"

    def test_repeated_series_variable_adds_exponents(self, capsys, castling_file):
        outs = [run(capsys, "castle-zeta", "--castling", castling_file,
                    "--series", text, "--deterministic")
                for text in ("(1) * T1*T1 / ((1 - L^-1 * T1^2))",
                             "(1) * T1^2 / ((1 - L^-1 * T1^2))")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    def test_zero_denominator_in_a_datum_spectrum(self, capsys, tmp_path):
        datum = resolution_fixture("quadric3-local").to_json()
        datum["strata"][0]["spectrum"] = "1 + t^(3/0)"
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        code, _, err = run(capsys, "milnor", "--datum", str(path))
        assert code == 2
        assert "zero denominator" in err

    def test_castle_igusa_fixed_point(self, capsys, tmp_path):
        _s1, _s2, c = castling_fixture("sym-m2")
        path = tmp_path / "sym.json"
        trivial = dict(c.to_json())
        trivial.update({"l": 1, "d": [1]})
        path.write_text(json.dumps(trivial))
        code, out, _ = run(capsys, "castle-igusa", "--castling", str(path),
                           "--poly", "x1", "--p", "3", "--order", "2",
                           "--partner", "x1", "--deterministic")
        assert code == 0
        assert json.loads(out)["partner_matches"] is True

    @pytest.mark.parametrize("poly, p, order, message", [
        ("x1^2 + x2^2 + x3^2", "4", "3", "p must be prime"),
        ("2*x1^2 + 2*x2", "2", "3", "polynomial vanishes identically mod p"),
        ("x1^2 + x2^2 + x3^2", "2", "40", "too large for exact vector arithmetic"),
    ], ids=["composite-p", "zero-mod-p", "modulus-beyond-2^31"])
    def test_castle_igusa_refusals_exit_2(self, capsys, poly, p, order, message):
        code, out, err = run(capsys, "castle-igusa", "--castling", QUADRIC_M3,
                             "--poly", poly, "--partner", WRONG_PARTNER,
                             "--p", p, "--order", order, "--deterministic")
        assert (code, out) == (2, "")
        assert message in err

    def test_castle_igusa_wrong_partner_exits_1(self, capsys):
        code, out, _ = run(capsys, "castle-igusa", "--castling", QUADRIC_M3,
                           "--poly", "x1^2 + x2^2 + x3^2",
                           "--partner", WRONG_PARTNER, "--p", "3", "--order", "2",
                           "--deterministic")
        assert code == 1
        assert json.loads(out)["partner_matches"] is False


class TestTrailingWhitespace:
    """A polynomial text with trailing whitespace prints the bytes of the
    stripped text."""

    EXPECTED = Path(TORUS_M3).parents[1] / "expected" / "castle-igusa.txt"
    PARTNER = "(x1*x4 - x2*x3)^2 + (x1*x6 - x2*x5)^2 + (x3*x6 - x4*x5)^2"

    @pytest.mark.parametrize("space", ["", " ", " \t\n"])
    def test_castle_igusa(self, capsys, space):
        code, out, err = run(capsys, "castle-igusa", "--castling", QUADRIC_M3,
                             "--poly", "x1^2 + x2^2 + x3^2" + space,
                             "--partner", self.PARTNER + space, "--p", "2",
                             "--order", "3", "--deterministic")
        assert (code, err) == (0, "")
        assert out == self.EXPECTED.read_text()

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "2", "--q", "3"],
        ["zeta-count", "--order", "3", "--q", "2"],
    ])
    def test_counts(self, capsys, argv):
        want = run(capsys, *argv, "--poly", "x1^2 - x2^3", "--deterministic")
        got = run(capsys, *argv, "--poly", "x1^2 - x2^3  ", "--deterministic")
        assert got == want and want[0] == 0

    def test_error_quotes_the_stripped_text(self, capsys):
        want = run(capsys, "count", "--poly", "x1 + y1", "--n", "1", "--q", "3")
        got = run(capsys, "count", "--poly", "x1 + y1 ", "--n", "1", "--q", "3")
        assert got == want == (2, "", "error: bad polynomial syntax at ' y1'\n")


class TestVerify:
    def test_fixture_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "sym-m2",
                           "--q", "3", "--order", "2", "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert payload["max_verified_order"] == 2

    def test_explicit_pair(self, capsys, tmp_path):
        _s1, _s2, c = castling_fixture("sym-m2")
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(c.to_json()))
        code, out, _ = run(capsys, "verify", "--castling", str(path),
                           "--polys1", "x1; x2", "--polys2", "x1; x2",
                           "--q", "2", "--order", "2", "--deterministic")
        assert code == 0
        assert json.loads(out)["all_equal"] is True

    def test_datum_arity_is_checked_before_the_budget(self, capsys):
        code, _, err = run(capsys, "verify", "--castling", TORUS_M3,
                           "--polys1", "x1;x2", "--polys2", TORUS_SYS2,
                           "--q", "3", "--order", "2", "--budget", "1")
        assert code == 2
        assert "do not match the datum arity" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2", "--order", "1")
        assert code == 2
        assert "error" in err

    def test_wrong_partner_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--castling", QUADRIC_M3,
                           "--polys1", "x1^2 + x2^2 + x3^2",
                           "--polys2", WRONG_PARTNER, "--q", "3", "--order", "2",
                           "--deterministic")
        payload = json.loads(out)
        assert code == 1
        assert payload["all_equal"] is False
        assert payload["max_verified_order"] == -1


@pytest.mark.parametrize("argv,plans", [
    (("verify", "--castling", TORUS_M3, "--polys1", "x1;x2;x3",
      "--polys2", TORUS_SYS2, "--q", "3", "--order", "2"), 2),
    (("zeta-count", "--poly", "x1^2 - x2^3", "--q", "2", "--order", "10"), 1),
])
def test_one_plan_per_system_and_one_normalisation_per_target(
        capsys, monkeypatch, argv, plans):
    """A verify request builds one plan per partner and a zeta-count request
    one plan, each built for an order: it lists its targets itself, so none
    is normalised."""
    built, indexed = [], []
    init, index = CountPlan.__init__, arcs._index

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_index(n):
        indexed.append(n)
        return index(n)

    monkeypatch.setattr(CountPlan, "__init__", counting_init)
    monkeypatch.setattr(arcs, "_index", counting_index)
    code, _, _ = run(capsys, *argv, "--threads", "1", "--deterministic")
    assert code == 0
    assert len(built) == plans
    assert all(plan.order is not None for plan in built)
    assert indexed == []


def test_code_table_refusal_lists_no_index(capsys, monkeypatch):
    """38^5 codes for five polynomials to order 40: the plan refuses from its
    depth, before it lists or normalises any of its 658,008 targets."""
    def no_list(*args):
        raise AssertionError("listed the targets before the code table check")

    monkeypatch.setattr(arcs, "order_indices", no_list)
    monkeypatch.setattr(arcs, "_index", no_list)
    code, out, err = run(capsys, "zeta-count", "--polys", "x1;x2;x3;x4;x5",
                         "--q", "2", "--order", "40", "--budget", str(10 ** 70))
    assert (code, out) == (2, "")
    assert err == "error: code table of 38^5 entries exceeds the limit of 67108864\n"


def test_verify_refuses_a_grid_before_either_sweep(capsys, monkeypatch):
    """quadric-m3 at q = 23: the partner on 6 variables needs a 23^6 x 6
    residue grid, so its plan refuses at construction, before the partner on
    3 variables prepares or sweeps anything."""
    def no_prepare(self):
        raise AssertionError("prepared a sweep before the grid check")

    monkeypatch.setattr(CountPlan, "_prepare", no_prepare)
    code, out, err = run(capsys, "verify", "--fixture", "quadric-m3", "--q", "23",
                         "--order", "6", "--budget", str(10 ** 60))
    assert (code, out) == (2, "")
    assert err == ("error: residue grid of 23^6 rows x 6 cells exceeds the "
                   "limit of 67108864\n")


def test_grid_is_reported_before_the_budget(capsys):
    """101^4 x 4 grid cells and an estimate of 101^4 rows over a budget of
    1: the input error (exit 2) comes before the budget refusal (exit 3)."""
    assert run(capsys, "count", "--poly", "x1*x4 - x2*x3", "--n", "1", "--q", "101",
               "--budget", "1") == (
        2, "", "error: residue grid of 101^4 rows x 4 cells exceeds the "
               "limit of 67108864\n")


@pytest.mark.parametrize("argv, code, err", [
    (("zeta-count", "--poly", "x1^2 - x2^3", "--q", "3", "--order", "1000000000"), 3,
     "refused: estimated 3^2000000000 candidate rows exceeds budget 1000000000\n"),
    (("castle-igusa", "--castling", QUADRIC_M3, "--poly", "x1^2 + x2^2 + x3^2",
      "--p", "3", "--order", "100000000"), 2,
     "error: modulus p^100000001 too large for exact vector arithmetic\n"),
    (("zeta-count", "--poly", "x1^2 - x2^3", "--q", "3", "--order", "5000"), 3,
     "refused: estimated 3^10000 candidate rows exceeds budget 1000000000\n"),
    (("count", "--poly", "x300", "--n", "1", "--q", "1000000000000000003"), 2,
     "error: residue grid of 1000000000000000003^300 rows x 300 cells exceeds "
     "the limit of 67108864\n"),
], ids=["zeta-count-order-1e9", "castle-igusa-order-1e8", "zeta-count-order-5000",
        "count-x300-huge-q"])
def test_sizes_are_refused_through_their_exponent(argv, code, err):
    """Each limit is compared through its exponent and named as a power: no
    power of 10^9 levels is built, and no refusal builds or prints the number
    it bounds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "arczeta.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


@pytest.mark.parametrize("argv", [
    ("zeta-count", "--poly", "x1^2 - x2^3", "--q", "2", "--order", "-1"),
    ("verify", "--fixture", "torus-m3", "--q", "2", "--order", "-1"),
    ("castle-igusa", "--castling", QUADRIC_M3, "--poly", "x1^2 + x2^2 + x3^2",
     "--p", "2", "--order", "-1"),
    ("castle-igusa", "--castling", QUADRIC_M3, "--poly", "x1^2 + x2^2 + x3^2",
     "--p", "2", "--order", "-2"),
], ids=["zeta-count", "verify", "castle-igusa-1", "castle-igusa-2"])
def test_negative_order_is_an_input_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: order must be >= 0\n")


@pytest.mark.parametrize("castling, poly, partner, message", [
    (QUADRIC_M3, "x1^3 + x2^2 + x3^2", None, "invariant degrees must be r_j * d_i"),
    (QUADRIC_M3, "x1^2 + x2^2 + x3^2", "x1", "invariant degrees must be r_j * d_i"),
    (TORUS_M3, "x1^2 + x2^2 + x3^2", None, "p-adic transfer needs a single invariant"),
], ids=["poly-degree", "partner-degree", "three-invariants"])
def test_castle_igusa_checks_the_pair_before_lifting(capsys, monkeypatch, castling,
                                                     poly, partner, message):
    """A pair that does not fit the datum is refused as verify refuses it,
    and before either polynomial is lifted."""
    def no_lift(*args):
        raise AssertionError("lifted before the pair check")

    monkeypatch.setattr(arcs, "padic_solution_counts", no_lift)
    argv = ["castle-igusa", "--castling", castling, "--poly", poly, "--p", "3",
            "--order", "2"] + (["--partner", partner] if partner else [])
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (("castle-milnor", "--castling", TORUS_M3, "--value", "L+1"),
     "Milnor fiber transfer needs a single invariant"),
    (("castle-spectrum", "--castling", TORUS_M3, "--spectrum", "t"),
     "spectrum transfer needs a single invariant"),
], ids=["castle-milnor", "castle-spectrum"])
def test_one_invariant_transfers_refuse_several_invariants(capsys, argv, message):
    """A Milnor fiber or a spectrum belongs to one f, so castle-milnor and
    castle-spectrum refuse a datum of l != 1 as castle-igusa does."""
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.fixture
def r1_zero_file(tmp_path):
    path = tmp_path / "r1-zero.json"
    path.write_text(json.dumps(dict(json.loads(Path(TORUS_M3).read_text()), r1=0)))
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (("count", "--n", "1", "--q", "2"), "need --poly or --polys"),
    (("count", "--poly", "0", "--n", "1", "--q", "2"), "zero polynomial in system"),
    (("count", "--poly", "x1", "--n", "1", "--q", "2", "--constraint", "full-rank:3"),
     "expected full-rank:m,r"),
    (("count", "--poly", "x1*x2", "--n", "1", "--q", "2", "--constraint",
      "full-rank:1,2"), "full rank needs 1 <= r_mat <= m"),
    (("castle-zeta", "--castling", TORUS_M3), "need --series or --datum"),
    (("castle-bfun", "--castling", "R1_ZERO", "--roots", "1"),
     "r1 and r2 must be >= 1"),
    # a q below 2 has no residue grid to refuse: it is refused as not prime
    (("count", "--poly", "x1*x4 - x2*x3", "--n", "1", "--q", "-101"),
     "q must be prime (prime-power fields are not implemented)"),
])
def test_refusals_exit_two_with_their_message(capsys, r1_zero_file, argv, message):
    argv = [r1_zero_file if a == "R1_ZERO" else a for a in argv]
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_every_input_error_is_a_value_error():
    """The CLI catches ValueError for every arczeta input error (exit 2);
    BudgetExceeded is no ValueError and keeps its own exit code 3."""
    for error in (ArcError, CastlingError, LaurentError, PolyError,
                  ResolutionError, SeriesError, SpectrumError):
        assert issubclass(error, ValueError), error
    assert not issubclass(BudgetExceeded, ValueError)


X1_DATUM = str(Path(__file__).resolve().parents[1] / "src" / "arczeta" / "data" / "x1.json")
_E1 = {"id": "E1", "N": 1, "nu": 1}


@pytest.mark.parametrize("command, data, message", [
    ("castle-zeta", [1, 2], "data needs type dict, got [1, 2]"),
    ("castle-zeta", None, "data needs type dict, got None"),
    ("castle-zeta", {"m": 3, "r1": 1, "r2": 2, "l": 1, "d": 2},
     "data.d needs type list, got 2"),
    ("castle-zeta", {"m": 3.5, "r1": 1, "r2": 2, "l": 1, "d": [2]},
     "data.m needs type int, got 3.5"),
    ("castle-zeta", {"m": 3, "r1": True, "r2": 2, "l": 1, "d": [2]},
     "data.r1 needs type int, got True"),
    ("zeta-resolution", [], "data needs type dict, got []"),
    ("zeta-resolution", {"components": {"id": "E1"}, "strata": []},
     "data.components needs type list, got {'id': 'E1'}"),
    ("milnor", {"components": [_E1], "strata": [{"I": ["E1"], "class": 1}]},
     "data.strata[0].class needs type str, got 1"),
    ("milnor", {"components": [_E1], "strata": [{"I": ["E1"], "class": "1",
                                                 "spectrum": 1}]},
     "data.strata[0].spectrum needs type str | None, got 1"),
    ("zeta-resolution", {"components": [dict(_E1, id=["E1"])], "strata": []},
     "data.components[0].id needs type str, got ['E1']"),
    ("zeta-resolution", {"components": [_E1], "strata": [{"I": "E1", "class": "1"}]},
     "data.strata[0].I needs type list, got 'E1'"),
    ("zeta-resolution", {"components": [{"id": "E1", "N": 1}], "strata": []},
     "data.components[0].nu needs type int, got None"),
    ("zeta-resolution", {"components": [dict(_E1, N=1.5)],
                         "strata": [{"I": ["E1"], "class": "1"}]},
     "data.components[0].N needs type int, got 1.5"),
], ids=["castling-list", "castling-null", "castling-d-int", "castling-m-3.5",
        "castling-r1-true", "datum-list",
        "components-object", "class-int", "spectrum-int", "id-list", "I-text", "nu-missing",
        "N-1.5"])
def test_malformed_data_files_exit_two_naming_the_field(capsys, tmp_path, command, data,
                                                       message):
    """A data file of the wrong shape, or with a field that is missing, of
    the wrong type or not an integer, is an input error (exit 2) that names
    the field: never a traceback (exit 1) and never a truncated value."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if command == "castle-zeta":
        argv = (command, "--castling", str(path), "--datum", X1_DATUM)
    else:
        argv = (command, "--datum", str(path))
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (("zeta-count", "--poly", "x1^2 - x2^3", "--polys", "x1;x2", "--q", "2",
      "--order", "2"), "give --poly or --polys, not both"),
    (("verify", "--fixture", "torus-m3", "--castling", TORUS_M3, "--polys1", "x1",
      "--polys2", "x2", "--q", "2", "--order", "2"),
     "need --fixture alone, or --castling with --polys1/--polys2"),
    (("verify", "--fixture", "torus-m3", "--polys1", "x1", "--q", "2", "--order", "2"),
     "need --fixture alone, or --castling with --polys1/--polys2"),
    (("castle-zeta", "--castling", QUADRIC_M3, "--series", "(1) * T1 / ((1 - L^-1 * T1))",
      "--datum", X1_DATUM), "give --series or --datum, not both"),
    (("castle-local", "--castling", QUADRIC_M3, "--series", "(1) * T1 / ((1 - L^-1 * T1))",
      "--datum", X1_DATUM), "give --series or --datum, not both"),
    (("zeta-resolution", "--datum", X1_DATUM, "--q", "3"),
     "--q specializes an expansion: give --expand with it"),
])
def test_conflicting_inputs_are_refused(capsys, argv, message):
    """Two inputs for one role are refused, not one of them ignored, and so
    is an input that nothing would read."""
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)
