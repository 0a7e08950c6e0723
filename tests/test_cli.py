"""Command-line interface: output contracts and exit codes, run in-process."""

import json
from pathlib import Path

import pytest

from arczeta import arcs
from arczeta.arcs import CountPlan
from arczeta.cli import main
from arczeta.fixtures import castling_fixture, resolution_fixture

TORUS_M3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "data"
               / "torus-m3.json")
TORUS_SYS2 = "x1*x4 - x2*x3; x1*x6 - x2*x5; x3*x6 - x4*x5"


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
        assert "all n_i must be >= 1" in err

    def test_input_error(self, capsys):
        code, _, err = run(capsys, "count", "--poly", "x1 +", "--n", "1",
                           "--q", "3")
        assert code == 2
        assert "error" in err

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
    ])
    def test_malformed_value_is_an_input_error(self, capsys, castling_file, argv):
        code, _, err = run(capsys, argv[0], "--castling", castling_file,
                           *argv[1:], "--deterministic")
        assert code == 2
        assert err.startswith("error: ")

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


@pytest.mark.parametrize("argv,plans", [
    (("verify", "--castling", TORUS_M3, "--polys1", "x1;x2;x3",
      "--polys2", TORUS_SYS2, "--q", "3", "--order", "2"), 2),
    (("zeta-count", "--poly", "x1^2 - x2^3", "--q", "2", "--order", "10"), 1),
])
def test_one_plan_per_system_and_one_normalisation_per_target(
        capsys, monkeypatch, argv, plans):
    """A verify request builds one plan per partner and a zeta-count request
    one plan, and each plan normalises each of its targets once."""
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
    assert len(indexed) == sum(len(plan.targets) for plan in built)
