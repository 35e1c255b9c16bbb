"""End-to-end command-line tests: parsing, formats, exit codes, and
byte determinism."""

import collections
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condrisk import SolverError, cli
from condrisk.cli import ScenarioError
from conftest import searched_generator
from oracles import parse_scenario_reference

PAYOFF = [0.0, math.log(4.0), 0.5]

SCENARIO = {
    "states": [
        {"name": "up", "prob": 0.25},
        {"name": "mid", "prob": 0.25},
        {"name": "down", "prob": 0.5},
    ],
    "atoms": [["up", "mid"], ["down"]],
    "positions": {
        "payoff": PAYOFF,
        "book": [1.0, 0.5, -0.25],
        "tilt": [0.35, 0.15, 0.5],
    },
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one invocation per command; the scenario file goes after the command name
COMMAND_ARGS = {
    "oce": ["--position", "payoff"],
    "dual": ["--position", "book", "--divergence", "chi2"],
    "gap": ["--position", "payoff", "--divergence", "power:3"],
    "entropic": ["--position", "book"],
    "divergence": ["--measure", "tilt", "--divergence", "power:2"],
    "check": ["--operator", "sq-expectation", "--samples", "20"],
}
EXPECTED_DIR = Path(__file__).parent / "cli_expected"


def command_argv(command, scenario_file):
    return [command, scenario_file] + COMMAND_ARGS[command]


# ---------------------------------------------------------------------------
# happy paths


class TestCommands:
    def test_oce_table(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, ["oce", scenario_file, "--position", "payoff"])
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0].split() == list(cli.COLUMNS)
        assert lines[1].startswith("A0")
        assert lines[2].startswith("A1")
        a0_value = float(lines[1].split()[2])
        assert abs(a0_value - math.log(1.6)) < 1e-9
        a1_value = float(lines[2].split()[2])
        assert abs(a1_value - 0.5) < 1e-9
        assert "optimal_a=" in lines[1]

    def test_oce_json(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["oce", scenario_file, "--position", "payoff", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "oce"
        assert "scenario" not in doc
        assert len(doc["rows"]) == 2
        row = doc["rows"][0]
        assert row["atom"] == "A0"
        assert row["quantity"] == "oce:kl"
        assert abs(row["value"] - math.log(1.6)) < 1e-9
        assert row["residual"] <= 1e-10
        assert isinstance(row["iterations"], int)

    def test_oce_csv(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["oce", scenario_file, "--position", "payoff", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == ",".join(cli.COLUMNS)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["atom"] for r in rows] == ["A0", "A1"]
        assert abs(float(rows[0]["value"]) - math.log(1.6)) < 1e-9

    def test_dual_matches_oce(self, capsys, scenario_file):
        code_p, out_p, _ = run_cli(
            capsys, ["oce", scenario_file, "--position", "book", "--format", "json"]
        )
        code_d, out_d, _ = run_cli(
            capsys, ["dual", scenario_file, "--position", "book", "--format", "json"]
        )
        assert code_p == 0 and code_d == 0
        primal = json.loads(out_p)["rows"]
        dual = json.loads(out_d)["rows"]
        for p, d in zip(primal, dual):
            assert abs(p["value"] - d["value"]) < 1e-8
        assert dual[0]["quantity"] == "dual:kl"
        assert "multiplier=" in dual[0]["note"]

    def test_generator_selection(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            ["oce", scenario_file, "--position", "book", "--divergence", "power:2",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["quantity"] == "oce:power:2"

    def test_gap_self_check(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            ["gap", scenario_file, "--position", "payoff", "--divergence", "chi2",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row["value"] <= 1e-6
            assert row["note"] == "threshold=1e-06"

    def test_gap_reports_the_single_solve(self, capsys, scenario_file, monkeypatch):
        # gap solves each atom once, so its residual and iteration count are
        # those of the oce row for the same atom, not a sum over two solves;
        # the built-in kl, chi2 and power:2 solve without a search, so here
        # the commands get them without their mean_one_root
        monkeypatch.setattr(cli, "builtin_generator", searched_generator)
        for divergence in ("chi2", "power:2", "power:3"):
            rows = {}
            for command in ("oce", "gap"):
                code, out, _ = run_cli(
                    capsys,
                    [command, scenario_file, "--position", "book", "--divergence", divergence,
                     "--format", "json"],
                )
                assert code == 0
                rows[command] = json.loads(out)["rows"]
            assert rows["oce"][0]["iterations"] > 0  # A0 has two states to search
            for oce_row, gap_row in zip(rows["oce"], rows["gap"]):
                assert gap_row["residual"] == oce_row["residual"]
                assert gap_row["iterations"] == oce_row["iterations"]

    def test_oce_and_dual_call_their_solver_once(self, capsys, scenario_file, monkeypatch):
        # the commands look their solvers up by these names when they run, so
        # a wrapper bound over a name (the benchmark's tracer binds one) sees
        # every call
        calls = collections.Counter()

        def counting(name):
            inner = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return counted

        for name in ("oce_primal", "oce_dual"):
            monkeypatch.setattr(cli, name, counting(name))
        for command, name in (("oce", "oce_primal"), ("dual", "oce_dual")):
            calls.clear()
            code, _, _ = run_cli(capsys, [command, scenario_file, "--position", "payoff"])
            assert code == 0
            assert calls == {name: 1}, (command, calls)

    def test_entropic_closed_form(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["entropic", scenario_file, "--position", "payoff", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert abs(rows[0]["value"] - math.log(1.6)) < 1e-12
        assert abs(rows[1]["value"] - 0.5) < 1e-12

    def test_divergence_of_a_measure(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["divergence", scenario_file, "--measure", "tilt", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        # atom A0 holds (0.35, 0.15) against (0.25, 0.25): densities 1.4, 0.6
        expected = 0.5 * (1.4 * math.log(1.4) - 0.4) + 0.5 * (0.6 * math.log(0.6) + 0.4)
        assert abs(rows[0]["value"] - expected) < 1e-12
        assert abs(rows[1]["value"]) < 1e-12

    def test_check_reports_pass(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["check", scenario_file, "--operator", "entropic", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["quantity"] for r in rows} == {
            "axiom:translation_invariance", "axiom:monotonicity", "axiom:concavity",
            "axiom:locality", "axiom:regularity", "axiom:lipschitz",
        }
        assert all(r["note"] == "pass" for r in rows)
        assert all("counterexample" not in r for r in rows)

    def test_check_reports_failures_with_counterexamples(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            ["check", scenario_file, "--operator", "sq-expectation", "--format", "json"],
        )
        assert code == 0  # diagnosis is the product; a failing axiom is not an error
        rows = json.loads(out)["rows"]
        failed = [r for r in rows if r["note"] == "fail"]
        assert failed
        assert all("counterexample" in r for r in failed)
        assert any(r["quantity"] == "axiom:translation_invariance" for r in failed)

    def test_check_base_functional_is_not_translation_invariant(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, ["check", scenario_file, "--operator", "iphi:kl", "--format", "json"]
        )
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        assert rows["axiom:translation_invariance"]["note"] == "fail"
        assert rows["axiom:monotonicity"]["note"] == "pass"
        assert rows["axiom:concavity"]["note"] == "pass"

    @pytest.mark.parametrize("operator", ["expectation", "min"])
    def test_check_niveloids_pass_every_axiom(self, capsys, scenario_file, operator):
        code, out, err = run_cli(
            capsys, ["check", scenario_file, "--operator", operator, "--format", "json"]
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [r["quantity"] for r in rows] == [
            "axiom:translation_invariance", "axiom:monotonicity", "axiom:concavity",
            "axiom:locality", "axiom:regularity", "axiom:lipschitz",
        ]
        assert all(r["note"] == "pass" and r["iterations"] == 50 for r in rows)

    def test_check_table_omits_counterexamples(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, ["check", scenario_file, "--operator", "sq-expectation"])
        assert code == 0
        assert "counterexample" not in out


class TestEchoInput:
    def test_round_trip(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            ["oce", scenario_file, "--position", "payoff", "--format", "json",
             "--echo-input"],
        )
        assert code == 0
        doc = json.loads(out)
        with open(scenario_file, "r", encoding="utf-8") as fh:
            assert doc["scenario"] == json.load(fh)

    def test_requires_json_format(self, capsys, scenario_file):
        code, out, err = run_cli(
            capsys, ["oce", scenario_file, "--position", "payoff", "--echo-input"]
        )
        assert code == 2
        assert "requires --format json" in err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_identical_invocations_are_byte_identical(self, capsys, scenario_file, fmt):
        argv = ["dual", scenario_file, "--position", "book", "--format", fmt]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert first  # not vacuous

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_installed_entry_point_matches_in_process(self, capsys, scenario_file, command):
        exe = shutil.which("condrisk")
        if exe is None:
            pytest.skip("console script not on PATH")
        argv = command_argv(command, scenario_file) + ["--format", "json"]
        _, in_process, _ = run_cli(capsys, argv)
        proc = subprocess.run([exe] + argv, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == in_process


class TestPinnedOutput:
    """Every byte of each command's report; a deliberate change to a report updates its file."""

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_report_bytes(self, capsys, scenario_file, command, fmt):
        code, out, err = run_cli(capsys, command_argv(command, scenario_file) + ["--format", fmt])
        assert (code, err) == (0, "")
        assert out == (EXPECTED_DIR / f"{command}.{fmt}").read_text(encoding="utf-8")


class TestOptionsFollowTheTable:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_exactly_the_entry_options(self, capsys, command):
        code, out, _ = run_cli(capsys, [command, "--help"])
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        entry = cli.COMMANDS[command].options + cli.COMMON_OPTIONS
        assert listed == {"--help"} | {f"--{option}" for option in entry}

    @pytest.mark.parametrize("command", ["entropic", "divergence", "check"])
    def test_tol_is_a_usage_error_where_unread(self, capsys, scenario_file, command):
        code, out, err = run_cli(capsys, command_argv(command, scenario_file) + ["--tol", "1e-3"])
        assert code == 2
        assert out == ""
        assert "--tol" in err


# ---------------------------------------------------------------------------
# tolerance plumbing


class TestTolerances:
    def test_gap_threshold_flag(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            ["gap", scenario_file, "--position", "payoff", "--tol", "1e-4",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["note"] == "threshold=0.0001"

    # CONDRISK_TOL is no setting: a stale value in the environment must not change results

    def test_environment_tolerance(self, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("CONDRISK_TOL", "2.5e-7")
        code, out, _ = run_cli(
            capsys, ["gap", scenario_file, "--position", "payoff", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["note"] == "threshold=1e-06"

    def test_flag_beats_environment(self, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("CONDRISK_TOL", "2.5e-7")
        code, out, _ = run_cli(
            capsys,
            ["gap", scenario_file, "--position", "payoff", "--tol", "1e-3",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["note"] == "threshold=0.001"

    def test_bad_environment_tolerance(self, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("CONDRISK_TOL", "not-a-number")
        code, _, err = run_cli(capsys, ["oce", scenario_file, "--position", "payoff"])
        assert (code, err) == (0, "")
        code, out, _ = run_cli(
            capsys, ["gap", scenario_file, "--position", "payoff", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["note"] == "threshold=1e-06"

    def test_nonpositive_tolerance(self, capsys, scenario_file):
        code, _, err = run_cli(
            capsys, ["oce", scenario_file, "--position", "payoff", "--tol", "0"]
        )
        assert code == 2
        assert "positive" in err


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["oce", str(tmp_path / "nope.json"), "--position", "payoff"]
        )
        assert code == 2
        assert "cannot read scenario file" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["oce", str(path), "--position", "payoff"])
        assert code == 2
        assert "not valid JSON" in err

    def test_duplicate_names_are_listed_quickly(self, capsys, tmp_path):
        # counting each name's copies with list.count took about a minute here
        n = 50_000
        names = [f"s{i}" for i in range(n)]
        names[40_000] = "s9"
        names[45_000] = "s10"
        doc = {
            "states": [{"name": name, "prob": 1.0 / n} for name in names],
            "atoms": [names],
            "positions": {"x": [0.0] * n},
        }
        path = tmp_path / "dupes.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "duplicate state names: ['s10', 's9']" in err

    def test_unknown_position(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, ["oce", scenario_file, "--position", "ghost"])
        assert code == 2
        assert "unknown position" in err
        assert "payoff" in err  # the error lists what the scenario defines

    def test_unknown_generator(self, capsys, scenario_file):
        code, _, err = run_cli(
            capsys, ["oce", scenario_file, "--position", "payoff", "--divergence", "bogus"]
        )
        assert code == 2
        assert "valid generators" in err

    def test_unknown_operator(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, ["check", scenario_file, "--operator", "bogus"])
        assert code == 2
        assert "valid operators" in err

    def test_bad_probabilities(self, capsys, tmp_path):
        doc = {
            "states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.6}],
            "atoms": [["a", "b"]],
            "positions": {"x": [0.0, 1.0]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert code == 2
        assert "bad state probabilities" in err

    def test_boolean_prob_is_not_a_number(self, capsys, tmp_path):
        doc = {
            "states": [{"name": "a", "prob": True}, {"name": "b", "prob": 0.5}],
            "atoms": [["a", "b"]],
            "positions": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["check", str(path), "--operator", "min"])
        assert code == 2
        assert "must be a number" in err

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("field", ["prob", "position"])
    def test_integer_beyond_float_range_reads_as_1e400(self, capsys, tmp_path, field, sign):
        # float() of such an integer raises OverflowError, which once escaped as exit 1
        doc = {
            "states": [{"name": "a", "prob": "HUGE"}, {"name": "b", "prob": 0.5}],
            "atoms": [["a", "b"]],
            "positions": {"x": [0.0, 1.0]},
        }
        if field == "position":
            doc["states"][0]["prob"] = 0.5
            doc["positions"]["x"][0] = "HUGE"
        path = tmp_path / "huge.json"
        results = []
        for literal in (sign + "1" + "0" * 400, sign + "1e400"):
            path.write_text(json.dumps(doc).replace('"HUGE"', literal))
            results.append(run_cli(capsys, ["oce", str(path), "--position", "x"]))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (2, "")
        if field == "prob":
            assert err == "condrisk: error: bad state probabilities: probabilities must be finite\n"
        else:
            got = np.array([float(sign + "inf"), 1.0])
            message = f"position 'x': random variable must be finite, got {got!r}"
            assert err == f"condrisk: error: {message}\n"

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("field", ["prob", "position"])
    def test_integer_too_long_to_convert_reads_as_1e5000(self, capsys, tmp_path, field, sign):
        # past 4 300 digits int() refuses the literal, which json.load once passed on
        # as a message naming neither the file nor the entry
        doc = {
            "states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.5}],
            "atoms": [["a", "b"]],
            "positions": {"x": [0.0, 1.0]},
        }
        if field == "prob":
            doc["states"][0]["prob"] = "HUGE"
        else:
            doc["positions"]["x"][0] = "HUGE"
        path = tmp_path / "huge.json"
        results = []
        for literal in (sign + "1" + "0" * 5000, sign + "1e5000"):
            path.write_text(json.dumps(doc).replace('"HUGE"', literal))
            results.append(run_cli(capsys, ["oce", str(path), "--position", "x"]))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (2, "")
        if field == "prob":
            assert err == "condrisk: error: bad state probabilities: probabilities must be finite\n"
        else:
            got = np.array([float(sign + "inf"), 1.0])
            assert err == f"condrisk: error: position 'x': random variable must be finite, got {got!r}\n"

    def test_integers_within_the_limit_stay_integers(self, capsys, tmp_path):
        doc = {"states": [{"name": "a", "prob": 1}], "atoms": [["a"]], "positions": {"x": [-3]}}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, ["oce", str(path), "--position", "x", "--format", "json", "--echo-input"]
        )
        assert code == 0
        assert json.loads(out)["scenario"] == doc
        assert '"prob": 1\n' in out and "\n        -3\n" in out

    def test_scenario_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code, out, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert (code, out) == (2, "")
        assert err == "condrisk: error: scenario must be a JSON object\n"

    def test_positions_that_are_not_an_object(self, capsys, tmp_path):
        doc = {"states": [{"name": "a", "prob": 1.0}], "atoms": [["a"]], "positions": [[0.0]]}
        path = tmp_path / "positions.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert (code, out) == (2, "")
        assert err == "condrisk: error: 'positions' must be an object mapping labels to value lists\n"

    def test_zero_samples(self, capsys, scenario_file):
        code, out, err = run_cli(
            capsys, ["check", scenario_file, "--operator", "entropic", "--samples", "0"]
        )
        assert (code, out) == (2, "")
        assert err == "condrisk: error: --samples must be at least 1, got 0\n"

    def test_atoms_must_cover_states(self, capsys, tmp_path):
        doc = {
            "states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.5}],
            "atoms": [["a"]],
            "positions": {"x": [0.0, 1.0]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert code == 2
        assert "bad atoms" in err

    @pytest.mark.parametrize("atoms, fault", [
        ([["b", "c"]], "they leave out 1 of 3 states ('a')"),
        ([["a", "c"]], "they leave out 1 of 3 states ('b')"),
        ([["a"], ["b"]], "they leave out 1 of 3 states ('c')"),
        ([["b"]], "they leave out 2 of 3 states ('a', 'c')"),
        ([["a"], ["a"]], "atoms must be pairwise disjoint"),  # reported before 'b' and 'c'
    ])
    def test_atoms_must_name_every_state_once(self, capsys, tmp_path, atoms, fault):
        doc = {
            "states": [{"name": s, "prob": 1 / 3} for s in "abc"],
            "atoms": atoms,
            "positions": {"x": [0.0, 1.0, 2.0]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["entropic", str(path), "--position", "x"])
        assert (code, out) == (2, "")
        if "leave out" in fault:
            fault += "; every state must appear in exactly one atom"
        assert err == f"condrisk: error: bad atoms: {fault}\n"

    @pytest.mark.parametrize("member", [["a"], {"name": "a"}])
    def test_atom_member_that_is_not_a_name(self, capsys, tmp_path, member):
        doc = {
            "states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.5}],
            "atoms": [[member, "b"]],
            "positions": {"x": [0.0, 1.0]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["oce", str(path), "--position", "x"])
        assert code == 2
        assert out == ""
        assert f"atoms[0] names unknown state {member!r}" in err

    @pytest.mark.parametrize("command", ["entropic", "oce", "dual", "gap"])
    def test_payoff_range_that_overflows_a_float(self, capsys, tmp_path, command):
        # max - min of [1e308, -1e308] is beyond the largest float
        doc = {
            "states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.5}],
            "atoms": [["a", "b"]],
            "positions": {"x": [1e308, -1e308]},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [command, str(path), "--position", "x"])
        if command == "entropic":
            assert (code, err) == (0, "")
            assert float(out.splitlines()[1].split()[2]) == -1e308
        else:
            assert (code, out) == (2, "")
            assert err == "condrisk: error: atom A0: the payoff range max - min overflows a float\n"

    def test_measure_that_is_not_a_measure(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, ["divergence", scenario_file, "--measure", "payoff"])
        assert code == 2
        assert "measure 'payoff'" in err

    def test_usage_error_from_argparse(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, ["oce", scenario_file])  # missing --position
        assert code == 2

    def test_unknown_command(self, capsys, scenario_file):
        code, _, _ = run_cli(capsys, ["frobnicate", scenario_file])
        assert code == 2

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "condrisk" in out

    def test_unattainable_solver_tolerance_is_exit_3(self, capsys, scenario_file):
        # 1e-300 is below what 200 bisection steps can deliver, so the
        # residual check must trip; the rows are still reported
        code, out, _ = run_cli(
            capsys,
            ["oce", scenario_file, "--position", "payoff", "--divergence", "power:3", "--tol", "1e-300"],
        )
        assert code == 3
        assert "oce:power:3" in out

    def test_solver_error_is_exit_3(self, capsys, scenario_file, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "oce_primal", explode)
        code, out, err = run_cli(capsys, ["oce", scenario_file, "--position", "payoff"])
        assert code == 3
        assert out == ""
        assert "solver error" in err

    def test_excessive_gap_is_exit_4(self, capsys, scenario_file):
        # an impossible threshold forces the gap exit; rows still printed
        code, out, _ = run_cli(
            capsys, ["gap", scenario_file, "--position", "payoff", "--tol", "1e-300"]
        )
        assert code == 4
        assert "gap:kl" in out


# ---------------------------------------------------------------------------
# the scenario parser against its per-entry reference


def _pick(draw, items):
    return draw(st.integers(0, len(items) - 1)) if items else None


def _listed(doc, key):
    """doc[key] if an earlier fault left it a list, else an empty list."""
    items = doc[key]
    return items if isinstance(items, list) else []


def _state_entry(draw, doc):
    """Some state entry that is still an object, or None."""
    entries = [e for e in _listed(doc, "states") if isinstance(e, dict)]
    return entries[_pick(draw, entries)] if entries else None


def _fault_entry(draw, doc):
    states = _listed(doc, "states")
    if states:
        states[_pick(draw, states)] = draw(st.sampled_from([[], "a", None, 1, ["name", "prob"]]))


def _fault_key(draw, doc):
    entry = _state_entry(draw, doc)
    if entry is not None:
        entry.pop(draw(st.sampled_from(["name", "prob"])), None)


def _fault_name(draw, doc):
    entry = _state_entry(draw, doc)
    if entry is not None:
        entry["name"] = draw(st.sampled_from(["", 0, None, ["a"], b"a", True]))


def _fault_prob(draw, doc):
    entry = _state_entry(draw, doc)
    if entry is not None:
        prob = entry.get("prob")
        same = np.float64(prob if type(prob) is float else 0.5)  # passes isinstance(float)
        entry["prob"] = draw(st.sampled_from(
            [True, False, "0.5", None, 10**400, -(10**400), 2**64 + 1, math.nan, math.inf,
             -math.inf, same, 0, -0.5]
        ))


def _fault_duplicate(draw, doc):
    first, second = _state_entry(draw, doc), _state_entry(draw, doc)
    if first is not None and second is not None and "name" in second:
        first["name"] = second["name"]


def _fault_subclass(draw, doc):
    # subclasses of the JSON types, passed from Python, still pass isinstance
    entry = _state_entry(draw, doc)
    if entry is not None:
        if isinstance(entry.get("name"), str):
            entry["name"] = np.str_(entry["name"])
        doc["states"][doc["states"].index(entry)] = collections.OrderedDict(entry)
    atoms = _listed(doc, "atoms")
    k = _pick(draw, atoms)
    if k is not None and isinstance(atoms[k], list):
        atoms[k] = [np.str_(m) if isinstance(m, str) else m for m in atoms[k]]


def _fault_atom(draw, doc):
    atoms = _listed(doc, "atoms")
    k = _pick(draw, atoms)
    if k is None:
        return
    kind = draw(st.sampled_from(["empty", "extra empty", "tuple", "string"]))
    if kind == "empty":
        atoms[k] = []
    elif kind == "extra empty":
        atoms.insert(k, [])
    elif kind == "tuple":
        atoms[k] = tuple(atoms[k]) if isinstance(atoms[k], list) else atoms[k]
    else:
        atoms[k] = "a"


def _fault_member(draw, doc):
    lists = [a for a in _listed(doc, "atoms") if isinstance(a, list) and a]
    if not lists:
        return
    atom = lists[_pick(draw, lists)]
    j = _pick(draw, atom)
    kind = draw(st.sampled_from(["replace", "repeat", "drop"]))
    if kind == "replace":
        atom[j] = draw(st.sampled_from(["\x00unknown", 0, None, ["a"], {"a": 1}, 1.5, True]))
    elif kind == "repeat":
        other = lists[_pick(draw, lists)]
        other.append(atom[j])
    else:
        del atom[j]  # leaves a state uncovered


def _fault_position(draw, doc):
    positions = doc["positions"]
    if not isinstance(positions, dict) or not positions:
        return
    label = draw(st.sampled_from(sorted(positions)))
    values = positions[label]
    kind = draw(st.sampled_from(["entry", "entry", "longer", "shorter", "tuple"]))
    if kind == "entry" and isinstance(values, list) and values:
        values[_pick(draw, values)] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**70, "1", None, True,
             [1.0], np.float64(2.5)]
        ))
    elif kind == "longer" and isinstance(values, list):
        values.append(0.0)
    elif kind == "shorter" and isinstance(values, list) and values:
        values.pop()
    elif kind == "tuple":
        positions[label] = tuple(values)


def _fault_top(draw, doc):
    key = draw(st.sampled_from(["states", "atoms", "positions"]))
    doc[key] = draw(st.sampled_from([None, [], {}, "x"]))


FAULTS = [
    _fault_entry, _fault_key, _fault_name, _fault_prob, _fault_duplicate, _fault_subclass,
    _fault_atom, _fault_member, _fault_position, _fault_top,
]


@st.composite
def scenario_docs(draw):
    """A valid decoded scenario, then up to three faults in it."""
    n = draw(st.integers(1, 6))
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    number = st.floats(-1e6, 1e6) | st.integers(-(10**6), 10**6)
    labels = draw(st.lists(st.text(max_size=2), min_size=1, max_size=3, unique=True))
    doc = {
        "states": [{"name": s, "prob": w / sum(weights)} for s, w in zip(names, weights)],
        "atoms": [[names[i] for i in perm[lo:hi]] for lo, hi in zip(bounds, bounds[1:])],
        "positions": {
            label: draw(st.lists(number, min_size=n, max_size=n)) for label in labels
        },
    }
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        draw(st.sampled_from(FAULTS))(draw, doc)
    return doc


def parse_outcome(parse, doc):
    """Everything a parser builds from ``doc``, bit for bit, or its error text."""
    try:
        s = parse(doc)
    except ScenarioError as e:
        return str(e)
    positions = [(label, rv.values.tobytes()) for label, rv in s.positions.items()]
    return s.space.state_names, s.space.probs.tobytes(), s.partition.atoms, positions


SEVERAL_FAULTS = {
    "states": [{"name": "a", "prob": 0.5}, {"name": "", "prob": 0.25}, {"name": "c", "prob": "x"}],
    "atoms": [["a"], [], ["zz"]],
    "positions": {"x": [0.0, None, 1.0], "y": [1.0]},
}


class TestParserMatchesReference:
    @given(scenario_docs())
    @example({"states": [{"name": "a", "prob": 10**400}], "atoms": [["a"]]})
    @example({"states": [{"name": "a", "prob": np.float64(1.0)}], "atoms": [["a"]],
              "positions": {"x": [np.float64(2.0)]}})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [["a"]],
              "positions": {"x": [-(10**400)], "y": ["1"]}})
    @example({"states": [{"name": "a", "prob": True}], "atoms": [["a"]]})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [["a"]],
              "positions": {"x": [False]}})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [[["a"]]]})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [["a", "a"]]})
    @example(SEVERAL_FAULTS)
    @example({"states": [{"name": "0", "prob": 1.0}], "atoms": [["0"]], "positions": {"": []}})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [["zz"], []]})
    @example({"states": [{"name": "a", "prob": 1.0}], "atoms": [["a"], ["zz"]]})
    @example({"states": [{"name": s, "prob": 1 / 7} for s in "abcdefg"], "atoms": [["d"]]})
    @example({"states": [{"name": "a", "prob": 0.5}, {"name": "b", "prob": 0.5}],
              "atoms": [["a", "b"]], "positions": {"x": [1.0]}})
    @settings(max_examples=300, deadline=None)
    def test_same_scenario_or_same_error(self, doc):
        expected = parse_outcome(parse_scenario_reference, doc)
        assert parse_outcome(cli.parse_scenario, doc) == expected

    def test_several_faults_report_the_first_in_document_order(self):
        with pytest.raises(ScenarioError, match=r"^states\[1\]\.name must be a nonempty string$"):
            cli.parse_scenario(SEVERAL_FAULTS)


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
SPECIAL_STRINGS = ['say "hi"', "back\\slash", "\x00\x1f\n\t\r\x7f", "é", "\U0001d11e", "\ud800"]
SCALARS = (
    st.floats() | st.sampled_from(SPECIAL_FLOATS) | st.text() | st.sampled_from(SPECIAL_STRINGS)
    | st.integers() | st.sampled_from([10**400, -(2**70)]) | st.booleans() | st.none()
    | st.builds(np.float64, st.floats())
)
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.text(max_size=3) | st.integers() | st.floats() | st.booleans(), inner, max_size=3
    ),
    max_leaves=8,
)
ROWS = st.lists(st.dictionaries(st.text(max_size=5), SCALARS | NESTED, max_size=7), max_size=4)
# text that looks like the layout between two rows, as keys and values
BRACES = ["{", "}", "},\n      {", '"},\n      {"', "a\n    },\n    {\n      b"]
FLAT_STRINGS = st.text() | st.sampled_from(SPECIAL_STRINGS + BRACES)
FLAT_SCALARS = (
    st.floats() | st.sampled_from(SPECIAL_FLOATS) | FLAT_STRINGS
    | st.integers() | st.sampled_from([10**400, -(2**70)])
)


@st.composite
def flat_rows(draw):
    """Nonempty rows of str, int and float values, fewer, as many as or more
    than the writer encodes per call: a few drawn rows, repeated."""
    drawn = draw(st.lists(
        st.dictionaries(FLAT_STRINGS, FLAT_SCALARS, min_size=1, max_size=7), min_size=1, max_size=4
    ))
    batch = cli._ROW_BATCH
    count = draw(st.sampled_from([batch - 1, batch, batch + 1, 2 * batch + 1])
                 | st.integers(1, 3 * batch))
    return [drawn[i % len(drawn)] for i in range(count)]


class TestJsonWriter:
    @given(ROWS, st.none() | NESTED, st.text() | st.sampled_from(SPECIAL_STRINGS), flat_rows())
    @example([], None, "oce", [{"atom": "A0", "value": 1.0, "iterations": 3}])
    @example([], {"states": [], "atoms": {}}, "check", [{"}": "},\n      {"}] * 65)
    @example(
        [{"value": x, "note": s, "iterations": 10**400, "counterexample": {"x": [], "a": {}}}
         for x, s in zip(SPECIAL_FLOATS, SPECIAL_STRINGS)],
        {"states": [{"name": "a", "prob": 1.0}], "positions": {"x": [True, None, [[]]]}},
        "check",
        [{"value": x, "note": s, "iterations": 10**400}
         for x, s in zip(SPECIAL_FLOATS, SPECIAL_STRINGS)] * 11,
    )
    @settings(max_examples=200, deadline=None)
    def test_report_is_what_json_dumps_writes(self, rows, echo, command, flat):
        doc = {"command": command, "rows": rows}
        if echo is not None:
            doc["scenario"] = echo
        assert cli._emit(rows, "json", echo, command) == json.dumps(doc, indent=2) + "\n"
        # a flat report is written without json.dumps, in batches of rows
        expected = json.dumps({"command": command, "rows": flat}, indent=2) + "\n"
        with mock.patch.object(json, "dumps", side_effect=AssertionError("not batched")):
            assert cli._emit(flat, "json", None, command) == expected
