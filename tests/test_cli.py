"""Command-line interface tests: exit codes, formats, determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freearm
import walk_moments
from freearm import analytics, cli, fock, walker


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestAnalyticCommand:
    def test_table_row_values(self, capsys):
        code, out = run(["analytic", "--n", "2", "--m", "2"], capsys)
        assert code == 0
        row = out.splitlines()[1]
        for value in ("6", "13.5", "22.5", "67.5", "40.5", "2.25"):
            assert value in row.split()

    def test_json_exact_rationals_round_trip(self, capsys):
        code, out = run(["analytic", "--n", "2", "3", "--m", "2",
                         "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        by_n = {r["n"]: r for r in doc["rows"]}
        assert Fraction(by_n[2]["cs_per_link"]) == Fraction(45, 2)
        assert Fraction(by_n[3]["attempts_per_link"]) == Fraction(32, 11)

    def test_divergent_order_marked(self, capsys):
        code, out = run(["analytic", "--n", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["attempts_per_link"] == "divergent"


class TestWalkCommand:
    ARGS = ["walk", "--n", "3", "--trials", "1000", "--target-links", "1000",
            "--seed", "7"]

    def test_run_is_sized_for_the_relative_rule(self):
        """At ARGS 1% of each closed form is at least 6.9 exact standard
        deviations of its estimate, so a correct sampler breaks the gate's 1%
        rule with probability under 1.3e-11 (normal approximation, three
        estimates).  Its other rule, 3 sample standard errors, fails a correct
        sampler about 0.3% of the time per estimate at any size; seed 7
        passes it."""
        n, trials, links = int(self.ARGS[2]), int(self.ARGS[4]), int(self.ARGS[6])
        link = analytics.resources_per_link(n)
        targets = {"attempts_per_net_link": analytics.attempts_per_link(n),
                   "units_per_link": link.two_photon_units, "cs_per_link": link.cs_states}
        for key, exact in walk_moments.segment(n, 50, links).items():
            assert abs(exact.mean - targets[key]) < 1e-20 * targets[key]
            assert cli.REL_TOL * targets[key] >= 6.9 * (exact.var / trials) ** 0.5, key

    def test_convergent_run_exits_zero(self, capsys):
        code, out = run(self.ARGS, capsys)
        assert code == 0
        assert "convergence: pass" in out

    def test_order_one_divergence_is_informational(self, capsys):
        code, out = run(["walk", "--n", "1", "--trials", "20",
                         "--target-links", "10", "--max-steps", "5000"], capsys)
        assert code == 0
        assert "divergence is expected" in out

    def test_csv_schema(self, capsys):
        code, out = run(self.ARGS + ["--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        for col in ("n", "target_links", "trials", "seed", "attempts_per_net_link",
                    "attempts_per_net_link_stderr", "units_per_link", "cs_per_link",
                    "converged"):
            assert col in rows[0]

    def test_per_trial_records(self, capsys):
        code, out = run(["walk", "--n", "2", "--trials", "5", "--target-links",
                         "20", "--per-trial", "--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(int(r["steps"]) >= 20 for r in rows)

    def test_thread_count_byte_identical(self, capsys):
        _, one = run(self.ARGS + ["--threads", "1", "--format", "json"], capsys)
        _, four = run(self.ARGS + ["--threads", "4", "--format", "json"], capsys)
        assert one == four

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "walk.json"
        code, out = run(self.ARGS + ["--format", "json", "--output", str(target)],
                        capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "walk"


class TestSeedHandling:
    def test_env_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FREEARM_SEED", "99")
        _, out = run(["weave", "--m", "2", "--count", "1000",
                      "--format", "json"], capsys)
        assert json.loads(out)["params"]["seed"] == 99

    def test_explicit_seed_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("FREEARM_SEED", "99")
        _, out = run(["weave", "--m", "2", "--count", "1000", "--seed", "5",
                      "--format", "json"], capsys)
        assert json.loads(out)["params"]["seed"] == 5

    def test_seed_range_checked(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["walk", "--n", "2", "--trials", "1", "--target-links", "1",
                      "--seed", str(2 ** 64)])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerificationCommands:
    def test_verify_weave(self, capsys):
        code, out = run(["verify-weave"], capsys)
        assert code == 0
        assert "min branch fidelity 1.000000 (4 branches)" in out

    def test_verify_weave_json(self, capsys):
        _, out = run(["verify-weave", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["branch_count"] == 4
        assert all(abs(p - 0.25) < 1e-12 for p in doc["probabilities"])

    def test_verify_evolve(self, capsys):
        code, out = run(["verify-evolve", "--qubits", "2", "--cphases", "1",
                         "--rotations", "1", "--seed", "3", "--format", "json"],
                        capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["min_fidelity"] >= 1 - 1e-9
        assert abs(doc["probability_sum"] - 1) < 1e-9
        # the report embeds the program for reproduction
        assert doc["program"]["qubits"] == ["q0", "q1"]

    def test_verify_evolve_has_no_width_cap(self, capsys):
        code, out = run(["verify-evolve", "--qubits", "1000", "--cphases", "50",
                         "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert doc["branch_count"] == 64 ** 50
        assert len(doc["program"]["qubits"]) == 1000

    def test_fock_cz_report(self, capsys):
        code, out = run(["fock-cz", "--n", "1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["success_probability"] - 0.25) < 1e-12
        assert len(doc["branch_fidelities"]) == doc["success_branches"]


class TestConvergenceGate:
    @pytest.mark.parametrize("results, stderr", [(math.nan, 0.1), (1.0, math.nan)])
    def test_nan_never_passes(self, results, stderr):
        """A NaN estimate or standard error fails both comparisons."""
        assert cli._close(results, 1.0, stderr) is False


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_module_errors_map_to_usage_exit(self, capsys):
        assert cli.main(["fock-cz", "--n", "6"]) == 2
        assert cli.main(["walk", "--n", "0", "--trials", "1",
                         "--target-links", "1"]) == 2
        capsys.readouterr()


def run_failing(argv, capsys):
    """Exit status of an invocation and its stderr lines; stdout must be empty."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


class TestInputBoundary:
    @pytest.mark.parametrize("value", ["abc", "-1", str(2 ** 64)])
    def test_bad_env_seed_is_a_usage_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv("FREEARM_SEED", value)
        code, err = run_failing(["weave", "--m", "2", "--count", "10"], capsys)
        assert code == 2
        assert [line for line in err if "error" in line] == [err[-1]]
        assert "--seed" in err[-1]
        assert f"seed {value!r}" in err[-1] and "$FREEARM_SEED" in err[-1]
        assert "_seed_arg" not in err[-1]

    def test_bad_seed_flag_message_names_the_seed(self, capsys):
        code, err = run_failing(["weave", "--m", "2", "--count", "10", "--seed", "x1"],
                                capsys)
        assert code == 2
        assert "argument --seed: seed 'x1'" in err[-1] and "$FREEARM_SEED" in err[-1]

    def test_env_seed_unused_by_unseeded_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("FREEARM_SEED", "abc")
        code, _ = run(["verify-weave"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["cluster", "--n", "1", "--count", "0"],
        ["weave", "--m", "2", "--count", "0"],
        ["walk", "--n", "2", "--trials", "0", "--target-links", "5"],
        ["walk", "--n", "2", "--trials", "2", "--target-links", "0"],
        ["walk", "--n", "2", "--trials", "2", "--target-links", "5", "--threads", "0"],
        ["verify-evolve", "--qubits", "0"],
    ])
    def test_counts_below_one_rejected_by_parser(self, argv, capsys):
        code, err = run_failing(argv, capsys)
        assert code == 2
        assert err[-1].endswith("must be >= 1, got 0")

    @pytest.mark.parametrize("argv, flag, value", [
        (["verify-evolve", "--cphases", "-3", "--rotations", "-2"], "--cphases", -3),
        (["verify-evolve", "--rotations", "-2"], "--rotations", -2),
        (["verify-evolve", "--links", "-3", "--cphases", "0"], "--links", -3),
    ])
    def test_negative_program_sizes_rejected_by_parser(self, argv, flag, value, capsys):
        code, err = run_failing(argv, capsys)
        assert code == 2
        assert err[-1].endswith(f"argument {flag}: must be >= 0, got {value}")

    def test_zero_program_sizes_accepted(self, capsys):
        argv = ["verify-evolve", "--cphases", "0", "--rotations", "0"]
        code, out = run(argv, capsys)
        assert code == 0 and "branches: 1" in out
        # no gadget: the empty minimum fidelity is 1.0, which JSON can hold
        code, out = run(argv + ["--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["branch_count"] == 1
        assert doc["min_fidelity"] == doc["probability_sum"] == 1.0
        code, out = run(argv + ["--format", "csv"], capsys)
        (row,) = csv.DictReader(io.StringIO(out))
        assert code == 0
        assert (row["branch_count"], row["min_fidelity"], row["passed"]) == ("1", "1", "True")

    @pytest.fixture
    def digit_cap(self):
        """Sets Python's int-to-str digit cap for one test, then puts it back."""
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit cap")
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("cap, cphases", [(4300, 2380), (0, 2381)])
    def test_printable_branch_count_passes(self, digit_cap, cap, cphases, capsys):
        # 64^2380 has 4,299 digits; a cap of 0 prints any count
        digit_cap(cap)
        code, out = run(["verify-evolve", "--qubits", "3", "--cphases", str(cphases),
                         "--links", str(cphases), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["branch_count"] == 64 ** cphases

    def test_unprintable_branch_count_is_a_usage_error(self, digit_cap, capsys):
        # 64^2381 has 4,301 digits, one over Python's default cap
        digit_cap(4300)
        code, err = run_failing(["verify-evolve", "--qubits", "3", "--cphases", "2381",
                                 "--links", "2381"], capsys)
        assert (code, err) == (2, [
            "error: --cphases 2381 gives 64^2381 branches, more than 4300 digits to "
            "print; this Python prints at most --cphases 2380"])

    def test_walk_cap_below_warmup_plus_target_is_a_usage_error(self, capsys):
        # the default 50 warmup links plus 5 target links exceed 20 steps
        code, err = run_failing(["walk", "--n", "2", "--trials", "2", "--target-links", "5",
                                 "--max-steps", "20"], capsys)
        assert (code, err) == (2, ["error: max_steps must be >= warmup_links + "
                                   "target_links, got 20 < 50 + 5"])

    def test_weave_order_checked_before_sampling(self, capsys):
        code, err = run_failing(["weave", "--m", "-1", "--count", "10"], capsys)
        assert (code, err) == (2, ["error: m must be >= 1, got -1"])

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def boom(n):
            raise ValueError("boom")

        monkeypatch.setattr(fock, "cz_success_report", boom)
        with pytest.raises(ValueError, match="boom"):
            cli.main(["fock-cz", "--n", "1"])
        assert capsys.readouterr().err == ""


class TestOutputBoundary:
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, err = run_failing(["verify-weave", "--output", str(target)], capsys)
        assert code == 2 and len(err) == 1 and str(target) in err[0]

    @pytest.mark.parametrize("argv", [
        ["walk", "--n", "0", "--trials", "1", "--target-links", "1"],
        ["fock-cz", "--n", "6"],
    ])
    def test_usage_error_leaves_existing_output_alone(self, argv, tmp_path, capsys):
        target = tmp_path / "out.json"
        target.write_bytes(b'{"earlier": "report"}\n')
        code, err = run_failing(argv + ["--output", str(target)], capsys)
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
        assert target.read_bytes() == b'{"earlier": "report"}\n'

    def test_engine_os_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def boom(n):
            raise OSError("boom")

        monkeypatch.setattr(fock, "cz_success_report", boom)
        with pytest.raises(OSError, match="boom"):
            cli.main(["fock-cz", "--n", "1"])
        assert capsys.readouterr().err == ""

    def test_non_finite_json_fails_loudly(self):
        report = cli.Report({"x": float("nan")}, [{}], [])
        with pytest.raises(ValueError):
            cli.render(report, "test", "json", io.StringIO())


def fresh_python(*args):
    """Run a fresh interpreter that imports this ``freearm``."""
    root = str(Path(freearm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


class TestEntryPoint:
    """``python -m freearm`` in a fresh interpreter, as the installed script runs."""

    @staticmethod
    def module(*argv):
        return fresh_python("-m", "freearm", *argv)

    def test_report_exits_zero(self):
        proc = self.module("fock-cz", "--n", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "verification: pass"

    def test_usage_error_is_one_line_without_traceback(self):
        proc = self.module("fock-cz", "--n", "6")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: desk-scale cap: order must be 1 to 5, got 6 (a report lists one fidelity "
            "per joint success: 139,876 at order 5, 2,941,225 at order 6)"]


# imports freearm.cli, runs the report named on the command line (if any; a
# 10-weave batch may miss its convergence gate) and prints the engines then
# loaded, one per line
LOADED = """
import contextlib, io, sys
import freearm.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) in (0, 1)
print("\\n".join(sorted({engines!r} & set(sys.modules))))
""".format(engines={"freearm.fock", "freearm.statevec", "freearm.walker"})


class TestLazyEngines:
    """Each subcommand loads only the engine it runs, in a fresh interpreter."""

    @pytest.mark.parametrize("argv, loaded", [
        ((), []),
        (("analytic",), []),
        (("fock-cz", "--n", "1"), ["freearm.fock"]),
        (("weave", "--m", "2", "--count", "10"), ["freearm.walker"]),
        (("verify-weave",), ["freearm.statevec"]),
    ])
    def test_loads_only_its_engine(self, argv, loaded):
        proc = fresh_python("-c", LOADED, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == loaded

    def test_model_choices_are_the_weave_models(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        model = next(a for a in sub.choices["weave"]._actions if a.dest == "model")
        assert model.choices == [m.value for m in walker.WeaveModel]
        assert model.default == walker.WeaveModel.FULL_CZ_RETRY.value
