"""Self-tests of the benchmark: exact counts the traced run must reproduce.

The counts come from wrappers around internal calls (`weave_joint` inside
`evolve_program`, `apply_mode_unitary` inside the teleport loop), so these
tests also show that the wrappers see them.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return harness.load_cli()


def traced(cli, *argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = harness.run_report(cli, workloads.Report("test", argv), tracer=tracer)
    finally:
        tracer.uninstall()
    return rec, tracer.counts[0]


def test_two_cphase_program_enumerates_64_squared_branches(cli):
    rec, counts = traced(cli, "verify-evolve", "--qubits", "3", "--cphases", "2",
                         "--rotations", "4", "--seed", "5")
    assert rec.ok, rec.problems
    assert counts["statevec.branches"] == 4096
    # one gadget for the first cphase, then one per branch of it
    assert counts["statevec.gadgets"] == 65
    # per gadget: one teleport per weave outcome, one per (weave, first Bell) outcome
    assert counts["statevec.teleports"] == 65 * (4 + 16)


def test_one_cphase_program_enumerates_64_branches(cli):
    rec, counts = traced(cli, "verify-evolve", "--qubits", "12", "--cphases", "1",
                         "--rotations", "3", "--seed", "5")
    assert rec.ok, rec.problems
    assert counts["statevec.branches"] == 64
    assert counts["statevec.gadgets"] == 1
    assert counts["statevec.peak_dofs"] == 12 + 6


def test_fock_order_3_counts(cli):
    rec, counts = traced(cli, "fock-cz", "--n", "3")
    assert rec.ok, rec.problems
    assert counts["fock.branches"] == 1849
    assert counts["fock.mode_unitaries"] == 198
    assert counts["fock.peak_terms"] == 600


def test_uniforms_used_match_replayed_scalar_draws(cli):
    """3 uniforms per walk step plus 2 per preparation attempt, checked by
    replaying each trial's substreams with the scalar reference model."""
    from freearm import walker

    n, trials, links, seed = 2, 4, 5, 11
    rec, counts = traced(cli, "walk", "--n", str(n), "--trials", str(trials),
                         "--target-links", str(links), "--warmup-links", "0",
                         "--seed", str(seed))
    # a 5-link chain is far from the asymptotic regime, so only draws are compared
    assert rec.status in (0, 1)
    steps = attempts = 0
    for trial in range(trials):
        step_rng = walker.substream(seed, trial, walker._STREAM_STEP)
        prep_rng = walker.substream(seed, trial, walker._STREAM_PREP)
        length = trial_steps = 0
        while length < links:
            outcome = walker.simulate_step(n, step_rng)
            trial_steps += 1
            if outcome is walker.StepOutcome.FORWARD:
                length += 1
            elif outcome is walker.StepOutcome.BACKWARD:
                length = max(0, length - 1)
        steps += trial_steps
        attempts += sum(walker.simulate_prep(n, prep_rng)[0] for _ in range(trial_steps))
    assert counts["walker.walk_steps"] == steps
    assert counts["walker.uniforms_used"] == 3 * steps + 2 * attempts


def test_closed_forms_agree_with_analytics():
    from freearm import analytics

    for n in range(2, 12):
        assert checks.attempts_per_link(n) == analytics.attempts_per_link(n)
        assert checks.units_per_link(n) == analytics.resources_per_link(n).two_photon_units
        assert checks.cs_per_link(n) == analytics.resources_per_link(n).cs_states
        assert checks.cz_success(n) == analytics.cz_success(n)
        rates = analytics.cluster_resources_per_unit(n)
        assert (checks.cluster_units(n), checks.cluster_cs(n)) == (
            rates.two_photon_units, rates.cs_states)
    assert checks.attempts_per_link(1) is None


def json_report(cli, argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv) + ["--format", "json"])
    return status, json.loads(buf.getvalue())


def test_check_rejects_a_wrong_success_probability(cli):
    argv = ("fock-cz", "--n", "2")
    status, doc = json_report(cli, argv)
    assert status == 0 and checks.check(argv, 0, json.dumps(doc)).ok
    doc["success_probability"] += 1e-9
    assert not checks.check(argv, 0, json.dumps(doc)).ok


def test_exit_1_with_a_consistent_estimate_is_a_verdict_miss(cli):
    argv = ("walk", "--n", "2", "--trials", "200", "--target-links", "100", "--seed", "1")
    status, doc = json_report(cli, argv)
    verdict = checks.check(argv, status, json.dumps(doc))
    assert verdict.ok and verdict.verdict_miss == (status == 1)
    doc["converged"] = False
    miss = checks.check(argv, 1, json.dumps(doc))
    assert miss.ok and miss.verdict_miss
    assert not checks.check(argv, 0, json.dumps(doc)).ok
    doc["results"]["units_per_link"] = str(float(doc["results"]["units_per_link"]) * 1.5)
    assert not checks.check(argv, 1, json.dumps(doc)).ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload, cli):
    assert workloads.plan(workload, 3) == workloads.plan(workload, 3)
    if workload != "photon":
        assert workloads.plan(workload, 3) != workloads.plan(workload, 4)


def test_program_slots_have_their_gate_patterns(cli):
    slots = workloads.DEEP_SLOTS + workloads.WIDE_SLOTS
    programs = [r for r in workloads.plan("programs", 7) if r.tag in ("deep", "wide")]
    for (qubits, cphases, rotations, pattern), report in zip(slots, programs):
        seed = int(report.argv[report.argv.index("--seed") + 1])
        assert workloads.gate_pattern(qubits, cphases, rotations, seed) == pattern


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads(run.SPEC.read_text())
    records = [harness.Record(i, "test", ("verify-weave",), 0, False, seconds=0.1 * i)
               for i in range(1, 4)]
    passes = [run.Pass(0, False, 1.0, 1.0)]
    assert list(run.end_to_end(records, passes, [0.1], 1.0)) == list(run.metric_units(0))
    layers = tracing.layer_metrics(tracing.Tracer(), records, 1)
    assert set(layers) | {"trace.overhead_frac"} == set(run.metric_units(1))
    assert [m["name"] for m in spec["per_layer"]] == list(run.metric_units(1))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / harness.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{harness.HERE.name}/run.py", "--workload",
                           "photon", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
