"""The names of `freearm` that the benchmark under `perfbench/` relies on.

The benchmark's own tests are not part of this suite, so a rename or a
dropped field in `src/` would only show when the benchmark runs.  These
tests load `perfbench/tracer.py` by path, check that each of its post-call
hooks names a public function, and run each hook once on a real small
result of that function, so every attribute a hook reads is read here too.
They also call the names `perfbench/test_counts.py` and
`perfbench/workloads.py` use.
"""

import importlib
import importlib.util
import inspect
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freearm import analytics, cli, fock, statevec, walker

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SQ2 = math.sqrt(2)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hook_calls():
    """Per hook: arguments of a small real call, and the counters the hook
    must record from its result."""
    params = walker.WalkParams(n=2, target_links=3, trials=2, seed=1, warmup_links=0)
    trials = walker.run_trials(params)
    steps = sum(t.steps for t in trials)
    units = sum(t.units for t in trials)
    pair = (statevec.bracket_state("p", 1), statevec.bracket_state("q", 1))
    arms = (statevec.arm("p", 2), statevec.arm("q", 2))
    plus = (1 / SQ2, 1 / SQ2)
    splitter = fock.ModeUnitary((0, 1), fock.fourier_matrix(2))
    return {
        "walker.run_trials": ((params,), {}, {
            "walker.trials": 2, "walker.capped_trials": 0, "walker.walk_steps": steps,
            "walker.uniforms_used": 3 * steps + 2 * units}),
        "walker.weave_batch": ((2, walker.WeaveModel.FULL_CZ_RETRY, 10, 1), {},
                               {"walker.weaves": 10}),
        "walker.cluster_batch": ((2, 12, 1), {}, {"walker.cluster_attempts": 12}),
        "statevec.evolve_program": (
            (statevec.random_program(2, 1, 1, np.random.default_rng(0)),),
            {"links_per_qubit": 2}, {"statevec.branches": 64}),
        "statevec.weave": (pair + arms, {}, {"statevec.branches": 4}),
        "statevec.weave_joint": ((pair[0].tensor(pair[1]),) + arms, {},
                                 {"statevec.gadgets": 1, "statevec.peak_dofs": 6}),
        "statevec.bell_teleport": ((statevec.build_chain_state(1, (1, 0)), "p", 1), {},
                                   {"statevec.teleports": 1}),
        "fock.cz_via_cs": ((plus, plus, 1), {}, {"fock.branches": 25}),
        "fock.apply_mode_unitary": ((fock.FockState(2, {(1, 0): 1.0}), splitter), {},
                                    {"fock.mode_unitaries": 1, "fock.peak_terms": 2}),
    }


def test_every_hook_is_called_here(tracer):
    assert set(tracer.HOOKS) == set(hook_calls())


def test_hooks_name_public_functions(tracer):
    for name in tracer.HOOKS:
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS and not attr.startswith("_")
        module = importlib.import_module(f"freearm.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


@pytest.mark.parametrize("name", sorted(hook_calls()))
def test_hook_reads_a_real_result(tracer, name):
    args, kwargs, want = hook_calls()[name]
    layer, attr = name.split(".")
    result = getattr(importlib.import_module(f"freearm.{layer}"), attr)(*args, **kwargs)
    counts = Counter()
    tracer.HOOKS[name](counts, args, kwargs, result)
    assert dict(counts) == want


def test_names_the_walk_replay_uses():
    """`test_counts.py` replays a walk's draws one event at a time."""
    step_rng = walker.substream(11, 0, walker._STREAM_STEP)
    prep_rng = walker.substream(11, 0, walker._STREAM_PREP)
    assert walker._STREAM_STEP != walker._STREAM_PREP
    outcomes = {walker.simulate_step(2, step_rng) for _ in range(200)}
    assert {walker.StepOutcome.FORWARD, walker.StepOutcome.BACKWARD} <= outcomes
    assert walker.simulate_prep(2, prep_rng)[0] >= 1


def test_names_the_closed_form_checks_use():
    assert analytics.attempts_per_link(2) == Fraction(6)
    link = analytics.resources_per_link(2)
    assert (link.two_photon_units, link.cs_states) == (Fraction(27, 2), Fraction(45, 2))
    assert analytics.cz_success(2) == Fraction(4, 9)
    cluster = analytics.cluster_resources_per_unit(1)
    assert (cluster.two_photon_units, cluster.cs_states) == (Fraction(16, 3), Fraction(28, 3))


def test_names_the_workloads_use():
    """`workloads.py` reads a random program's gate pattern."""
    program = statevec.random_program(3, 2, 4, np.random.default_rng(5))
    kinds = [isinstance(op, statevec.Cphase) for op in program.ops]
    assert (sum(kinds), len(kinds)) == (2, 6)


def test_reports_enter_through_cli_main(capsys):
    assert cli.main(["verify-weave", "--format", "json"]) == 0
    assert '"command": "verify-weave"' in capsys.readouterr().out
