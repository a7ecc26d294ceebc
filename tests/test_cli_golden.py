"""Golden CLI outputs: every report in the corpus must stay byte-identical.

Each case records the exit status (or the exception that escaped ``main``),
stdout, and the last line of stderr.  Regenerate ``golden/cli.json`` with
``PYTHONPATH=src python tests/test_cli_golden.py`` only when a documented
behaviour change moves an output.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from freearm import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

REPORTS = [
    ["analytic", "--n", "1", "2", "3", "--m", "1", "2"],
    ["walk", "--n", "2", "--trials", "20", "--target-links", "10", "--seed", "3"],
    ["walk", "--n", "2", "--trials", "4", "--target-links", "5", "--warmup-links", "2",
     "--per-trial", "--seed", "1"],
    ["walk", "--n", "1", "--trials", "5", "--target-links", "10", "--max-steps", "2000",
     "--seed", "2"],
    ["weave", "--m", "2", "--count", "1000", "--seed", "4"],
    ["weave", "--m", "3", "--model", "independent-sides", "--count", "1000", "--seed", "4"],
    ["cluster", "--n", "2", "--count", "1000", "--seed", "5"],
    ["cluster", "--n", "1", "--count", "1", "--seed", "2"],
    ["verify-weave"],
    ["verify-evolve", "--qubits", "2", "--cphases", "1", "--rotations", "2", "--seed", "3"],
    ["fock-cz", "--n", "2"],
]

SINGLES = [
    (["fock-cz", "--n", "1"], {}),
    (["fock-cz", "--n", "4"], {}),
    (["walk", "--n", "1", "--trials", "5", "--target-links", "10", "--max-steps", "2000",
      "--warmup-links", "0", "--seed", "11", "--format", "json"], {}),
    (["weave", "--m", "2", "--count", "500", "--format", "json"], {"FREEARM_SEED": "7"}),
    (["weave", "--m", "2", "--count", "500", "--seed", "5", "--format", "json"],
     {"FREEARM_SEED": "7"}),
    # usage errors and boundary cases
    (["fock-cz", "--n", "6"], {}),
    (["walk", "--n", "0", "--trials", "1", "--target-links", "1"], {}),
    (["walk", "--n", "2", "--trials", "1", "--target-links", "10", "--max-steps", "5"], {}),
    (["walk", "--n", "2", "--trials", "1", "--target-links", "5", "--warmup-links", "-1"], {}),
    (["walk", "--n", "2", "--trials", "0", "--target-links", "5"], {}),
    (["walk", "--n", "2", "--trials", "2", "--target-links", "5", "--threads", "0"], {}),
    (["walk", "--n", "2", "--trials", "1", "--target-links", "5", "--seed", "-1"], {}),
    (["analytic", "--n", "0"], {}),
    (["analytic", "--m", "0"], {}),
    (["weave", "--m", "2", "--count", "0"], {}),
    (["weave", "--m", "-1", "--count", "10"], {}),
    (["cluster", "--n", "0", "--count", "10"], {}),
    (["cluster", "--n", "1", "--count", "0"], {}),
    (["verify-evolve", "--qubits", "1", "--cphases", "1"], {}),
    (["verify-evolve", "--qubits", "2", "--cphases", "2", "--links", "1"], {}),
    (["verify-evolve", "--qubits", "0"], {}),
    (["verify-evolve", "--cphases", "-3", "--rotations", "-2"], {}),
    (["walk", "--n", "2", "--trials", "2", "--target-links", "5", "--max-steps", "20"], {}),
    (["weave", "--m", "2", "--count", "100"], {"FREEARM_SEED": "abc"}),
    (["weave", "--m", "2", "--count", "100"], {"FREEARM_SEED": "-1"}),
    (["verify-weave"], {"FREEARM_SEED": "abc"}),
    (["verify-weave", "--output", "/nonexistent/freearm/report.json"], {}),
    (["verify-evolve", "--qubits", "21", "--cphases", "0", "--rotations", "0"], {}),
    (["verify-evolve", "--qubits", "15", "--cphases", "1"], {}),
    (["verify-evolve", "--links", "-3", "--cphases", "0"], {}),
    (["verify-evolve", "--qubits", "20", "--cphases", "1", "--rotations", "2", "--seed", "0"],
     {}),
    (["walk", "--n", "2", "--trials", "abc", "--target-links", "5"], {}),
]

CASES = [(argv + ["--format", fmt], {}) for argv in REPORTS
         for fmt in ("table", "json", "csv")] + SINGLES


def invoke(argv, env) -> dict:
    """Run ``cli.main`` in-process with ``env`` as the only freearm setting."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("FREEARM_SEED", None)
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # recorded so a change in the failure shows
            status = f"raised {type(exc).__name__}"
    return {"argv": list(argv), "env": env, "exit": status, "stdout": out.getvalue(),
            "stderr": (err.getvalue().splitlines() or [""])[-1]}


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(a) + "".join(f" {k}={v}" for k, v in e.items())
                              for a, e in CASES])
def test_case_matches_golden(index):
    expected = json.loads(GOLDEN.read_text())[index]
    assert (expected["argv"], expected["env"]) == CASES[index]
    assert invoke(*CASES[index]) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([invoke(a, e) for a, e in CASES], indent=1) + "\n")
