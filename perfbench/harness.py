"""Issue one `freearm` report in-process and check it; time set-up.

Reports go through ``freearm.cli.main(argv)`` with ``--format json``, the
same entry point as the ``freearm`` command, with stdout captured.

Run as a script, this file is the set-up probe: in a fresh interpreter it
times ``import freearm`` plus the workload's warm-up report and prints one
JSON line.  Usage: ``python3 perfbench/harness.py WORKLOAD SEED``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


class MissingProgram(RuntimeError):
    """The checkout holds no freearm sources to benchmark."""


@dataclass
class Record:
    """One report as run: timing, exit status, check outcome and extracts."""

    rid: int
    tag: str
    argv: tuple[str, ...]
    pass_index: int
    traced: bool
    seconds: float = 0.0
    status: int | None = None
    bytes_out: int = 0
    problems: list[str] = field(default_factory=list)
    verdict_miss: bool = False
    rows: int = 0
    accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def require_program() -> None:
    if not (SRC / "freearm" / "cli.py").is_file():
        raise MissingProgram(f"no freearm sources under {SRC}")


def load_cli():
    """Import ``freearm.cli`` from this checkout's ``src/`` and nowhere else."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freearm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"freearm was imported from {cli.__file__}, not {SRC}")
    return cli


def _accuracy(argv, doc: dict) -> dict[str, float]:
    if argv[0] in ("verify-evolve", "verify-weave"):
        acc = {"statevec.fidelity_defect": 1.0 - doc["min_fidelity"]}
        if argv[0] == "verify-evolve":
            acc["statevec.prob_sum_err"] = abs(doc["probability_sum"] - 1.0)
        return acc
    if argv[0] == "fock-cz":
        return {"fock.success_prob_err": abs(doc["success_probability"]
                                             - float(checks.cz_success(doc["order"])))}
    return {}


def run_report(cli, report: workloads.Report, rid: int = 0, pass_index: int = -1,
               tracer=None) -> Record:
    """Run one report, time the ``main`` call, and check its output."""
    rec = Record(rid, report.tag, report.argv, pass_index, tracer is not None)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.report = rid
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rec.status = cli.main(list(report.argv) + ["--format", "json"])
    except SystemExit as exc:
        rec.status = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a report that raises is a failed report, not a crash
        rec.problems.append("raised: " + traceback.format_exc(limit=-3))
    finally:
        rec.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.report = None
    output = out.getvalue()
    rec.bytes_out = len(output.encode())
    if rec.problems:
        return rec
    verdict = checks.check(report.argv, rec.status, output)
    rec.problems = verdict.problems
    if err.getvalue():
        rec.problems.append("stderr: " + err.getvalue().strip()[-300:])
    rec.verdict_miss = verdict.verdict_miss
    if verdict.ok:
        rec.accuracy = _accuracy(report.argv, verdict.doc)
        rec.rows = len(verdict.doc.get("rows", ()))
    return rec


def setup(workload: str, seed: int):
    """Import freearm and run the warm-up report: (cli, seconds, warm-up record).

    numpy, freearm's one runtime dependency, is imported before the clock
    starts: its import time swings two-fold with host load, and no change
    to freearm can move it.
    """
    import numpy  # noqa: F401

    start = time.perf_counter()
    cli = load_cli()
    rec = run_report(cli, workloads.warmup(workload, seed))
    return cli, time.perf_counter() - start, rec


if __name__ == "__main__":
    try:
        _, seconds, warm = setup(sys.argv[1], int(sys.argv[2]))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps({"setup_s": seconds, "problems": warm.problems}))
