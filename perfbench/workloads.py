"""The three benchmark workloads: which `freearm` reports each one issues.

Every input is derived from the workload seed: report `--seed` values,
program seeds and the report order of each pass.  A *pass* is one execution
of a workload's report list; a run repeats passes for the measured seconds.

Why each workload and shape was chosen is written down in NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("montecarlo", "programs", "photon")

# Program slots of the `programs` workload: (qubits, cphases, rotations, gate
# pattern).  The pattern fixes where the conditional phases sit among the
# rotations; rotations after a cphase are applied once per branch, so the
# pattern sets a program's cost.  Fixing it per slot keeps the pass cost
# nearly independent of the seed, which only draws the program contents.
DEEP_SLOTS = (
    (3, 2, 4, "rrCrrC"),
    (3, 2, 4, "CrrCrr"),
    (4, 2, 4, "rCrrCr"),
    (4, 2, 4, "rrCCrr"),
)
WIDE_SLOTS = (
    (12, 1, 13, "r" * 1 + "C" + "r" * 12),
    (12, 1, 13, "r" * 7 + "C" + "r" * 6),
    (13, 1, 13, "r" * 3 + "C" + "r" * 10),
    (13, 1, 13, "r" * 5 + "C" + "r" * 8),
)
PHOTON_CYCLES = 8  # cycles of fock-cz n = 1, 2, 3 per pass


@dataclass(frozen=True)
class Report:
    """One report: a shape tag (used to attribute per-layer numbers) and its argv."""

    tag: str
    argv: tuple[str, ...]


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 32))


def warmup(workload: str, seed: int) -> Report:
    """The untimed warm-up report charged to set-up time.

    Each one loads the code path its workload leans on and cannot fail a
    statistical verdict: `cluster` is informational, the 1-cphase program and
    `fock-cz` are exact.
    """
    rng = _rng(workload, seed, "warmup")
    if workload == "montecarlo":
        return Report("warmup", ("cluster", "--n", "2", "--count", "100000",
                                 "--seed", _seed(rng)))
    if workload == "programs":
        return Report("warmup", ("verify-evolve", "--qubits", "3", "--cphases", "1",
                                 "--rotations", "2", "--seed", _seed(rng)))
    if workload == "photon":
        return Report("warmup", ("fock-cz", "--n", "2"))
    raise ValueError(f"unknown workload {workload!r}")


def gate_pattern(qubits: int, cphases: int, rotations: int, seed: int) -> str:
    """The rotation/cphase order of the program `verify-evolve` builds for ``seed``."""
    import numpy as np
    from freearm import statevec

    program = statevec.random_program(qubits, cphases, rotations,
                                      np.random.default_rng(seed))
    return "".join("C" if isinstance(op, statevec.Cphase) else "r" for op in program.ops)


def _program(tag: str, slot, rng: random.Random) -> Report:
    qubits, cphases, rotations, pattern = slot
    while True:
        seed = rng.randrange(2 ** 32)
        if gate_pattern(qubits, cphases, rotations, seed) == pattern:
            return Report(tag, ("verify-evolve", "--qubits", str(qubits),
                                "--cphases", str(cphases), "--rotations", str(rotations),
                                "--seed", str(seed)))


def plan(workload: str, seed: int) -> list[Report]:
    """The report list of one pass, in canonical order."""
    rng = _rng(workload, seed, "plan")
    if workload == "montecarlo":
        return [
            Report("walk-short", ("walk", "--n", "2", "--trials", "10000",
                                  "--target-links", "100", "--seed", _seed(rng))),
            Report("walk-long", ("walk", "--n", "3", "--trials", "100",
                                 "--target-links", "100000", "--seed", _seed(rng))),
            Report("weave", ("weave", "--m", "2", "--seed", _seed(rng))),
            Report("weave", ("weave", "--m", "3", "--model", "independent-sides",
                             "--seed", _seed(rng))),
            Report("cluster", ("cluster", "--n", "2", "--seed", _seed(rng))),
            Report("cluster", ("cluster", "--n", "3", "--seed", _seed(rng))),
            Report("analytic", ("analytic", "--n", *map(str, range(1, 41)),
                                "--m", *map(str, range(1, 11)))),
        ]
    if workload == "programs":
        return ([_program("deep", slot, rng) for slot in DEEP_SLOTS]
                + [_program("wide", slot, rng) for slot in WIDE_SLOTS]
                + [Report("verify-weave", ("verify-weave",))])
    if workload == "photon":
        return [Report(f"fock-n{n}", ("fock-cz", "--n", str(n)))
                for _ in range(PHOTON_CYCLES) for n in (1, 2, 3)]
    raise ValueError(f"unknown workload {workload!r}")


def pass_orders(workload: str, seed: int, reports: list[Report]):
    """Yield the report order of each successive pass, seed-shuffled.

    The photon workload shuffles within each n = 1, 2, 3 cycle, so every
    cycle stays whole.
    """
    rng = _rng(workload, seed, "order")
    while True:
        if workload == "photon":
            order = []
            for i in range(0, len(reports), 3):
                cycle = reports[i:i + 3]
                rng.shuffle(cycle)
                order += cycle
        else:
            order = list(reports)
            rng.shuffle(order)
        yield order
