"""Independent output checks: each report against exact targets.

The closed forms are written out here from their formulas rather than taken
from `freearm.analytics`, so a change there cannot move a target.  A check
returns a `Verdict`: the problems found (none means the output is correct)
and whether the program's own statistical verdict failed on numbers that
agree with the exact target (a *verdict miss*, see NOTES.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

# Monte Carlo means must sit within this many standard errors of their exact
# target.  A correct simulator breaks it with probability about 2e-9 per
# estimate, so a failure here points at the code, not at chance.
SIGMAS = 6.0
EPS = 2.0 ** -52
FIDELITY_TOL = 1e-10


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    verdict_miss: bool = False
    doc: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


# -- exact closed forms -------------------------------------------------------

def cz_success(n: int) -> Fraction:
    return Fraction(n * n, (n + 1) ** 2)


def attempts_per_link(n: int) -> Fraction | None:
    denom = 2 * n * n - 2 * n - 1
    return Fraction(2 * (n + 1) ** 2, denom) if denom > 0 else None


def units_per_link(n: int) -> Fraction:
    return attempts_per_link(n) * Fraction((n + 1) ** 2, n * n)


def cs_per_link(n: int) -> Fraction:
    return attempts_per_link(n) * Fraction((2 * n + 1) * (n + 1), n * n)


def cluster_units(n: int) -> Fraction:
    return Fraction((n + 1) ** 4, n * n * (n + 1) ** 2 - n)


def cluster_cs(n: int) -> Fraction:
    return Fraction((n + 1) ** 2 * (n * n + 3 * n + 3), n * n * (n + 1) ** 2 - n)


def weave_targets(m: int, model: str) -> dict[str, Fraction]:
    """Exact means of one weave: ancillas and free arms per side."""
    if model == "full-cz-retry":
        return {"cs_mean": Fraction((m + 1) ** 2, m * m),
                "arms_per_side": Fraction(m * m + m + 1, m * m)}
    s = Fraction(m, m + 1)
    # each side is geometric(s); ancillas = max of the two = sum - min
    return {"cs_mean": 2 / s - 1 / (1 - (1 - s) ** 2),
            "arms_per_side": Fraction(m + 1, m)}


# -- helpers ------------------------------------------------------------------

def _arg(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _args(argv, flag: str) -> list[int]:
    i = argv.index(flag) + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(int(argv[i]))
        i += 1
    return out


def _near(v: Verdict, name: str, mean: float, stderr: float, target: Fraction) -> None:
    v.require(math.isfinite(mean) and math.isfinite(stderr),
              f"{name}: non-finite estimate {mean} +- {stderr}")
    v.require(abs(mean - float(target)) <= SIGMAS * stderr + 1e-12,
              f"{name}: {mean} is more than {SIGMAS:g} standard errors "
              f"({stderr}) from {target} = {float(target)}")


def _statistical_status(v: Verdict, status: int, converged) -> None:
    """Exit 0 must mean converged, exit 1 not converged; exit 1 is a miss."""
    v.require(status in (0, 1), f"exit status {status}")
    v.require(converged is (status == 0),
              f"exit status {status} disagrees with converged={converged}")
    v.verdict_miss = status == 1


# -- per-command checks -------------------------------------------------------

def check_walk(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    n = int(_arg(argv, "--n"))
    res = doc["results"]
    v.require(doc["divergent"] is False, "walk reported divergent at a convergent order")
    v.require(res["capped_trials"] == 0, f"{res['capped_trials']} trials hit the step cap")
    v.require(res["trials"] == int(_arg(argv, "--trials")), "trial count differs from argv")
    for key, target in (("attempts_per_net_link", attempts_per_link(n)),
                        ("units_per_link", units_per_link(n)),
                        ("cs_per_link", cs_per_link(n))):
        _near(v, key, float(res[key]), float(res[f"{key}_stderr"]), target)
    _statistical_status(v, status, doc["converged"])
    return v


def check_weave(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    m = int(_arg(argv, "--m"))
    model = _arg(argv, "--model", "full-cz-retry")
    res = doc["results"]
    v.require(res["model"] == model, f"model {res['model']} differs from argv")
    targets = weave_targets(m, model)
    _near(v, "cs_mean", float(res["cs_mean"]), float(res["cs_stderr"]), targets["cs_mean"])
    # The arm estimate pools both sides as if independent.  Under
    # full-cz-retry the sides share rounds, so its true standard error can be
    # up to sqrt(2) larger than the reported one.
    widen = math.sqrt(2) if model == "full-cz-retry" else 1.0
    _near(v, "arms_per_side", float(res["arms_per_side"]),
          widen * float(res["arms_stderr"]), targets["arms_per_side"])
    _statistical_status(v, status, doc["converged"])
    return v


def check_cluster(argv, status: int, doc: dict) -> Verdict:
    """Informational in the CLI: only the exact closed forms are asserted."""
    v = Verdict()
    n = int(_arg(argv, "--n"))
    res = doc["results"]
    v.require(status == 0, f"exit status {status}")
    v.require(Fraction(res["closed_form_units"]) == cluster_units(n), "cluster units closed form")
    v.require(Fraction(res["closed_form_cs"]) == cluster_cs(n), "cluster cs closed form")
    for key in ("units_per_net_unit", "cs_per_net_unit"):
        value = float(res[key])
        v.require(math.isfinite(value) and value > 0, f"{key} = {value}")
    return v


def check_analytic(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    v.require(status == 0, f"exit status {status}")
    ns, ms = _args(argv, "--n"), _args(argv, "--m")
    rows = doc["rows"]
    v.require([(r["n"], r["m"]) for r in rows] == [(n, m) for n in ns for m in ms],
              "row order or count differs from argv")
    for r in rows:
        n, m = r["n"], r["m"]
        expect = {"cz_success": cz_success(n),
                  "step_back": Fraction(2 * n + 1, 2 * (n + 1) ** 2),
                  "weave_cs": Fraction((m + 1) ** 2, m * m),
                  "cluster_units": cluster_units(n),
                  "cluster_cs": cluster_cs(n)}
        if attempts_per_link(n) is None:
            for key in ("attempts_per_link", "units_per_link", "cs_per_link",
                        "gate_construction_cs", "gate_construction_units"):
                v.require(r[key] == "divergent", f"row n={n} m={m}: {key} not divergent")
        else:
            arms = 2 * Fraction(m + 1, m)
            expect.update(attempts_per_link=attempts_per_link(n),
                          units_per_link=units_per_link(n), cs_per_link=cs_per_link(n),
                          gate_construction_cs=arms * cs_per_link(n),
                          gate_construction_units=arms * units_per_link(n))
        for key, target in expect.items():
            v.require(Fraction(r[key]) == target,
                      f"row n={n} m={m}: {key} = {r[key]}, exact {target}")
    return v


def check_verify_weave(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    v.require(status == 0 and doc["passed"] is True, f"exit status {status}")
    v.require(doc["branch_count"] == 4, f"{doc['branch_count']} branches, expected 4")
    v.require(doc["min_fidelity"] >= 1 - FIDELITY_TOL, f"min fidelity {doc['min_fidelity']}")
    v.require(all(abs(p - 0.25) <= 4 * EPS for p in doc["probabilities"]),
              f"branch probabilities {doc['probabilities']}")
    return v


def check_verify_evolve(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    qubits, cphases = int(_arg(argv, "--qubits")), int(_arg(argv, "--cphases"))
    branches = doc["branch_count"]
    v.require(status == 0 and doc["passed"] is True, f"exit status {status}")
    v.require(doc["params"]["seed"] == int(_arg(argv, "--seed")), "seed differs from argv")
    program = doc["program"]
    v.require(len(program["qubits"]) == qubits, "program qubit count differs from argv")
    v.require(sum(g["type"] == "cphase" for g in program["gates"]) == cphases,
              "program cphase count differs from argv")
    # 4 weave outcomes x 4 x 4 Bell outcomes per conditional phase
    v.require(branches == 64 ** cphases, f"{branches} branches, expected {64 ** cphases}")
    # Each branch probability carries float64 rounding from a few hundred
    # operations, far below 1e-12; the sum's error grows at most linearly
    # with the branch count.
    v.require(abs(doc["probability_sum"] - 1) <= branches * 1e-12,
              f"probability sum {doc['probability_sum']}")
    v.require(doc["min_fidelity"] >= 1 - FIDELITY_TOL, f"min fidelity {doc['min_fidelity']}")
    return v


def check_fock_cz(argv, status: int, doc: dict) -> Verdict:
    v = Verdict()
    n = int(_arg(argv, "--n"))
    exact = cz_success(n)
    branches = doc["branch_count"]
    v.require(status == 0 and doc["passed"] is True, f"exit status {status}")
    v.require(doc["order"] == n, "order differs from argv")
    v.require(doc["success_branches"] == len(doc["branch_fidelities"]),
              "success branch count differs from the fidelity list")
    # a few ulps per branch probability, plus one ulp per term of the sum
    v.require(abs(doc["success_probability"] - float(exact)) <= 4 * branches * EPS,
              f"success probability {doc['success_probability']}, exact {exact}")
    v.require(doc["min_success_fidelity"] >= 1 - FIDELITY_TOL,
              f"min success fidelity {doc['min_success_fidelity']}")
    return v


CHECKS = {
    "walk": check_walk,
    "weave": check_weave,
    "cluster": check_cluster,
    "analytic": check_analytic,
    "verify-weave": check_verify_weave,
    "verify-evolve": check_verify_evolve,
    "fock-cz": check_fock_cz,
}


def check(argv, status: int, output: str) -> Verdict:
    """Check one report's exit status and JSON output against its argv."""
    try:
        doc = json.loads(output)
        verdict = CHECKS[argv[0]](list(argv), status, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict([f"unreadable report (exit status {status}): {exc!r}"])
    verdict.doc = doc
    return verdict
