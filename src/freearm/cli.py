"""Command-line front end: formula tables, Monte Carlo runs, and verification.

Subcommands
    analytic      exact resource formulas over ranges of gate orders
    walk          Monte Carlo chain construction vs the closed forms
    weave         Monte Carlo weave resource consumption (two event models)
    cluster       Monte Carlo cluster-variant attachment vs the closed forms
    verify-weave  qubit-level weave branch verification
    verify-evolve per-gadget protocol verification of a seeded random program
    fock-cz       photon-level conditional-phase gate verification

Each subcommand computes one :class:`Report`; :func:`render` writes it as a
table, JSON or CSV.  Exit status: 0 all checks passed (or informational
divergence), 1 a verification failed, 2 usage error.  Reports are
byte-identical for identical configuration and seed, regardless of
``--threads``.  ``FREEARM_SEED`` sets the default seed.  Each subcommand
imports only the engine it runs, so a process compiles no other engine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytics

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# the convergence gate of `walk` and `weave`: both bounds must hold
REL_TOL = 0.01
SIGMAS = 3


@dataclass(frozen=True)
class Report:
    """One computed report, ready for each output format.

    ``body`` is the JSON document without ``schema_version`` and ``command``;
    ``rows`` are the flat CSV records; ``lines`` are the table rendering.
    ``passed`` is None for an informational report, which always exits 0.
    """

    body: dict
    rows: list[dict]
    lines: list[str]
    passed: bool | None = None


def render(report: Report, command: str, fmt: str, out) -> None:
    """Write ``report`` to ``out`` as a table, JSON or CSV."""
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, **report.body}
        # one write: json.dump writes each chunk of its encoder separately
        out.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=list(report.rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(report.rows)
    else:
        out.writelines(line + "\n" for line in report.lines)


def _seed_arg(value: str) -> int:
    try:
        seed = int(value)
        if 0 <= seed < 2 ** 64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed {value!r} (from --seed or $FREEARM_SEED) must be an integer in [0, 2**64)")


def _at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def count(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {value!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return count


def _close(results: float, target: float, stderr: float) -> bool:
    return (abs(results - target) <= REL_TOL * abs(target)
            and abs(results - target) <= SIGMAS * stderr + 1e-12)


def _convergence(passed: bool) -> str:
    return (f"convergence: {'pass' if passed else 'FAIL'} "
            f"({REL_TOL:.0%} relative and {SIGMAS} standard errors)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analytic(args) -> Report:
    drift_keys = ("attempts_per_link", "units_per_link", "cs_per_link",
                  "gate_construction_cs", "gate_construction_units")
    rows, json_rows, lines = [], [], [
        f"{'n':>3} {'m':>3} {'R':>10} {'units/link':>12} {'cs/link':>12} "
        f"{'gate cs':>12} {'gate units':>12} {'weave cs':>10} "
        f"{'cluster units':>14} {'cluster cs':>12}"]
    for n in args.n:
        for m in args.m:
            exact = {"cz_success": analytics.cz_success(n),
                     "step_back": analytics.step_back_prob(n),
                     "weave_cs": analytics.weave_cs_per_gate(m)}
            try:
                link = analytics.resources_per_link(n)
                gate = analytics.resources_per_gate(n, m)
                exact.update(zip(drift_keys, (
                    analytics.attempts_per_link(n), link.two_photon_units, link.cs_states,
                    gate.construction_cs, gate.construction_units)))
            except analytics.NonPositiveDriftError:
                exact.update(dict.fromkeys(drift_keys))
            cluster = analytics.cluster_resources_per_unit(n)
            exact.update(cluster_units=cluster.two_photon_units, cluster_cs=cluster.cs_states)
            row = {k: "divergent" if x is None else str(x) for k, x in exact.items()}
            d = {k: "divergent" if x is None else analytics.to_decimal(x)
                 for k, x in exact.items()}
            rows.append({"n": n, "m": m, **row})
            json_rows.append({**rows[-1], **{f"{k}_decimal": v for k, v in d.items()}})
            lines.append(f"{n:>3} {m:>3} {d['attempts_per_link']:>10} "
                         f"{d['units_per_link']:>12} {d['cs_per_link']:>12} "
                         f"{d['gate_construction_cs']:>12} {d['gate_construction_units']:>12} "
                         f"{d['weave_cs']:>10} {d['cluster_units']:>14} {d['cluster_cs']:>12}")
    lines.append("exact rationals available via --format json/csv")
    return Report({"rows": json_rows}, rows, lines)


def cmd_walk(args) -> Report:
    from . import walker
    params = walker.WalkParams(n=args.n, target_links=args.target_links, trials=args.trials,
                               seed=args.seed, max_steps=args.max_steps,
                               warmup_links=args.warmup_links)
    trials = walker.run_trials(params)
    stats = walker.aggregate(trials, params)

    keys = ("attempts_per_net_link", "units_per_link", "cs_per_link")
    empirical = {key: getattr(stats, key) for key in keys}
    try:
        link = analytics.resources_per_link(args.n)
        targets = dict(zip(keys, map(float, (analytics.attempts_per_link(args.n),
                                             link.two_photon_units, link.cs_states))))
    except analytics.NonPositiveDriftError:
        targets = None
    converged = (targets is not None and stats.capped_trials == 0 and all(
        _close(est.mean, targets[key], est.stderr) for key, est in empirical.items()))

    base = {"n": args.n, "target_links": args.target_links, "trials": args.trials,
            "seed": args.seed}
    row = dict(base)
    lines = [f"chain construction walk: n={args.n}, {args.trials} trials x "
             f"{args.target_links} links, seed {args.seed}"]
    for key, est in empirical.items():
        row[key] = f"{est.mean:.10g}"
        row[f"{key}_stderr"] = f"{est.stderr:.6g}"
        row[f"{key}_analytic"] = "divergent" if targets is None else f"{targets[key]:.10g}"
        lines.append(f"  {key:<24} {est.mean:>12.6f} +- {est.stderr:.6f}   analytic "
                     + ("divergent" if targets is None else f"{targets[key]:.6f}"))
    row.update(drift=f"{stats.drift.mean:.10g}", drift_stderr=f"{stats.drift.stderr:.6g}",
               capped_trials=stats.capped_trials, converged=converged)
    lines.append(f"  {'drift':<24} {stats.drift.mean:>12.6f} +- {stats.drift.stderr:.6f}")
    if stats.capped_trials:
        lines.append(f"  {stats.capped_trials}/{args.trials} trials hit the "
                     f"max_steps cap ({args.max_steps})")
    if targets is None:
        lines += ["  walk drift is negative at this order: divergence is "
                  "expected, not a failure", "convergence: n/a (divergent by design)"]
    else:
        lines.append(_convergence(converged))

    body = {"params": dict(base, max_steps=args.max_steps, warmup_links=args.warmup_links),
            "divergent": targets is None, "converged": converged, "results": row}
    rows = [row]
    if args.per_trial:
        rows = body["per_trial"] = [
            dict(base, trial=i, steps=t.steps, units=t.units, cs=t.cs,
                 measured_steps=t.measured_steps, measured_units=t.measured_units,
                 measured_cs=t.measured_cs, capped=t.capped)
            for i, t in enumerate(trials)]
    return Report(body, rows, lines, None if targets is None else converged)


def cmd_weave(args) -> Report:
    from . import walker
    model = analytics.WeaveModel(args.model)
    full_retry = model is analytics.WeaveModel.FULL_CZ_RETRY
    key, target = (("cs_mean", analytics.weave_cs_per_gate(args.m)) if full_retry
                   else ("arms_per_side", analytics.free_arms_per_gate_per_chain(args.m)))
    stats = walker.weave_batch(args.m, model, args.count, args.seed)
    est = getattr(stats, key)
    passed = _close(est.mean, float(target), est.stderr)

    params = {"m": args.m, "model": model.value, "count": args.count, "seed": args.seed}
    row = dict(params, cs_mean=f"{stats.cs_mean.mean:.10g}",
               cs_stderr=f"{stats.cs_mean.stderr:.6g}",
               arms_per_side=f"{stats.arms_per_side.mean:.10g}",
               arms_stderr=f"{stats.arms_per_side.stderr:.6g}", converged=passed)
    lines = [f"weave resources: m={args.m}, model {model.value}, "
             f"{args.count} weaves, seed {args.seed}",
             f"  cs_mean       {stats.cs_mean.mean:>10.6f} +- {stats.cs_mean.stderr:.6f}",
             f"  arms_per_side {stats.arms_per_side.mean:>10.6f} +- "
             f"{stats.arms_per_side.stderr:.6f}",
             f"  analytic {key}: {float(target):.6f}"]
    if full_retry:
        lines.append(f"  note: this model's arms/side mean is "
                     f"{float(analytics.full_retry_arms_per_side(args.m)):.6f}, "
                     "not (m+1)/m; the two event models disagree on arm counts")
    lines.append(_convergence(passed))
    return Report({"params": params, "converged": passed, "results": row}, [row], lines,
                  passed)


def cmd_cluster(args) -> Report:
    from . import walker
    stats = walker.cluster_batch(args.n, args.count, args.seed)
    closed = analytics.cluster_resources_per_unit(args.n)
    params = {"n": args.n, "count": args.count, "seed": args.seed}
    row = dict(params, units_per_net_unit=f"{stats.units_per_net_unit:.10g}",
               cs_per_net_unit=f"{stats.cs_per_net_unit:.10g}",
               closed_form_units=str(closed.two_photon_units),
               closed_form_cs=str(closed.cs_states))
    body = {"params": params, "results": row,
            "note": "the attach micro-model is an assumption; agreement with "
                    "the closed forms is exploratory, not asserted"}
    lines = [f"cluster attach: n={args.n}, {args.count} attempts, seed {args.seed}",
             f"  units per net unit  {stats.units_per_net_unit:>10.6f}   "
             f"closed form {float(closed.two_photon_units):.6f}",
             f"  cs per net unit     {stats.cs_per_net_unit:>10.6f}   "
             f"closed form {float(closed.cs_states):.6f}",
             "  note: micro-model comparison is exploratory (informational only)"]
    return Report(body, [row], lines)


def cmd_verify_weave(args) -> Report:
    from . import statevec
    branches = statevec.weave(statevec.bracket_state("p", 1), statevec.bracket_state("q", 1),
                              statevec.arm("p", 2), statevec.arm("q", 2))
    target = statevec.woven_target("p", 2, "q", 2)
    fids = branches.state.fidelity(target).tolist()
    probs = branches.probability.tolist()
    ok = (len(branches) == 4 and min(fids) >= 1 - 1e-10
          and max(abs(p - 0.25) for p in probs) <= 1e-12)
    rows = [{"outcome_a": a, "outcome_b": b,
             "probability": f"{p:.17g}", "fidelity": f"{f:.17g}"}
            for (a, b), p, f in zip(branches.outcome.tolist(), probs, fids)]
    body = {"branch_count": len(branches), "min_fidelity": min(fids),
            "probabilities": probs, "passed": ok, "branches": rows}
    lines = [f"min branch fidelity {min(fids):.6f} ({len(branches)} branches)",
             "branch probabilities: " + ", ".join(f"{p:.6f}" for p in probs),
             f"verification: {'pass' if ok else 'FAIL'}"]
    return Report(body, rows, lines, ok)


def cmd_verify_evolve(args) -> Report:
    from . import statevec
    # the report prints 64^c, and Python may cap int-to-str digits (0, or no
    # getter before 3.10.7: no cap); 64^c fits d digits iff 6c <= log2(10^d)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    most = ((10 ** digits).bit_length() - 1) // 6
    if digits and args.cphases > most:
        raise analytics.InputError(
            f"--cphases {args.cphases} gives 64^{args.cphases} branches, more than {digits} "
            f"digits to print; this Python prints at most --cphases {most}")
    program = statevec.random_program(args.qubits, args.cphases, args.rotations,
                                      np.random.default_rng(args.seed))
    rep = statevec.evolve_program(program, links_per_qubit=args.links)
    ok = rep.min_fidelity >= 1 - 1e-9 and abs(rep.probability_sum - 1.0) <= 1e-9
    params = {"qubits": args.qubits, "cphases": args.cphases, "rotations": args.rotations,
              "links": args.links, "seed": args.seed}
    row = dict(params, branch_count=rep.branch_count,
               min_fidelity=f"{rep.min_fidelity:.17g}",
               probability_sum=f"{rep.probability_sum:.17g}", passed=ok)
    body = {"params": params, "branch_count": rep.branch_count,
            "min_fidelity": rep.min_fidelity, "probability_sum": rep.probability_sum,
            "passed": ok, "program": statevec.program_to_json(program)}
    # every branch is covered, so the table keeps its "enumerate-all" wording
    lines = [f"program: {args.qubits} qubits, {args.cphases} conditional phases, "
             f"{args.rotations} rotations, seed {args.seed} (enumerate-all)",
             f"branches: {rep.branch_count}",
             f"min gadget branch fidelity: {rep.min_fidelity:.12f}",
             f"probability sum: {rep.probability_sum:.12f}",
             f"verification: {'pass' if ok else 'FAIL'}"]
    return Report(body, [row], lines, ok)


def cmd_fock_cz(args) -> Report:
    from . import fock
    rep = fock.cz_success_report(args.n)
    ok = (abs(rep["success_probability"] - rep["expected_success_probability"]) <= 1e-12
          and rep["min_success_fidelity"] >= 1 - 1e-10)
    body = {**rep, "passed": ok}
    row = {"n": args.n, "branch_count": rep["branch_count"],
           "success_branches": rep["success_branches"],
           "success_probability": f"{rep['success_probability']:.17g}",
           "min_success_fidelity": f"{rep['min_success_fidelity']:.17g}",
           "passed": ok}
    lines = [f"photon-level conditional phase, order {args.n}",
             f"  branches: {rep['branch_count']} "
             f"({rep['success_branches']} joint successes)",
             f"  success probability {rep['success_probability']:.12f} "
             f"(expected {rep['expected_success_probability']:.12f})",
             f"  min success-branch fidelity {rep['min_success_fidelity']:.12f}",
             f"verification: {'pass' if ok else 'FAIL'}"]
    return Report(body, [row], lines, ok)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freearm",
        description="Resource analysis and verification of the free-arm "
                    "linked-state protocol for linear-optics computing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, seeded=True):
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write the report to PATH instead of stdout")
        if seeded:
            # a string default goes through _seed_arg too, so a bad
            # $FREEARM_SEED is a usage error like a bad --seed
            p.add_argument("--seed", type=_seed_arg,
                           default=os.environ.get("FREEARM_SEED", "0"),
                           help="RNG seed (default: $FREEARM_SEED or 0)")

    p = sub.add_parser("analytic", help="exact closed-form resource tables")
    p.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 5])
    p.add_argument("--m", type=int, nargs="+", default=[2])
    common(p, cmd_analytic, seeded=False)

    p = sub.add_parser("walk", help="Monte Carlo chain construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--target-links", type=_at_least(1), required=True)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--warmup-links", type=int, default=50)
    p.add_argument("--threads", type=_at_least(1),
                   help="accepted for compatibility; the walk runs on one thread")
    p.add_argument("--per-trial", action="store_true",
                   help="emit one record per trial instead of the aggregate")
    common(p, cmd_walk)

    p = sub.add_parser("weave", help="Monte Carlo weave resources")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--model", choices=[model.value for model in analytics.WeaveModel],
                   default=analytics.WeaveModel.FULL_CZ_RETRY.value)
    p.add_argument("--count", type=_at_least(1), default=1_000_000)
    common(p, cmd_weave)

    p = sub.add_parser("cluster", help="Monte Carlo cluster-variant attachment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=_at_least(1), default=1_000_000)
    common(p, cmd_cluster)

    p = sub.add_parser("verify-weave", help="qubit-level weave verification")
    common(p, cmd_verify_weave, seeded=False)

    p = sub.add_parser("verify-evolve", help="per-gadget protocol verification")
    p.add_argument("--qubits", type=_at_least(1), default=2)
    p.add_argument("--cphases", type=_at_least(0), default=1)
    p.add_argument("--rotations", type=_at_least(0), default=2)
    p.add_argument("--links", type=_at_least(0), default=4)
    common(p, cmd_verify_evolve)

    p = sub.add_parser("fock-cz", help="photon-level conditional-phase verification")
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_fock_cz, seeded=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bad parameters and an unwritable --output are usage errors; any other
    # exception is an internal fault and keeps its traceback.  The report
    # comes first, so a usage error leaves an existing --output file alone.
    try:
        report = args.func(args)
    except analytics.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sink = (open(args.output, "w", newline="") if args.output
                else contextlib.nullcontext(sys.stdout))
        with sink as out:
            render(report, args.command, args.format, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VERIFICATION_FAILED if report.passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
