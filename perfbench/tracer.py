"""Outside-in tracing of freearm's engine layers, and the per-layer metrics.

`Tracer.install` replaces the public functions of `freearm.analytics`,
`walker`, `statevec` and `fock` by wrappers on their modules.  freearm looks
these names up at call time, also from inside a layer, so the wrappers see
internal calls such as `statevec.weave_joint` inside `evolve_program`.
Nothing in `src/` changes.  Each call made while a report is running records
a span: name, parent span, report id, start and end; top-level spans also
record process CPU time.  Spans stay in memory; the runner writes them out
at exit.  A layer's self time is its spans' durations minus their children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("analytics", "walker", "statevec", "fock")

# Label constructors and per-trial stream constructors run tens of thousands
# of times per report and each costs less than a span, so they stay unwrapped.
SKIP = frozenset({"statevec.path", "statevec.pol", "statevec.arm", "walker.substream"})

# span fields
NAME, PARENT, REPORT, START, END, CPU_START, CPU_END = range(7)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _run_trials(c, args, kwargs, trials):
    steps = sum(t.steps for t in trials)
    prep_attempts = sum(t.units for t in trials)
    c["walker.trials"] += len(trials)
    c["walker.capped_trials"] += sum(t.capped for t in trials)
    c["walker.walk_steps"] += steps
    # fixed-width draws: 3 uniforms per walk step, 2 per preparation attempt
    c["walker.uniforms_used"] += 3 * steps + 2 * prep_attempts


def _weave_joint(c, args, kwargs, branches):
    c["statevec.gadgets"] += 1
    c["statevec.peak_dofs"] = max(c["statevec.peak_dofs"], len(_first(args, kwargs).labels))


def _apply_mode_unitary(c, args, kwargs, out):
    c["fock.mode_unitaries"] += 1
    c["fock.peak_terms"] = max(c["fock.peak_terms"], len(_first(args, kwargs).terms),
                               len(out.terms))


# post-call hooks: (report counters, args, kwargs, result)
HOOKS = {
    "walker.run_trials": _run_trials,
    "walker.weave_batch": lambda c, a, k, stats: c.update({"walker.weaves": stats.count}),
    "walker.cluster_batch":
        lambda c, a, k, stats: c.update({"walker.cluster_attempts": stats.count}),
    "statevec.evolve_program":
        lambda c, a, k, rep: c.update({"statevec.branches": rep.branch_count}),
    "statevec.weave": lambda c, a, k, branches: c.update({"statevec.branches": len(branches)}),
    "statevec.weave_joint": _weave_joint,
    "statevec.bell_teleport": lambda c, a, k, branches: c.update({"statevec.teleports": 1}),
    "fock.cz_via_cs": lambda c, a, k, branches: c.update({"fock.branches": len(branches)}),
    "fock.apply_mode_unitary": _apply_mode_unitary,
}
PEAKS = ("statevec.peak_dofs", "fock.peak_terms")


class Tracer:
    """Span recorder; set ``report`` to a report id while a report runs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.report: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"freearm.{layer}")
            for name, fn in list(vars(module).items()):
                full = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and full not in SKIP):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(full, fn))

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            report = self.report
            if report is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [name, parent, report, 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if parent is None:
                span[CPU_START] = cpu_clock()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                if parent is None:
                    span[CPU_END] = cpu_clock()
                stack.pop()
            if hook is not None:
                hook(self.counts[report], args, kwargs, result)
            return result

        return traced

    def report_times(self) -> dict[int, Counter]:
        """Per report: each layer's self time, each function's inclusive
        time, and the time and CPU of top-level spans."""
        duration = [s[END] - s[START] for s in self.spans]
        children = [0.0] * len(self.spans)
        for s, d in zip(self.spans, duration):
            if s[PARENT] is not None:
                children[s[PARENT]] += d
        out: dict[int, Counter] = defaultdict(Counter)
        for s, d, c in zip(self.spans, duration, children):
            t = out[s[REPORT]]
            layer = s[NAME].split(".", 1)[0]
            t[f"{layer}.busy_s"] += d - c
            t[f"{layer}.calls"] += 1
            t[f"{s[NAME]}:s"] += d
            if s[PARENT] is None:
                t["layers_s"] += d
                t[f"{layer}.top_s"] += d
                t[f"{layer}.top_cpu_s"] += s[CPU_END] - s[CPU_START]
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(tracer: Tracer, records, passes: int) -> dict[str, float]:
    """Per-layer metrics over the traced reports, per pass unless a rate,
    ratio or peak.  A layer a workload does not use reads 0."""
    times = tracer.report_times()
    total, by_tag = Counter(), defaultdict(Counter)
    peaks = Counter()
    accuracy: dict[str, float] = {}
    cli_self = 0.0
    for r in records:
        t, c = times.get(r.rid, Counter()), tracer.counts.get(r.rid, Counter())
        merged = Counter(t)
        for key, value in c.items():
            if key in PEAKS:
                peaks[key] = max(peaks[key], value)
            else:
                merged[key] += value
        merged["rows"] = r.rows
        merged["reports"] = 1
        total.update(merged)
        by_tag[r.tag].update(merged)
        cli_self += r.seconds - t["layers_s"]
        for key, value in r.accuracy.items():
            accuracy[key] = max(accuracy.get(key, value), value)

    def per_pass(key):
        return total[key] / passes

    m = {
        "analytics.calls": per_pass("analytics.calls"),
        "analytics.busy_s": per_pass("analytics.busy_s"),
        "analytics.rows_per_s": _ratio(by_tag["analytic"]["rows"],
                                       by_tag["analytic"]["analytics.busy_s"]),
        "walker.busy_s": per_pass("walker.busy_s"),
        "walker.trials": per_pass("walker.trials"),
        "walker.capped_trials": per_pass("walker.capped_trials"),
        "walker.walk_steps": per_pass("walker.walk_steps"),
        "walker.uniforms_used": per_pass("walker.uniforms_used"),
        "walker.short.steps_per_s": _ratio(by_tag["walk-short"]["walker.walk_steps"],
                                           by_tag["walk-short"]["walker.busy_s"]),
        "walker.long.steps_per_s": _ratio(by_tag["walk-long"]["walker.walk_steps"],
                                          by_tag["walk-long"]["walker.busy_s"]),
        "walker.weaves_per_s": _ratio(total["walker.weaves"],
                                      total["walker.weave_batch:s"]),
        "walker.cluster_attempts_per_s": _ratio(total["walker.cluster_attempts"],
                                                total["walker.cluster_batch:s"]),
        "statevec.busy_s": per_pass("statevec.busy_s"),
        "statevec.branches": per_pass("statevec.branches"),
        "statevec.branches_per_s": _ratio(total["statevec.branches"], total["statevec.busy_s"]),
        "statevec.gadgets": per_pass("statevec.gadgets"),
        "statevec.gadgets_per_s": _ratio(total["statevec.gadgets"], total["statevec.busy_s"]),
        "statevec.teleports": per_pass("statevec.teleports"),
        "statevec.deep.s": by_tag["deep"]["statevec.busy_s"] / passes,
        "statevec.wide.s": by_tag["wide"]["statevec.busy_s"] / passes,
        "statevec.oracle_s": per_pass("statevec.ideal_circuit:s"),
        "statevec.peak_dofs": peaks["statevec.peak_dofs"],
        "statevec.cpu_per_wall": _ratio(total["statevec.top_cpu_s"], total["statevec.top_s"]),
        "statevec.fidelity_defect": accuracy.get("statevec.fidelity_defect", 0.0),
        "statevec.prob_sum_err": accuracy.get("statevec.prob_sum_err", 0.0),
        "fock.busy_s": per_pass("fock.busy_s"),
        "fock.branches": per_pass("fock.branches"),
        "fock.branches_per_s": _ratio(total["fock.branches"], total["fock.busy_s"]),
        "fock.mode_unitaries": per_pass("fock.mode_unitaries"),
        "fock.peak_terms": peaks["fock.peak_terms"],
        "fock.success_prob_err": accuracy.get("fock.success_prob_err", 0.0),
        "cli.self_s": cli_self / passes,
        "cli.bytes_out": sum(r.bytes_out for r in records) / passes,
        "cli.verdict_misses": sum(r.verdict_miss for r in records) / passes,
    }
    for n in (1, 2, 3):
        order = by_tag[f"fock-n{n}"]
        m[f"fock.cz_s.n{n}"] = _ratio(order["fock.busy_s"], order["reports"])
    return m

