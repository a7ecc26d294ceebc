"""freearm benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {montecarlo,programs,photon,all}
                             --seed N --seconds S --trace {0,1}

One process, one closed-loop client: each report starts after the previous
one has finished and been checked.  A run sets up (import plus an untimed
warm-up report, repeated in fresh interpreters for the set-up median), then
repeats passes over the workload's reports for S seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
run record (provenance, every report's argv, timings and check outcome) and,
when tracing, the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = harness.ROOT / ".perfbench_out"
SPEC = harness.ROOT / "BENCHMARK.json"
SETUP_PROBES = 4  # fresh-interpreter set-ups, besides the run's own
CHILD_TIMEOUT_S = 120


@dataclass
class Pass:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float


def measure(cli, reports, orders, seconds: float, tracer=None):
    """Repeat passes for about ``seconds``; with a tracer, odd passes are traced.

    A new pass starts only if, at the median pass time so far, it would end
    less than half a pass after ``seconds``, so a run's length does not
    depend on where the last pass happens to end.
    """
    records, passes = [], []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            for report in next(orders):
                records.append(harness.run_report(cli, report, len(records), index,
                                                  tracer if traced else None))
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        finally:
            if traced:
                tracer.uninstall()
        passes.append(Pass(index, traced, wall, cpu))
        typical = statistics.median(p.wall_s for p in passes)
        if (time.perf_counter() - start + typical / 2 >= seconds
                and (tracer is None or len(passes) >= 2)):
            return records, passes


def setup_probe(workload: str, seed: int) -> tuple[float | None, list[str]]:
    """Set-up time in a fresh interpreter, and the warm-up's problems."""
    proc = subprocess.run([sys.executable, str(Path(harness.__file__)), workload, str(seed)],
                          cwd=harness.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return None, [f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}"]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["problems"]


def blas_info() -> dict:
    """BLAS name, version and thread count, read without changing anything."""
    import ctypes
    import glob

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def source_info() -> dict:
    root = harness.ROOT
    revision = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest, lines = hashlib.sha256(), 0
    for path in sorted(harness.SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_revision": revision, "src_sha256": digest.hexdigest(), "src_lines": lines}


def provenance(args) -> dict:
    import platform

    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_info(), **source_info()}


def metric_units(trace: int) -> dict[str, str]:
    """Metric names and units, in the order BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(records, passes, setup_samples, ok_frac: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "report_s_p50": statistics.median(times),
        "report_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "ok_frac": ok_frac,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(args) -> dict:
    harness.require_program()
    units = metric_units(args.trace)
    load_before = os.getloadavg()
    setup_samples, setup_problems = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            seconds, problems = setup_probe(args.workload, args.seed)
            if seconds is not None:
                setup_samples.append(seconds)
            setup_problems += problems
    cli, seconds, warm = harness.setup(args.workload, args.seed)
    setup_samples.append(seconds)
    setup_problems += warm.problems

    reports = workloads.plan(args.workload, args.seed)
    orders = workloads.pass_orders(args.workload, args.seed, reports)
    tracer = tracing.Tracer() if args.trace else None
    records, passes = measure(cli, reports, orders, args.seconds, tracer)

    attempted = len(records) + 1 + (0 if args.trace else SETUP_PROBES)
    failed = sum(not r.ok for r in records) + len(setup_problems)
    if args.trace:
        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        metrics = tracing.layer_metrics(tracer, [r for r in records if r.traced], len(traced))
        metrics["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in plain) - 1)
    else:
        metrics = end_to_end(records, passes, setup_samples, 1 - failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args), "loadavg_before": load_before,
              "loadavg_after": os.getloadavg(), "setup_s_samples": setup_samples,
              "setup_problems": setup_problems, "warmup_argv": list(warm.argv),
              "report_count": len(records), "passes": [asdict(p) for p in passes],
              "reports": [asdict(r) for r in records], "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    for r in records:
        for problem in r.problems:
            print(f"FAILED {r.tag} {' '.join(r.argv)}: {problem}", file=sys.stderr)
    for problem in setup_problems:
        print(f"FAILED set-up: {problem}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Each workload in its own process, then one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:<11} {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # the program receives only the generated argv
    os.environ.pop("FREEARM_SEED", None)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
