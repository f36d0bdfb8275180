"""Benchmark for tricontest: one command, four closed-loop workloads.

Usage, from the repository root:

    python3 bench/run.py --workload effort_solve --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned and been checked.  Checks run outside
the timed region and a failed check counts toward ``failed_ratio``; it never
stops the run.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run (see ``tracing.py``).  Inputs come
from ``--seed`` only and their fingerprint is printed.  Spans and generated
files go to ``.bench_runs/`` under the root.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

import tracing  # noqa: E402  (the bench directory is sys.path[0])
import workloads  # noqa: E402

#: Fresh interpreters that each time ``import tricontest`` plus the first op.
SETUP_REPEATS = 5
#: Subprocess repeats in the CLI cold-start breakdown.
COLD_REPEATS = 5

END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("contest.solve_contest.calls", "count"),
    ("contest.solve_contest.self_us", "us"),
    ("contest.solve_contest.share", "ratio"),
    ("contest.solve_total_effort.calls", "count"),
    ("contest.solve_total_effort.self_us", "us"),
    ("contest.from_scenario.calls", "count"),
    ("contest.from_scenario.self_us", "us"),
    ("contest.with_psi.calls", "count"),
    ("contest.with_psi.self_us", "us"),
    ("contest.verify_nash.calls", "count"),
    ("contest.verify_nash.self_ms", "ms"),
    ("entry.assemble_spe.self_ms", "ms"),
    ("entry.is_equilibrium_set.calls", "count"),
    ("entry.net_benefit.calls", "count"),
    ("entry.subset_cache.hit_ratio", "ratio"),
    ("entry.subset_cache.base", "count"),
    ("entry.cutoff_psi.self_ms", "ms"),
    ("entry.cutoff_psi.solves_per_call", "solves/call"),
    ("analysis.sweep.self_ms", "ms"),
    ("analysis.sensitivity_report.self_ms", "ms"),
    ("analysis.welfare_report.self_ms", "ms"),
    ("scenario_io.load_scenario.ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.numpy_import_ms", "ms"),
    ("cli.package_import_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
)


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)


def run_op(wl, case, tally: Tally, fn) -> float:
    """Time one op, then check it; returns the op's seconds."""
    arg = wl.before(case)
    start = time.perf_counter()
    try:
        out = fn(arg)
        error = None
    except Exception as exc:  # a failing op is counted, not fatal
        error = f"{case.kind}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None:
        try:
            error = wl.check(case, out)
        except Exception as exc:
            error = f"{case.kind}: check raised {type(exc).__name__}: {exc}"
    tally.add(error)
    return seconds


def percentile_lines(times: list[float]) -> list[str]:
    """The median, and p90 and p99 where at least ten samples lie beyond them.

    They are printed, not gated: on a host whose speed switches between
    modes, the median of a run lands in one mode or the other and spreads
    far more from run to run than ``ops_per_s``, the mean over all ops.
    """
    ordered = sorted(times)
    lines = [f"op_p50_ms {statistics.median(ordered) * 1e3:.6g} ms (n={len(ordered)})"]
    for pct, need in ((90, 100), (99, 1000)):
        if len(ordered) >= need:
            value = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            lines.append(f"op_p{pct}_ms {value * 1e3:.6g} ms (n={len(ordered)})")
        else:
            lines.append(f"op_p{pct}_ms omitted: {len(ordered)} ops < {need}")
    return lines


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, cases, seconds: float, tally: Tally) -> list[float]:
    """Closed loop over ``cases`` until the ops have been busy ``seconds``."""
    times = []
    busy, index = 0.0, 0
    wall_limit = time.perf_counter() + 4 * seconds + 60
    gc.collect()
    while busy < seconds and time.perf_counter() < wall_limit:
        case = cases[index % len(cases)]
        index += 1
        took = run_op(wl, case, tally, wl.run)
        busy += took
        times.append(took)
    return times


def setup_times(name: str, tally: Tally) -> list[float]:
    """``import tricontest`` plus the first op, each in a fresh interpreter."""
    results = []
    for _ in range(SETUP_REPEATS):
        try:
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--setup-child", "--workload", name],
                                  cwd=ROOT, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            tally.add("setup child timed out")
            continue
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            tally.add(f"setup child exited {done.returncode}: {done.stderr.strip()[-300:]}")
            continue
        tally.add(report["error"])
        results.append(report["import_s"] + report["first_op_s"])
    return results


def setup_child(name: str) -> None:
    wl = workloads.make(name, ROOT, OUT / "setup")
    docs = wl.generate(workloads.WARMUP_SEED, count=1)
    start = time.perf_counter()
    import tricontest  # noqa: F401  (timed: this is what users pay first)
    imported = time.perf_counter()
    case = wl.prepare(docs)[0]
    tally = Tally()
    first = run_op(wl, case, tally, wl.run)
    print(json.dumps({"import_s": imported - start, "first_op_s": first,
                      "error": tally.errors[0] if tally.errors else None}))


def cold_start(env: dict) -> dict[str, float]:
    """CLI start-up cost from outside: bare interpreter and import times.

    ``cli.package_import_ms`` is the cumulative import time of
    ``tricontest.cli`` (what ``python -m tricontest`` loads) less numpy's.
    """
    bare, numpy_ms, package_ms = [], [], []
    for _ in range(COLD_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tricontest.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        numpy_ms.append(cumulative.get("numpy", 0.0))
        package_ms.append(cumulative.get("tricontest.cli", 0.0) - numpy_ms[-1])
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.numpy_import_ms": statistics.median(numpy_ms),
            "cli.package_import_ms": statistics.median(package_ms)}


def traced(wl, cases, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over the first ``trace_ops`` ops."""
    chosen = cases[:wl.trace_ops]
    tracer = tracing.Tracer()
    passes, untraced_s, traced_s = [], 0.0, 0.0
    first_counts = None
    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced_s += sum(run_op(wl, case, tally, wl.run_in_process) for case in chosen)
        tracer.reset()
        busy = 0.0
        with tracer.installed():
            for op, case in enumerate(chosen):
                tracer.op = op
                busy += run_op(wl, case, tally, wl.run_in_process)
        tracer.op = -1
        traced_s += busy
        aggregate = tracing.Aggregate(tracer.spans, busy)
        if first_counts is None:
            first_counts = aggregate.counts()
            write_spans(spans_path, tracer.spans)
            digest = workloads.fingerprint(sorted(first_counts.items()))
            print(f"per-pass span counts: {sum(aggregate.calls.values())} spans, "
                  f"digest {digest}")
        elif aggregate.counts() != first_counts:
            tally.add("per-layer counts differ between traced passes")
        passes.append(aggregate.metrics())
        now = time.perf_counter()
        if now - started + (now - pair_start) > seconds:
            break
    if tracer.missing:
        print(f"not in the package, reported as zero: {', '.join(sorted(set(tracer.missing)))}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update(cold_start(workloads.program_env(ROOT)))
    ops = len(chosen) * len(passes)
    metrics["trace.untraced_ops_per_s"] = ops / untraced_s
    metrics["trace.traced_ops_per_s"] = ops / traced_s
    metrics["trace.slowdown"] = traced_s / untraced_s
    print(f"traced passes: {len(passes)} of {len(chosen)} ops each; counts are per pass")
    return metrics


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tricontest" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        setup_child(args.workload)
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the human-readable lines, returns the result."""
    run_dir = OUT / f"{name}-seed{seed}"
    wl = workloads.make(name, ROOT, run_dir)
    docs = wl.generate(seed)
    print(f"workload {name}: closed loop, 1 client; seed {seed}; "
          f"{'traced' if trace else 'untraced'}")
    print(f"inputs: {len(docs)} documents, fingerprint {workloads.fingerprint(docs)}")
    cases = wl.prepare(docs)
    warmup = wl.prepare(wl.generate(workloads.WARMUP_SEED, count=1))[0]
    tally = Tally()
    run_op(wl, warmup, tally, wl.run)  # the first, untimed op

    if trace:
        values = traced(wl, cases, seconds, tally, run_dir / "spans.jsonl")
        units = PER_LAYER
    else:
        times = measure(wl, cases, seconds, tally)
        rss = peak_rss_mb(children=name == "cli_cold")
        setups = setup_times(name, tally)
        values = {"ops_per_s": len(times) / sum(times),
                  "setup_s": statistics.median(setups) if setups else 0.0,
                  "peak_rss_mb": rss}
        units = END_TO_END
        print(f"{len(times)} ops in {sum(times):.3f} s busy")
        print("\n".join(percentile_lines(times)))
        print(f"setup_s from {len(setups)} fresh interpreters: "
              + ", ".join(f"{s:.4f}" for s in setups))
    for error in tally.errors:
        print(f"FAILED {error}")
    print(f"failed_ratio {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed}/{tally.attempted} ops)")
    for metric, unit in units:
        print(f"{metric} {values[metric]:.6g} {unit}")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in units}}


if __name__ == "__main__":
    sys.exit(main())
