"""Host-wall benchmark of the simulated Presto cluster.

    python3 perfbench/run.py --workload fig6_adhoc --seed 1 --seconds 20 --trace 0

Runs one workload in this process against ``SimCluster`` in
deterministic cost mode, checks every query's answer, and prints the
metrics as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics (host ``perf_counter`` wall); ``--trace 1``
replays a fixed slice of the workload untraced and then traced, and
reports the per-layer split. ``--workload all`` runs every workload, each
in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness


def import_engine() -> None:
    """Put the checkout's ``src/`` on the path and import the engine;
    exit non-zero without a result when its sources are not there."""
    # At most nproc = 2 threads: keep numpy's BLAS pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = harness.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro  # noqa: F401

WORKLOADS = {
    "fig6_adhoc": ("wl_fig6", "Fig6"),
    "dashboard_zipf": ("wl_dashboard", "Dashboard"),
    "tenant_mix": ("wl_tenant", "Tenant"),
}
#: (metric, unit) reported by every untraced run.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Set-ups per timed run; setup_s is their median, because one set-up is
#: short and noisy (the first in a process also fills process-global
#: caches). dashboard_zipf's is the shortest, so it gets the most.
SETUP_REPEATS = {"fig6_adhoc": 3, "dashboard_zipf": 5, "tenant_mix": 3}
#: Units of work replayed by the traced run (once untraced, once traced).
TRACE_UNITS = {"fig6_adhoc": 2, "dashboard_zipf": 6, "tenant_mix": 1}
#: Spans that must fire on each workload; a zero means an entry point
#: moved and the traced run silently misses it.
EXPECTED_SPANS = {
    "fig6_adhoc": (
        "sql.parse", "planner.plan", "optimizer.optimize", "planner.fragment",
        "cluster.des", "cluster.quantum", "kernels.factorize", "kernels.hash_rows",
        "blocks.size_bytes", "connectors.hive.decode", "connectors.hive.next_page",
        "shuffle.sink", "shuffle.source", "memory.reserve",
    ),
    "dashboard_zipf": (
        "sql.parse", "cache.plan_get", "cache.result_get", "cache.result_fill",
        "planner.plan", "cluster.des", "connectors.hive.next_page",
        "connectors.hive.sink",
    ),
    "tenant_mix": (
        "sql.parse", "planner.plan", "cluster.quantum", "memory.reserve",
        "connectors.hive.next_page", "connectors.raptor.next_page",
        "connectors.shardedsql.next_page", "connectors.hive.sink",
    ),
}


def make(workload: str, seed: int):
    module, cls = WORKLOADS[workload]
    return getattr(importlib.import_module(module), cls)(seed)


def set_up(workload: str, seed: int, warmup):
    """Build the workload (data, load, cluster, warm-up pass); returns it
    and the host seconds that took."""
    gc.collect()
    start = time.perf_counter()
    bench = make(workload, seed)
    bench.setup(warmup)
    elapsed = time.perf_counter() - start
    warmup.run_checks()
    gc.collect()
    return bench, elapsed


def run_units(bench, units, out) -> None:
    """Run the given unit indexes; after each, outside the timed region,
    check its answers and collect garbage so units do not inherit each
    other's."""
    for unit in units:
        bench.run_unit(unit, out)
        out.run_checks()
        gc.collect()


def timed_run(args) -> tuple:
    """Set up SETUP_REPEATS[workload] times, then run the timed units untraced.
    Returns (metrics, timed collector, collector of the other checked
    queries)."""
    warmup = harness.Collector()
    setups = []
    for _ in range(SETUP_REPEATS[args.workload]):
        bench = None  # drop the previous build before making the next
        bench, seconds = set_up(args.workload, args.seed, warmup)
        setups.append(seconds)
    out = harness.Collector(inject_wrong=args.inject_wrong_answer)
    units = bench.units(args.seconds)
    run_units(bench, range(units), out)
    key = f"{args.workload}:seed={args.seed}:units={units}"
    if not harness.check_repeat(key, out.modeled_digest):
        out.invalid.append(f"modeled numbers differ from an earlier run of {key}")
    lat = out.latencies_ms
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "throughput_qps": out.completed / out.timed_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    print(f"{args.workload}: {units} units, {len(lat)} latency samples, "
          f"{out.completed} queries in {out.timed_s:.3f} s timed, "
          f"error_rate {out.failed / max(1, out.attempted):.4f}, "
          f"setup runs {', '.join(f'{s:.3f}' for s in setups)} s")
    return metrics, out, warmup


def traced_run(args) -> tuple:
    """Replay TRACE_UNITS units on two identical setups, alternating an
    untraced unit on one with the same unit traced on the other, so slow
    drift in host speed falls on both sides of the tracing overhead.
    Returns (metrics, traced collector, collector of the other checked
    queries)."""
    import tracer as tracing

    units = TRACE_UNITS[args.workload]
    others = harness.Collector()
    plain, _ = set_up(args.workload, args.seed, others)
    traced_bench, _ = set_up(args.workload, args.seed, others)
    tracer = tracing.Tracer()
    tracer.tag_from_tasks = args.workload == "tenant_mix"
    untraced = harness.Collector()
    traced = harness.Collector(inject_wrong=args.inject_wrong_answer, tracer=tracer)
    for unit in range(units):
        run_units(plain, [unit], untraced)
        # Instrument only around the traced unit, so the untraced one
        # runs the original functions.
        tracing.instrument(tracer, traced_bench.connectors())
        try:
            traced_bench.run_unit(unit, traced)
        finally:
            tracer.restore()
        traced.run_checks()
        gc.collect()
    others.merge(untraced)
    problems = traced.invalid
    if traced.modeled_digest != untraced.modeled_digest:
        problems.append("modeled numbers differ between the untraced and traced replay")
    metrics = tracing.layer_metrics(tracer, traced, untraced, EXPECTED_SPANS[args.workload])
    repeat_key = f"trace:{args.workload}:seed={args.seed}"
    fingerprint = json.dumps([
        traced.modeled_digest,
        metrics["cluster.sim_events"],
        metrics["kernels.factorize_fallback_rows"],
        metrics["kernels.hash_rows_fallback_rows"],
    ])
    if not harness.check_repeat(repeat_key, fingerprint):
        problems.append(f"modeled numbers differ from an earlier run of {repeat_key}")
    metrics["modeled.repeats"] = 0 if problems or others.invalid else 1
    problems += tracing.split_problems(metrics)
    totals = tracer.totals()
    for span in EXPECTED_SPANS[args.workload]:
        if not totals.get(span, (0, 0))[1]:
            print(f"perfbench: span {span} never fired", file=sys.stderr)
    path = harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"{args.workload}: traced {units} units, {len(tracer.start)} spans -> {path}; "
          f"trace.wall_ms - (printed layer self times + other_ms) = "
          f"{tracing.split_residual_ms(metrics):.6f} ms")
    return metrics, traced, others


def run_one(args) -> int:
    import_engine()
    if args.trace:
        import tracer as tracing

        metrics, out, others = traced_run(args)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, out, others = timed_run(args)
        units = dict(END_TO_END)
    out.merge(others)
    for flag in out.flags + out.invalid:
        print(f"FLAG {flag}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.4f} {units[name]}")
    # Warm-up (and untraced replay) answers count too, merged above.
    result = {
        "correct": out.failed == 0 and not out.invalid,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.inject_wrong_answer:
            cmd.append("--inject-wrong-answer")
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-wall benchmark of the simulated Presto cluster."
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal length of the timed work (sizes it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one answer before it is checked")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
