"""Benchmark of nodal-atlas: seeded workloads run against the public API.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 24 --trace 0

A closed loop with one client: passes of the workload run one after another,
each in a fresh interpreter (benchmarks/worker.py), until --seconds have
passed, and at least one pass has run.  A pass runs the whole job list with
cold caches, as one CLI command would.  Every result is verified.

--trace 0 reports the end-to-end metrics, each the median over the passes;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones.  Every metric is printed with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See benchmarks/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "expand", "identities", "lattice")
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    """A worker pass exited without a report."""


def run_pass(workload, seed, traced, timeout):
    cmd = [sys.executable, WORKER, workload, str(seed), "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """(untraced passes, traced passes) run within the time budget."""
    start = time.monotonic()
    plain, traced = [], []
    while not plain or (trace and not traced) or time.monotonic() - start < seconds:
        remaining = DEADLINE_S - (time.monotonic() - start)
        with_trace = trace and len(traced) < len(plain)
        (traced if with_trace else plain).append(run_pass(workload, seed, with_trace, remaining))
    return plain, traced


def _percentile_ms(times, p):
    return statistics.quantiles(times, n=100, method="inclusive")[p - 1] * 1000


def end_to_end(passes):
    def median(values):
        return statistics.median(list(values))

    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "job_p50_ms": median(_percentile_ms(p["job_s"], 50) for p in passes),
        "job_p95_ms": median(_percentile_ms(p["job_s"], 95) for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain, traced):
    # Counts repeat exactly from pass to pass; times vary, so take medians.
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               if name.endswith("_s") else count
               for name, count in traced[0]["layers"].items()}
    for name in ("cache.hits", "cache.misses"):
        metrics[name] = traced[0][name]
    metrics["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def _unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def benchmark(workload, seed, seconds, trace):
    """Run one workload; print its table; return its result object."""
    plain, traced = measure(workload, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["sha256"] for p in passes}
    values = per_layer(plain, traced) if trace else end_to_end(plain)
    print(f"{workload}: seed {seed}, {len(plain)} untraced + {len(traced)} traced passes "
          f"of {passes[0]['attempted']} jobs, failed_ratio {failed}/{attempted}, "
          f"sha256 {' '.join(sorted(digests))}")
    for p in passes:
        for message in p["failures"]:
            print(f"  FAILED {message}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:<28} {value!s:>22} {_unit(name)}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: benchmark(w, args.seed, args.seconds, args.trace) for w in names}
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
