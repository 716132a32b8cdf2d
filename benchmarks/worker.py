"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD SEED TRACE

Times the package import and first data load (set-up), then runs the
workload's job list one job after another.  Each job is timed, then its
result is verified untimed and dropped before the next job starts, so no
result outlives its job.  Prints one JSON object on stdout.  With TRACE=1
the layer wrappers are installed around the job list and the spans are
written to ``.bench_out/``.

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else, so the pass measures the code next to it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def setup():
    """Import the package and load both data assets; the seconds it took."""
    start = time.perf_counter()
    import nodal_atlas
    from nodal_atlas import kazarian, tables

    tables.a_form(1)
    kazarian.s_alpha("A1")
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(nodal_atlas.__file__))) != SRC:
        raise ImportError(f"nodal_atlas imported from {nodal_atlas.__file__}, not {SRC}")
    return elapsed


def run_jobs(workload, seed, jobs, tracer=None):
    """Run and verify the jobs in order; the pass report without set-up.

    ``wall_s`` and ``cpu_s`` sum the timed job calls only.  A job that
    raises or does not verify is a failed job, not a failed pass.  The
    cache counts are taken around the timed calls, so verification does not
    add to them.  The brute-force oracle checks, which allocate more than
    the jobs they check, run after the peak RSS has been read.
    """
    import hashlib
    import random
    import resource

    import tracing
    import workloads

    rng = random.Random(f"verify:{workload}:{seed}")
    sample = workloads.oracle_sample(jobs, rng)
    digest = hashlib.sha256()
    caches = tracing.find_caches()
    times, failures, oracle_checks = [], [], []
    cpu = hits = misses = 0
    if tracer is not None:
        tracer.install()
    try:
        for index, job in enumerate(jobs):
            call = workloads.runner(job)
            if tracer is not None:
                tracer.job = index
                call = tracer.wrap(f"job.{job[0]}", call)
            hits0, misses0 = tracing.cache_counts(caches)
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # the job failed; the pass goes on
                result, error = None, repr(exc)
            times.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu0
            hits1, misses1 = tracing.cache_counts(caches)
            hits, misses = hits + hits1 - hits0, misses + misses1 - misses0
            if tracer is not None:
                tracer.paused = True
            if error is not None:
                ok, canonical = False, f"raised {error}"
            else:
                try:
                    ok, canonical = workloads.verify(job, result, rng)
                except Exception as exc:  # a malformed result fails its job
                    ok, canonical = False, f"verification raised {exc!r}"
            if tracer is not None:
                tracer.paused = False
            if ok and index in sample:
                oracle_checks.append((job, result))
            del result
            if not ok:
                failures.append(f"{job!r}: {canonical[:200]}")
            digest.update(f"{job!r}\t{canonical}\n".encode())
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for job, result in oracle_checks:
        try:
            agrees = workloads.oracle_agrees(job, result)
        except Exception as exc:  # the oracle refusing the input fails the job
            agrees = False
            print(f"oracle raised {exc!r} on {job!r}", file=sys.stderr)
        if not agrees:
            failures.append(f"{job!r}: disagrees with the brute-force oracle")
    return {
        "peak_rss_mb": peak_rss_mb,
        "wall_s": sum(times),
        "cpu_s": cpu,
        "job_s": times,
        "cache.hits": hits,
        "cache.misses": misses,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:5],
        "sha256": digest.hexdigest(),
    }


def write_spans(path, spans):
    import gzip
    import json

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")


def run_pass(workload, seed, traced):
    setup_s = setup()
    import json

    import tracing
    import workloads

    jobs = workloads.make_jobs(workload, seed)
    tracer = tracing.Tracer() if traced else None
    report = run_jobs(workload, seed, jobs, tracer)
    report["setup_s"] = setup_s
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans, tracer.set_partitions)
        write_spans(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl.gz"), tracer.spans)
    return json.dumps(report)


def main(argv):
    if len(argv) != 3 or argv[2] not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "nodal_atlas", "__init__.py")):
        print(f"error: no package at {SRC}/nodal_atlas", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(run_pass(argv[0], int(argv[1]), argv[2] == "1"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
