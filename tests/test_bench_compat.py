"""The benchmark's tracer and verifiers still work against the package.

benchmarks/tracing.py resolves the polynomial classes by module attribute
and wraps their multiplication; benchmarks/workloads.py reads `.terms`,
`.coeffs`, `specialize_p2` and a Thom form's `.d`, `.k`, `.s`, `.x` when it
verifies a result.  Both files are imported by path and left as they are.
"""

import importlib.util
import random
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# One small job of each kind that the polynomial kernels compute.
JOBS = (
    ("q_general", 3),
    ("q_p2_extraction", 4),
    ("c_correction_p2", 4),
    ("excess_a1a2_p2",),
    ("multiple_point_degree", 3, 7),
    ("complete_bell", 6),
    ("partial_bell", 6, 3),
    ("node_polynomial", 5),
    ("q_p2_closed", 3),
    ("count_multisingular", "A1^2*A2", (16, -12, 9, 3)),
)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("tracing"), _load("workloads")


def test_traced_kernel_jobs_verify(bench):
    tracing, workloads = bench
    from nodal_atlas.bell import SparsePoly

    untraced_mul = SparsePoly.__mul__
    tracer = tracing.Tracer()
    rng = random.Random("bench-compat")
    tracer.install()
    try:
        for index, job in enumerate(JOBS):
            tracer.job = index
            result = workloads.runner(job)()
            tracer.paused = True
            ok, canonical = workloads.verify(job, result, rng)
            tracer.paused = False
            assert ok, (job, canonical)
    finally:
        tracer.uninstall()
    assert SparsePoly.__mul__ is untraced_mul
    metrics = tracing.layer_metrics(tracer.spans, tracer.set_partitions)
    assert metrics["chow.calls"] > 0
    assert metrics["bell.poly_mul"] > 0
