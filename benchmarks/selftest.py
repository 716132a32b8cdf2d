"""Self-tests of the benchmark itself: the input generator, the self-time
arithmetic and the verification.

    python3 benchmarks/selftest.py

Kept out of the package's pytest suite (the file name does not match
``test_*.py``) because they test the benchmark, not the package.
"""

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nodal_atlas import tables  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_workload_names_agree(self):
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)

    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for workload in workloads.WORKLOADS:
            jobs = workloads.make_jobs(workload, 7)
            self.assertEqual(jobs, workloads.make_jobs(workload, 7))
            self.assertNotEqual(jobs, workloads.make_jobs(workload, 8))
            self.assertGreaterEqual(len(jobs), 200, workload)

    def test_surfaces_satisfy_adjunction_and_noether(self):
        rng = random.Random(0)
        for _ in range(100):
            d, k, s, x = workloads.general_surface(rng)
            self.assertEqual((d + k) % 2, 0)
            self.assertEqual((s + x) % 12, 0)
            tables.node_count(15, tables.ChernNumbers(d, k, s, x))

    def test_off_lattice_surface_is_refused_by_the_library(self):
        with self.assertRaises(ArithmeticError):
            tables.node_count(4, tables.ChernNumbers(292, 48, -8, 55))


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        ("tables.node_count", 0.0, 10.0, -1, 0),
        ("bell.eval", 1.0, 4.0, 0, 0),
        ("partitions.signatures", 2.0, 3.0, 1, 0),
        ("bell.poly_mul", 3.5, 6.0, 0, 0),  # overlaps its sibling: union [1, 6]
        ("exact.binomial", 8.0, 12.0, 0, 0),  # clipped to its parent: [8, 10]
        ("job.node_count", 20.0, 21.0, -1, 1),
    ]

    def test_self_time_is_duration_minus_union_of_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 2.5, 4.0, 1.0])

    def test_layer_sums_leave_out_spans_outside_the_layers(self):
        m = tracing.layer_metrics(self.SPANS, set_partitions=5)
        self.assertEqual((m["tables.calls"], m["tables.self_s"]), (1, 3.0))
        self.assertEqual((m["bell.calls"], m["bell.self_s"]), (2, 4.5))
        self.assertEqual((m["partitions.calls"], m["partitions.self_s"]), (1, 1.0))
        self.assertEqual((m["exact.calls"], m["exact.self_s"]), (1, 4.0))
        self.assertEqual((m["cli.calls"], m["cli.self_s"]), (0, 0.0))
        self.assertEqual(m["bell.poly_mul"], 1)
        self.assertEqual(m["partitions.set_partitions"], 5)


def _cheap_jobs():
    heavy = {"node_polynomial", "q_general", "q_p2_extraction", "multiple_point_degree",
             "excess_a1a2_p2", "partition_lattice", "node_count_bruteforce"}
    jobs = []
    for workload in workloads.WORKLOADS:
        picked = [j for j in workloads.make_jobs(workload, 3)
                  if j[0] not in heavy and not (j[0] == "cli" and j[1][0] != "series")]
        jobs += picked[:25]
    return jobs


class VerificationTest(unittest.TestCase):
    def _run_broken(self, jobs, broken):
        original = tables.node_count
        tables.node_count = broken
        try:
            return worker.run_jobs("sweep", 1, jobs)
        finally:
            tables.node_count = original

    def test_wrong_results_are_counted_as_failed(self):
        jobs = [j for j in workloads.make_jobs("sweep", 1) if j[0] == "node_count"][:20]
        original = tables.node_count
        report = self._run_broken(jobs, lambda r, chern: original(r, chern) + 1)
        self.assertEqual(report["failed"], len(jobs))

    def test_raising_jobs_are_counted_as_failed(self):
        jobs = [j for j in workloads.make_jobs("sweep", 1) if j[0] == "node_count"][:3]

        def broken(r, chern):
            raise ArithmeticError("broken")

        self.assertEqual(self._run_broken(jobs, broken)["failed"], 3)

    def test_tracing_changes_no_output_and_uninstalls(self):
        jobs = _cheap_jobs()
        originals = (tables.node_count, tables.ChernNumbers, tables.a_form)
        plain = worker.run_jobs("mixed", 3, jobs)
        tracer = tracing.Tracer()
        traced = worker.run_jobs("mixed", 3, jobs, tracer)
        self.assertEqual((tables.node_count, tables.ChernNumbers, tables.a_form), originals)
        self.assertTrue(tracer.spans)
        self.assertEqual((plain["failed"], traced["failed"]), (0, 0))
        self.assertEqual(plain["sha256"], traced["sha256"])

    def test_known_defect_must_read_exactly_as_expected(self):
        rng = random.Random(0)
        for argv in (("check",), ("check", "--format", "json")):
            job = ("cli", argv)
            code, out, err = workloads.runner(job)()
            self.assertTrue(workloads.verify(job, (code, out, err), rng)[0])
            for tampered in (
                (0, out, err),
                (code, out.replace("992/3", "992/5"), err),
                (code, out.replace("[PASS]", "[FAIL]", 1), err),
                (code, out.replace('"ok": true', '"ok": false', 1), err),
            ):
                if tampered[1] != out or tampered[0] != code:
                    self.assertFalse(workloads.verify(job, tampered, rng)[0])


if __name__ == "__main__":
    unittest.main()
