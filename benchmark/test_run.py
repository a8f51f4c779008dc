"""Self-tests of run.py: medians and quartiles, the tail-percentile rule,
per-step fastest times, bound verdicts, compare and digest-mismatch
accounting, over fixed fixtures.

    python3 benchmark/run.py --self-test
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def rep(setup, run_ns, digest, traced=False, error="", rest=0.0, **metrics):
    """One hp_bench rep whose run took the steps of `run_ns`."""
    run_s = sum(run_ns) / 1e9
    metrics.update(setup_s=setup, run_s=run_s, wall_s=setup + run_s + rest,
                   steps=len(run_ns), moves=10 * len(run_ns),
                   bytes_per_node=100.0)
    return {"traced": traced, "error": error, "metrics": metrics,
            "digest": digest, "run_ns": list(run_ns)}


# One hp_bench document of the steady workload: three untraced reps (the
# third with a digest that differs from the first's) and one traced rep.
# Each step's fastest time: 1.0, 1.0, 2.0 and 1.0 ms, 5 ms in all.
MS = 1000000
SAMPLES = {
    "workload": run.STEADY,
    "seed": 7,
    "threads": 1,
    "peak_rss_mb": 12.5,
    "reps": [
        rep(0.1, [1 * MS, 3 * MS, 2 * MS, 4 * MS] * 5, {"steps": 5}),
        rep(0.3, [3 * MS, 1 * MS, 4 * MS, 1 * MS] * 5, {"steps": 5}),
        rep(0.2, [2 * MS, 2 * MS, 2 * MS, 2 * MS] * 5, {"steps": 6},
            rest=0.05),
        rep(0.2, [4 * MS] * 20, {"steps": 5}, traced=True,
            **{"routing.route_calls": 40}),
    ],
}


class SummaryTest(unittest.TestCase):
    def test_median_quartiles_and_relative_iqr(self):
        s = run.summary([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual(s["n"], 5)
        self.assertEqual((s["value"], s["median"]), (3.0, 3.0))
        # statistics.quantiles' default (exclusive) method.
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertAlmostEqual(s["iqr_rel"], 1.0)
        self.assertEqual(s["values"], [5.0, 1.0, 4.0, 2.0, 3.0])

    def test_reported_value_may_differ_from_the_median(self):
        s = run.summary([2.0, 4.0], value=1.5)
        self.assertEqual((s["value"], s["median"]), (1.5, 3.0))

    def test_single_sample_has_no_spread(self):
        s = run.summary([2.5])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["iqr_rel"]),
                         (2.5, 2.5, 2.5, 0.0))

    def test_zero_median_has_zero_relative_spread(self):
        self.assertEqual(run.summary([0.0, 0.0, 0.0])["iqr_rel"], 0.0)


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        cases = {19: None, 20: 50.0, 99: 50.0, 100: 90.0, 999: 90.0,
                 1000: 99.0, 9999: 99.0, 10000: 99.9, 30000: 99.9}
        for n, p in cases.items():
            self.assertEqual(run.tail_percentile(n), p, n)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50.0), 50)
        self.assertEqual(run.percentile(values, 99.0), 99)
        self.assertEqual(run.percentile(values, 100.0), 100)
        self.assertEqual(run.percentile([7.0], 99.0), 7.0)


class FastestRunTest(unittest.TestCase):
    def test_takes_each_steps_minimum_over_reps(self):
        reps = [{"run_ns": [5, 1, 9]}, {"run_ns": [2, 8, 9]},
                {"run_ns": [7, 7, 3]}]
        self.assertAlmostEqual(run.fastest_run_s(reps), 6e-9)

    def test_one_rep_is_its_own_run_time(self):
        self.assertAlmostEqual(run.fastest_run_s([{"run_ns": [4, 6]}]),
                               1e-8)


class VerdictTest(unittest.TestCase):
    parent = run.summary([0.99, 1.0, 1.01])

    def test_within_bound_is_ok(self):
        change = run.summary([1.04, 1.05, 1.06])
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1), "ok")

    def test_beyond_bound_is_worse(self):
        change = run.summary([1.19, 1.2, 1.21])
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_compares_reported_values(self):
        change = run.summary([1.0, 1.0, 1.0], value=1.2)
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_direction_follows_better(self):
        parent = run.summary([99.0, 100.0, 101.0])
        slower = run.summary([84.0, 85.0, 86.0])
        faster = run.summary([114.0, 115.0, 116.0])
        self.assertEqual(run.verdict(parent, slower, "higher", 0.1), "worse")
        self.assertEqual(run.verdict(parent, faster, "higher", 0.1), "ok")
        self.assertEqual(run.verdict(self.parent, run.summary([0.5]),
                                     "lower", 0.1), "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = run.summary([0.8, 1.0, 1.3])
        self.assertEqual(run.verdict(self.parent, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(run.verdict(noisy, self.parent, "lower", 0.1),
                         "unresolved")

    def test_unresolved_unless_every_rep_is_better(self):
        noisy_but_faster = run.summary([0.3, 0.5, 0.9])
        self.assertEqual(
            run.verdict(self.parent, noisy_but_faster, "lower", 0.1), "ok")

    def test_exact_metric_with_zero_bound(self):
        zero = run.summary([0.0])
        self.assertEqual(run.verdict(zero, zero, "lower", 0.0), "ok")
        self.assertEqual(run.verdict(zero, run.summary([0.1]), "lower", 0.0),
                         "worse")
        same = run.summary([956.4367])
        bigger = run.summary([956.4368])
        self.assertEqual(run.verdict(same, same, "lower", 0.0), "ok")
        self.assertEqual(run.verdict(same, bigger, "lower", 0.0), "worse")


class CompareTest(unittest.TestCase):
    @staticmethod
    def results(wall, failed=0.0, unmeasured=None):
        return {"mesh_perm": {
            "unmeasured": unmeasured,
            "end_to_end": {"wall_s": run.summary([wall] * 3),
                           "failed_fraction": run.summary([failed])}}}

    def test_bounds_are_per_workload_and_metric(self):
        parent = self.results(1.0)
        bound = run.BOUNDS["mesh_perm"]["wall_s"]
        lines, worse = run.compare(parent, self.results(1.0 + bound / 2))
        self.assertEqual(worse, 0)
        self.assertEqual(len(lines), 2)
        self.assertTrue(all(line.endswith(" ok") for line in lines))
        lines, worse = run.compare(parent, self.results(1.0 + 2 * bound))
        self.assertEqual(worse, 1)
        self.assertTrue(lines[0].endswith(" worse"))

    def test_any_failure_is_worse(self):
        _, worse = run.compare(self.results(1.0),
                               self.results(1.0, failed=0.1))
        self.assertEqual(worse, 1)

    def test_unmeasured_workloads_are_skipped(self):
        lines, worse = run.compare(
            self.results(1.0), self.results(9.0, unmeasured="needs 4 cores"))
        self.assertEqual((lines, worse), (["mesh_perm       unmeasured"], 0))


class DigestTest(unittest.TestCase):
    pinned = {"steps": 5, "fingerprint": "00ff"}

    def test_all_match(self):
        reps = [rep(0.1, [1], dict(self.pinned)) for _ in range(3)]
        self.assertEqual(run.count_failed(reps, self.pinned), 0)

    def test_error_and_mismatch_both_count(self):
        reps = [rep(0.1, [1], dict(self.pinned)),
                rep(0.1, [1], dict(self.pinned), error="invariant broken"),
                rep(0.1, [1], {"steps": 6, "fingerprint": "00ff"})]
        self.assertEqual(run.count_failed(reps, self.pinned), 2)

    def test_unpinned_seed_compares_with_first_rep(self):
        reps = [rep(0.1, [1], {"steps": 9}), rep(0.1, [1], {"steps": 9}),
                rep(0.1, [1], {"steps": 8})]
        self.assertEqual(run.count_failed(reps, None), 1)
        self.assertEqual(run.count_failed([], None), 0)

    def test_hash_ignores_key_order(self):
        self.assertEqual(run.digest_hash({"a": 1, "b": 2}),
                         run.digest_hash({"b": 2, "a": 1}))


class SummarizeTest(unittest.TestCase):
    res = run.summarize(SAMPLES)

    def test_failures_are_counted_against_attempts(self):
        self.assertEqual((self.res["attempted"], self.res["failed"]), (4, 1))
        self.assertEqual(self.res["end_to_end"]["failed_fraction"]["value"],
                         0.25)
        self.assertFalse(self.res["digest_pinned"])

    def test_end_to_end_from_untraced_reps(self):
        e2e = self.res["end_to_end"]
        self.assertEqual(e2e["setup_s"]["n"], 3)
        self.assertAlmostEqual(e2e["setup_s"]["value"], 0.2)
        # Fastest set-up, fastest copy of each step, fastest remainder.
        self.assertAlmostEqual(e2e["wall_s"]["value"], 0.1 + 0.025 + 0.0)
        self.assertAlmostEqual(e2e["wall_s"]["median"], 0.29)
        self.assertAlmostEqual(e2e["steps_per_s"]["value"], 20 / 0.025)
        self.assertAlmostEqual(e2e["moves_per_s"]["value"], 200 / 0.025)
        self.assertAlmostEqual(e2e["steps_per_s"]["median"], 20 / 0.045)
        self.assertEqual(e2e["peak_rss_mb"]["value"], 12.5)
        self.assertNotIn("checkpoint_save_s", e2e)

    def test_step_percentiles_pool_samples(self):
        e2e = self.res["end_to_end"]
        # 60 pooled steps: 15 at 1 ms, 25 at 2 ms, 10 at 3 ms, 10 at 4 ms.
        self.assertEqual(e2e["step_us_p50"]["n"], 60)
        self.assertEqual(e2e["step_us_p50"]["value"], 2000.0)
        self.assertEqual(e2e["step_us_p50"]["values"], [2000.0, 1000.0,
                                                        2000.0])
        # 60 samples leave fewer than ten beyond p99: not reported.
        self.assertNotIn("step_us_p99", e2e)

    def test_step_p99_is_a_layer_metric(self):
        doc = dict(SAMPLES, reps=[rep(0.1, [i * 1000 for i in range(1, 1001)],
                                      {"steps": 1})])
        res = run.summarize(doc)
        self.assertEqual(res["end_to_end"]["step_us_p50"]["value"], 500.0)
        self.assertEqual(res["per_layer"]["sim.step_us_p99"]["value"], 990.0)
        self.assertEqual(res["per_layer"]["sim.step_us_p99"]["n"], 1000)
        self.assertNotIn("sim.step_us_p99", res["end_to_end"])

    def test_step_percentiles_only_for_the_steady_workload(self):
        other = dict(SAMPLES, workload="mesh_perm")
        self.assertNotIn("step_us_p50", run.summarize(other)["end_to_end"])

    def test_layers_from_traced_reps(self):
        layers = self.res["per_layer"]
        self.assertEqual(layers["routing.route_calls"]["value"], 40)
        # Traced wall 0.28 s against the untraced median of 0.29 s.
        self.assertAlmostEqual(layers["trace.overhead"]["value"],
                               0.28 / 0.29 - 1.0)

    def test_result_line(self):
        definition = {"end_to_end": [{"name": "wall_s", "unit": "s"}],
                      "per_layer": [{"name": "trace.overhead",
                                     "unit": "ratio"}]}
        line = run.result_line(self.res, False, definition)
        self.assertEqual(sorted(line),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertFalse(line["correct"])
        self.assertEqual(list(line["metrics"]), ["wall_s"])
        self.assertAlmostEqual(line["metrics"]["wall_s"]["value"], 0.125)
        self.assertEqual(line["metrics"]["wall_s"]["unit"], "s")
        traced = run.result_line(self.res, True, definition)
        self.assertEqual(list(traced["metrics"]), ["trace.overhead"])
        definition["end_to_end"].append({"name": "absent", "unit": "s"})
        with self.assertRaises(run.BenchError):
            run.result_line(self.res, False, definition)


if __name__ == "__main__":
    unittest.main()
