"""Self-test of the benchmark's arithmetic on hand-made inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs it before every benchmark run.
"""

import json
import os
import unittest

import stats


def span(id, parent, name, start, end, **counts):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end, "counts": counts}


class PercentileTest(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(stats.min_samples(0.9), 100)
        self.assertEqual(stats.min_samples(0.5), 20)
        self.assertEqual(stats.min_samples(0.99), 1000)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 0.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100, shuffled order must not matter
        xs.reverse()
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        self.assertEqual(stats.percentile(list(range(1, 201)), 0.9), 180)
        # exactly ten samples lie beyond the p90 of 100 samples
        self.assertEqual(sum(1 for x in xs if x > stats.percentile(xs, 0.9)), 10)


    def test_quantiles_only_with_enough_samples(self):
        self.assertEqual(stats.quantiles([5.0] * 30), {"n": 30, "p25": 5.0, "p50": 5.0})
        self.assertEqual(set(stats.quantiles(list(range(100)))), {"n", "p25", "p50", "p75", "p90"})


class FailureRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failure_ratio(0, 5), 0.0)
        self.assertEqual(stats.failure_ratio(1, 4), 0.25)

    def test_rejects_bad_counts(self):
        for failed, attempted in ((0, 0), (3, 2), (-1, 2)):
            with self.assertRaises(ValueError):
                stats.failure_ratio(failed, attempted)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_once_when_overlapping(self):
        spans = [span(1, 0, "pass", 0, 100),
                 span(2, 1, "a", 10, 40), span(3, 1, "b", 30, 60),  # overlap 30..40
                 span(4, 1, "c", 90, 120),                        # sticks out of the parent
                 span(5, 2, "a.inner", 15, 20)]
        self.assertEqual(stats.self_times(spans), {1: 40, 2: 25, 3: 30, 4: 30, 5: 5})

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(stats.self_times([span(7, 0, "x", 5, 8)]), {7: 3})

    def test_pass_breakdown(self):
        spans = [span(1, 0, "plan.pass", 0, 100), span(2, 1, "core.generate", 0, 60),
                 span(3, 1, "core.rank", 60, 90)]
        b = stats.pass_breakdown(spans)
        self.assertAlmostEqual(b["phase_coverage_pct"], 90.0)
        self.assertAlmostEqual(b["generate_share_pct"], 60.0)


class MetricsTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(stats.END_TO_END))

    def test_end_to_end(self):
        raw = {"setup_reps_s": [3.0, 1.0, 2.0], "setup_once_s": 0.5,
               "samples": {"op_ms": [float(x) for x in range(1, 101)], "write_ms": [1.0]},
               "values": {"ops_per_s": 7.5, "files_per_scan": 4.0, "measured_s": 9.0}}
        self.assertEqual(stats.end_to_end(raw),
                         {"setup_s": 2.5, "op_ms_mean": 50.5, "op_ms_p90": 90.0,
                          "ops_per_s": 7.5, "files_per_scan": 4.0})

    def test_end_to_end_needs_100_ops(self):
        raw = {"setup_reps_s": [1.0], "setup_once_s": 0.0, "samples": {"op_ms": [1.0] * 99},
               "values": {"ops_per_s": 1.0, "files_per_scan": 1.0}}
        with self.assertRaises(ValueError):
            stats.end_to_end(raw)

    def test_per_layer_means_and_defaults(self):
        spans = [span(1, 0, "lst.stage", 0, 2_000_000, files=4),
                 span(2, 0, "lst.stage", 0, 4_000_000, files=2),
                 span(3, 0, "core.act", 0, 1, useful=3, attempts=4)]
        raw = {"values": {"lst.retries": 2.0}}
        out = stats.per_layer(raw, spans, ["lst.stage_ms", "lst.stage_ms_per_file", "lst.stage_files",
                                           "core.act_useful_ratio", "lst.retries", "fleet.k"])
        self.assertEqual(out, {"lst.stage_ms": 3.0, "lst.stage_ms_per_file": 1.0,
                               "lst.stage_files": 3.0, "core.act_useful_ratio": 0.75,
                               "lst.retries": 2.0, "fleet.k": 0.0})


if __name__ == "__main__":
    unittest.main()
