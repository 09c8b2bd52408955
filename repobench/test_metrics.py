"""Tests for the benchmark's metric helpers.

    python3 -m unittest discover -s repobench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "unit": 0}


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
        p, value, beyond = metrics.tail(list(range(1, 101)))
        self.assertEqual((p, value, beyond), (90.0, 90, 10))

    def test_sample_count_moves_the_percentile(self):
        self.assertEqual(metrics.tail(list(range(20)))[0], 50.0)
        self.assertEqual(metrics.tail(list(range(39)))[0], 50.0)
        self.assertEqual(metrics.tail(list(range(40)))[0], 75.0)
        p, _, beyond = metrics.tail(list(range(1000)))
        self.assertEqual((p, beyond), (99.0, 10))
        p, _, beyond = metrics.tail(list(range(2000)))
        self.assertEqual((p, beyond), (99.5, 10))

    def test_order_of_samples_does_not_matter(self):
        ordered = [float(i) for i in range(60)]
        shuffled = ordered[::7] + [x for x in ordered if x not in
                                   ordered[::7]]
        self.assertEqual(metrics.tail(ordered), metrics.tail(shuffled))

    def test_ties_count_as_beyond_by_rank(self):
        p, value, beyond = metrics.tail([5.0] * 30)
        self.assertEqual((p, value, beyond), (50.0, 5.0, 15))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(19)))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("unit", 0, 100), span("a", 10, 40, 0),
                 span("b", 50, 60, 0), span("c", 12, 20, 1)]
        self.assertEqual(metrics.self_times(spans), [60, 22, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0, 100), span("x", 10, 50, 0),
                 span("y", 30, 70, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 40)

    def test_child_time_outside_parent_is_ignored(self):
        spans = [span("p", 10, 20), span("x", 0, 15, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 5)

    def test_ledger_coverage(self):
        spans = [span("unit", 0, 100), span("a", 0, 90, 0),
                 span("b", 10, 30, 1),
                 span("unit", 100, 200), span("a", 100, 200, 3)]
        by_name, total, coverage = metrics.ledger(spans)
        self.assertEqual(by_name, {"a": 170, "b": 20})
        self.assertEqual(total, 200)
        self.assertAlmostEqual(coverage, 0.95)


class FailFracTest(unittest.TestCase):
    def test_every_kind_of_failure_counts(self):
        self.assertEqual(metrics.fail_frac(100), 0.0)
        self.assertEqual(metrics.fail_frac(100, wrong=1), 0.01)
        self.assertEqual(metrics.fail_frac(100, rejected=2), 0.02)
        self.assertEqual(metrics.fail_frac(100, shed=3), 0.03)
        self.assertEqual(metrics.fail_frac(10, wrong=1, rejected=2, shed=3),
                         0.6)

    def test_bad_counts_are_refused(self):
        with self.assertRaises(ValueError):
            metrics.fail_frac(0)
        with self.assertRaises(ValueError):
            metrics.fail_frac(2, wrong=2, shed=1)


class NormalizeTest(unittest.TestCase):
    def test_times_and_rates_scale_with_the_reference(self):
        ref = metrics.REFERENCE_MS
        # A host twice as slow as the reference doubles the reference time:
        # its wall times halve and its rates double once normalized.
        self.assertEqual(metrics.normalize([10.0, 8.0], [ref, 2 * ref]),
                         [10.0, 4.0])
        self.assertEqual(metrics.normalize_rates([3.0, 3.0], [ref, 2 * ref]),
                         [3.0, 6.0])

    def test_one_reference_per_sample(self):
        with self.assertRaises(ValueError):
            metrics.normalize([1.0, 2.0], [1.0])
        with self.assertRaises(ValueError):
            metrics.normalize_rates([1.0], [])

    def test_end_to_end_uses_normalized_samples(self):
        ref = metrics.REFERENCE_MS
        raw = {"setup_s": [2.0, 2.0, 2.0], "setup_ref_ms": [ref, 2 * ref, ref],
               "unit_ms": [10.0] * 20 + [30.0] * 20,
               "unit_ref_ms": [ref] * 20 + [3 * ref] * 20,
               "rate_samples": [5.0], "rate_ref_ms": [2 * ref],
               "peak_rss_mb": 7.0}
        e2e, info = metrics.end_to_end(raw)
        self.assertEqual(e2e["setup_s"], (2.0, "s"))
        self.assertEqual(e2e["unit_ms"], (10.0, "ms"))
        self.assertEqual(e2e["ops_per_s"], (10.0, "1/s"))
        self.assertEqual(info["wall"]["unit_ms"], 20.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to repobench/")
        with open(path) as f:
            spec = json.load(f)
        ref = metrics.REFERENCE_MS
        raw = {"setup_s": [1.0], "setup_ref_ms": [ref],
               "unit_ms": list(range(1, 41)), "unit_ref_ms": [ref] * 40,
               "rate_samples": [2.0], "rate_ref_ms": [ref],
               "peak_rss_mb": 5.0}
        e2e, _ = metrics.end_to_end(raw)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (_, u) in e2e.items()})
        names = {m["name"] for m in spec["per_layer"]}
        self.assertTrue(set(metrics.PROGRAM_LAYER_UNITS) <= names)


if __name__ == "__main__":
    unittest.main()
