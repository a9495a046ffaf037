"""Unit tests of the benchmark's statistics (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs them before every benchmark run.
"""

import math
import unittest

import stats


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


def phase(latencies, status=None, rate=100.0, seconds=2.0):
    return {"rate": rate, "seconds": seconds, "wall_seconds": seconds,
            "latency_ms": latencies,
            "status": status if status is not None else [0] * len(latencies)}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 95), 95.0)

    def test_infinite_values_sort_last(self):
        self.assertEqual(stats.percentile([math.inf, 1, 2], 0), 1)
        self.assertEqual(stats.percentile([math.inf, 1, 2], 100), math.inf)


class TailPercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_every_choice_leaves_ten_beyond(self):
        for n in range(20, 5000, 7):
            q = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (1 - q / 100) + 1e-9, 10)


class RateSummaryTest(unittest.TestCase):
    def test_failed_requests_miss_the_slo(self):
        # 200 expected samples -> p95; 11 failures put the tail at infinity.
        latencies = [5.0] * 189 + [1.0] * 11
        status = [0] * 189 + [2] * 11
        summary = stats.rate_summary([phase(latencies, status)], 100.0, 0.5)
        self.assertEqual(summary["tail_q"], 95.0)
        self.assertEqual(summary["failed"], 11)
        self.assertEqual(summary["counts"]["rejected"], 11)
        self.assertEqual(summary["tail_ms"], math.inf)
        self.assertFalse(summary["meets_slo"])

    def test_failures_over_their_bound_miss_the_slo(self):
        latencies = [5.0] * 200
        status = [0] * 199 + [1]
        self.assertFalse(
            stats.rate_summary([phase(latencies, status)], 100.0, 0.001)
            ["meets_slo"])
        self.assertTrue(
            stats.rate_summary([phase(latencies, status)], 100.0, 0.01)
            ["meets_slo"])

    def test_growing_backlog_misses_the_slo(self):
        # Latency climbing through the phase: a queue that never drains,
        # although the p95 alone would still be within the limit.
        latencies = [1.0 + i * 0.4 for i in range(200)]
        summary = stats.rate_summary([phase(latencies)], 100.0, 0.0)
        self.assertLessEqual(summary["tail_ms"], 100.0)
        self.assertTrue(summary["backlog_grows"])
        self.assertFalse(summary["meets_slo"])

    def test_steady_phase_meets_the_slo(self):
        latencies = [10.0 + (i % 7) for i in range(200)]
        summary = stats.rate_summary([phase(latencies)], 100.0, 0.0)
        self.assertFalse(summary["backlog_grows"])
        self.assertTrue(summary["meets_slo"])
        self.assertEqual(summary["ok_rps"], 100.0)

    def test_phases_of_one_rate_are_pooled(self):
        # Two 1 s phases at 100 rps: 200 expected samples -> p95 over both.
        first = phase([5.0] * 100, rate=100.0, seconds=1.0)
        second = phase([5.0] * 89 + [50.0] * 11, rate=100.0, seconds=1.0)
        summary = stats.rate_summary([first, second], 100.0, 0.0)
        self.assertEqual(summary["tail_q"], 95.0)
        self.assertEqual(summary["counts"]["sent"], 200)
        self.assertGreater(summary["tail_ms"], 5.0)
        self.assertEqual(summary["ok_rps"], 100.0)

    def test_growth_in_one_phase_is_enough(self):
        steady = phase([10.0] * 200)
        growing = phase([1.0 + i * 0.4 for i in range(200)])
        self.assertTrue(stats.rate_summary([steady, growing], 100.0, 0.0)
                        ["backlog_grows"])


class MaxRpsSloTest(unittest.TestCase):
    def summary(self, meets, ok_rps):
        return {"meets_slo": meets, "ok_rps": ok_rps}

    def test_highest_rate_meeting_the_slo(self):
        summaries = [(40, self.summary(True, 39.5)),
                     (80, self.summary(True, 80.7)),
                     (160, self.summary(False, 150.0))]
        self.assertEqual(stats.max_rps_slo(summaries), 80.7)

    def test_order_of_phases_does_not_matter(self):
        summaries = [(160, self.summary(True, 161.0)),
                     (40, self.summary(True, 39.5))]
        self.assertEqual(stats.max_rps_slo(summaries), 161.0)

    def test_zero_when_no_rate_meets(self):
        self.assertEqual(
            stats.max_rps_slo([(40, self.summary(False, 40.0))]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("epoch", 0, 100),
                 span("a", 10, 30, 0),
                 span("b", 40, 90, 0),
                 span("c", 50, 60, 2)]
        self.assertEqual(stats.self_times(spans), [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 50, 0),
                 span("b", 40, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 0, 100), span("a", 90, 120, 0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_self_time_by_root_sums_per_name(self):
        spans = [span("train.epoch", 0, 100),
                 span("core.forward", 0, 20, 0),
                 span("core.forward", 30, 50, 0),
                 span("train.epoch", 100, 150),
                 span("core.forward", 100, 110, 3),
                 span("core.eval", 150, 170)]
        epochs = stats.self_time_by_root(spans, "train.epoch")
        self.assertEqual(epochs, [{"train.epoch": 60, "core.forward": 40},
                                  {"train.epoch": 40, "core.forward": 10}])
        self.assertEqual(stats.self_time_by_root(spans, "core.eval"),
                         [{"core.eval": 20}])


if __name__ == "__main__":
    unittest.main()
