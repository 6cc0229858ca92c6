#!/usr/bin/env python3
"""Unit checks of the benchmark statistics on fixed inputs.

    python3 perfbench/test_stats.py
"""

import sys

sys.dont_write_bytecode = True

import math
import unittest

import stats


class TailTest(unittest.TestCase):
    def test_eleventh_largest_with_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, beyond = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0,
                  11.0, 12.0]
        self.assertEqual(stats.tail(values), (2.0, 100.0 * 2 / 12, 10))

    def test_percentile_rises_with_samples(self):
        _, pct, _ = stats.tail(range(1000))
        self.assertEqual(pct, 99.0)

    def test_too_few_samples_gives_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail(list(range(10))), (9, 100.0, 0))
        self.assertEqual(stats.tail([]), (0.0, 100.0, 0))


class GeomeanTest(unittest.TestCase):
    def test_fixed_inputs(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([1.0, 10.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([5.0]), 5.0)

    def test_ignores_non_positive_and_empty(self):
        self.assertAlmostEqual(stats.geomean([4.0, 0.0, 9.0]), 6.0)
        self.assertEqual(stats.geomean([]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_once(self):
        spans = [
            {"name": "request", "start_us": 0, "end_us": 100, "parent": -1},
            {"name": "model.build", "start_us": 0, "end_us": 10,
             "parent": 0},
            {"name": "planner.plan", "start_us": 10, "end_us": 90,
             "parent": 0},
            {"name": "inner", "start_us": 20, "end_us": 50, "parent": 2},
            {"name": "runtime.trial", "start_us": 100, "end_us": 130,
             "parent": -1},
        ]
        self.assertEqual(stats.self_times(spans), {
            "request": [10],
            "model.build": [10],
            "planner.plan": [50],
            "inner": [30],
            "runtime.trial": [30],
        })

    def test_planner_self(self):
        # 500 ms plan, 10 ms profile, 30 ms mapper, 17 trials of 25 ms.
        self.assertAlmostEqual(
            stats.planner_self_ms(500.0, 10.0, 30.0, 17, 25.0), 35.0)


class StampTest(unittest.TestCase):
    BASE = {"hardware_threads": 4, "cpu_model": "Xeon", "compiler": "GNU 12",
            "build_type": "RelWithDebInfo", "git_rev": "abc",
            "source_digest": "1"}

    def test_same_host_different_revision_is_comparable(self):
        other = dict(self.BASE, git_rev="def", source_digest="2")
        self.assertEqual(stats.stamp_mismatch(self.BASE, other), [])

    def test_host_or_build_difference_is_refused(self):
        other = dict(self.BASE, hardware_threads=1, build_type="Debug")
        self.assertEqual(stats.stamp_mismatch(self.BASE, other),
                         ["hardware_threads", "build_type"])
        self.assertEqual(stats.stamp_mismatch(self.BASE, {}),
                         list(stats.HOST_KEYS))


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = (1.5, 3.0, 4.5)  # statistics.quantiles, exclusive
        self.assertTrue(math.isclose(stats.spread(values), (q3 - q1) / 3.0))
        self.assertEqual(stats.spread([7.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
