"""Unit tests of perfbench/stats.py.

Run from the repository root:
    python3 perfbench/tests/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from stats import percentile, self_times_ns, summarize  # noqa: E402


def span(name, start, end, parent=-1, count=0):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "count": count}


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        values = list(range(1, 200))       # 199 samples
        self.assertEqual(percentile(values, 95), (None, 199))
        values = list(range(1, 201))       # 200: rank 190, 10 beyond
        self.assertEqual(percentile(values, 95), (190, 200))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        value, n = percentile(values, 50)
        self.assertEqual((value, n), (3.0, 50))

    def test_empty_and_out_of_range(self):
        self.assertEqual(percentile([], 50), (None, 0))
        self.assertEqual(percentile([1.0] * 30, 100), (None, 30))

    def test_custom_floor(self):
        self.assertEqual(percentile([1, 2, 3, 4], 50, min_beyond=2),
                         (2, 4))
        self.assertEqual(percentile([1, 2, 3, 4], 50, min_beyond=3),
                         (None, 4))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        self.assertEqual(self_times_ns([span("a", 10, 30)]), [20])

    def test_children_are_subtracted(self):
        spans = [span("root", 0, 100), span("a", 10, 30, 0),
                 span("b", 50, 60, 0)]
        self.assertEqual(self_times_ns(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100), span("a", 10, 50, 0),
                 span("b", 40, 70, 0)]
        self.assertEqual(self_times_ns(spans)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("root", 0, 100), span("a", 90, 150, 0)]
        self.assertEqual(self_times_ns(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0, 100), span("mid", 0, 50, 0),
                 span("leaf", 10, 40, 1)]
        self.assertEqual(self_times_ns(spans), [50, 20, 30])

    def test_summarize(self):
        spans = [span("m", 0, 1000, count=7), span("r", 100, 400, 0, 3),
                 span("r", 500, 600, 0, 4)]
        table = summarize(spans)
        self.assertEqual(table["r"]["calls"], 2)
        self.assertEqual(table["r"]["count"], 7)
        self.assertAlmostEqual(table["r"]["total_s"], 400e-9)
        self.assertAlmostEqual(table["m"]["self_s"], 600e-9)


if __name__ == "__main__":
    unittest.main()
