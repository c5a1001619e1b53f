"""Unit tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))


class Tail(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99.9), 100)

    def test_tail_picks_highest_percentile_with_ten_beyond(self):
        xs = [float(i) for i in range(1, 1001)]  # n = 1000
        t = stats.tail(xs)
        # p99 leaves 10 samples beyond rank 990; p99.9 would leave 1.
        self.assertEqual(t.percentile, 99.0)
        self.assertEqual(t.value, 990.0)
        self.assertEqual(t.beyond, 10)
        self.assertEqual(t.count, 1000)

    def test_tail_with_few_samples(self):
        t = stats.tail([float(i) for i in range(100)])
        self.assertEqual(t.percentile, 90.0)
        self.assertEqual(t.beyond, 10)
        self.assertIsNone(stats.tail([1.0] * 19))
        self.assertEqual(stats.tail([1.0] * 20).percentile, 50.0)

    def test_tail_ignores_order(self):
        xs = [float(i) for i in range(500)]
        self.assertEqual(stats.tail(xs), stats.tail(list(reversed(xs))))


class Ratios(unittest.TestCase):
    def test_ratio_keeps_base(self):
        r = stats.ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.base, 4)

    def test_ratio_over_empty_base(self):
        r = stats.ratio(0, 0)
        self.assertIsNone(r.value)
        self.assertEqual(r.base, 0)


class Groups(unittest.TestCase):
    def test_group_medians_in_key_order(self):
        values = [5, 1, 9, 2, 3, 8]
        keys = [1, 0, 1, 0, 0, 1]
        self.assertEqual(stats.group_medians(values, keys), [2, 8])

    def test_cycle_mean_is_mean_of_position_medians(self):
        values = [1.0, 3.0, 100.0, 10.0, 30.0, 20.0]
        positions = [0, 0, 0, 1, 1, 1]
        # medians: position 0 -> 3, position 1 -> 20
        self.assertEqual(stats.cycle_mean(values, positions), 11.5)

    def test_cycle_mean_single_position_is_median(self):
        xs = [4.0, 1.0, 7.0]
        self.assertEqual(stats.cycle_mean(xs, [0, 0, 0]), 4.0)

    def test_cycle_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 10.0, 10.0, 10.0, 10.0]
        positions = [0] * 5 + [1] * 5
        q1, _, q3 = statistics.quantiles(values[:5], n=4)
        self.assertAlmostEqual(stats.cycle_spread(values, positions),
                               (q3 - q1) / 2)

    def test_length_mismatch_raises(self):
        with self.assertRaises(ValueError):
            stats.cycle_mean([1.0], [0, 1])
        with self.assertRaises(ValueError):
            stats.group_medians([1.0], [])


if __name__ == "__main__":
    unittest.main()
