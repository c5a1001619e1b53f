"""Statistics for the perfbench reports.

Every number the benchmark prints is reduced here from raw samples:
medians and quartiles, the highest percentile that still has at least ten
samples beyond it (reported with that percentile and the sample count), and
ratios that keep their base.
"""

import math
import statistics
from collections import namedtuple

# Percentiles a tail value may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10

Tail = namedtuple("Tail", "percentile value beyond count")
Ratio = namedtuple("Ratio", "value base")


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if not xs:
        raise ValueError("quartiles of no samples")
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (the epsilon
    keeps p·n/100 = 990.0000000001 from rounding up to the next rank)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not xs:
        raise ValueError("percentile of no samples")
    ordered = sorted(xs)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(xs, min_beyond=MIN_BEYOND, ladder=TAIL_LADDER):
    """The highest ladder percentile with at least `min_beyond` samples
    above its rank, or None when even the median has fewer."""
    n = len(xs)
    best = None
    for p in ladder:
        beyond = n - _rank(p, n)
        if beyond >= min_beyond:
            best = Tail(p, percentile(xs, p), beyond, n)
    return best


def ratio(part, base):
    """part / base with its base kept; value None when the base is 0."""
    return Ratio(part / base if base else None, base)


def _groups(values, keys):
    """Values split by key, in key order."""
    if len(values) != len(keys):
        raise ValueError("values and keys differ in length")
    groups = {}
    for v, k in zip(values, keys):
        groups.setdefault(k, []).append(v)
    if not groups:
        raise ValueError("no samples")
    return [groups[k] for k in sorted(groups)]


def group_medians(values, keys):
    """The median of each group of values sharing a key, in key order."""
    return [median(g) for g in _groups(values, keys)]


def cycle_mean(values, positions):
    """Mean over request-cycle positions of each position's median. With a
    single position this is the plain median."""
    medians = group_medians(values, positions)
    return sum(medians) / len(medians)


def cycle_spread(values, positions):
    """Mean over positions of each position's quartile distance."""
    widths = [q3 - q1 for q1, _, q3 in map(quartiles, _groups(values, positions))]
    return sum(widths) / len(widths)
