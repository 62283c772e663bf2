"""Pure statistics for the benchmark: percentile choice, spread,
bound check, and span self time. No I/O; covered by test_perfbench.py.
"""

import math
import statistics

# Candidate percentiles, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail_percentile(values):
    """Highest ladder percentile with >= MIN_BEYOND samples above it.

    Nearest-rank definition: the p-th percentile of n sorted samples
    is element ceil(p/100 * n) - 1, and the samples beyond it are the
    ones after that index. Returns (p, value, beyond), or None when no
    ladder percentile has enough samples beyond it (n < 20).
    """
    xs = sorted(values)
    n = len(xs)
    for p in PERCENTILE_LADDER:
        # round() keeps 99.9% of 10000 at 9990, not 9990.000000000002
        idx = max(0, math.ceil(round(p / 100.0 * n, 9)) - 1)
        beyond = n - 1 - idx
        if beyond >= MIN_BEYOND:
            return p, xs[idx], beyond
    return None


def describe(values):
    """One timing's report: median, tail percentile, sample count."""
    tail = tail_percentile(values)
    return {
        "median": median(values),
        "n": len(values),
        "percentile": None if tail is None else tail[0],
        "percentile_value": None if tail is None else tail[1],
    }


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(parent_median, child_median, better):
    """Share by which child is worse than parent (<= 0: not worse)."""
    if better == "lower":
        return (child_median - parent_median) / parent_median
    return (parent_median - child_median) / parent_median


def within_bound(parent_values, child_values, better, bound):
    """True when the child's median is not worse by more than bound."""
    return worse_by(median(parent_values), median(child_values),
                    better) <= bound


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it its
    children cover (children may overlap each other, e.g. concurrent
    shard processes; covered time counts once). Children are clipped
    to the parent's interval. Spans are dicts with run_id, span_id,
    parent_id, start_ns, end_ns; ids are scoped by run_id. Returns
    {(run_id, span_id): self_ns}.
    """
    children = {}
    for s in spans:
        if s["parent_id"]:
            key = (s["run_id"], s["parent_id"])
            children.setdefault(key, []).append(s)
    out = {}
    for s in spans:
        key = (s["run_id"], s["span_id"])
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [(max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                for c in children.get(key, [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[key] = (hi - lo) - _covered(kids)
    return out
