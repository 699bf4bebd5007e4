"""Summary statistics and span arithmetic for the repository benchmark.

Pure functions, no I/O: perfbench/run.py aggregates with them and
perfbench/test_perfbench.py checks them.
"""

import statistics

# A tail percentile is reported only where at least this many samples
# lie beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail(values, higher_is_worse=True):
    """The most extreme percentile that still has TAIL_SAMPLES_BEYOND
    samples beyond it on the worse side, as (percentile, value, n); None
    when there are too few samples for one. Where lower is worse the tail
    is a low percentile."""
    n = len(values)
    if n <= TAIL_SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    if higher_is_worse:
        index = n - TAIL_SAMPLES_BEYOND - 1
        return 100.0 * (index + 1) / n, ordered[index], n
    index = TAIL_SAMPLES_BEYOND
    return 100.0 * index / n, ordered[index], n


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans):
    """Maps span id -> self time: the span's duration minus the part of
    its interval its child spans cover. Spans are dicts with id, start,
    end and parent (-1 for a root)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


def self_time_by_name(spans):
    """Maps span name -> (total self time, total ops) over all spans of
    that name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        t, ops = totals.get(s["name"], (0, 0))
        totals[s["name"]] = (t + own[s["id"]], ops + s["ops"])
    return totals
