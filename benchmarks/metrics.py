"""Latency statistics and span accounting for the dheis benchmark."""

import math
import statistics

# a failed request misses every latency limit: it ranks after every success
FAILED = math.inf
TAIL_BEYOND = 10


def ranked(latencies, failed):
    """Latencies in ascending order, each failed request as +inf."""
    return sorted(FAILED if bad else t for t, bad in zip(latencies, failed))


def p50(latencies, failed) -> float:
    return statistics.median(ranked(latencies, failed))


def tail(latencies, failed):
    """(value, percentile, samples beyond) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it; with fewer samples than that, the
    smallest value and the count actually beyond it."""
    xs = ranked(latencies, failed)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - i - 1


def failed_share(failed) -> float:
    return sum(failed) / len(failed)


def self_times(parent, start, end):
    """Per-span self time: duration minus the part of the span's interval
    that its direct child spans cover (overlaps counted once)."""
    kids = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i, children in enumerate(kids):
        s, e = start[i], end[i]
        covered, reach = 0.0, s
        for j in sorted(children, key=start.__getitem__):
            lo, hi = max(start[j], reach), min(end[j], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out
