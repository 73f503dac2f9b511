"""Statistics helpers of the dmpb benchmark (see README.md).

Spans are dicts with at least ``name``, ``start_ns``, ``end_ns`` and
``parent`` (index of the parent span in the same list, -1 for a root),
as perfbench_driver and run.py record them.
"""

import math


def percentile(values, pct, min_beyond=10):
    """Nearest-rank ``pct`` percentile of ``values``.

    Returns ``(value, n)``. ``value`` is None unless at least
    ``min_beyond`` samples lie strictly above the percentile's rank, so
    a tail figure is never read off a handful of samples; ``n`` is
    always the sample count.
    """
    n = len(values)
    if n == 0 or not 0 < pct < 100:
        return None, n
    rank = math.ceil(pct / 100.0 * n)
    if n - rank < min_beyond:
        return None, n
    return sorted(values)[rank - 1], n


def self_times_ns(spans):
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent work); the covered part
    is the union of their intervals, clipped to the parent.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span["parent"]
        if 0 <= parent < len(spans):
            children[parent].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        intervals = sorted(
            (max(start, spans[c]["start_ns"]), min(end, spans[c]["end_ns"]))
            for c in children[i])
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per span name: calls, summed duration and self time (seconds),
    and the summed ``count`` field."""
    selfs = self_times_ns(spans)
    table = {}
    for span, self_ns in zip(spans, selfs):
        row = table.setdefault(span["name"], {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["total_s"] += (span["end_ns"] - span["start_ns"]) * 1e-9
        row["self_s"] += self_ns * 1e-9
        row["count"] += span.get("count", 0)
    return table
