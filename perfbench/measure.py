"""Pure helpers: percentiles, span aggregation and failure classification.

Kept free of I/O so the benchmark's own tests can drive them directly.
"""

from __future__ import annotations

import json
import math

# The tail is the highest of these percentiles that still has at least
# TAIL_BEYOND samples above it.  A fixed grid keeps the reported percentile
# the same from run to run when the sample count moves a little.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def _rank(p, n):
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """The highest grid percentile with at least TAIL_BEYOND of ``n``
    samples strictly beyond its rank; 100 (the maximum) when the run is too
    short for any."""
    for p in TAIL_GRID:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    return 100.0


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# spans

def layer_of(name):
    return name.split(".", 1)[0]


def aggregate(names, spans):
    """Self time per layer and inclusive time per span name.

    ``spans`` holds ``(name_index, start, end, parent_index)``; a span's
    self time is its duration minus the durations of its direct children.
    Inclusive time per name counts only outermost spans of that name, so a
    recursive call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {}
    inclusive = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        layer = layer_of(name)
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i]
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == nid:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return self_time, inclusive


# ---------------------------------------------------------------------------
# correctness gate

def classify_failure(call, code, out, err, timed_out, reference):
    """Why a call failed, or None when it behaved as its construction
    implies.  ``reference`` is an earlier stdout of the same call (or
    None); any difference from it is a failure."""
    if timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in err or \
            b"Traceback (most recent call last)" in out:
        return "traceback"
    if reference is not None and out != reference:
        return "stdout-differs"
    if code != call.exit_code:
        return "exit-code"
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "unparsable"
    if last.get("verdict") != call.verdict:
        return "verdict"
    for key, want in call.fields.items():
        if last.get(key) != want:
            return "field:%s" % key
    return None
