"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

MIN_TAIL = 10  # samples that must lie beyond a reported percentile


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(n: int, min_tail: int = MIN_TAIL):
    """Highest whole percentile (50..99) with at least `min_tail` of `n`
    samples beyond it under the nearest-rank rule; None if even the median
    has fewer."""
    best = None
    for p in range(50, 100):
        if n - math.ceil(p / 100.0 * n) >= min_tail:
            best = p
    return best
