"""Percentile rule for timing samples."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def nearest_rank(sorted_values, pct: int) -> float:
    """The pct-th percentile by the nearest-rank method."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest whole percentile (50..99) with at least ``beyond`` samples above it.

    Returns ``(pct, value)``, or None when even the median has fewer than
    ``beyond`` samples above it; the caller then reports only the median.
    """
    xs = sorted(values)
    for pct in range(99, 49, -1):
        q = nearest_rank(xs, pct)
        if sum(1 for x in xs if x > q) >= beyond:
            return pct, q
    return None
