"""Summary statistics shared by the workloads and the trace report."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values) -> float:
    """Geometric mean of positive values (0.0 for none)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    """Arithmetic mean (0.0 for none)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
