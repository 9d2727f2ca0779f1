"""Order statistics used by the benchmark report (no third-party imports)."""

from __future__ import annotations

import math
import re

# Every metric name the benchmark emits must match this pattern.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def beyond(n: int, pct: int) -> int:
    """Samples ranked strictly above the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct * n / 100.0))


def tail_percentile(n: int) -> int:
    """Highest integer percentile of n samples with TAIL_BEYOND samples beyond it.

    Raises ValueError when n is too small for any percentile to qualify.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return (100 * (n - TAIL_BEYOND)) // n

