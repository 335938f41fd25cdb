"""Order statistics used by every metric."""

from __future__ import annotations

import math
from collections.abc import Sequence


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile: the smallest value with at
    least ``percent``% of the sample at or below it.  0.0 for no values."""
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    # percent * n first: 0.28 * 25 is 7.000000000000001, which would round up to 8.
    rank = math.ceil(percent * len(ordered) / 100)
    return ordered[rank - 1]
