"""Order statistics shared by the benchmark, its compare tool and tests.

Quartiles use :func:`statistics.quantiles` with ``n=4`` (its default
"exclusive" method), the same call the acceptance check applies to the
ten runs of a workload, so the spread printed here is the spread that
check sees.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    q1, _, q3 = quartiles(values)
    return q3 - q1


def relative_spread(values: Sequence[float]) -> float:
    """IQR as a share of the median (``inf`` for a zero median)."""
    mid = median(values)
    if mid == 0.0:
        return math.inf
    return iqr(values) / abs(mid)
