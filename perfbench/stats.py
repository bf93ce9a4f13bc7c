"""Order statistics used by every workload."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Midpoint median; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def block_percentile(values: Sequence[float], q: float,
                     block: int = 1000) -> float:
    """Median over successive blocks of at least ``block`` values of each
    block's ``q``-quantile (one block when there are fewer values).

    With ``q = 0.99`` and ``block = 1000`` every block has at least ten
    values above its percentile; taking the median across blocks keeps one
    stalled stretch of a run from setting the whole run's tail."""
    n_blocks = max(1, len(values) // block)
    size = len(values) // n_blocks if values else 0
    blocks = [values[k * size:(k + 1) * size if k < n_blocks - 1 else None]
              for k in range(n_blocks)]
    return median([percentile(b, q) for b in blocks])


def window_rate(times: Sequence[float], start: float, end: float,
                width: float = 1.0) -> float:
    """Median over successive ``width``-second windows of ``[start, end)``
    of events per second (all of ``[start, end)`` if shorter)."""
    n_windows = max(1, int((end - start) // width))
    width = (end - start) / n_windows
    counts = [0] * n_windows
    for t in times:
        if start <= t < end:
            counts[min(n_windows - 1, int((t - start) // width))] += 1
    return median([c / width for c in counts])
