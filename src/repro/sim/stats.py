"""Measurement utilities for the benchmark harness.

Plain-Python accumulators with O(1) update cost so they can sit inside the
cycle loop without becoming the bottleneck (the guides' rule: measure, don't
guess — these are the measuring instruments).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple


class TallyCounter:
    """Named integer counters (``counter.incr("retries")``)."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def incr(self, name: str, by: int = 1) -> None:
        self._counts[name] += by

    def __getitem__(self, name: str) -> int:
        return self._counts[name]

    def get(self, name: str, default: int = 0) -> int:
        return self._counts.get(name, default)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TallyCounter({dict(self._counts)!r})"


class RunningStats:
    """Welford online mean/variance accumulator.

    Empty-accumulator contract: every statistic (``mean``, ``variance``,
    ``stddev``, ``minimum``, ``maximum``) raises ``ValueError("no samples")``
    when no sample has been added.  With exactly one sample the (sample)
    variance is defined as 0.0.
    """

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self._min = x if self._min is None else min(self._min, x)
        self._max = x if self._max is None else max(self._max, x)

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        if self.n == 0:
            raise ValueError("no samples")
        if self.n == 1:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError("no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError("no samples")
        return self._max


class Histogram:
    """Integer-valued histogram (e.g. latency distributions)."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def add(self, value: int, count: int = 1) -> None:
        self._counts[int(value)] += count

    def total(self) -> int:
        return sum(self._counts.values())

    def mean(self) -> float:
        n = self.total()
        if n == 0:
            raise ValueError("empty histogram")
        return sum(v * c for v, c in self._counts.items()) / n

    def percentile(self, q: float) -> int:
        """Inclusive percentile: smallest value covering fraction ``q``.

        Exact nearest-rank: the target rank is ``ceil(q * n)`` computed in
        integer arithmetic (``q`` lifted to an exact :class:`Fraction`), so
        the float product ``q * n`` can never round across an integer
        boundary and select a rank off by one — the tail gates (p99.9)
        depend on hitting the exact rank.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        n = self.total()
        if n == 0:
            raise ValueError("empty histogram")
        rank = max(1, math.ceil(Fraction(q) * n))
        cum = 0
        for value in sorted(self._counts):
            cum += self._counts[value]
            if cum >= rank:
                return value
        return max(self._counts)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._counts.items())


@dataclass(slots=True)
class Utilization:
    """Busy/total cycle tracking for a resource (bank, port, switch)."""

    busy: int = 0
    total: int = 0

    def tick(self, is_busy: bool) -> None:
        self.total += 1
        if is_busy:
            self.busy += 1

    @property
    def fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.busy / self.total


@dataclass
class LatencyRecord:
    """One completed operation, for trace-level assertions in tests."""

    issued: int
    completed: int
    retries: int = 0
    tag: str = ""

    @property
    def latency(self) -> int:
        return self.completed - self.issued


@dataclass
class RunSummary:
    """Aggregate result of one simulation run, shared by the bench harness."""

    cycles: int = 0
    completed: int = 0
    retries: int = 0
    conflicts: int = 0
    latencies: Histogram = field(default_factory=Histogram)

    @property
    def throughput(self) -> float:
        """Completed accesses per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.completed / self.cycles

    @property
    def mean_latency(self) -> float:
        return self.latencies.mean()

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary (the bench harness's per-run payload core)."""
        empty = self.latencies.total() == 0
        return {
            "cycles": self.cycles,
            "completed": self.completed,
            "retries": self.retries,
            "conflicts": self.conflicts,
            "throughput": self.throughput,
            "latency": {
                "mean": None if empty else self.latencies.mean(),
                "p50": None if empty else self.latencies.percentile(0.5),
                "p99": None if empty else self.latencies.percentile(0.99),
            },
        }

    def efficiency(self, ideal_latency: float) -> float:
        """Measured efficiency: ideal service time over actual mean time.

        Matches the paper's E(r) definition: the ratio of the conflict-free
        access time β to the expected time actually taken (§3.4.1).
        """
        if self.completed == 0:
            return 0.0
        return ideal_latency / self.mean_latency
