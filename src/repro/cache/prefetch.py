"""Software-controlled prefetching on the CFM cache (§3.1.4, §3.4.4).

The paper's answer to long block latencies: "software controlled
prefetching techniques hide large latencies by bringing data close to
processors before it is actually needed".  On the CFM this is especially
cheap — prefetch traffic, like all traffic, causes no contention.

:class:`PrefetchingClient` runs a processor through an access stream with
a compute gap between demand loads, issuing a sequential next-line
prefetch after each demand access; the prefetch overlaps the compute gap,
converting the next demand miss into a hit.  The benchmark compares mean
demand latency with and without prefetching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cache.protocol import CacheSystem, CpuOp
from repro.sim.engine import run_until


class _Phase(enum.Enum):
    DEMAND = "demand"
    COMPUTE = "compute"
    DONE = "done"


@dataclass
class PrefetchStats:
    demand_latencies: List[int]
    demand_hits: int
    prefetches_issued: int

    @property
    def mean_latency(self) -> float:
        if not self.demand_latencies:
            raise ValueError("no demand accesses recorded")
        return sum(self.demand_latencies) / len(self.demand_latencies)

    @property
    def hit_rate(self) -> float:
        if not self.demand_latencies:
            return 0.0
        return self.demand_hits / len(self.demand_latencies)


class PrefetchingClient:
    """One processor streaming through ``stream`` with optional next-line
    prefetch ``distance`` blocks ahead (0 disables prefetching)."""

    def __init__(
        self,
        system: CacheSystem,
        proc: int,
        stream: Sequence[int],
        compute_gap: int = 12,
        distance: int = 1,
    ):
        if compute_gap < 0 or distance < 0:
            raise ValueError("compute_gap and distance must be >= 0")
        self.sys = system
        self.proc = proc
        self.stream = list(stream)
        self.compute_gap = compute_gap
        self.distance = distance
        self.idx = 0
        self.phase = _Phase.DEMAND if self.stream else _Phase.DONE
        self._op: Optional[CpuOp] = None
        self._compute_end = -1
        self._started = False
        self.stats = PrefetchStats([], 0, 0)

    def _issue_demand(self) -> None:
        offset = self.stream[self.idx]
        self._op = self.sys.load(self.proc, offset)
        # Queue the prefetch right behind the demand load: it is served
        # during the compute gap and warms the next block.
        if self.distance > 0 and self.idx + self.distance < len(self.stream):
            ahead = self.stream[self.idx + self.distance]
            if self.sys.dirs[self.proc].lookup(ahead) is None:
                self.sys.load(self.proc, ahead)
                self.stats.prefetches_issued += 1

    def step(self) -> None:
        slot = self.sys.slot
        if self.phase is _Phase.DEMAND:
            if not self._started:
                self._issue_demand()
                self._started = True
                return
            op = self._op
            assert op is not None
            if not op.done:
                return
            self.stats.demand_latencies.append(op.latency)
            if op.was_hit:
                self.stats.demand_hits += 1
            self.idx += 1
            if self.idx >= len(self.stream):
                self.phase = _Phase.DONE
                return
            self._compute_end = slot + self.compute_gap
            self.phase = _Phase.COMPUTE
        elif self.phase is _Phase.COMPUTE:
            if slot >= self._compute_end:
                self.phase = _Phase.DEMAND
                self._started = False

    @property
    def done(self) -> bool:
        return self.phase is _Phase.DONE


def run_stream(
    n_procs: int = 4,
    length: int = 32,
    compute_gap: int = 12,
    distance: int = 1,
    proc: int = 0,
) -> PrefetchStats:
    """Run one sequential-scan client; returns its demand-access stats."""
    sys_ = CacheSystem(n_procs, n_lines=max(64, 2 * length))
    client = PrefetchingClient(
        sys_, proc, list(range(1, length + 1)), compute_gap, distance
    )

    def step() -> None:
        client.step()
        sys_.tick()

    run_until(step, lambda: client.done, lambda: sys_.mem.slot, 200_000,
              "prefetch stream",
              lambda: [f"proc {proc} {client.phase.value} at stream "
                       f"index {client.idx}"] + sys_._stuck())
    return client.stats
