"""Processor allocation in partially conflict-free systems (§7.2).

The paper lists "efficient processor allocation schemes that will reduce
memory, network, or network controller contention" as future work; the
degree of freedom is *which AT-space division each processor is assigned*.
This module makes the knob concrete:

* ``ALIGNED`` — the canonical assignment (one processor per division per
  cluster): cluster members never contend;
* ``RANDOM`` — divisions drawn at random: clusters collide internally;
* ``ADVERSARIAL`` — everyone in division 0: worst case, the whole machine
  serializes per module.

The ablation benchmark measures the efficiency cost of each.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.network.partial import PartialCFSystem
from repro.sim.rng import SeedLike, derive_stream


class AllocationStrategy(enum.Enum):
    """Processor-to-division assignment strategies (§7.2)."""
    ALIGNED = "aligned"
    RANDOM = "random"
    ADVERSARIAL = "adversarial"


def make_division_map(
    n_procs: int,
    divisions: int,
    strategy: AllocationStrategy,
    seed: SeedLike = 0,
) -> List[int]:
    """Per-processor AT-space division assignment under ``strategy``."""
    if n_procs <= 0 or divisions <= 0:
        raise ValueError("n_procs and divisions must be positive")
    if strategy is AllocationStrategy.ALIGNED:
        return [p % divisions for p in range(n_procs)]
    if strategy is AllocationStrategy.ADVERSARIAL:
        return [0] * n_procs
    rng = derive_stream(seed, "allocation", n_procs, divisions)
    return [rng.integers(0, divisions) for _ in range(n_procs)]


class AllocatedPartialCFSystem(PartialCFSystem):
    """A partially conflict-free system with an explicit division map."""

    def __init__(
        self,
        n_procs: int,
        n_modules: int,
        strategy: AllocationStrategy = AllocationStrategy.ALIGNED,
        bank_cycle: int = 1,
        seed: SeedLike = 0,
        word_width: int = 32,
    ):
        super().__init__(n_procs, n_modules, bank_cycle=bank_cycle,
                         word_width=word_width)
        self.strategy = strategy
        self._division_map = make_division_map(
            n_procs, self.divisions_per_module, strategy, seed
        )
        # The precomputed division table is the source of truth for the
        # base class's hot resource_key path — overwrite it with ours.
        self._division = tuple(self._division_map)

    def division_of(self, proc: int) -> int:
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"proc {proc} out of range")
        return self._division_map[proc]

    def intra_cluster_collisions(self) -> int:
        """Pairs of same-cluster processors sharing a division — zero for
        the aligned allocation, the direct cause of lost parallelism."""
        count = 0
        for c in range(self.n_clusters):
            members = [p for p in range(self.n_procs) if self.cluster_of(p) == c]
            divs = [self.division_of(p) for p in members]
            count += len(divs) - len(set(divs))
        return count
