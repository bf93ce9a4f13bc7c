"""The OMP orthogonal-access memory (§2.1.3) — the stall the CFM removes.

In an n-processor OMP, n² banks form an n×n mesh and all processors
synchronously alternate between *row mode* and *column mode*.  "The
scheme, however, introduces long delays when a processor attempts a row
or column access during a column or row mode" — a request in the wrong
phase stalls until the mode comes around.

The CFM's block accesses, by contrast, "can start at any time slot"
(§3.1.1): zero alignment stall.  This model measures the OMP's expected
stall under random access phases, the number the comparison benchmarks
cite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.rng import SeedLike, derive_stream


class AccessMode(enum.Enum):
    """The OMP's synchronized access modes (§2.1.3)."""
    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class OMPConfig:
    n_procs: int
    mode_cycles: int  # cycles each mode lasts (an n-element row access)

    def __post_init__(self) -> None:
        if self.n_procs <= 0 or self.mode_cycles <= 0:
            raise ValueError("n_procs and mode_cycles must be positive")

    @property
    def n_banks(self) -> int:
        """The §2.1.3 cost the paper flags: n² banks for n processors
        (the CFM needs only c·n)."""
        return self.n_procs * self.n_procs

    @property
    def period(self) -> int:
        return 2 * self.mode_cycles


class OrthogonalMemory:
    """Mode-synchronized orthogonal memory: stalls for wrong-phase requests."""

    def __init__(self, config: OMPConfig):
        self.cfg = config

    def mode_at(self, cycle: int) -> AccessMode:
        phase = cycle % self.cfg.period
        return AccessMode.ROW if phase < self.cfg.mode_cycles else AccessMode.COLUMN

    def stall(self, cycle: int, wanted: AccessMode) -> int:
        """Cycles a ``wanted``-mode request issued at ``cycle`` must wait
        before its mode window opens wide enough to serve it."""
        m = self.cfg.mode_cycles
        phase = cycle % self.cfg.period
        if wanted is AccessMode.ROW:
            window_start, window_end = 0, m
        else:
            window_start, window_end = m, 2 * m
        # The access needs the FULL mode window remaining? No — it needs to
        # start at a window boundary (the OMP is fully synchronized), so a
        # mid-window arrival waits for the next window of its mode.
        if phase == window_start:
            return 0
        if window_start < phase:
            return (self.cfg.period - phase) + window_start
        return window_start - phase

    def access_latency(self, cycle: int, wanted: AccessMode) -> int:
        return self.stall(cycle, wanted) + self.cfg.mode_cycles

    def mean_stall(self, samples: int = 10_000, seed: SeedLike = 0) -> float:
        """Expected stall for uniformly random phases and modes.

        Analytically (period − 1)/2 ≈ mode_cycles − ½ for the synchronized
        design; measured here by sampling."""
        rng = derive_stream(seed, "omp_stall", self.cfg.n_procs, self.cfg.mode_cycles)
        total = 0
        for _ in range(samples):
            cycle = rng.integers(0, self.cfg.period)
            mode = AccessMode.ROW if rng.random() < 0.5 else AccessMode.COLUMN
            total += self.stall(cycle, mode)
        return total / samples


def cfm_alignment_stall() -> int:
    """The CFM's alignment stall: zero, at any issue slot (§3.1.1)."""
    return 0


def bank_cost_comparison(n_procs: int, bank_cycle: int = 1) -> Tuple[int, int]:
    """(OMP banks, CFM banks) for the same processor count — the n² vs c·n
    hardware-cost contrast of §2.1.3."""
    if n_procs <= 0:
        raise ValueError("n_procs must be positive")
    return n_procs * n_procs, bank_cycle * n_procs
