"""Resource binding on the CFM architecture (§6.5.1).

For coarse-granularity shared structures the paper prescribes the direct
hardware mapping: "they can be divided into components, with each
component controlled by a lock ... a binding target can consist of
multiple components and can be bound by applying an **atomic multiple
lock** to the components."

This backend realizes that on the Chapter 5 machine: the shared structure
is split into up to *b* components whose lock bits live in one memory
block (word *k* of the block is component *k*'s lock); a bind issues the
block-wide multiple test-and-set of §5.3.3 (read-invalidate → compare →
write-back), busy-waiting on the processor's *local cached copy* between
attempts; an unbind atomically clears exactly the held bits.  All-or-
nothing acquisition makes incremental-lock deadlocks unreachable.

:class:`CFMBindingSystem` runs client programs (sequences of
bind-work-unbind steps) as slot-accurate state machines over
:class:`repro.cache.protocol.CacheSystem`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.binding.region import DimRange, Region
from repro.cache.protocol import CacheSystem, CpuOp
from repro.cache.sync_ops import MultipleTestAndSet
from repro.core.block import Block
from repro.sim.engine import run_until


def region_to_pattern(region: Region, n_components: int,
                      elems_per_component: int = 1) -> List[int]:
    """Map a 1-D region onto its component lock bitmap.

    Element *e* belongs to component ``e // elems_per_component``; the
    pattern has a 1 for every component the region touches (granularity
    information "collected during program compilation", §6.5.1)."""
    if elems_per_component <= 0:
        raise ValueError("elems_per_component must be positive")
    pattern = [0] * n_components
    for sel in region.selectors:
        if isinstance(sel, str):
            continue  # field selectors do not change element coverage
        for e in range(sel.start, sel.stop, sel.step):
            comp = e // elems_per_component
            if not 0 <= comp < n_components:
                raise ValueError(
                    f"element {e} maps to component {comp}, outside "
                    f"[0, {n_components})"
                )
            pattern[comp] = 1
        break  # the first index range determines element coverage
    if not any(pattern):
        raise ValueError(f"region {region.describe()} covers no component")
    return pattern


class _Phase(enum.Enum):
    IDLE = "idle"
    TAS = "tas"
    SPIN = "spin"
    WORK = "work"
    CLEAR = "clear"
    DONE = "done"


@dataclass(frozen=True)
class BindStep:
    """One bind → work → unbind step of a client program."""

    pattern: Tuple[int, ...]
    work_cycles: int = 4


@dataclass
class BindRecord:
    proc: int
    step: int
    pattern: Tuple[int, ...]
    requested_slot: int
    acquired_slot: int
    released_slot: int
    attempts: int

    @property
    def wait(self) -> int:
        return self.acquired_slot - self.requested_slot


class _BindClient:
    def __init__(self, sys_: "CFMBindingSystem", proc: int,
                 steps: Sequence[BindStep]):
        self.sys = sys_
        self.proc = proc
        self.steps = list(steps)
        self.idx = 0
        self.phase = _Phase.IDLE
        self.attempts = 0
        self.requested_slot = -1
        self.acquired_slot = -1
        self._work_end = -1
        self._op: Optional[object] = None

    def _current(self) -> BindStep:
        return self.steps[self.idx]

    def _tas(self) -> None:
        self.phase = _Phase.TAS
        self.attempts += 1
        self._op = MultipleTestAndSet(
            self.sys.cache, self.proc, self.sys.lock_offset,
            list(self._current().pattern),
        ).start()

    def _spin(self) -> None:
        """Busy-wait on the (cached) lock block until our bits look free."""
        self.phase = _Phase.SPIN
        self._op = self.sys.cache.load(self.proc, self.sys.lock_offset)

    def _clear(self) -> None:
        self.phase = _Phase.CLEAR
        self._op = MultipleTestAndSet(
            self.sys.cache, self.proc, self.sys.lock_offset,
            list(self._current().pattern), clear=True,
        ).start()

    def step_machine(self) -> None:
        slot = self.sys.cache.slot
        if self.phase is _Phase.IDLE:
            if self.idx >= len(self.steps):
                self.phase = _Phase.DONE
                return
            self.requested_slot = slot
            self.attempts = 0
            self._tas()
        elif self.phase is _Phase.TAS:
            op = self._op
            assert isinstance(op, MultipleTestAndSet)
            if not op.done:
                return
            if op.failed is False:
                self.acquired_slot = slot
                self._work_end = slot + self._current().work_cycles
                self.phase = _Phase.WORK
            else:
                self._spin()
        elif self.phase is _Phase.SPIN:
            op = self._op
            assert isinstance(op, CpuOp)
            if not op.done:
                return
            assert op.result is not None
            free = not any(
                w.value and p
                for w, p in zip(op.result.words, self._current().pattern)
            )
            if free:
                self._tas()
            else:
                self._spin()
        elif self.phase is _Phase.WORK:
            if slot >= self._work_end:
                self._clear()
        elif self.phase is _Phase.CLEAR:
            op = self._op
            assert isinstance(op, MultipleTestAndSet)
            if not op.done:
                return
            self.sys.records.append(
                BindRecord(
                    proc=self.proc,
                    step=self.idx,
                    pattern=self._current().pattern,
                    requested_slot=self.requested_slot,
                    acquired_slot=self.acquired_slot,
                    released_slot=slot,
                    attempts=self.attempts,
                )
            )
            self.idx += 1
            self.phase = _Phase.IDLE


class CFMBindingSystem:
    """Executes bind/unbind programs on the CFM cache protocol."""

    def __init__(self, n_procs: int, lock_offset: int = 0,
                 bank_cycle: int = 1):
        self.cache = CacheSystem(n_procs, bank_cycle=bank_cycle)
        self.lock_offset = lock_offset
        self.n_components = self.cache.cfg.n_banks
        self.cache.mem.poke_block(lock_offset, Block.zeros(self.n_components))
        self.records: List[BindRecord] = []
        self._clients: List[_BindClient] = []

    def add_program(self, proc: int, steps: Sequence[BindStep]) -> None:
        for s in steps:
            if len(s.pattern) != self.n_components:
                raise ValueError(
                    f"pattern needs {self.n_components} bits, got "
                    f"{len(s.pattern)}"
                )
        self._clients.append(_BindClient(self, proc, steps))

    def add_region_program(
        self, proc: int, regions: Sequence[Region], work_cycles: int = 4,
        elems_per_component: int = 1,
    ) -> None:
        """Compile regions to lock patterns and add the program."""
        steps = [
            BindStep(
                tuple(region_to_pattern(r, self.n_components,
                                        elems_per_component)),
                work_cycles,
            )
            for r in regions
        ]
        self.add_program(proc, steps)

    def run(self, max_slots: int = 400_000) -> List[BindRecord]:
        run_until(self._step, self._all_done, lambda: self.cache.mem.slot,
                  max_slots, "binding clients", self._stuck)
        return self.records

    def _step(self) -> None:
        for c in self._clients:
            c.step_machine()
        self.cache.tick()

    def _all_done(self) -> bool:
        return all(c.phase is _Phase.DONE for c in self._clients)

    def _stuck(self) -> List[str]:
        return [f"proc {c.proc} step {c.idx} {c.phase.value}"
                for c in self._clients
                if c.phase is not _Phase.DONE] + self.cache._stuck()

    def exclusion_held(self) -> bool:
        """No two overlapping-pattern holds may overlap in time."""
        for i, a in enumerate(self.records):
            for b in self.records[i + 1:]:
                if a.proc == b.proc:
                    continue
                if not any(x & y for x, y in zip(a.pattern, b.pattern)):
                    continue
                if (a.acquired_slot <= b.released_slot
                        and b.acquired_slot <= a.released_slot):
                    if not (a.released_slot < b.acquired_slot
                            or b.released_slot < a.acquired_slot):
                        return False
        return True
