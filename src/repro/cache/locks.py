"""Lock/unlock and atomic multiple lock/unlock on the cache protocol
(§5.3.2–5.3.3, Figs 5.4/5.5).

The busy-waiting is *cache-local*: a waiting processor spins on its own
valid copy (pure cache hits, zero memory traffic) until the holder's
read-invalidate snatches the line; the resulting miss re-reads the lock,
and if it came back free the waiter competes with a test-and-set.  The
whole lock transfer costs about three memory accesses (write-back by the
old holder, read by the new holder, read-invalidate by the new holder) —
measured by the Fig 5.4 benchmark.

:class:`MultiLockSystem` is the same machinery over bitmap patterns via
multiple test-and-set: a processor acquires *all* of its requested locks
or none, eliminating the deadlocks of incremental lock acquisition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.block import Block
from repro.cache.protocol import CacheSystem, CpuOp
from repro.cache.sync_ops import MultipleTestAndSet, ReadModifyWrite
from repro.sim.engine import run_until


class _Phase(enum.Enum):
    IDLE = "idle"
    READING = "reading"
    SPINNING = "spinning"
    TAS = "tas"
    CRITICAL = "critical"
    UNLOCKING = "unlocking"
    DONE = "done"


@dataclass
class LockAcquisition:
    proc: int
    requested_slot: int
    acquired_slot: int
    released_slot: int
    spin_reads: int  # local cache-hit spins (cost nothing on the network)
    memory_ops: int  # block accesses actually issued

    @property
    def wait(self) -> int:
        return self.acquired_slot - self.requested_slot


class _Client:
    """One processor: lock → critical section → unlock, via the protocol."""

    def __init__(self, sys_: "CacheLockSystem", proc: int, cs_cycles: int,
                 pattern: Optional[List[int]] = None):
        self.sys = sys_
        self.proc = proc
        self.cs_cycles = cs_cycles
        self.pattern = pattern  # None → simple lock on word 0
        self.phase = _Phase.IDLE
        self.requested_slot = -1
        self.acquired_slot = -1
        self.spin_reads = 0
        self.memory_ops = 0
        self._cs_end = -1
        self._op: Optional[object] = None

    # -- helpers ------------------------------------------------------------

    def _free_in(self, block: Block) -> bool:
        if self.pattern is None:
            return block[0].value == 0
        return not any(
            w.value and p for w, p in zip(block.words, self.pattern)
        )

    def _load(self) -> None:
        self.phase = _Phase.READING
        self._op = self.sys.cache.load(self.proc, self.sys.lock_offset)

    def _tas(self) -> None:
        self.phase = _Phase.TAS
        if self.pattern is None:
            self._op = ReadModifyWrite(
                self.sys.cache, self.proc, self.sys.lock_offset,
                lambda old: {0: 1} if old[0].value == 0 else {},
            ).start()
        else:
            self._op = MultipleTestAndSet(
                self.sys.cache, self.proc, self.sys.lock_offset, self.pattern
            ).start()

    def _unlock(self) -> None:
        self.phase = _Phase.UNLOCKING
        if self.pattern is None:
            self._op = ReadModifyWrite(
                self.sys.cache, self.proc, self.sys.lock_offset, lambda old: {0: 0}
            ).start()
        else:
            self._op = MultipleTestAndSet(
                self.sys.cache, self.proc, self.sys.lock_offset, self.pattern,
                clear=True,
            ).start()

    def _tas_succeeded(self) -> bool:
        op = self._op
        if isinstance(op, MultipleTestAndSet):
            return op.failed is False
        assert isinstance(op, ReadModifyWrite)
        assert op.old_block is not None
        return op.old_block[0].value == 0

    # -- state machine -----------------------------------------------------------

    def start(self) -> None:
        self.requested_slot = self.sys.cache.slot
        self._load()

    def step(self) -> None:
        slot = self.sys.cache.slot
        if self.phase in (_Phase.READING, _Phase.SPINNING):
            op = self._op
            assert isinstance(op, CpuOp)
            if not op.done:
                return
            if self.phase is _Phase.SPINNING and op.was_hit:
                self.spin_reads += 1
            else:
                self.memory_ops += op.memory_accesses
            assert op.result is not None
            if self._free_in(op.result):
                self._tas()
            else:
                # Spin on the local copy: subsequent loads are cache hits
                # until the holder's read-invalidate drops the line.
                self.phase = _Phase.SPINNING
                self._op = self.sys.cache.load(self.proc, self.sys.lock_offset)
        elif self.phase is _Phase.TAS:
            op = self._op
            assert isinstance(op, (ReadModifyWrite, MultipleTestAndSet))
            if not op.done:
                return
            self.memory_ops += 2  # read-invalidate + write-back
            if self._tas_succeeded():
                self.acquired_slot = slot
                self._cs_end = slot + self.cs_cycles
                self.phase = _Phase.CRITICAL
            else:
                self.phase = _Phase.SPINNING
                self._op = self.sys.cache.load(self.proc, self.sys.lock_offset)
        elif self.phase is _Phase.CRITICAL:
            if slot >= self._cs_end:
                self._unlock()
        elif self.phase is _Phase.UNLOCKING:
            op = self._op
            assert isinstance(op, (ReadModifyWrite, MultipleTestAndSet))
            if not op.done:
                return
            self.memory_ops += 2
            self.sys.acquisitions.append(
                LockAcquisition(
                    proc=self.proc,
                    requested_slot=self.requested_slot,
                    acquired_slot=self.acquired_slot,
                    released_slot=slot,
                    spin_reads=self.spin_reads,
                    memory_ops=self.memory_ops,
                )
            )
            self.phase = _Phase.DONE


def _run_clients(cache: CacheSystem, clients: Sequence[_Client],
                 max_slots: int, what: str) -> None:
    """Start every client, then step them all and tick ``cache`` once per
    slot until each is done; strict timeout at ``start + max_slots``."""
    for c in clients:
        c.start()

    def step() -> None:
        for c in clients:
            c.step()
        cache.tick()

    def stuck() -> List[str]:
        return [f"proc {c.proc} {c.phase.value}"
                for c in clients if c.phase is not _Phase.DONE] + cache._stuck()

    run_until(step, lambda: all(c.phase is _Phase.DONE for c in clients),
              lambda: cache.mem.slot, max_slots, what, stuck)


class CacheLockSystem:
    """N processors contending for one simple lock on the cache protocol."""

    def __init__(self, n_procs: int, bank_cycle: int = 1, cs_cycles: int = 8,
                 lock_offset: int = 0,
                 contenders: Optional[Sequence[int]] = None):
        self.cache = CacheSystem(n_procs, bank_cycle=bank_cycle)
        self.lock_offset = lock_offset
        self.cache.mem.poke_block(lock_offset, Block.zeros(self.cache.cfg.n_banks))
        procs = list(contenders) if contenders is not None else list(range(n_procs))
        self.clients = [_Client(self, p, cs_cycles) for p in procs]
        self.acquisitions: List[LockAcquisition] = []

    def run(self, max_slots: int = 400_000) -> List[LockAcquisition]:
        _run_clients(self.cache, self.clients, max_slots, "lock clients")
        return self.acquisitions

    @property
    def mutual_exclusion_held(self) -> bool:
        spans = sorted((a.acquired_slot, a.released_slot) for a in self.acquisitions)
        return all(b0 > r0 for (_, r0), (b0, _) in zip(spans, spans[1:]))


class MultiLockSystem:
    """Clients acquiring bitmap lock *sets* atomically (Fig 5.5 semantics)."""

    def __init__(self, n_procs: int, patterns: Dict[int, Sequence[int]],
                 bank_cycle: int = 1, cs_cycles: int = 8, lock_offset: int = 0):
        self.cache = CacheSystem(n_procs, bank_cycle=bank_cycle)
        self.lock_offset = lock_offset
        self.cache.mem.poke_block(lock_offset, Block.zeros(self.cache.cfg.n_banks))
        self.clients = [
            _Client(self, p, cs_cycles, pattern=list(pat))
            for p, pat in patterns.items()
        ]
        self.acquisitions: List[LockAcquisition] = []

    def run(self, max_slots: int = 400_000) -> List[LockAcquisition]:
        _run_clients(self.cache, self.clients, max_slots, "multi-lock clients")
        return self.acquisitions

    def overlapping_exclusion_held(self) -> bool:
        """Clients with intersecting patterns must not overlap in time."""
        accs = {a.proc: a for a in self.acquisitions}
        clients = {c.proc: c for c in self.clients}
        procs = list(accs)
        for i, p in enumerate(procs):
            for q in procs[i + 1:]:
                pa, pb = clients[p].pattern, clients[q].pattern
                assert pa is not None and pb is not None
                if not any(x & y for x, y in zip(pa, pb)):
                    continue  # disjoint lock sets may overlap freely
                a, b = accs[p], accs[q]
                if a.acquired_slot <= b.released_slot and b.acquired_slot <= a.released_slot:
                    if not (a.released_slot < b.acquired_slot or b.released_slot < a.acquired_slot):
                        return False
        return True
