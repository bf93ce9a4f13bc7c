"""Busy-waiting lock/unlock on the atomic swap (§4.2.2).

    lock(s):   while (swap(1, s)) while (s) ;     unlock(s):  s = 0

The CFM makes busy-waiting *free*: the spinning processors' reads occupy
their own AT-space partitions, so they cause no memory or network
contention and — because writes and swaps have priority over reads — they
never delay the lock holder's unlock.  The hot-spot problem cannot occur.

:class:`SpinLockSystem` runs N contending processors as little state
machines over the address-tracked CFM and reports acquisition order,
per-acquisition latency, and the holder's unlock latency (which must stay
at β regardless of how many processors spin).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.sim.engine import run_until
from repro.tracking.access_control import AddressTrackingController, PriorityMode
from repro.tracking.atomic import CFMDriver, OpStatus, ReadOperation, SwapOperation, WriteOperation


class _ClientState(enum.Enum):
    IDLE = "idle"
    SWAPPING = "swapping"
    SPINNING = "spinning"
    CRITICAL = "critical"
    UNLOCKING = "unlocking"
    DONE = "done"


@dataclass
class Acquisition:
    proc: int
    requested_slot: int
    acquired_slot: int
    released_slot: int

    @property
    def wait(self) -> int:
        return self.acquired_slot - self.requested_slot


class _LockClient:
    """One processor executing lock(); critical section; unlock()."""

    def __init__(self, system: "SpinLockSystem", proc: int, cs_cycles: int):
        self.sys = system
        self.proc = proc
        self.cs_cycles = cs_cycles
        self.state = _ClientState.IDLE
        self.requested_slot = -1
        self.acquired_slot = -1
        self._op: Optional[object] = None
        self._cs_end = -1

    def start(self) -> None:
        self.requested_slot = self.sys.driver.slot
        self._try_swap()

    def _try_swap(self) -> None:
        self.state = _ClientState.SWAPPING
        width = self.sys.mem.n_banks
        self._op = SwapOperation(
            self.sys.driver, self.proc, self.sys.lock_offset,
            [1] * width, version=f"lock-p{self.proc}",
        ).start()

    def _spin_read(self) -> None:
        self.state = _ClientState.SPINNING
        self._op = ReadOperation(self.sys.driver, self.proc, self.sys.lock_offset).start()

    def step(self) -> None:
        """Advance the client state machine (called once per slot)."""
        slot = self.sys.driver.slot
        if self.state is _ClientState.SWAPPING:
            op = self._op
            assert isinstance(op, SwapOperation)
            if op.status is OpStatus.DONE:
                assert op.old_block is not None
                if all(v == 0 for v in op.old_block.values):
                    # swap returned 0: the lock was free and is now ours.
                    self.acquired_slot = slot
                    self._cs_end = slot + self.cs_cycles
                    self.state = _ClientState.CRITICAL
                    self.sys.holder = self.proc
                else:
                    self._spin_read()
        elif self.state is _ClientState.SPINNING:
            op = self._op
            assert isinstance(op, ReadOperation)
            if op.status is OpStatus.DONE:
                assert op.result is not None
                if all(v == 0 for v in op.result.values):
                    self._try_swap()  # lock looked free: compete for it
                else:
                    self._spin_read()  # still held: keep busy-waiting
        elif self.state is _ClientState.CRITICAL:
            if slot >= self._cs_end:
                self.state = _ClientState.UNLOCKING
                width = self.sys.mem.n_banks
                self._op = WriteOperation(
                    self.sys.driver, self.proc, self.sys.lock_offset,
                    [0] * width, version=f"unlock-p{self.proc}",
                ).start()
        elif self.state is _ClientState.UNLOCKING:
            op = self._op
            assert isinstance(op, WriteOperation)
            if op.done:
                # Under FIRST_WINS an unlock can only be RETRY-ed (never
                # finally aborted) — the driver re-issues it, so by the time
                # status is terminal it is DONE.
                assert op.status is OpStatus.DONE
                self.sys.holder = None
                self.sys.acquisitions.append(
                    Acquisition(self.proc, self.requested_slot, self.acquired_slot, slot)
                )
                self.sys.unlock_latencies.append(op.total_latency)
                self.state = _ClientState.DONE


class SpinLockSystem:
    """N processors contending for one block-resident lock via busy-waiting."""

    def __init__(
        self,
        n_procs: int,
        bank_cycle: int = 1,
        lock_offset: int = 0,
        cs_cycles: int = 4,
        contenders: Optional[List[int]] = None,
        att_cls=None,
    ):
        self.config = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
        kwargs = {} if att_cls is None else {"att_cls": att_cls}
        self.controller = AddressTrackingController(
            self.config.n_banks, mode=PriorityMode.FIRST_WINS, **kwargs
        )
        self.mem = CFMemory(self.config, controller=self.controller)
        self.driver = CFMDriver(self.mem)
        self.lock_offset = lock_offset
        self.mem.poke_block(lock_offset, Block.zeros(self.config.n_banks))
        procs = contenders if contenders is not None else list(range(n_procs))
        self.clients = [_LockClient(self, p, cs_cycles) for p in procs]
        self.holder: Optional[int] = None
        self.acquisitions: List[Acquisition] = []
        self.unlock_latencies: List[int] = []

    def run(self, max_slots: int = 200_000) -> List[Acquisition]:
        """Everyone locks once; returns acquisitions in release order."""
        for c in self.clients:
            c.start()
        run_until(self._step, self._all_done, lambda: self.driver.slot,
                  max_slots, "lock clients", self._stuck)
        return self.acquisitions

    def _step(self) -> None:
        for c in self.clients:
            c.step()
        self.driver.tick()

    def _all_done(self) -> bool:
        return all(c.state is _ClientState.DONE for c in self.clients)

    def _stuck(self) -> List[str]:
        return [f"proc {c.proc} {c.state.value}"
                for c in self.clients if c.state is not _ClientState.DONE]

    @property
    def mutual_exclusion_held(self) -> bool:
        """Critical sections must never overlap."""
        spans = sorted((a.acquired_slot, a.released_slot) for a in self.acquisitions)
        for (a0, r0), (a1, _r1) in zip(spans, spans[1:]):
            if a1 <= r0:
                # The next holder may acquire while the previous unlock
                # write-back is in flight only if it observed the release;
                # with block-atomic swaps acquire strictly follows release.
                return False
        return True
