"""Atomic operations on the address-tracked CFM (§4.2).

The atomic swap exchanges a processor register (here: a block of values)
with a memory block.  It is "composed of a read phase and a write phase
executing ... sequentially and atomically on the same block": the read
phase collects the old block, the write phase begins on the very next slot
("the read and write accesses of the atomic operation can proceed
continuously without extra delay"), and the address-tracking rules of
:class:`repro.tracking.access_control.AddressTrackingController` in
FIRST_WINS mode restart the whole swap whenever another write interleaves —
so every completed swap is equivalent to some serial execution (Fig 4.6).

Read-modify-write is the same machine with the new value computed from the
old block during the pipelined turnaround; swap, test-and-set and
fetch-and-add are special cases.

:class:`CFMDriver` supplies the re-issue plumbing the hardware would do
implicitly: operations aborted with RETRY are re-issued after a
configurable delay.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.block import Block
from repro.core.cfm import (
    AccessController,
    AccessKind,
    AccessState,
    BlockAccess,
    CFMemory,
    ControlAction,
)
from repro.sim.engine import run_until


class OpStatus(enum.Enum):
    """Lifecycle of a driver-managed operation."""
    PENDING = "pending"
    ACTIVE = "active"
    DONE = "done"
    ABORTED = "aborted"  # final abort (lost a write-write race, §4.1 style)


class CFMDriver:
    """Ticks a :class:`CFMemory` and re-issues deferred operations.

    Deferred callbacks live in a heap keyed ``(due_slot, seq)`` — O(log n)
    per defer and O(1) to peek the next due slot — instead of a linear
    rescan of the whole list every tick.  ``seq`` preserves insertion order
    among same-slot callbacks, so firing order is identical to the old
    list scan (the driver ticks every slot, so at most one due slot is
    ever pending at once).
    """

    def __init__(self, mem: CFMemory):
        self.mem = mem
        self._deferred: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def slot(self) -> int:
        return self.mem.slot

    def defer(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` just before the tick ``delay`` slots from now."""
        if delay < 1:
            raise ValueError("delay must be >= 1")
        heapq.heappush(self._deferred, (self.mem.slot + delay, next(self._seq), fn))

    def next_due(self) -> Optional[int]:
        """Slot of the earliest deferred callback (``None`` if none)."""
        return self._deferred[0][0] if self._deferred else None

    def tick(self) -> None:
        dq = self._deferred
        while dq and dq[0][0] <= self.mem.slot:
            heapq.heappop(dq)[2]()
        self.mem.tick()

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.tick()

    def _leap_safe(self) -> bool:
        """True when idle slots are provably uneventful and skippable.

        Requires no in-flight accesses, no probe pinning the per-slot
        event stream, and a controller whose ``on_slot`` is either the base
        no-op or declared GC-only (``ON_SLOT_IS_GC``): ATT lookups
        age-filter, so a prune that runs late removes nothing a lookup in
        between could have seen.  A metrics registry does not pin: bank
        utilization is settled from the slot count when it is read.
        """
        mem = self.mem
        if mem.active or mem.probe is not None:
            return False
        ctrl = mem.controller
        return (
            type(ctrl).on_slot is AccessController.on_slot
            or getattr(type(ctrl), "ON_SLOT_IS_GC", False)
        )

    def _stuck_report(self) -> List[str]:
        """Forensics for a wedged run: in-flight accesses AND parked ops.

        The deferred heap holds bound methods of driver operations (e.g.
        ``SwapOperation.start``); naming them by processor/offset/attempts
        is what turns "3 deferred" into an actionable report when a run
        times out with everything parked.
        """
        stuck = self.mem._stuck()
        for due, _seq, fn in sorted(self._deferred):
            target = getattr(fn, "__self__", None)
            proc = getattr(target, "proc", None)
            offset = getattr(target, "offset", None)
            if target is not None and proc is not None and offset is not None:
                attempts = getattr(target, "attempts", 0)
                stuck.append(
                    f"deferred {type(target).__name__} proc {proc}@{offset} "
                    f"attempts={attempts} due slot {due}"
                )
            else:
                name = getattr(fn, "__name__", repr(fn))
                stuck.append(f"deferred callback {name} due slot {due}")
        return stuck

    def run_until(self, done: Callable[[], bool], max_slots: int = 100_000) -> int:
        """Tick until ``done()``; strict timeout at ``start + max_slots``,
        naming in-flight and parked ops.

        With nothing in flight the next event is the next deferred
        re-issue, so each step leaps straight to it (no further than the
        timeout boundary) instead of ticking through provably empty slots.
        """
        limit = self.mem.slot + max_slots

        def step() -> None:
            if self._deferred and self._leap_safe():
                nxt = min(self._deferred[0][0], limit)
                if nxt > self.mem.slot + 1:
                    self.mem.slot = nxt - 1
            self.tick()

        return run_until(step, done, lambda: self.mem.slot, max_slots,
                         "operations", self._stuck_report)


class _Operation:
    """Common bookkeeping for driver-managed operations."""

    def __init__(self, driver: CFMDriver, proc: int, offset: int, retry_delay: int = 1):
        self.driver = driver
        self.proc = proc
        self.offset = offset
        self.retry_delay = retry_delay
        self.status = OpStatus.PENDING
        self.attempts = 0
        self.issue_slot: Optional[int] = None
        self.done_slot: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.status in (OpStatus.DONE, OpStatus.ABORTED)

    @property
    def total_latency(self) -> int:
        if self.issue_slot is None or self.done_slot is None:
            raise ValueError("operation has not completed")
        return self.done_slot - self.issue_slot + 1

    def _retryable(self, acc: BlockAccess) -> bool:
        return (
            acc.state is AccessState.ABORTED
            and acc.final_action is ControlAction.RETRY
        )


class ReadOperation(_Operation):
    """A plain block read; restarts are internal to the engine (§4.1.2)."""

    def __init__(self, driver: CFMDriver, proc: int, offset: int, retry_delay: int = 1):
        super().__init__(driver, proc, offset, retry_delay)
        self.result: Optional[Block] = None

    def start(self) -> "ReadOperation":
        self.status = OpStatus.ACTIVE
        self.attempts += 1
        if self.issue_slot is None:
            self.issue_slot = self.driver.slot
        self.driver.mem.issue(
            self.proc, AccessKind.READ, self.offset, on_finish=self._finished
        )
        return self

    def _finished(self, acc: BlockAccess) -> None:
        if acc.state is AccessState.COMPLETED:
            self.result = acc.result
            self.status = OpStatus.DONE
            self.done_slot = acc.complete_slot
        elif self._retryable(acc):
            self.driver.defer(self.retry_delay, self.start)
        else:
            self.status = OpStatus.ABORTED
            self.done_slot = self.driver.slot


class WriteOperation(_Operation):
    """A plain block write under address-tracking control.

    May finally ABORT (it lost to a competing same-address write whose data
    supersedes it — §4.1.2's intended semantics) or be re-issued when the
    controller demanded a RETRY (it raced a swap, Fig 4.6d)."""

    def __init__(
        self,
        driver: CFMDriver,
        proc: int,
        offset: int,
        values: Sequence[int],
        version: Optional[str] = None,
        retry_delay: int = 1,
    ):
        super().__init__(driver, proc, offset, retry_delay)
        self.values = list(values)
        self.version = version

    def start(self) -> "WriteOperation":
        self.status = OpStatus.ACTIVE
        self.attempts += 1
        if self.issue_slot is None:
            self.issue_slot = self.driver.slot
        self.driver.mem.issue(
            self.proc,
            AccessKind.WRITE,
            self.offset,
            data=Block.of_values(self.values, self.version),
            version=self.version,
            on_finish=self._finished,
        )
        return self

    def _finished(self, acc: BlockAccess) -> None:
        if acc.state is AccessState.COMPLETED:
            self.status = OpStatus.DONE
            self.done_slot = acc.complete_slot
        elif self._retryable(acc):
            self.driver.defer(self.retry_delay, self.start)
        else:
            self.status = OpStatus.ABORTED
            self.done_slot = self.driver.slot


NewValues = Union[Sequence[int], Callable[[Block], Sequence[int]]]


class SwapOperation(_Operation):
    """Atomic swap / read-modify-write (§4.2.1).

    ``new_values`` may be a literal word list (swap) or a function of the
    old block (read-modify-write — computed during the pipelined
    turnaround, costing no extra slot).  The whole operation restarts from
    its read phase whenever either phase detects a competing write."""

    def __init__(
        self,
        driver: CFMDriver,
        proc: int,
        offset: int,
        new_values: NewValues,
        version: Optional[str] = None,
        retry_delay: int = 1,
    ):
        super().__init__(driver, proc, offset, retry_delay)
        self.new_values = new_values
        self.version = version
        self.old_block: Optional[Block] = None
        self.full_restarts = 0

    def start(self) -> "SwapOperation":
        self.status = OpStatus.ACTIVE
        self.attempts += 1
        if self.issue_slot is None:
            self.issue_slot = self.driver.slot
        self.driver.mem.issue(
            self.proc, AccessKind.SWAP_READ, self.offset, on_finish=self._read_done
        )
        return self

    def _restart(self) -> None:
        self.full_restarts += 1
        self.old_block = None
        self.driver.defer(self.retry_delay, self.start)

    def _read_done(self, acc: BlockAccess) -> None:
        if acc.state is AccessState.ABORTED:
            self._restart()
            return
        self.old_block = acc.result
        values = (
            list(self.new_values(self.old_block))
            if callable(self.new_values)
            else list(self.new_values)
        )
        if len(values) != self.driver.mem.n_banks:
            raise ValueError(
                f"swap needs {self.driver.mem.n_banks} words, got {len(values)}"
            )
        # Write phase issues immediately; it begins on the next slot — the
        # "continuous, no extra delay" pipelining of §4.2.1.
        self.driver.mem.issue(
            self.proc,
            AccessKind.SWAP_WRITE,
            self.offset,
            data=Block.of_values(values, self.version),
            version=self.version,
            on_finish=self._write_done,
        )

    def _write_done(self, acc: BlockAccess) -> None:
        if acc.state is AccessState.ABORTED:
            self._restart()
            return
        self.status = OpStatus.DONE
        self.done_slot = acc.complete_slot


def swap(
    driver: CFMDriver, proc: int, offset: int, new_values: Sequence[int],
    version: Optional[str] = None,
) -> SwapOperation:
    """Convenience: start an atomic swap."""
    return SwapOperation(driver, proc, offset, new_values, version).start()


def fetch_and_add(
    driver: CFMDriver, proc: int, offset: int, delta: int, version: Optional[str] = None
) -> SwapOperation:
    """Atomic fetch-and-add on every word of the block (RMW special case)."""
    return SwapOperation(
        driver, proc, offset,
        lambda old: [w.value + delta for w in old.words],
        version,
    ).start()


def test_and_set(
    driver: CFMDriver, proc: int, offset: int, version: Optional[str] = None
) -> SwapOperation:
    """Atomic test-and-set: store all-ones, old value tells if it was free."""
    return SwapOperation(
        driver, proc, offset,
        lambda old: [1] * len(old.words),
        version,
    ).start()
