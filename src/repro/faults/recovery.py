"""Recovery policies: bounded retry with backoff over a CFMDriver.

Transient bank faults surface to the issuing processor as RETRY-aborted
accesses (the fault layer marks the access aborted and the issuer must
reissue).  :class:`RecoveringOp` wraps one block access with a
:class:`RetryPolicy`: each abort re-parks the operation on the driver's
deferred heap with a bounded, linearly growing backoff measured in slots;
when the budget is exhausted the op records a typed
:class:`repro.faults.errors.RetryExhaustedError` instead of spinning
forever.  Wedged runs (e.g. a lost completion) still escalate through the
driver's :class:`repro.sim.engine.SimulationTimeout` forensics, which name
parked/deferred operations too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.block import Block
from repro.core.cfm import (
    AccessKind,
    AccessState,
    BlockAccess,
    ControlAction,
)
from repro.faults.errors import RetryExhaustedError
from repro.sim.engine import all_settled


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-op retry: up to ``max_retries`` reissues, linear backoff."""

    max_retries: int = 8
    backoff_slots: int = 2

    def delay(self, attempt: int) -> int:
        """Slots to park before reissue ``attempt`` (1-based); always >= 1."""
        return max(1, self.backoff_slots * attempt)


class RecoveringOp:
    """One block access that survives RETRY-aborts up to a retry budget.

    Drive it with a :class:`repro.tracking.atomic.CFMDriver`: ``start`` is
    deferrable (the driver's heap provides the backoff clock), and the
    driver's timeout forensics report parked instances by processor,
    offset, and attempt count.
    """

    def __init__(self, driver, proc: int, offset: int,
                 kind: AccessKind = AccessKind.READ,
                 values: Optional[Sequence[int]] = None,
                 version: Optional[str] = None,
                 policy: Optional[RetryPolicy] = None):
        if kind.is_write and values is None:
            raise ValueError("write recovery op requires values")
        self.driver = driver
        self.proc = proc
        self.offset = offset
        self.kind = kind
        self.values = list(values) if values is not None else None
        self.version = version
        self.policy = policy if policy is not None else RetryPolicy()
        self.attempts = 0
        self.result: Optional[Block] = None
        self.done = False
        self.error: Optional[RetryExhaustedError] = None

    def start(self) -> "RecoveringOp":
        """(Re)issue the access; called directly or from the deferred heap."""
        if self.done or self.error is not None:
            return self
        self.attempts += 1
        data = (
            Block.of_values(self.values, self.version)
            if self.values is not None else None
        )
        self.driver.mem.issue(
            self.proc, self.kind, self.offset, data=data,
            version=self.version, on_finish=self._finished,
        )
        return self

    def _finished(self, acc: BlockAccess) -> None:
        if acc.state is AccessState.COMPLETED:
            if self.kind.is_read:
                self.result = acc.result
            self.done = True
            return
        if acc.final_action is ControlAction.RETRY:
            self._park_or_fail()
        else:
            # A final ABORT (lost a write-write race) is a legitimate
            # outcome, not a fault; the op is settled.
            self.done = True

    def _park_or_fail(self) -> None:
        if self.attempts > self.policy.max_retries:
            self.error = RetryExhaustedError(
                f"proc {self.proc} {self.kind.value}@{self.offset}: "
                f"retry budget exhausted after {self.attempts} attempts",
                slot=self.driver.mem.slot, attempts=self.attempts,
            )
            return
        self.driver.defer(self.policy.delay(self.attempts), self.start)


def run_with_recovery(driver, ops: Sequence[RecoveringOp],
                      max_slots: int = 100_000) -> List[RecoveringOp]:
    """Start ``ops``, run the driver until all settle, surface typed errors.

    Every op either completes, or the first typed
    :class:`RetryExhaustedError` among them is raised; a wedged run raises
    the driver's :class:`SimulationTimeout` (with deferred-op forensics).
    """
    for op in ops:
        op.start()
    driver.run_until(
        all_settled(ops, lambda op: op.done or op.error is not None),
        max_slots=max_slots,
    )
    for op in ops:
        if op.error is not None:
            raise op.error
    return list(ops)
