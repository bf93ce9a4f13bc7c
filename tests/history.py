"""A test-side record of the accesses a :class:`CFMemory` finishes.

The engine keeps no finished-access history: a processor owns one AT
partition, so an access needs only its in-flight state.  Tests that check
what finished wrap the ``_finish`` seam, which the per-slot tick and the
span walk both call, so the record holds every finish in engine order.
"""

from __future__ import annotations

from typing import List

from repro.core.cfm import AccessState, BlockAccess, CFMemory


class FinishLog:
    """Completed and aborted accesses of one module, in finish order."""

    def __init__(self) -> None:
        self.completed: List[BlockAccess] = []
        self.aborted: List[BlockAccess] = []


def record_finishes(mem: CFMemory) -> FinishLog:
    """Record every access ``mem`` finishes from now on.

    Each access is filed before ``_finish`` runs its metrics, probe and
    callback, where the engine used to file it."""
    log = FinishLog()
    finish = mem._finish

    def recording_finish(acc: BlockAccess, state: AccessState, slot: int,
                         unlink: bool = True) -> None:
        if state is AccessState.COMPLETED:
            log.completed.append(acc)
        else:
            log.aborted.append(acc)
        finish(acc, state, slot, unlink)

    mem._finish = recording_finish  # type: ignore[method-assign]
    return log
