"""A test-side record of the accesses a :class:`CFMemory` finishes.

The engine keeps no finished-access history: a processor owns one AT
partition, so an access needs only its in-flight state.  Tests that check
what finished wrap the ``_finish`` seam, which the per-slot tick and the
span walk both call, so the record holds every finish in engine order.

The record also keeps each access's lifetime, the slots it addressed a
bank in, from which :func:`bank_util_oracle` rebuilds the
``cfm.bank[k].util`` instruments without calling the engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cfm import AccessState, BlockAccess, CFMemory


class FinishLog:
    """Completed and aborted accesses of one module, in finish order."""

    def __init__(self) -> None:
        self.completed: List[BlockAccess] = []
        self.aborted: List[BlockAccess] = []
        #: ``(proc, first slot, last slot)`` of every finished access.
        self.lifetimes: List[Tuple[int, int, int]] = []


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
        # An access aborted at its very first visit (a stuck bank) never
        # recorded a start slot.
        first = acc.start_slot if acc.start_slot >= 0 else slot
        log.lifetimes.append((acc.proc, first, slot))
        finish(acc, state, slot, unlink)

    mem._finish = recording_finish  # type: ignore[method-assign]
    return log


def bank_util_oracle(log: FinishLog, active: Iterable[BlockAccess],
                     n_banks: int, cycle: int, slots: int,
                     dead_bank: Optional[int] = None
                     ) -> Dict[str, Tuple[int, int]]:
    """``{name: (busy, total)}`` of every ``cfm.bank[k].util`` after
    ``slots`` slots, replayed from access lifetimes.

    From its first slot to its last an access addresses bank
    ``(t + c·p) mod b`` at slot t (over the ``b - 1`` survivors, in
    order, once ``dead_bank`` is degraded out from slot 0), and each
    visit holds its bank for c slots; a bank is busy in every slot
    before ``slots`` that some hold covers.  ``active`` are the accesses
    still in flight.  Holds for controllers that never restart an access
    (a restart moves its start slot)."""
    lifetimes = list(log.lifetimes)
    lifetimes += [(acc.proc, acc.start_slot, slots - 1) for acc in active
                  if acc.start_slot >= 0]
    ring = [k for k in range(n_banks) if k != dead_bank]
    busy = [bytearray(slots) for _ in range(n_banks)]
    for proc, first, last in lifetimes:
        for t in range(first, last + 1):
            bank = ring[(t + cycle * proc) % len(ring)]
            end = min(t + cycle, slots)
            busy[bank][t:end] = b"\x01" * (end - t)
    return {f"cfm.bank[{k}].util": (sum(busy[k]), slots)
            for k in range(n_banks)}


def settled_util(snapshot: Dict[str, Dict[str, object]]
                 ) -> Dict[str, Tuple[int, int]]:
    """The ``cfm.bank[k].util`` entries of a registry snapshot as
    ``{name: (busy, total)}``, for comparison with the oracle."""
    return {name: (entry["busy"], entry["total"])
            for name, entry in snapshot.items()
            if name.startswith("cfm.bank[")}
