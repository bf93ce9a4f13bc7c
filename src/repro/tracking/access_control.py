"""Address-tracking access control (§4.1.2 and §4.2.1).

The controller plugs into :class:`repro.core.cfm.CFMemory` and enforces:

Reads (both modes)
    A read compares its offset against **all** entries of each visited
    bank's ATT.  On detecting a same-address write it *restarts from the
    current bank* (Fig 4.5), guaranteeing the final block is single-version
    — the restart bank is the detected write's first bank, so every
    subsequently collected word was already written by it.

Writes, :attr:`PriorityMode.LATEST_WINS` (§4.1.2)
    A write that has updated *n* banks compares against the first *n* ATT
    entries (ages 1..n) — i.e. same-address writes issued *after* itself —
    or ages 1..n−1 once it has updated bank 0.  On a hit it **aborts**: its
    data would be overwritten anyway.  Exactly one competing write
    completes; simultaneous writers are arbitrated by who reaches bank 0
    first (Fig 4.4).

Writes, :attr:`PriorityMode.FIRST_WINS` (§4.2.1)
    With atomic swaps the priority flips: a write detects competitors
    issued *earlier* (ages ≥ n, or ≥ n+1 once past bank 0).  A simple
    write aborts on detecting a simple write (Fig 4.6f) but *restarts*
    (abort-and-reissue) on detecting a swap's write (Fig 4.6d); either
    phase of a swap detecting any write restarts the whole swap
    (Fig 4.6a/b/e).

The engine-level actions: ABORT kills the access; RESTART re-collects a
read from the current bank; RETRY aborts for re-issue by the owner (the
:class:`repro.tracking.atomic.CFMDriver` re-issues automatically).
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.core.cfm import (
    AccessController,
    AccessKind,
    BlockAccess,
    CFMemory,
    ControlAction,
)
from repro.tracking.att import AddressTrackingTable, ATTEntry


class PriorityMode(enum.Enum):
    """Which competing same-address write survives."""

    LATEST_WINS = "latest_wins"  # §4.1: plain reads/writes only
    FIRST_WINS = "first_wins"  # §4.2: required once swaps exist


_SWAP_KINDS = (AccessKind.SWAP_READ, AccessKind.SWAP_WRITE)


class AddressTrackingController(AccessController):
    """ATT-based access control for a CFM module.

    ``att_cls`` selects the table implementation: the ring queue (default)
    or :class:`repro.tracking.att.AssociativeScanATT`, the reference scan
    model the differential tests compare against.
    """

    #: ``on_slot`` only garbage-collects (ATT lookups age-filter, so expiry
    #: is invisible) — batch drivers may skip it over leapt slots.
    ON_SLOT_IS_GC = True

    def __init__(
        self,
        n_banks: int,
        mode: PriorityMode = PriorityMode.LATEST_WINS,
        att_cls=AddressTrackingTable,
    ):
        if n_banks < 2:
            raise ValueError("address tracking needs at least 2 banks")
        self.mode = mode
        self.n_banks = n_banks
        # Capacity m−1 (§4.1.2): ages 1..m−1 are visible, exactly the window
        # in which a same-block access can interleave.
        self.atts: List[AddressTrackingTable] = [
            att_cls(n_banks - 1) for _ in range(n_banks)
        ]
        self.aborts = 0
        self.restarts = 0
        self.retries = 0

    # -- engine hooks --------------------------------------------------------

    def on_slot(self, mem: CFMemory, slot: int) -> None:
        for att in self.atts:
            att.prune(slot)

    def on_start(self, mem: CFMemory, access: BlockAccess, slot: int) -> None:
        if access.kind.is_write:
            self.atts[access.first_bank].insert(
                access.offset, access.access_id, access.kind, slot
            )

    def on_bank(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> ControlAction:
        att = self.atts[bank]
        if access.kind is AccessKind.READ:
            return self._control_read(access, att, slot)
        if access.kind is AccessKind.SWAP_READ:
            hits = att.lookup(access.offset, slot, exclude_op=access.access_id)
            if any(e.kind.is_write for e in hits):
                # Either phase of a swap detecting a write restarts the
                # whole swap (§4.2.1) — abort for re-issue by the driver.
                self.retries += 1
                return ControlAction.RETRY
            return ControlAction.PROCEED
        if access.kind.is_write:
            return self._control_write(access, att, slot)
        return ControlAction.PROCEED

    # -- rules -----------------------------------------------------------------

    def _control_read(
        self, access: BlockAccess, att: AddressTrackingTable, slot: int
    ) -> ControlAction:
        hits = att.lookup(access.offset, slot, exclude_op=access.access_id)
        if any(e.kind.is_write for e in hits):
            self.restarts += 1
            return ControlAction.RESTART
        return ControlAction.PROCEED

    def _comparing_hits(
        self, access: BlockAccess, att: AddressTrackingTable, slot: int
    ) -> List[ATTEntry]:
        """Same-address writes in this write's comparing subset."""
        n = access.words_done  # banks updated before the current one
        past_bank_zero = access.visited_bank_zero()
        if self.mode is PriorityMode.LATEST_WINS:
            # Ages 1..n detect later-issued writes; age n is a simultaneous
            # issue, excluded once we have claimed bank 0 (Fig 4.4).
            max_age = n - 1 if past_bank_zero else n
            if max_age < 1:
                return []
            return att.lookup(
                access.offset, slot, min_age=1, max_age=max_age,
                exclude_op=access.access_id,
            )
        # FIRST_WINS: detect earlier-issued writes (ages >= n), with the
        # same bank-0 arbitration of simultaneous issues (age exactly n).
        min_age = n + 1 if past_bank_zero else n
        min_age = max(1, min_age)
        return att.lookup(
            access.offset, slot, min_age=min_age, max_age=None,
            exclude_op=access.access_id,
        )

    def _control_write(
        self, access: BlockAccess, att: AddressTrackingTable, slot: int
    ) -> ControlAction:
        hits = self._comparing_hits(access, att, slot)
        if not hits:
            return ControlAction.PROCEED
        if self.mode is PriorityMode.LATEST_WINS:
            # §4.1.2: the detected write will overwrite us — just abort.
            self.aborts += 1
            return ControlAction.ABORT
        # FIRST_WINS interactions (Fig 4.6):
        if access.kind is AccessKind.SWAP_WRITE:
            # Swap's write detecting any write → whole swap restarts.
            self.retries += 1
            return ControlAction.RETRY
        if any(e.kind is AccessKind.SWAP_WRITE for e in hits):
            # Simple write detecting a swap's write → the write restarts.
            self.retries += 1
            return ControlAction.RETRY
        # Simple write detecting a simple write → abort (Fig 4.6f).
        self.aborts += 1
        return ControlAction.ABORT
