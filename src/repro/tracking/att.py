"""The Address Tracking Table (§4.1.2, Fig 4.2).

One ATT sits beside each memory bank: an ``(m−1) × a`` associative memory
(m banks, a-bit offsets) behaving as a queue that shifts one position per
time slot.  A write operation inserts its block offset at the head of the
ATT of the *first* bank it touches; every other bank visit inserts a blank.
Non-blank entries therefore record "a write of block X started at this bank
*age* slots ago" for ages 1..m−1 — exactly the window in which another
access to block X can interleave dangerously.

Because ages are what the control rules consume, we store entries with
their insertion slot and compute ages on demand instead of physically
shifting — same semantics, O(1) per slot.  Comparison against the ATT is
free in the hardware (associative match concurrent with address decode,
§4.1.2), so no latency is charged for lookups.

Two implementations share the same semantics:

* :class:`AddressTrackingTable` — the production *ring queue*.  Entries are
  kept in arrival order (insert slots are nondecreasing, which is the
  engine's natural order), so expiry is a pop from the left — O(1)
  amortized per :meth:`~AddressTrackingTable.prune` instead of rebuilding
  the whole list every slot.  A per-offset index makes the common
  no-matching-entry lookup O(1).
* :class:`AssociativeScanATT` — the original flat-list associative scan,
  kept as the reference model.  ``tests/test_tracking_ring.py`` proves the
  two produce identical grant orders, swap results, and lock acquisition
  sequences across (b, c) shapes.

Both age-filter on read, so a not-yet-pruned expired entry is invisible:
``prune`` is pure garbage collection and may be deferred or skipped by
batch drivers without changing any observable result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.cfm import AccessKind


@dataclass(frozen=True)
class ATTEntry:
    """One non-blank ATT entry: a write that started at this bank."""

    offset: int
    op_id: int
    kind: AccessKind
    insert_slot: int

    def age(self, slot: int) -> int:
        return slot - self.insert_slot


class AddressTrackingTable:
    """ATT for a single bank: ring-queue storage, age-window lookup.

    Inserts must arrive in nondecreasing slot order (they do — the engine
    inserts at the current slot, which only moves forward).  That invariant
    is what makes the queue a ring: the oldest entry is always leftmost,
    so expiry never has to scan.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Deque[ATTEntry] = deque()
        self._by_offset: Dict[int, Deque[ATTEntry]] = {}

    def insert(self, offset: int, op_id: int, kind: AccessKind, slot: int) -> None:
        """Record an operation starting at this bank in ``slot``.

        In Chapter 4 only write-direction operations insert offsets; the
        Chapter 5 cache protocol additionally inserts read-invalidate
        operations (§5.2.4).  Plain reads and non-first banks insert
        blanks, which we simply don't store."""
        if kind is AccessKind.READ:
            raise ValueError("plain reads never insert into an ATT")
        entries = self._entries
        if entries and slot < entries[-1].insert_slot:
            raise ValueError(
                f"ring ATT requires nondecreasing insert slots "
                f"({slot} < {entries[-1].insert_slot}); use "
                "AssociativeScanATT for out-of-order insertion"
            )
        e = ATTEntry(offset, op_id, kind, slot)
        entries.append(e)
        row = self._by_offset.get(offset)
        if row is None:
            row = self._by_offset[offset] = deque()
        row.append(e)

    def prune(self, slot: int) -> None:
        """Drop entries that have shifted off the end (age > capacity).

        Pure GC (lookups already age-filter); amortized O(1) per call.
        """
        entries = self._entries
        by_offset = self._by_offset
        limit = slot - self.capacity
        while entries and entries[0].insert_slot < limit:
            e = entries.popleft()
            row = by_offset[e.offset]
            row.popleft()  # arrival order is shared, so this is exactly e
            if not row:
                del by_offset[e.offset]

    def lookup(
        self,
        offset: int,
        slot: int,
        min_age: int = 1,
        max_age: Optional[int] = None,
        exclude_op: Optional[int] = None,
    ) -> List[ATTEntry]:
        """Entries matching ``offset`` whose age lies in [min_age, max_age].

        ``max_age=None`` means "up to the full queue depth" — the read rule
        compares against *all* entries.  Age 0 (inserted this very slot)
        can only be the op's own insertion, so ``min_age`` is at least 1 by
        convention; ``exclude_op`` guards against self-matching anyway.
        """
        if min_age < 0:
            raise ValueError("min_age must be >= 0")
        row = self._by_offset.get(offset)
        if not row:
            return []
        hi = self.capacity if max_age is None else max_age
        out: List[ATTEntry] = []
        for e in row:
            if exclude_op is not None and e.op_id == exclude_op:
                continue
            a = slot - e.insert_slot
            if min_age <= a <= hi:
                out.append(e)
        return out

    def has_entry(
        self,
        offset: int,
        slot: int,
        exclude_op: Optional[int] = None,
    ) -> bool:
        """True if any live entry (age 0..capacity) matches ``offset``.

        O(1) in the common no-match case; used by batch classifiers that
        only need a hazard yes/no, not the entry list.
        """
        row = self._by_offset.get(offset)
        if not row:
            return False
        cap = self.capacity
        for e in row:
            if exclude_op is not None and e.op_id == exclude_op:
                continue
            if 0 <= slot - e.insert_slot <= cap:
                return True
        return False

    def entries_at(self, slot: int) -> List[ATTEntry]:
        """Live entries ordered head-first (youngest age first)."""
        live = [e for e in self._entries if 0 <= e.age(slot) <= self.capacity]
        return sorted(live, key=lambda e: e.age(slot))

    def __len__(self) -> int:
        return len(self._entries)


class AssociativeScanATT:
    """Reference ATT: flat list, full associative scan per operation.

    This is the original implementation, preserved verbatim as the model
    the ring queue is differentially tested against.  It additionally
    tolerates out-of-order insert slots, which the ring rejects.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: List[ATTEntry] = []

    def insert(self, offset: int, op_id: int, kind: AccessKind, slot: int) -> None:
        if kind is AccessKind.READ:
            raise ValueError("plain reads never insert into an ATT")
        self._entries.append(ATTEntry(offset, op_id, kind, slot))

    def prune(self, slot: int) -> None:
        self._entries = [e for e in self._entries if e.age(slot) <= self.capacity]

    def lookup(
        self,
        offset: int,
        slot: int,
        min_age: int = 1,
        max_age: Optional[int] = None,
        exclude_op: Optional[int] = None,
    ) -> List[ATTEntry]:
        if min_age < 0:
            raise ValueError("min_age must be >= 0")
        hi = self.capacity if max_age is None else max_age
        out: List[ATTEntry] = []
        for e in self._entries:
            if e.offset != offset:
                continue
            if exclude_op is not None and e.op_id == exclude_op:
                continue
            a = e.age(slot)
            if min_age <= a <= hi:
                out.append(e)
        return out

    def has_entry(
        self,
        offset: int,
        slot: int,
        exclude_op: Optional[int] = None,
    ) -> bool:
        return bool(self.lookup(offset, slot, min_age=0, exclude_op=exclude_op))

    def entries_at(self, slot: int) -> List[ATTEntry]:
        live = [e for e in self._entries if 0 <= e.age(slot) <= self.capacity]
        return sorted(live, key=lambda e: e.age(slot))

    def __len__(self) -> int:
        return len(self._entries)
