"""Differential tests: ring-queue ATT vs the associative-scan reference.

The tracking layer's stage-2 fastpath replaces the per-slot associative
scans of :class:`AddressTrackingTable` with per-bank ring queues keyed by
arrival slot.  :class:`AssociativeScanATT` keeps the old flat-list scan
verbatim; these tests drive both through identical workloads — raw table
sequences, driver-managed read/write/swap races, and full spin-lock
contention — and assert every observable identical: lookup results, grant
orders, atomic-swap outcomes, lock acquisition sequences, and controller
counters, across (b, c) in {(4,1), (8,2), (16,4), (32,8)}.
"""

import random

import pytest

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.tracking.access_control import (
    AddressTrackingController,
    PriorityMode,
)
from repro.tracking.att import AddressTrackingTable, AssociativeScanATT
from repro.tracking.atomic import (
    CFMDriver,
    OpStatus,
    ReadOperation,
    SwapOperation,
    WriteOperation,
)
from repro.tracking.locks import SpinLockSystem

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]


# --------------------------------------------------------------------------
# Raw table equivalence


def _table_trace(att_cls, events, capacity):
    """Apply an event script to a fresh table; return every observable."""
    att = att_cls(capacity)
    out = []
    for ev in events:
        if ev[0] == "insert":
            _, offset, op_id, kind, slot = ev
            att.insert(offset, op_id, kind, slot)
        elif ev[0] == "prune":
            att.prune(ev[1])
        elif ev[0] == "lookup":
            _, offset, slot, exclude = ev
            out.append([
                (e.offset, e.op_id, e.kind, e.insert_slot)
                for e in att.lookup(offset, slot, exclude_op=exclude)
            ])
        elif ev[0] == "has":
            _, offset, slot, exclude = ev
            out.append(att.has_entry(offset, slot, exclude_op=exclude))
        elif ev[0] == "at":
            out.append([
                (e.offset, e.op_id, e.kind, e.insert_slot)
                for e in att.entries_at(ev[1])
            ])
    return out


@pytest.mark.parametrize("capacity", [1, 3, 7, 15])
def test_ring_matches_scan_on_random_scripts(capacity):
    rng = random.Random(capacity)
    events = []
    slot = 0
    op_id = 0
    for _ in range(400):
        r = rng.random()
        slot += rng.randrange(0, 3)  # nondecreasing, like the engine
        if r < 0.4:
            events.append(("insert", rng.randrange(6), op_id,
                           AccessKind.WRITE, slot))
            op_id += 1
        elif r < 0.55:
            events.append(("prune", slot))
        elif r < 0.8:
            events.append(("lookup", rng.randrange(6), slot,
                           rng.randrange(op_id) if op_id and rng.random() < 0.5
                           else None))
        elif r < 0.9:
            events.append(("has", rng.randrange(6), slot,
                           rng.randrange(op_id) if op_id else None))
        else:
            events.append(("at", slot))
    ring = _table_trace(AddressTrackingTable, events, capacity)
    scan = _table_trace(AssociativeScanATT, events, capacity)
    assert ring == scan


def test_ring_rejects_decreasing_insert_slots():
    att = AddressTrackingTable(4)
    att.insert(0, 1, AccessKind.WRITE, 10)
    with pytest.raises(ValueError):
        att.insert(0, 2, AccessKind.WRITE, 9)


# --------------------------------------------------------------------------
# Driver-level equivalence: read/write/swap races under both tables


def _drive_workload(att_cls, n_procs, bank_cycle, seed):
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    ctl = AddressTrackingController(
        cfg.n_banks, PriorityMode.FIRST_WINS, att_cls=att_cls
    )
    mem = CFMemory(cfg, controller=ctl)
    d = CFMDriver(mem)
    width = cfg.n_banks
    for off in range(4):
        mem.poke_block(off, Block.of_values([off] * width, "init"))
    rng = random.Random(seed)
    ops = []
    for round_ in range(6):
        for p in range(n_procs):
            off = rng.randrange(4)
            r = rng.random()
            tag = f"p{p}r{round_}"
            if r < 0.4:
                ops.append(ReadOperation(d, p, off).start())
            elif r < 0.7:
                ops.append(WriteOperation(
                    d, p, off, [p + round_] * width, version=tag).start())
            else:
                ops.append(SwapOperation(
                    d, p, off, [p * 10 + round_] * width, version=tag).start())
        d.run_until(lambda: all(op.done for op in ops))
    return {
        "ops": [
            (op.proc, op.offset, op.status.value, op.attempts,
             op.issue_slot, op.done_slot,
             op.result.values if isinstance(op, ReadOperation)
             and op.result is not None else None,
             op.old_block.values if isinstance(op, SwapOperation)
             and op.old_block is not None else None)
            for op in ops
        ],
        "blocks": [mem.peek_block(off).values for off in range(4)],
        "versions": [mem.peek_block(off).versions for off in range(4)],
        "counters": (ctl.aborts, ctl.restarts, ctl.retries),
        "slot": mem.slot,
    }


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_driver_workload_identical_under_both_tables(n_procs, bank_cycle):
    ring = _drive_workload(AddressTrackingTable, n_procs, bank_cycle, seed=7)
    scan = _drive_workload(AssociativeScanATT, n_procs, bank_cycle, seed=7)
    assert ring == scan


# --------------------------------------------------------------------------
# Window-boundary pinning: GC and visibility at exact window multiples


@pytest.mark.parametrize("capacity", [3, 7, 15, 31])
def test_entry_visibility_ends_exactly_at_capacity_age(capacity):
    """The expiry edge, pinned on both tables: an entry inserted at slot s
    is visible (and prune-immune) through s+capacity, gone at s+capacity+1.
    """
    for att_cls in (AddressTrackingTable, AssociativeScanATT):
        att = att_cls(capacity)
        att.insert(0, 1, AccessKind.WRITE, 10)
        assert att.has_entry(0, 10 + capacity)
        assert not att.has_entry(0, 10 + capacity + 1)
        att.prune(10 + capacity)  # still within the window: kept
        assert len(att) == 1
        att.prune(10 + capacity + 1)  # one past: GC drops it
        assert len(att) == 0


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_boundary_straddling_scripts_identical(n_procs, bank_cycle):
    """Ring == scan at slots straddling multiples of the ATT window.

    The suspicious zone for the ring queue's pop-from-the-left GC is the
    exact expiry edge.  Every insert, prune, and lookup in these scripts
    lands on k*window + {-1, 0, +1} — the (b, c) shapes give windows 4,
    16, 64, and 256 — and every observable must match the associative
    scan, including prunes issued one slot early and one slot late.
    """
    capacity = n_procs * bank_cycle - 1  # the m-1 window of §4.1.2
    window = capacity + 1
    events = []
    op_id = 0
    for k in range(1, 4):
        base = k * window
        for d in (-1, 0, 1):
            events.append(("insert", k % 3, op_id, AccessKind.WRITE,
                           base + d))
            op_id += 1
        for d in (-1, 0, 1):
            events.append(("lookup", k % 3, base + d, None))
            events.append(("has", k % 3, base + d, None))
        # Prune straddling the straddled inserts' expiry edge.
        for d in (-1, 0, 1):
            events.append(("prune", base + window + d))
            events.append(("lookup", k % 3, base + window + d, None))
            events.append(("at", base + window + d))
    ring = _table_trace(AddressTrackingTable, events, capacity)
    scan = _table_trace(AssociativeScanATT, events, capacity)
    assert ring == scan


# --------------------------------------------------------------------------
# Lock-system equivalence: grant order and latencies


def _lock_trace(att_cls, n_procs, bank_cycle):
    sys_ = SpinLockSystem(n_procs, bank_cycle=bank_cycle, cs_cycles=3,
                          att_cls=att_cls)
    acq = sys_.run()
    return (
        [(a.proc, a.requested_slot, a.acquired_slot, a.released_slot)
         for a in acq],
        list(sys_.unlock_latencies),
        (sys_.controller.aborts, sys_.controller.restarts,
         sys_.controller.retries),
    )


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_lock_acquisition_sequence_identical(n_procs, bank_cycle):
    ring = _lock_trace(AddressTrackingTable, n_procs, bank_cycle)
    scan = _lock_trace(AssociativeScanATT, n_procs, bank_cycle)
    assert ring == scan
    # and the lock really was exclusive, serially granted
    assert len(ring[0]) == n_procs


# --------------------------------------------------------------------------
# CFMDriver deferred-heap ordering


def test_defer_heap_preserves_same_slot_insertion_order():
    mem = CFMemory(CFMConfig(n_procs=4))
    d = CFMDriver(mem)
    fired = []
    d.defer(2, lambda: fired.append("a"))
    d.defer(1, lambda: fired.append("early"))
    d.defer(2, lambda: fired.append("b"))
    d.defer(2, lambda: fired.append("c"))
    assert d.next_due() == mem.slot + 1
    d.run(3)
    assert fired == ["early", "a", "b", "c"]
