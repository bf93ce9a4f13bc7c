"""Tests for Table 5.1 (Fig 5.2): the pure transition function, and the
slot-accurate machine executing every row at both of its levels."""

import pytest

from repro.cache.protocol import CacheSystem
from repro.cache.state import (
    Action,
    CacheLineState as S,
    MemoryOp,
    ProtocolEvent as E,
    protocol_action,
    table_5_1_rows,
)
from repro.core.block import Block
from repro.core.cfm import AccessKind
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy


class TestTable51:
    def test_read_hit_no_memory_access(self):
        for local in (S.VALID, S.DIRTY):
            remote = S.VALID if local is S.VALID else S.INVALID
            a = protocol_action(E.READ_HIT, local, remote)
            assert a.memory_op is MemoryOp.NONE
            assert a.final_local_state is local

    def test_read_miss_clean_issues_read(self):
        a = protocol_action(E.READ_MISS, S.INVALID, S.VALID)
        assert a.memory_op is MemoryOp.READ
        assert not a.triggers_remote_writeback
        assert a.final_local_state is S.VALID

    def test_read_miss_dirty_triggers_writeback(self):
        a = protocol_action(E.READ_MISS, S.INVALID, S.DIRTY)
        assert a.memory_op is MemoryOp.READ
        assert a.triggers_remote_writeback
        assert a.final_local_state is S.VALID

    def test_write_hit_dirty_is_free(self):
        a = protocol_action(E.WRITE_HIT, S.DIRTY, S.INVALID)
        assert a.memory_op is MemoryOp.NONE
        assert a.final_local_state is S.DIRTY

    def test_write_hit_valid_needs_read_invalidate(self):
        a = protocol_action(E.WRITE_HIT, S.VALID, S.VALID)
        assert a.memory_op is MemoryOp.READ_INVALIDATE
        assert a.final_local_state is S.DIRTY

    def test_write_miss_dirty_triggers_writeback(self):
        a = protocol_action(E.WRITE_MISS, S.INVALID, S.DIRTY)
        assert a.memory_op is MemoryOp.READ_INVALIDATE
        assert a.triggers_remote_writeback
        assert a.final_local_state is S.DIRTY

    def test_full_table_row_count(self):
        rows = table_5_1_rows()
        assert len(rows) == 12
        # Exactly the paper's action strings appear.
        descs = {r[3].describe() for r in rows}
        assert descs == {
            "no memory access",
            "read",
            "read (trigger remote write-back)",
            "read-invalidate",
            "read-invalidate (trigger remote write-back)",
        }


class TestInvariantEnforcement:
    def test_dirty_is_exclusive(self):
        with pytest.raises(ValueError):
            protocol_action(E.READ_HIT, S.DIRTY, S.VALID)

    def test_hit_requires_cached_line(self):
        with pytest.raises(ValueError):
            protocol_action(E.READ_HIT, S.INVALID, S.INVALID)
        with pytest.raises(ValueError):
            protocol_action(E.WRITE_HIT, S.INVALID, S.INVALID)

    def test_miss_requires_invalid_line(self):
        with pytest.raises(ValueError):
            protocol_action(E.READ_MISS, S.VALID, S.INVALID)
        with pytest.raises(ValueError):
            protocol_action(E.WRITE_MISS, S.DIRTY, S.INVALID)


# protocol_action over every (event, local, remote) input, the two states
# as letters: (memory op, triggers remote write-back, final local state),
# or the message of the ValueError it raises.
EXCLUSIVE = "the dirty state is exclusive: no remote copy may exist"
READ_HIT_NEEDS_LINE = "a read hit requires a valid or dirty local line"
READ_MISS_NO_LINE = "a read miss implies an invalid local line"
WRITE_HIT_NEEDS_LINE = "a write hit requires a valid or dirty local line"
WRITE_MISS_NO_LINE = "a write miss implies an invalid local line"
ALL_INPUTS = {
    (E.READ_HIT, "ii"): READ_HIT_NEEDS_LINE,
    (E.READ_HIT, "iv"): READ_HIT_NEEDS_LINE,
    (E.READ_HIT, "id"): READ_HIT_NEEDS_LINE,
    (E.READ_HIT, "vi"): (MemoryOp.NONE, False, S.VALID),
    (E.READ_HIT, "vv"): (MemoryOp.NONE, False, S.VALID),
    (E.READ_HIT, "vd"): (MemoryOp.NONE, False, S.VALID),
    (E.READ_HIT, "di"): (MemoryOp.NONE, False, S.DIRTY),
    (E.READ_HIT, "dv"): EXCLUSIVE,
    (E.READ_HIT, "dd"): EXCLUSIVE,
    (E.READ_MISS, "ii"): (MemoryOp.READ, False, S.VALID),
    (E.READ_MISS, "iv"): (MemoryOp.READ, False, S.VALID),
    (E.READ_MISS, "id"): (MemoryOp.READ, True, S.VALID),
    (E.READ_MISS, "vi"): READ_MISS_NO_LINE,
    (E.READ_MISS, "vv"): READ_MISS_NO_LINE,
    (E.READ_MISS, "vd"): READ_MISS_NO_LINE,
    (E.READ_MISS, "di"): READ_MISS_NO_LINE,
    (E.READ_MISS, "dv"): EXCLUSIVE,
    (E.READ_MISS, "dd"): EXCLUSIVE,
    (E.WRITE_HIT, "ii"): WRITE_HIT_NEEDS_LINE,
    (E.WRITE_HIT, "iv"): WRITE_HIT_NEEDS_LINE,
    (E.WRITE_HIT, "id"): WRITE_HIT_NEEDS_LINE,
    (E.WRITE_HIT, "vi"): (MemoryOp.READ_INVALIDATE, False, S.DIRTY),
    (E.WRITE_HIT, "vv"): (MemoryOp.READ_INVALIDATE, False, S.DIRTY),
    (E.WRITE_HIT, "vd"): (MemoryOp.READ_INVALIDATE, False, S.DIRTY),
    (E.WRITE_HIT, "di"): (MemoryOp.NONE, False, S.DIRTY),
    (E.WRITE_HIT, "dv"): EXCLUSIVE,
    (E.WRITE_HIT, "dd"): EXCLUSIVE,
    (E.WRITE_MISS, "ii"): (MemoryOp.READ_INVALIDATE, False, S.DIRTY),
    (E.WRITE_MISS, "iv"): (MemoryOp.READ_INVALIDATE, False, S.DIRTY),
    (E.WRITE_MISS, "id"): (MemoryOp.READ_INVALIDATE, True, S.DIRTY),
    (E.WRITE_MISS, "vi"): WRITE_MISS_NO_LINE,
    (E.WRITE_MISS, "vv"): WRITE_MISS_NO_LINE,
    (E.WRITE_MISS, "vd"): WRITE_MISS_NO_LINE,
    (E.WRITE_MISS, "di"): WRITE_MISS_NO_LINE,
    (E.WRITE_MISS, "dv"): EXCLUSIVE,
    (E.WRITE_MISS, "dd"): EXCLUSIVE,
}


def test_protocol_action_is_pinned_on_every_input():
    assert len(ALL_INPUTS) == 36
    for (event, states), expected in ALL_INPUTS.items():
        local, remote = S(states[0]), S(states[1])
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                protocol_action(event, local, remote)
            assert str(exc.value) == expected, (event, states)
        else:
            a = protocol_action(event, local, remote)
            got = (a.memory_op, a.triggers_remote_writeback,
                   a.final_local_state)
            assert got == expected, (event, states)


# -- the simulator executes every row ------------------------------------------

OFF = 3


def _row_id(row):
    event, local, remote, _ = row
    return f"{event.value}-{local.value}{remote.value}"


def _spy_issues(mem):
    """Record (proc, kind) of every access ``mem`` issues."""
    issued = []
    issue = mem.issue

    def spy(proc, kind, *args, **kwargs):
        issued.append((proc, kind))
        return issue(proc, kind, *args, **kwargs)

    mem.issue = spy
    return issued


def _expected(row):
    """What executing ``row`` must do: the memory op the requester issues
    (None on a hit), whether the remote copy is invalidated, and the remote
    state after the op."""
    event, local, remote, action = row
    op = (None if action.memory_op is MemoryOp.NONE
          else AccessKind[action.memory_op.name])
    invalidates = (op is AccessKind.READ_INVALIDATE
                   and remote is not S.INVALID)
    if invalidates:
        remote_after = S.INVALID
    elif action.triggers_remote_writeback:
        remote_after = S.VALID  # written back, still shared
    else:
        remote_after = remote
    return op, invalidates, remote_after


def _is_write(event):
    return event in (E.WRITE_HIT, E.WRITE_MISS)


@pytest.mark.parametrize("row", table_5_1_rows(), ids=_row_id)
def test_l1_executes_row(row):
    """Processor 0 runs the row's op against its local line; processor 1
    holds the remote copy."""
    event, local, remote, action = row
    op_kind, invalidates, remote_after = _expected(row)
    sys_ = CacheSystem(2)
    block = Block.of_values([5, 6])
    sys_.mem.poke_block(OFF, block)
    for p, state in ((0, local), (1, remote)):
        if state is not S.INVALID:
            sys_.dirs[p].fill(OFF, block, state)
    issued = _spy_issues(sys_.mem)
    op = (sys_.store(0, OFF, {0: 9}) if _is_write(event)
          else sys_.load(0, OFF))
    sys_.run_ops([op])
    assert (op.memory_accesses > 0) == (op_kind is not None)
    assert {k for p, k in issued if p == 0} == (
        set() if op_kind is None else {op_kind})
    assert (sys_.controller.triggered_writebacks > 0) \
        == action.triggers_remote_writeback
    assert (sys_.controller.invalidations_sent > 0) == invalidates
    assert sys_.dirs[1].state_of(OFF) is remote_after
    assert sys_.dirs[0].state_of(OFF) is action.final_local_state
    sys_.check_coherence_invariant()


@pytest.mark.parametrize("row", table_5_1_rows(), ids=_row_id)
def test_l2_executes_row(row):
    """One level up (§5.4): cluster 0's L2 line is the local line, cluster
    1's L2 the remote copy, and the global memory carries the op."""
    event, local, remote, action = row
    op_kind, invalidates, remote_after = _expected(row)
    h = SlotAccurateHierarchy(2, 1)
    for c, state in ((0, local), (1, remote)):
        if state is not S.INVALID:
            h.l2[c][OFF] = state
    issued = _spy_issues(h.global_mem)
    op = h.store(0, OFF, {0: 9}) if _is_write(event) else h.load(0, OFF)
    h.run_ops([op])
    assert (op.nc_fetches > 0) == (op_kind is not None)
    assert {k for c, k in issued if c == 0} == (
        set() if op_kind is None else {op_kind})
    gc = h.global_controller
    assert (gc.triggered_l2_writebacks > 0) \
        == action.triggers_remote_writeback
    assert (gc.invalidations_sent > 0) == invalidates
    assert h.l2[1].get(OFF, S.INVALID) is remote_after
    assert h.l2[0].get(OFF, S.INVALID) is action.final_local_state
    h.check_invariants()
