"""Cache-line states and the coherence protocol's table (Fig 5.2, Table 5.1).

The CFM cache protocol is invalidation-based with write-back:

* ``INVALID`` — no cached block;
* ``VALID`` — a (possibly shared) clean copy;
* ``DIRTY`` — the exclusive, modified copy; at most one system-wide.

:data:`TABLE_5_1` is Table 5.1 as data: for each access a request needs
(a read, or a read-invalidate to store) and each line state, whether the
local line already satisfies it, the memory operation a miss issues, the
state its fill installs, and what the access does to a coupled remote copy
it passes.  Both levels of the slot-accurate machine read this one table:
:mod:`repro.cache.protocol` for the L1 caches and
:mod:`repro.hierarchy.slot_accurate` for the cluster L2s, where "the
protocol recurses" (§5.4).  :func:`protocol_action` reads the paper's rows
(event, local state, remote state) off the same table; tests assert both
against the paper's rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from repro.core.cfm import AccessKind


class CacheLineState(enum.Enum):
    """The three CFM cache-line states of Fig 5.2."""
    INVALID = "i"
    VALID = "v"
    DIRTY = "d"
    __hash__ = object.__hash__  # singletons: Table 5.1 lookups call no Python


class ProtocolEvent(enum.Enum):
    """CPU-side events of Table 5.1."""
    READ_HIT = "read_hit"
    READ_MISS = "read_miss"
    WRITE_HIT = "write_hit"
    WRITE_MISS = "write_miss"


class MemoryOp(enum.Enum):
    """Memory operation a Table 5.1 row prescribes."""
    NONE = "none"
    READ = "read"
    READ_INVALIDATE = "read_invalidate"


@dataclass(frozen=True)
class Action:
    """What Table 5.1 prescribes for one (event, local, remote) combination."""

    memory_op: MemoryOp
    triggers_remote_writeback: bool
    final_local_state: CacheLineState

    def describe(self) -> str:
        if self.memory_op is MemoryOp.NONE:
            return "no memory access"
        s = self.memory_op.value.replace("_", "-")
        if self.triggers_remote_writeback:
            s += " (trigger remote write-back)"
        return s


class RemoteAction(enum.Enum):
    """What an access does to a remote copy it passes at a coupled bank."""
    PASS = "pass"
    INVALIDATE = "invalidate"
    WRITE_BACK = "write_back"  # trigger the copy's write-back; then retry


@dataclass(frozen=True)
class Rule:
    """Table 5.1 for one access: its hits, its miss, its fill, and its
    action on a remote copy in each state."""

    op: AccessKind  # the memory operation a miss issues
    hits: FrozenSet[CacheLineState]  # local states that already satisfy it
    fill: CacheLineState  # the state its fill installs
    remote: Mapping[CacheLineState, RemoteAction]


_I, _V, _D = CacheLineState.INVALID, CacheLineState.VALID, CacheLineState.DIRTY
_PASS = RemoteAction.PASS

#: Table 5.1, keyed by the access (read, or read-invalidate to store).
TABLE_5_1: Dict[AccessKind, Rule] = {rule.op: rule for rule in (
    Rule(AccessKind.READ, frozenset({_V, _D}), _V,
         {_I: _PASS, _V: _PASS, _D: RemoteAction.WRITE_BACK}),
    Rule(AccessKind.READ_INVALIDATE, frozenset({_D}), _D,
         {_I: _PASS, _V: RemoteAction.INVALIDATE,
          _D: RemoteAction.WRITE_BACK}),
)}

#: Each CPU event of Table 5.1: the access it needs, and whether the local
#: line holds the block.
_EVENTS = {
    ProtocolEvent.READ_HIT: (AccessKind.READ, True),
    ProtocolEvent.READ_MISS: (AccessKind.READ, False),
    ProtocolEvent.WRITE_HIT: (AccessKind.READ_INVALIDATE, True),
    ProtocolEvent.WRITE_MISS: (AccessKind.READ_INVALIDATE, False),
}


def protocol_action(
    event: ProtocolEvent,
    local: CacheLineState,
    remote: CacheLineState,
) -> Action:
    """The Table 5.1 row for (event, local state, most-privileged remote state).

    ``remote`` is the strongest state the block holds in any other cache
    (INVALID when uncached elsewhere).  Raises on combinations the protocol
    invariants make impossible (e.g. a local DIRTY with a remote copy)."""
    if local is _D and remote is not _I:
        raise ValueError("the dirty state is exclusive: no remote copy may exist")
    access, present = _EVENTS[event]
    what = event.value.replace("_", " ")
    if present and local is _I:
        raise ValueError(f"a {what} requires a valid or dirty local line")
    if not present and local is not _I:
        raise ValueError(f"a {what} implies an invalid local line")
    rule = TABLE_5_1[access]
    if local in rule.hits:
        return Action(MemoryOp.NONE, False, local)
    # The paper triggers a remote write-back on a miss only: a present
    # line upgrades in place.
    return Action(
        MemoryOp(rule.op.value),
        not present and rule.remote[remote] is RemoteAction.WRITE_BACK,
        rule.fill,
    )


def table_5_1_rows():
    """Every legal (event, local, remote) combination with its action, in
    the paper's order — regenerates Table 5.1 including the 'Final' column.
    Legal: a dirty copy is the only copy."""
    rows = []
    for event, (_, present) in _EVENTS.items():
        for local in (_V, _D) if present else (_I,):
            for remote in (_V, _I, _D):
                if _D not in (local, remote) or _I in (local, remote):
                    rows.append((event, local, remote,
                                 protocol_action(event, local, remote)))
    return rows
