"""The CFM cache coherence protocol, slot-accurate (§5.2).

Three primitive operations ride the CFM block-access engine:

* **read** — fetch a block; on detecting a remote dirty copy it triggers
  that processor's write-back and retries until the block is clean.
* **read-invalidate** — fetch *and* obtain exclusive ownership: every
  coupled cache directory it passes drops its valid copy; a remote dirty
  copy triggers a write-back first.
* **write-back** — flush the exclusive dirty copy to the banks; detects
  nothing (highest priority, Table 5.2).

Because every block access visits every bank, and every bank shares a
directory with its coupled processor (Fig 5.1), the invalidations and the
dirty-copy detection happen *in passing*, pipelined — no broadcast bus, no
point-to-point invalidation messages, no acknowledgements.

Autonomous access control (§5.2.4) combines two mechanisms the paper
describes: ATT entries inserted by read-invalidate and write-back
operations (detected by reads and read-invalidates per Table 5.2), and the
processor-record check — an operation visiting a coupled bank also sees
that processor's *in-flight* operation, closing the window where an
earlier-issued access has already passed the later one's first bank.

The CPU-level state machine reads Table 5.1 from
:data:`repro.cache.state.TABLE_5_1` rather than restating it: hits are
served locally in one cycle; a dirty victim is written back before its
line is refilled.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.block import Block, Word
from repro.core.cfm import (
    AccessController,
    AccessKind,
    AccessState,
    BlockAccess,
    CFMemory,
    ControlAction,
)
from repro.core.config import CFMConfig
from repro.cache.directory import CacheDirectory, CacheLine
from repro.cache.state import TABLE_5_1, CacheLineState, RemoteAction
from repro.sim.engine import all_settled, raise_timeout, run_until
from repro.tracking.att import AddressTrackingTable

_NEVER = 1 << 62  # a wake slot no run reaches
_PROCEED = ControlAction.PROCEED
_WRITE_BACK = AccessKind.WRITE_BACK
_PASS = RemoteAction.PASS
_INVALIDATE = RemoteAction.INVALIDATE
_TRIGGER_WB = RemoteAction.WRITE_BACK

class CpuOpKind(enum.Enum):
    """Processor-level request kinds against the coherent memory."""
    LOAD = "load"
    STORE = "store"
    ACQUIRE = "acquire"  # read-invalidate with wb_disabled: sync-op phase 1
    WRITEBACK = "writeback"  # explicit flush: sync-op phase 3
    __hash__ = object.__hash__  # singletons: dict lookups call no Python


#: The Table 5.1 rule of each request kind that reads it: an acquire is a
#: store that also disables triggered write-back (§5.3.1); an explicit
#: write-back is no Table 5.1 access.
_RULES = {
    CpuOpKind.LOAD: TABLE_5_1[AccessKind.READ],
    CpuOpKind.STORE: TABLE_5_1[AccessKind.READ_INVALIDATE],
    CpuOpKind.ACQUIRE: TABLE_5_1[AccessKind.READ_INVALIDATE],
}


class OpPhase(enum.Enum):
    """Lifecycle of a CPU request through the protocol machine."""
    QUEUED = "queued"
    VICTIM_WB = "victim_wb"
    MEMORY = "memory"
    DONE = "done"


@dataclass
class CpuOp:
    """One processor-level request against the coherent memory system."""

    proc: int
    kind: CpuOpKind
    offset: int
    store_words: Dict[int, int] = field(default_factory=dict)
    on_done: Optional[Callable[["CpuOp"], None]] = None

    phase: OpPhase = OpPhase.QUEUED
    issue_slot: int = -1
    done_slot: int = -1
    result: Optional[Block] = None
    memory_accesses: int = 0
    retries: int = 0
    was_hit: bool = False
    invalidate_on_fill: bool = False

    @property
    def done(self) -> bool:
        return self.phase is OpPhase.DONE

    @property
    def latency(self) -> int:
        if not self.done:
            raise ValueError("op has not completed")
        return self.done_slot - self.issue_slot + 1


@dataclass(slots=True)
class _ProcState:
    directory: CacheDirectory
    current_access: Optional[BlockAccess] = None
    current_op: Optional[CpuOp] = None
    cpu_queue: Deque[CpuOp] = field(default_factory=deque)
    wb_queue: Deque[int] = field(default_factory=deque)  # triggered write-backs
    reissue_at: int = -1  # when the retried memory access may go again
    local_done_at: int = -1  # completion slot of a 1-cycle local hit


class _ProtocolController(AccessController):
    """Access control + coherence actions performed at each bank visit."""

    # Retry delays per Table 5.2: immediately after a write-back completes
    # the block is available, so retry next slot; a competing
    # read-invalidate holds the block longer, so retry after a short delay.
    RETRY_AFTER_WB = 1
    RETRY_AFTER_RI = 3

    def __init__(self, system: "CacheSystem"):
        # The system's directory and processor lists, not the system: the
        # system holds this controller, and a reference back would make
        # every finished run a cycle for the collector.
        self.dirs = system.dirs
        self.procs = system.procs
        n_banks = system.cfg.n_banks
        self.atts = [
            AddressTrackingTable(max(1, n_banks - 1)) for _ in range(n_banks)
        ]
        # Per bank: the offsets its ATT holds entries for (the table's own
        # offset index, read in place), and the coupled processor.
        # on_bank consults both at every visit, so neither is a call.
        self._att_offsets = [att._by_offset for att in self.atts]
        self._coupled = [system.coupled_proc(k) for k in range(n_banks)]
        self.retry_delay: Dict[int, int] = {}  # access_id -> chosen delay
        self._dead_ops: set = set()  # aborted ops: their entries are void
        self.triggered_writebacks = 0
        self.invalidations_sent = 0

    # -- engine hooks -------------------------------------------------------

    def on_start(self, mem: CFMemory, access: BlockAccess, slot: int) -> None:
        if access.kind in (AccessKind.READ_INVALIDATE, AccessKind.WRITE_BACK):
            att = self.atts[access.first_bank]
            att.prune(slot)
            att.insert(access.offset, access.access_id, access.kind, slot)

    def on_bank(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> ControlAction:
        if access.kind is _WRITE_BACK:
            return _PROCEED  # detects nothing (Table 5.2)
        action = None
        if access.offset in self._att_offsets[bank]:
            action = self._check_att(mem, access, bank, slot)
        if action is None:
            q = self._coupled[bank]
            if q is None or q == access.proc:
                return _PROCEED
            action = self._check_directory(access, q, slot)
        if action is ControlAction.RETRY:
            # The access aborts: void its own ATT entry so survivors don't
            # keep deferring to a ghost.
            dead = self._dead_ops
            dead.add(access.access_id)
            if len(dead) > 4096:
                # Dead-op ids only matter while their entries are in some
                # ATT.  (No on_slot hook: the ATTs are not pruned per
                # slot either; lookups age-filter, and expiry is GC done
                # per table where entries arrive, in on_start.)
                dead &= {e.op_id for att in self.atts
                         for e in att.entries_at(slot)}
        return action

    def inert(self, active: List[BlockAccess]) -> bool:
        """Would every bank visit of the started accesses ``active`` pass
        :meth:`on_bank` untouched until one of them finishes?

        Sufficient, per access (Table 5.2 and the directory rules): its
        offset is shared with no other in-flight access, unless both only
        read, and no other directory holds the offset, or for a read holds
        it dirty.  A write-back detects nothing itself.  No ATT entry can
        interfere: an entry is seen for b - 1 slots after its access's
        first word, an access takes b slots, and a span starts at least a
        slot after any finish, so only in-flight accesses (covered by the
        offset rule) and aborted ones (dead, so ignored) hold live
        entries.  None of this changes before an access finishes or a
        processor acts, the two events that end a span.
        """
        kinds: Dict[int, AccessKind] = {}
        for acc in active:
            prev = kinds.get(acc.offset)
            if prev is not None and (prev is not AccessKind.READ
                                     or acc.kind is not AccessKind.READ):
                return False
            kinds[acc.offset] = acc.kind
        dirs = self.dirs
        for acc in active:
            kind = acc.kind
            if kind is _WRITE_BACK:
                continue
            remote = TABLE_5_1[kind].remote
            for q, directory in enumerate(dirs):
                line = directory.lookup(acc.offset)
                if line is not None and q != acc.proc \
                        and remote[line.state] is not _PASS:
                    return False
        return True

    # -- Table 5.2 via ATTs ---------------------------------------------------

    def _check_att(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> Optional[ControlAction]:
        hits = self.atts[bank].lookup(access.offset, slot,
                                      exclude_op=access.access_id)
        if not hits:
            return None
        if access.kind is not AccessKind.READ:
            # READ_INVALIDATE: first-issued wins, bank-0 anchored.  Every
            # write-back entry counts; a read-invalidate entry only from
            # age min_age on.
            n = access.words_done
            min_age = n + 1 if access.visited_bank_zero() else max(1, n)
            hits = [
                e for e in hits
                if e.kind is AccessKind.WRITE_BACK
                or (e.kind is AccessKind.READ_INVALIDATE
                    and slot - e.insert_slot >= min_age)
            ]
        # Processor-record refinement (§5.2.4): a read-invalidate entry
        # whose operation *aborted* is no competition — without this, stale
        # entries from a crowd of retrying read-invalidates livelock each
        # other.  Entries of COMPLETED operations remain binding: a
        # completed read-invalidate means its issuer is now the dirty
        # owner, and a completed write-back's data-interleaving window is
        # still open for up to m−1 slots.  (Both age out of the ATT
        # naturally right after completion.)
        hits = [e for e in hits if e.op_id not in self._dead_ops]
        if not hits:
            return None
        if any(e.kind is AccessKind.WRITE_BACK for e in hits):
            self.retry_delay[access.access_id] = self.RETRY_AFTER_WB
        else:
            self.retry_delay[access.access_id] = self.RETRY_AFTER_RI
        return ControlAction.RETRY

    # -- coherence actions at coupled banks ------------------------------------

    def _check_directory(
        self, access: BlockAccess, q: int, slot: int
    ) -> ControlAction:
        dirs, procs = self.dirs, self.procs
        line = dirs[q].lookup(access.offset)
        # Processor-record check (§5.2.4 alternative mechanism): the coupled
        # processor's own in-flight operation is visible here too.
        inflight = procs[q].current_access
        if inflight is not None and inflight.offset == access.offset:
            if access.kind is AccessKind.READ_INVALIDATE:
                if inflight.kind is AccessKind.WRITE_BACK:
                    self.retry_delay[access.access_id] = self.RETRY_AFTER_WB
                    return ControlAction.RETRY
                if (
                    inflight.kind is AccessKind.READ_INVALIDATE
                    and inflight.issue_slot < access.issue_slot
                ):
                    # First-issued wins (the ATT's bank-0 anchor arbitrates
                    # exact ties); an unconditional retry here would let a
                    # crowd of read-invalidates kill each other forever.
                    self.retry_delay[access.access_id] = self.RETRY_AFTER_RI
                    return ControlAction.RETRY
                if inflight.kind is AccessKind.READ:
                    # The remote read may already have passed our first bank:
                    # deliver its value but do not let it cache the block.
                    op = procs[q].current_op
                    if op is not None and op.offset == access.offset:
                        op.invalidate_on_fill = True
            elif access.kind is AccessKind.READ:
                if inflight.kind is AccessKind.READ_INVALIDATE:
                    # q is becoming the exclusive owner; our fill would be a
                    # stale valid copy the moment q's modification lands.
                    # Deliver the (consistently old) value uncached.
                    my_op = procs[access.proc].current_op
                    if my_op is not None and my_op.offset == access.offset:
                        my_op.invalidate_on_fill = True
        if line is None:
            return _PROCEED
        remote = TABLE_5_1[access.kind].remote[line.state]
        if remote is _INVALIDATE:
            dirs[q].invalidate(access.offset)
            self.invalidations_sent += 1
        elif remote is _TRIGGER_WB:
            self._trigger_writeback(q, access)
            return ControlAction.RETRY
        return _PROCEED

    def _trigger_writeback(self, q: int, access: BlockAccess) -> None:
        st = self.procs[q]
        line = st.directory.lookup(access.offset)
        if line is not None and line.wb_disabled:
            # A synchronization operation owns the block: just keep retrying
            # (§5.3.1 — remotely triggered write-back is disabled).
            self.retry_delay[access.access_id] = self.RETRY_AFTER_RI
            return
        if access.offset not in st.wb_queue:
            st.wb_queue.append(access.offset)
            self.triggered_writebacks += 1
        self.retry_delay[access.access_id] = self.RETRY_AFTER_WB


class CacheSystem:
    """An n-processor CFM with coherent private caches."""

    def __init__(
        self,
        n_procs: int,
        bank_cycle: int = 1,
        n_lines: int = 64,
        word_width: int = 32,
        probe=None,
        metrics=None,
        faults=None,
    ):
        self.cfg = CFMConfig(
            n_procs=n_procs, bank_cycle=bank_cycle, word_width=word_width
        )
        self.dirs = [CacheDirectory(p, n_lines) for p in range(n_procs)]
        self.procs = [_ProcState(directory=self.dirs[p]) for p in range(n_procs)]
        self.controller = _ProtocolController(self)
        # The shared probe/metrics flow down into the block-access engine,
        # so one registry sees both protocol ops and bank utilization.
        self.mem = CFMemory(
            self.cfg, controller=self.controller, probe=probe, metrics=metrics
        )
        #: Optional :class:`repro.faults.FaultInjector`, shared with the
        #: underlying engine: bank faults fire at the bank visits, while
        #: completion faults (delay/loss) are applied here, at the point
        #: where the engine's finish callback re-enters the protocol.
        self.faults = faults
        if faults is not None:
            self.mem.faults = faults
        # Delayed completion deliveries, keyed (due_slot, seq); drained at
        # the top of tick() so a delayed fill lands at a deterministic slot.
        self._delayed: List[Tuple[int, int, Callable[[], None]]] = []
        self._delay_seq = itertools.count()
        self.stats_local_hits = 0
        self.stats_memory_ops = 0
        # The earliest slot at which some processor may act (see tick).
        # Every event that changes a processor's state resets it to 0: a
        # request, or a finished access (a triggered write-back aborts
        # the access that triggers it, so it comes with one).
        self._cpu_wake = 0
        # _quiet_until's answer since the last processor scan, if any.
        self._quiet: Optional[int] = None
        self.probe = probe
        self.metrics = metrics
        if metrics is not None:
            self._op_latency = metrics.histogram("cache.op_latency")
            self._op_counters = metrics.counter("cache.ops")

    # -- topology ---------------------------------------------------------------

    def coupled_proc(self, bank: int) -> Optional[int]:
        """The processor sharing a directory with ``bank`` (Fig 5.1).

        Processor p is coupled with bank c·p; with c > 1 the in-between
        banks carry no directory."""
        c = self.cfg.bank_cycle
        if bank % c != 0:
            return None
        return bank // c

    @property
    def slot(self) -> int:
        return self.mem.slot

    # -- public request API -------------------------------------------------------

    def load(self, proc: int, offset: int,
             on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        op = CpuOp(proc=proc, kind=CpuOpKind.LOAD, offset=offset, on_done=on_done)
        self.procs[proc].cpu_queue.append(op)
        self._cpu_wake = 0
        return op

    def store(self, proc: int, offset: int, words: Dict[int, int],
              on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        op = CpuOp(
            proc=proc, kind=CpuOpKind.STORE, offset=offset,
            store_words=dict(words), on_done=on_done,
        )
        self.procs[proc].cpu_queue.append(op)
        self._cpu_wake = 0
        return op

    def acquire(self, proc: int, offset: int,
                on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        """Obtain exclusive ownership with triggered write-back disabled —
        phase 1 of a synchronization operation (§5.3.1)."""
        op = CpuOp(proc=proc, kind=CpuOpKind.ACQUIRE, offset=offset, on_done=on_done)
        self.procs[proc].cpu_queue.append(op)
        self._cpu_wake = 0
        return op

    def flush(self, proc: int, offset: int,
              on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        """Explicit write-back of an owned block — sync-op phase 3."""
        op = CpuOp(proc=proc, kind=CpuOpKind.WRITEBACK, offset=offset, on_done=on_done)
        self.procs[proc].cpu_queue.append(op)
        self._cpu_wake = 0
        return op

    def modify_owned(self, proc: int, offset: int, words: Dict[int, int]) -> Block:
        """Modify an exclusively owned block in place (the 1-cycle local
        modification phase of a sync op).  Raises unless the line is DIRTY."""
        line = self.dirs[proc].lookup(offset)
        if line is None or line.state is not CacheLineState.DIRTY:
            raise ValueError(f"proc {proc} does not own block {offset} dirty")
        assert line.data is not None
        data = line.data
        for idx, val in words.items():
            data = data.with_word(idx, Word(val, f"p{proc}@{self.slot}"))
        line.data = data
        return data

    # -- invariants ----------------------------------------------------------------

    def dirty_owners(self, offset: int) -> List[int]:
        return [
            p
            for p in range(self.cfg.n_procs)
            if self.dirs[p].state_of(offset) is CacheLineState.DIRTY
        ]

    def check_coherence_invariant(self) -> None:
        """At most one dirty copy; a dirty copy excludes valid copies."""
        offsets = set()
        for d in self.dirs:
            offsets.update(d.dirty_offsets())
        for off in offsets:
            owners = self.dirty_owners(off)
            if len(owners) > 1:
                raise AssertionError(f"block {off} dirty in {owners}")
            sharers = [
                p
                for p in range(self.cfg.n_procs)
                if self.dirs[p].state_of(off) is CacheLineState.VALID
            ]
            if owners and sharers:
                raise AssertionError(
                    f"block {off} dirty in {owners} but valid in {sharers}"
                )

    # -- engine ------------------------------------------------------------------

    def tick(self) -> None:
        mem = self.mem
        slot = mem.slot
        dq = self._delayed
        while dq and dq[0][0] <= slot:
            heapq.heappop(dq)[2]()
        if self._cpu_wake <= slot:
            # Run the processors' state machines.  A processor waiting on
            # its in-flight access, or with nothing to do, would be left
            # alone (a local hit is never due beside an access: it is
            # finished, or falls back to the miss path, before its
            # processor issues again), and it stays so until an event
            # resets _cpu_wake: a request or a finished access, each
            # caused by some scan or reaching it.  So once a scan has
            # advanced no processor, the scans stop until the next event.
            # A scan also drops _quiet_until's answer.
            self._quiet = None
            wake = _NEVER
            for p, st in enumerate(self.procs):
                if st.current_access is not None or (
                        st.current_op is None and not st.cpu_queue
                        and not st.wb_queue):
                    continue
                self._advance_proc(p, st, slot)
                wake = slot + 1
            self._cpu_wake = wake
        mem.tick()

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.tick()

    def run_until(self, done: Callable[[], bool], max_slots: int = 200_000) -> int:
        """Tick until ``done()``; strict timeout at ``start + max_slots``
        (:func:`repro.sim.engine.run_until`), the boundary :meth:`run_ops`
        shares, so both raise :class:`SimulationTimeout` at the same slot.
        """
        return run_until(self.tick, done, lambda: self.mem.slot, max_slots,
                         "cache ops", self._stuck)

    def run_ops(self, ops: List[CpuOp], max_slots: int = 200_000) -> None:
        """:meth:`run_until` all ``ops`` are done, result-identical to
        ticking every slot: where :meth:`_quiet_until` proves that the
        next slots hold nothing but the memory's straight walk, they pass
        in one :meth:`CFMemory._advance_span`."""
        done = all_settled(ops)
        mem = self.mem
        limit = mem.slot + max_slots  # no span may reach it
        while not done():
            slot = mem.slot
            if slot >= limit:
                raise_timeout("cache ops", slot, max_slots, self._stuck())
            if self._cpu_wake > slot + 1:
                end = self._quiet_until(slot)
                if end > slot:
                    mem._advance_span(end if end < limit else limit - 1)
                    continue
            self.tick()

    def _quiet_until(self, slot: int) -> int:
        """The last slot, from ``slot`` on, through which only the
        memory's straight walk happens: no processor acts (``_cpu_wake``),
        no access finishes, and every bank visit passes the controller
        untouched (:meth:`_ProtocolController.inert`).  Below ``slot``
        when ``slot`` itself must be ticked.

        Probes, live faults and the degraded schedule are defined per
        slot, so each of those ticks.  Every in-flight access has started
        (made its ATT insertion): accesses are issued only by a processor
        scan, whose slot's memory tick starts them, and a scan that
        advanced a processor is followed by another.  The answer holds
        until the next event, and every event is followed by a processor
        scan, so it is worked out once per scan.
        """
        if self._cpu_wake <= slot + 1:
            return slot - 1
        if self._quiet is not None:
            return self._quiet
        mem = self.mem
        end = slot - 1
        if not (self.probe is not None or mem.probe is not None
                or mem._dead_bank is not None or self._delayed
                or (self.faults is not None and self.faults.active)):
            end = self._cpu_wake - 1
            for acc in mem.active:
                # The slot before this access performs its last word.
                finish = slot + mem.cfg.n_banks - acc.words_done - 2
                if finish < end:
                    end = finish
            if end > slot and not self.controller.inert(mem.active):
                end = slot - 1
        self._quiet = end
        return end

    def _stuck(self) -> List[str]:
        """Timeout forensics: each processor's op in flight and queues."""
        stuck: List[str] = []
        for p, st in enumerate(self.procs):
            op = st.current_op
            if op is not None:
                stuck.append(
                    f"proc {p} {op.kind.value}@{op.offset} "
                    f"phase={op.phase.value} retries={op.retries} "
                    f"reissue_at={st.reissue_at}"
                )
            if st.wb_queue:
                stuck.append(f"proc {p} wb_queue={list(st.wb_queue)}")
            if st.cpu_queue:
                stuck.append(f"proc {p} {len(st.cpu_queue)} ops queued")
        return stuck

    # -- per-processor state machine -------------------------------------------------

    def _advance_proc(self, p: int, st: _ProcState, slot: int) -> None:
        # Finish a local hit scheduled last slot — unless a remote
        # read-invalidate snatched the line in between, in which case the
        # op falls back to the miss path.
        op = st.current_op
        if op is not None and st.local_done_at == slot and op.phase is not OpPhase.DONE:
            line = st.directory.lookup(op.offset)
            still_ok = op.kind is CpuOpKind.WRITEBACK or (
                line is not None and line.state in _RULES[op.kind].hits)
            if still_ok:
                self._complete_op(p, st, op, slot)
            else:
                op.was_hit = False
                st.local_done_at = -1
                self._start_op(p, st, op, slot)
            op = st.current_op
        if st.current_access is not None:
            return  # a memory access is in flight
        # Triggered write-backs have priority (Table 5.4 spirit).
        if st.wb_queue:
            off = st.wb_queue[0]
            line = st.directory.lookup(off)
            if line is None or line.state is not CacheLineState.DIRTY or line.wb_disabled:
                st.wb_queue.popleft()  # stale or deferred trigger
            else:
                st.wb_queue.popleft()
                self._issue_writeback(p, st, off, None)
                return
        if op is None:
            if not st.cpu_queue:
                return
            op = st.cpu_queue.popleft()
            op.issue_slot = slot
            st.current_op = op
            self._start_op(p, st, op, slot)
            return
        # An op is waiting to (re)issue its memory access.
        if st.reissue_at > slot:
            return
        if op.phase in (OpPhase.MEMORY, OpPhase.VICTIM_WB):
            self._issue_for_op(p, st, op)

    def _start_op(self, p: int, st: _ProcState, op: CpuOp, slot: int) -> None:
        line = st.directory.lookup(op.offset)
        if op.kind is CpuOpKind.WRITEBACK:
            if line is None or line.state is not CacheLineState.DIRTY:
                # Already flushed (a triggered write-back got there first);
                # the publish is done — complete as a no-op.
                op.result = line.data if line is not None else None
                st.local_done_at = slot + 1
                return
            op.phase = OpPhase.MEMORY
            self._issue_for_op(p, st, op)
            return
        if line is not None and line.state in _RULES[op.kind].hits:
            op.was_hit = True
            st.local_done_at = slot + 1
            if op.kind is CpuOpKind.ACQUIRE:
                line.wb_disabled = True
            else:
                self.stats_local_hits += 1
            return
        # Memory work needed.  A dirty victim in the target line must be
        # written back before the refill (write-back on replacement, §5.2.2).
        victim = st.directory.line_for(op.offset)
        if (
            victim.state is CacheLineState.DIRTY
            and victim.tag is not None
            and victim.tag != op.offset
        ):
            op.phase = OpPhase.VICTIM_WB
        else:
            op.phase = OpPhase.MEMORY
        self._issue_for_op(p, st, op)

    def _issue_for_op(self, p: int, st: _ProcState, op: CpuOp) -> None:
        if op.phase is OpPhase.VICTIM_WB:
            victim = st.directory.line_for(op.offset)
            assert victim.tag is not None
            self._issue_writeback(p, st, victim.tag, op)
            return
        if op.kind is CpuOpKind.WRITEBACK:
            self._issue_writeback(p, st, op.offset, op)
            return
        self.stats_memory_ops += 1
        op.memory_accesses += 1
        st.current_access = self.mem.issue(
            p, _RULES[op.kind].op, op.offset,
            on_finish=lambda acc, p=p, op=op: self._access_finished(p, op, acc),
        )

    def _issue_writeback(self, p: int, st: _ProcState, offset: int,
                         op: Optional[CpuOp]) -> None:
        line = st.directory.lookup(offset)
        assert line is not None and line.data is not None
        self.stats_memory_ops += 1
        if op is not None:
            op.memory_accesses += 1
        st.current_access = self.mem.issue(
            p, AccessKind.WRITE_BACK, offset,
            data=line.data, version=f"wb-p{p}@{self.slot}",
            on_finish=lambda acc, p=p, op=op: self._writeback_finished(p, op, acc),
        )

    # -- completion handlers --------------------------------------------------------

    def _access_finished(self, p: int, op: CpuOp, acc: BlockAccess) -> None:
        faults = self.faults
        if faults is not None and faults.active and acc.state is AccessState.COMPLETED:
            fate = faults.completion_fate(p, self.slot)
            if fate == "lost":
                # The completion never reaches the processor: leave its
                # state untouched so it wedges, and let the run_until
                # timeout forensics escalate it by name — a lost message
                # must never look like a clean retry.
                faults.count("completion.lost")
                return
            if fate is not None:
                _, delay = fate
                faults.count("completion.delayed")
                heapq.heappush(
                    self._delayed,
                    (self.slot + delay, next(self._delay_seq),
                     lambda: self._access_finished_now(p, op, acc)),
                )
                return
        self._access_finished_now(p, op, acc)

    def _access_finished_now(self, p: int, op: CpuOp, acc: BlockAccess) -> None:
        st = self.procs[p]
        st.current_access = None
        self._cpu_wake = 0
        if acc.state is AccessState.ABORTED:
            op.retries += 1
            delay = self.controller.retry_delay.pop(acc.access_id, 1)
            st.reissue_at = self.slot + delay
            return
        assert acc.complete_slot is not None
        done_slot = acc.complete_slot  # includes the c−1 pipeline drain
        if done_slot < self.slot:
            done_slot = self.slot  # a delayed delivery completes on arrival
        if op.invalidate_on_fill:
            # A concurrent read-invalidate claimed the block while this
            # load's read was in flight: deliver the (consistently old)
            # value, do not cache it.
            op.result = acc.result
        else:
            line = self.dirs[p].fill(op.offset, acc.result,
                                     TABLE_5_1[acc.kind].fill)
            if op.kind is CpuOpKind.STORE and op.store_words:
                self.modify_owned(p, op.offset, op.store_words)
            if op.kind is CpuOpKind.ACQUIRE:
                line.wb_disabled = True
            op.result = line.data
        self._complete_op(p, st, op, done_slot)

    def _writeback_finished(self, p: int, op: Optional[CpuOp], acc: BlockAccess) -> None:
        st = self.procs[p]
        st.current_access = None
        self._cpu_wake = 0
        if acc.state is AccessState.ABORTED:
            # Only an injected bank fault can abort a write-back (it
            # detects nothing protocol-wise, Table 5.2): reissue it.
            assert acc.fault is not None, "write-back cannot abort without a fault"
            if op is not None:
                op.retries += 1
                st.reissue_at = self.slot + 1
                return
            # Triggered write-back: re-queue the offset; it re-issues with
            # the usual wb_queue priority.
            if acc.offset not in st.wb_queue:
                st.wb_queue.appendleft(acc.offset)
            return
        line = self.dirs[p].lookup(acc.offset)
        if line is not None:
            line.state = CacheLineState.VALID
            line.wb_disabled = False
        if op is None:
            return  # triggered write-back, no CPU op attached
        if op.phase is OpPhase.VICTIM_WB:
            # Victim flushed; the line may now be refilled.
            st.directory.invalidate(acc.offset)
            op.phase = OpPhase.MEMORY
            st.reissue_at = self.slot + 1
            return
        # Explicit WRITEBACK op.
        op.result = line.data if line is not None else None
        assert acc.complete_slot is not None
        self._complete_op(p, st, op, acc.complete_slot)

    def _complete_op(self, p: int, st: _ProcState, op: CpuOp, slot: int) -> None:
        op.phase = OpPhase.DONE
        op.done_slot = slot
        if op.kind is CpuOpKind.LOAD and op.result is None:
            line = st.directory.lookup(op.offset)
            assert line is not None and line.data is not None
            op.result = line.data
        if op.kind is CpuOpKind.STORE and op.was_hit:
            self.modify_owned(p, op.offset, op.store_words)
        if op.kind is CpuOpKind.ACQUIRE and op.result is None:
            line = st.directory.lookup(op.offset)
            assert line is not None and line.data is not None
            op.result = line.data
        st.current_op = None
        st.local_done_at = -1
        if self.metrics is not None:
            self._op_latency.add(op.latency)
            self._op_counters.incr(op.kind.value)
            if op.was_hit:
                self._op_counters.incr("local_hits")
        if self.probe is not None:
            self.probe.emit(
                "cache", "op_done", slot, proc=p, kind=op.kind.value,
                offset=op.offset, latency=op.latency, hit=op.was_hit,
            )
        if op.on_done is not None:
            op.on_done(op)
