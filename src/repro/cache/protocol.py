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

The CPU-level state machine implements Table 5.1 exactly: hits are served
locally in one cycle; a dirty victim is written back before its line is
refilled; stores require exclusivity.
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
from repro.cache.state import CacheLineState
from repro.fastpath.engine import ENGINE_REFERENCE, resolve_engine
from repro.sim.engine import SimulationTimeout
from repro.tracking.att import AddressTrackingTable

#: Sentinel "no upcoming event" slot for the batch classifiers.
_FAR = 1 << 60


class CpuOpKind(enum.Enum):
    """Processor-level request kinds against the coherent memory."""
    LOAD = "load"
    STORE = "store"
    ACQUIRE = "acquire"  # read-invalidate with wb_disabled: sync-op phase 1
    WRITEBACK = "writeback"  # explicit flush: sync-op phase 3


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


@dataclass
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
        self.sys = system
        n_banks = system.cfg.n_banks
        self.atts = [
            AddressTrackingTable(max(1, n_banks - 1)) for _ in range(n_banks)
        ]
        self.retry_delay: Dict[int, int] = {}  # access_id -> chosen delay
        self._dead_ops: set = set()  # aborted ops: their entries are void
        self.triggered_writebacks = 0
        self.invalidations_sent = 0
        # Cross-bank mirror of all live ATT entries, offset-keyed:
        # offset -> [(op_id, last_visible_slot), ...].  Lets the batch
        # classifier answer "any foreign entry for this offset, anywhere?"
        # in O(1) instead of probing every bank's ATT.  Entries are
        # age-filtered on read and garbage-collected lazily.
        self._entry_index: Dict[int, List] = {}
        self._index_sweep_at = 256

    # -- engine hooks -------------------------------------------------------

    def on_slot(self, mem: CFMemory, slot: int) -> None:
        for att in self.atts:
            att.prune(slot)
        if len(self._entry_index) > self._index_sweep_at:
            self._sweep_entry_index(slot)
        if len(self._dead_ops) > 4096:
            # Dead-op ids only matter while their entries are in some ATT.
            live_entries = {
                e.op_id for att in self.atts for e in att.entries_at(slot)
            }
            self._dead_ops &= live_entries

    def on_start(self, mem: CFMemory, access: BlockAccess, slot: int) -> None:
        if access.kind in (AccessKind.READ_INVALIDATE, AccessKind.WRITE_BACK):
            self.atts[access.first_bank].insert(
                access.offset, access.access_id, access.kind, slot
            )
            capacity = self.atts[access.first_bank].capacity
            self._entry_index.setdefault(access.offset, []).append(
                (access.access_id, slot + capacity)
            )

    def _sweep_entry_index(self, slot: int) -> None:
        index = self._entry_index
        for offset in list(index):
            live = [t for t in index[offset] if t[1] >= slot]
            if live:
                index[offset] = live
            else:
                del index[offset]
        self._index_sweep_at = max(256, 2 * len(index))

    def has_foreign_entry(self, offset: int, access_id: int, slot: int) -> bool:
        """Any live ATT entry for ``offset`` from a different access?

        Conservative w.r.t. Table 5.2: age windows and dead-op filtering
        are ignored (a dead or out-of-window entry reads as "foreign"),
        which can only push the caller onto the slow path, never let it
        batch past a real interaction.
        """
        row = self._entry_index.get(offset)
        if row is None:
            return False
        live = [t for t in row if t[1] >= slot]
        if not live:
            del self._entry_index[offset]
            return False
        if len(live) != len(row):
            self._entry_index[offset] = live
        for op_id, _exp in live:
            if op_id != access_id:
                return True
        return False

    def on_bank(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> ControlAction:
        if access.kind is AccessKind.WRITE_BACK:
            return ControlAction.PROCEED  # detects nothing (Table 5.2)
        action = self._check_att(mem, access, bank, slot)
        if action is None:
            q = self.sys.coupled_proc(bank)
            if q is None or q == access.proc:
                action = ControlAction.PROCEED
            else:
                action = self._check_directory(access, q, slot)
        if action is ControlAction.RETRY:
            # The access aborts: void its own ATT entry so survivors don't
            # keep deferring to a ghost.
            self._dead_ops.add(access.access_id)
        return action

    # -- Table 5.2 via ATTs ---------------------------------------------------

    def _check_att(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> Optional[ControlAction]:
        att = self.atts[bank]
        if access.kind is AccessKind.READ:
            hits = att.lookup(access.offset, slot, exclude_op=access.access_id)
        else:  # READ_INVALIDATE: first-issued wins, bank-0 anchored
            n = access.words_done
            min_age = n + 1 if access.visited_bank_zero() else max(1, n)
            ri_hits = [
                e
                for e in att.lookup(
                    access.offset, slot, min_age=min_age, exclude_op=access.access_id
                )
                if e.kind is AccessKind.READ_INVALIDATE
            ]
            wb_hits = [
                e
                for e in att.lookup(access.offset, slot, exclude_op=access.access_id)
                if e.kind is AccessKind.WRITE_BACK
            ]
            hits = ri_hits + wb_hits
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
        sys = self.sys
        line = sys.dirs[q].lookup(access.offset)
        # Processor-record check (§5.2.4 alternative mechanism): the coupled
        # processor's own in-flight operation is visible here too.
        inflight = sys.procs[q].current_access
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
                    op = sys.procs[q].current_op
                    if op is not None and op.offset == access.offset:
                        op.invalidate_on_fill = True
            elif access.kind is AccessKind.READ:
                if inflight.kind is AccessKind.READ_INVALIDATE:
                    # q is becoming the exclusive owner; our fill would be a
                    # stale valid copy the moment q's modification lands.
                    # Deliver the (consistently old) value uncached.
                    my_op = sys.procs[access.proc].current_op
                    if my_op is not None and my_op.offset == access.offset:
                        my_op.invalidate_on_fill = True
        if line is None:
            return ControlAction.PROCEED
        if access.kind is AccessKind.READ_INVALIDATE:
            if line.state is CacheLineState.VALID:
                sys.dirs[q].invalidate(access.offset)
                self.invalidations_sent += 1
                return ControlAction.PROCEED
            if line.state is CacheLineState.DIRTY:
                self._trigger_writeback(q, access)
                return ControlAction.RETRY
        elif access.kind is AccessKind.READ:
            if line.state is CacheLineState.DIRTY:
                self._trigger_writeback(q, access)
                return ControlAction.RETRY
        return ControlAction.PROCEED

    def _trigger_writeback(self, q: int, access: BlockAccess) -> None:
        st = self.sys.procs[q]
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
        hotpath=None,
        faults=None,
        engine: Optional[str] = None,
    ):
        self.cfg = CFMConfig(
            n_procs=n_procs, bank_cycle=bank_cycle, word_width=word_width
        )
        #: Engine strategy used by :meth:`run_ops_engine` when none is
        #: passed per call; validated here so a bad name fails early —
        #: including engines this layer cannot drive (``stacked``).
        self.engine = resolve_engine(engine, layer="cache")
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
        # The profiler flows down too: the claim discipline (satellite of
        # the exclusive-counting invariant) attributes each slot to the
        # layer actually driving time.
        if hotpath is not None:
            self.mem.hotpath = hotpath
        # Delayed completion deliveries, keyed (due_slot, seq); drained at
        # the top of tick() so a delayed fill lands at a deterministic slot.
        self._delayed: List[Tuple[int, int, Callable[[], None]]] = []
        self._delay_seq = itertools.count()
        self.dirs = [CacheDirectory(p, n_lines) for p in range(n_procs)]
        self.procs = [_ProcState(directory=self.dirs[p]) for p in range(n_procs)]
        self.stats_local_hits = 0
        self.stats_memory_ops = 0
        self.probe = probe
        self.metrics = metrics
        #: Optional :class:`repro.obs.HotpathProfiler` counting how
        #: :meth:`run_ops_batch` advanced time (layer ``"cache"``).  Purely
        #: observational and — unlike probe/metrics — batch-compatible.
        self.hotpath = hotpath
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
        return op

    def store(self, proc: int, offset: int, words: Dict[int, int],
              on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        op = CpuOp(
            proc=proc, kind=CpuOpKind.STORE, offset=offset,
            store_words=dict(words), on_done=on_done,
        )
        self.procs[proc].cpu_queue.append(op)
        return op

    def acquire(self, proc: int, offset: int,
                on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        """Obtain exclusive ownership with triggered write-back disabled —
        phase 1 of a synchronization operation (§5.3.1)."""
        op = CpuOp(proc=proc, kind=CpuOpKind.ACQUIRE, offset=offset, on_done=on_done)
        self.procs[proc].cpu_queue.append(op)
        return op

    def flush(self, proc: int, offset: int,
              on_done: Optional[Callable[[CpuOp], None]] = None) -> CpuOp:
        """Explicit write-back of an owned block — sync-op phase 3."""
        op = CpuOp(proc=proc, kind=CpuOpKind.WRITEBACK, offset=offset, on_done=on_done)
        self.procs[proc].cpu_queue.append(op)
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
        slot = self.slot
        dq = self._delayed
        while dq and dq[0][0] <= slot:
            heapq.heappop(dq)[2]()
        for p, st in enumerate(self.procs):
            self._advance_proc(p, st, slot)
        self.mem.tick()

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.tick()

    def run_until(self, done: Callable[[], bool], max_slots: int = 200_000) -> int:
        """Tick until ``done()``; strict timeout at ``start + max_slots``.

        The guard fires the moment ``max_slots`` slots have elapsed — the
        repo-wide boundary every reference and batch driver shares, so all
        engines raise :class:`SimulationTimeout` at the identical slot.
        """
        start = self.slot
        while not done():
            if self.slot - start >= max_slots:
                self._raise_timeout(max_slots)
            self.tick()
        return self.slot - start

    def run_ops(self, ops: List[CpuOp], max_slots: int = 200_000) -> None:
        self.run_until(lambda: all(op.done for op in ops), max_slots)

    def _raise_timeout(self, max_slots: int) -> None:
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
        detail = "; ".join(stuck) if stuck else "no op in flight"
        raise SimulationTimeout(
            f"cache ops did not finish within {max_slots} slots "
            f"(now at slot {self.slot}); stuck: {detail}",
            slot=self.slot, max_slots=max_slots, stuck=stuck,
        )

    # -- batched epochs (stage-2 fastpath) -----------------------------------

    def run_ops_batch(self, ops: List[CpuOp], max_slots: int = 200_000) -> None:
        """Drive ``ops`` to completion, result-identical to :meth:`run_ops`.

        Groups execution into AT-period *epochs*: whenever every in-flight
        access is provably free of coherence interactions (no shared
        offsets, no live foreign ATT entries, no remote cached copies) and
        no processor-side event is due, the whole stretch up to the next
        event is serviced in one pass over the precomputed bank orders —
        exactly the walk :meth:`CFMemory.run_batch` performs — with
        completion callbacks fired at their slot-accurate times.  Any slot
        with potential coherence action (invalidations, write-backs,
        retries, sync ops) falls back to :meth:`tick`.

        The differential tests in ``tests/test_fastpath_stage2.py`` pin
        completion streams, directory/memory state, and stats to the
        per-slot reference.
        """
        self._run_ops_fast(ops, max_slots)

    def run_ops_engine(self, ops: List[CpuOp], max_slots: int = 200_000,
                       engine: Optional[str] = None) -> None:
        """Drive ``ops`` under the selected engine strategy.

        ``engine`` overrides the instance default for this call only;
        ``reference`` is the per-slot :meth:`run_ops`, ``batch`` and
        ``vectorized`` are aliases of :meth:`run_ops_batch`.  All produce
        bit-identical observable results (invariant 10).
        """
        name = resolve_engine(engine, default=self.engine, layer="cache")
        if name == ENGINE_REFERENCE:
            self.run_ops(ops, max_slots)
        else:
            self.run_ops_batch(ops, max_slots)

    def _run_ops_fast(self, ops: List[CpuOp], max_slots: int) -> None:
        start = self.slot
        limit = start + max_slots  # strict bound: no epoch may reach it
        hp = self.hotpath
        token = hp.claim("cache") if hp is not None else None
        try:
            remaining = [op for op in ops if not op.done]
            while remaining:
                if self.slot - start >= max_slots:
                    self._raise_timeout(max_slots)
                self._batch_step(limit)
                remaining = [op for op in remaining if not op.done]
        finally:
            if hp is not None:
                hp.release(token)

    def _batch_step(self, limit: int = _FAR) -> None:
        """Advance one epoch: a batch span, or one reference tick.

        ``limit`` is the first slot the epoch must not reach (the caller's
        timeout boundary)."""
        hp = self.hotpath
        if self.faults is not None and self.faults.active:
            # Live fault injection is defined per-slot (fault windows,
            # delayed deliveries): the whole run stays on the reference
            # path.  A zero plan does not reach here.
            if hp is not None:
                hp.count("cache", "tick.faults")
            self.tick()
            return
        if self.mem._dead_bank is not None:
            # The degraded b-1 schedule is defined per-slot (reduced
            # period, shadow-bank double words): the span walk would index
            # the period-(b-1) table with a mod-b phase.  Reference path.
            if hp is not None:
                hp.count("cache", "tick.degraded")
            self.tick()
            return
        if (
            self.probe is not None
            or self.metrics is not None
            or self.mem.probe is not None
            or self.mem.metrics is not None
        ):
            # Observers define per-slot event streams: stay on the
            # reference path (same rule as CFMemory._fast_eligible).
            if hp is not None:
                hp.count("cache", "tick.observed")
            self.tick()
            return
        slot = self.slot
        cpu_next = self._cpu_next_slot(slot)
        if cpu_next <= slot:
            # A processor acts this very slot (issue, local-hit completion,
            # write-back queue, reissue): expected per-slot work.
            if hp is not None:
                hp.count("cache", "tick.cpu")
            self.tick()
            return
        mem_next = self._mem_next_finish(slot)
        if mem_next < slot:
            if hp is not None:
                hp.count("cache", "tick.sync")
            self.tick()
            return
        target = mem_next if mem_next < cpu_next - 1 else cpu_next - 1
        if target >= _FAR - 1:
            # No upcoming event at all: nothing can ever complete.  Tick so
            # the slot counter moves and the timeout guard reports it.
            if hp is not None:
                hp.count("cache", "fallback.stall")
            self.tick()
            return
        if target >= limit:
            # Never let an epoch cross the caller's timeout boundary: the
            # span ends at limit - 1 so the guard fires at the identical
            # slot the reference loop would.
            target = limit - 1
        if self.mem.active:
            if not self._batch_clean(slot):
                if hp is not None:
                    hp.count("cache", "fallback.hazard")
                self.tick()
                return
            if hp is not None:
                hp.count("cache", "batched_slots", target - slot + 1)
        elif hp is not None:
            hp.count("cache", "skipped_slots", target - slot + 1)
        self.mem._advance_span(target)

    def _cpu_next_slot(self, slot: int) -> int:
        """Earliest slot at which some processor state machine acts.

        Mirrors :meth:`_advance_proc` case by case; returns ``slot`` when
        a processor acts *now* and ``_FAR`` when nothing is scheduled.
        """
        nxt = _FAR
        for st in self.procs:
            op = st.current_op
            lda = st.local_done_at
            if op is not None and lda >= slot:
                if lda < nxt:
                    nxt = lda
            if st.current_access is not None:
                continue  # woken by the access's completion, a memory event
            if st.wb_queue:
                return slot  # triggered write-backs issue immediately
            if op is None:
                if st.cpu_queue:
                    return slot  # a queued op issues this slot
                continue
            if lda >= slot:
                continue  # only the scheduled local completion remains
            if op.phase is OpPhase.MEMORY or op.phase is OpPhase.VICTIM_WB:
                ev = st.reissue_at
                if ev <= slot:
                    return slot
                if ev < nxt:
                    nxt = ev
                continue
            return slot  # unmodelled in-between state: defer to tick()
        return nxt

    def _mem_next_finish(self, slot: int) -> int:
        """Earliest completion slot among in-flight accesses.

        ``_FAR`` when nothing is in flight; ``slot - 1`` (i.e. "tick now")
        if any access has not performed its first word yet — its ATT
        insertion must go through the reference path.
        """
        active = self.mem.active
        if not active:
            return _FAR
        n_banks = self.cfg.n_banks
        most_done = 0
        for acc in active:
            done = acc.words_done
            if done == 0:
                return slot - 1
            if done > most_done:
                most_done = done
        return slot + n_banks - most_done - 1

    def _batch_clean(self, slot: int) -> bool:
        """Is every in-flight access provably free of coherence actions?

        Sufficient conditions per access, derived from
        :meth:`_ProtocolController.on_bank` (Table 5.2 + directory rules):

        * offsets pairwise distinct, except plain READ/READ sharing (the
          only same-offset pair with no rule and no data interleaving);
        * no live ATT entry for the offset from any other access
          (conservative superset of the Table 5.2 age windows);
        * no remote directory holds the offset — DIRTY triggers a
          write-back for any kind, and for READ_INVALIDATE even a VALID
          copy means an invalidation must be performed in passing;
        * WRITE_BACK accesses detect nothing themselves (Table 5.2) —
          their interactions are covered by the *other* accesses' checks.

        Waiting (not in-flight) remote ops need no check: the span ends
        strictly before any of them acts, and in-passing rules only read
        ``current_access``, never queued state.
        """
        dirs = self.dirs
        n_procs = self.cfg.n_procs
        ctrl = self.controller
        active = self.mem.active
        kinds: Dict[int, AccessKind] = {}
        for acc in active:
            prev = kinds.get(acc.offset)
            if prev is not None and (
                prev is not AccessKind.READ or acc.kind is not AccessKind.READ
            ):
                return False
            kinds[acc.offset] = acc.kind
        for acc in active:
            kind = acc.kind
            if kind is AccessKind.WRITE_BACK:
                continue
            offset = acc.offset
            if ctrl.has_foreign_entry(offset, acc.access_id, slot):
                return False
            proc = acc.proc
            if kind is AccessKind.READ_INVALIDATE:
                for q in range(n_procs):
                    if q != proc and dirs[q].lookup(offset) is not None:
                        return False
            else:  # READ: only a remote dirty copy triggers an action
                for q in range(n_procs):
                    if q != proc and (
                        dirs[q].state_of(offset) is CacheLineState.DIRTY
                    ):
                        return False
        return True

    # -- per-processor state machine -------------------------------------------------

    def _advance_proc(self, p: int, st: _ProcState, slot: int) -> None:
        # Finish a local hit scheduled last slot — unless a remote
        # read-invalidate snatched the line in between, in which case the
        # op falls back to the miss path.
        op = st.current_op
        if op is not None and st.local_done_at == slot and op.phase is not OpPhase.DONE:
            line = st.directory.lookup(op.offset)
            still_ok = op.kind is CpuOpKind.WRITEBACK or (
                line is not None
                and (
                    op.kind is CpuOpKind.LOAD
                    or line.state is CacheLineState.DIRTY
                )
            )
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
        state = line.state if line is not None else CacheLineState.INVALID
        if op.kind is CpuOpKind.LOAD and state is not CacheLineState.INVALID:
            op.was_hit = True
            self.stats_local_hits += 1
            st.local_done_at = slot + 1
            return
        if op.kind is CpuOpKind.STORE and state is CacheLineState.DIRTY:
            op.was_hit = True
            self.stats_local_hits += 1
            st.local_done_at = slot + 1
            return
        if op.kind is CpuOpKind.ACQUIRE and state is CacheLineState.DIRTY:
            op.was_hit = True
            assert line is not None
            line.wb_disabled = True
            st.local_done_at = slot + 1
            return
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
        kind = (
            AccessKind.READ
            if op.kind is CpuOpKind.LOAD
            else AccessKind.READ_INVALIDATE
        )
        self.stats_memory_ops += 1
        op.memory_accesses += 1
        st.current_access = self.mem.issue(
            p, kind, op.offset,
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
        if acc.state is AccessState.ABORTED:
            op.retries += 1
            delay = self.controller.retry_delay.pop(acc.access_id, 1)
            st.reissue_at = self.slot + delay
            return
        assert acc.complete_slot is not None
        done_slot = acc.complete_slot  # includes the c−1 pipeline drain
        if done_slot < self.slot:
            done_slot = self.slot  # a delayed delivery completes on arrival
        block = acc.result
        if acc.kind is AccessKind.READ:
            if op.invalidate_on_fill:
                # A concurrent read-invalidate claimed the block mid-flight:
                # deliver the (consistently old) value, do not cache it.
                op.result = block
            else:
                self.dirs[p].fill(op.offset, block, CacheLineState.VALID)
                op.result = block
            self._complete_op(p, st, op, done_slot)
            return
        # READ_INVALIDATE completed: we are the exclusive owner.
        line = self.dirs[p].fill(op.offset, block, CacheLineState.DIRTY)
        if op.kind is CpuOpKind.STORE and op.store_words:
            self.modify_owned(p, op.offset, op.store_words)
        if op.kind is CpuOpKind.ACQUIRE:
            line.wb_disabled = True
        op.result = self.dirs[p].lookup(op.offset).data  # type: ignore[union-attr]
        self._complete_op(p, st, op, done_slot)

    def _writeback_finished(self, p: int, op: Optional[CpuOp], acc: BlockAccess) -> None:
        st = self.procs[p]
        st.current_access = None
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
