"""The slot-accurate CFM memory engine (§3.1).

Model
-----
One module with *b* interleaved banks serves ``n = b/c`` processors.  Time
advances in slots (= CPU cycles).  At slot *t* the address path of processor
*p* is connected to exactly bank ``(t + c·p) mod b`` (Fig 3.5, Table 3.1).
A *block access* simply follows the path: it performs one word per slot,
starting at whatever bank the issue slot defines ("a block access can start
at any time slot", §3.1.1) and wrapping around all *b* banks; the final word
drains the bank pipeline for another ``c − 1`` cycles, so the access
completes ``β = b + c − 1`` slots after issue.

Conflict-freedom is *checked*, not assumed: :meth:`CFMemory.tick` raises
:class:`ConflictError` if two accesses ever address the same bank in the
same slot (the property tests show it never fires).

Access control hook
-------------------
The raw CFM has a data-consistency hazard for same-block concurrent
accesses (Fig 4.1).  The engine therefore consults an
:class:`AccessController` at every bank visit; the controller may let the
word proceed, abort the access, restart it from the current bank (the read
rule of §4.1.2), or abort it for re-issue by its owner (retry).  The default
:class:`PermissiveController` does nothing — deliberately reproducing the
Fig 4.1 corruption — while :class:`repro.tracking.access_control.
AddressTrackingController` implements the Chapter 4 rules.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.block import Block, Word
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINE_REFERENCE, resolve_engine
from repro.fastpath.tables import at_schedule
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.sim.criticality import parse_tier, rank_of
from repro.sim.engine import run_until

#: The value an untouched bank location reads as; shared so the hot read
#: path allocates nothing on a miss (Word is frozen, so sharing is safe).
_INIT_WORD = Word(0, "init")


class AccessKind(enum.Enum):
    """Direction/role of a block access.

    READ/WRITE are the ordinary operations of Chapter 3–4;
    READ_INVALIDATE/WRITE_BACK are the cache-protocol primitives of
    Chapter 5 (read/write direction respectively); SWAP_READ/SWAP_WRITE are
    the two phases of the atomic swap of §4.2.
    """

    READ = "read"
    WRITE = "write"
    READ_INVALIDATE = "read_invalidate"
    WRITE_BACK = "write_back"
    SWAP_READ = "swap_read"
    SWAP_WRITE = "swap_write"
    __hash__ = object.__hash__  # singletons: dict lookups call no Python

    @property
    def is_write(self) -> bool:
        """Does this access store into the banks?"""
        return self in _WRITE_KINDS

    @property
    def is_read(self) -> bool:
        return self not in _WRITE_KINDS


#: The kinds that store into the banks.  A module tuple rather than
#: class-attribute lookups: hot loops test ``kind in _WRITE_KINDS``.
_WRITE_KINDS = (AccessKind.WRITE, AccessKind.WRITE_BACK, AccessKind.SWAP_WRITE)


class AccessState(enum.Enum):
    """Lifecycle of a block access in the engine."""
    ACTIVE = "active"
    COMPLETED = "completed"
    ABORTED = "aborted"


class ControlAction(enum.Enum):
    """What the access controller tells the engine to do at a bank visit."""

    PROCEED = "proceed"
    ABORT = "abort"  # drop the access entirely (write loses, §4.1.2)
    RESTART = "restart"  # restart collection from the current bank (reads)
    RETRY = "retry"  # abort now; the issuer re-issues from scratch


class ConflictError(RuntimeError):
    """Two accesses addressed the same bank in the same slot."""


@dataclass(slots=True, eq=False)
class BlockAccess:
    """One in-flight block access.

    ``slots=True``: these are allocated once per access and touched once
    per slot — the dominant record type of the slot-accurate simulators.
    ``eq=False``: an access is one event, so two accesses are equal only
    when they are the same object; ``active.remove`` compares identities
    instead of building field tuples.
    """

    access_id: int
    proc: int
    kind: AccessKind
    offset: int
    issue_slot: int
    data: Optional[Block] = None  # bank-indexed words, writes only
    version: Optional[str] = None  # version tag stamped on written words
    tag: str = ""  # free-form label for traces/tests
    on_finish: Optional[Callable[["BlockAccess"], None]] = None

    state: AccessState = AccessState.ACTIVE
    words_done: int = 0
    first_bank: int = -1  # bank where the (possibly restarted) access began
    start_slot: int = -1  # slot of the current collection attempt
    restarts: int = 0
    final_action: Optional[ControlAction] = None  # ABORT vs RETRY, when aborted
    fault: Optional[str] = None  # injected-fault kind that hit this access
    fault_delay: int = 0  # extra drain slots from a slow-bank fault
    complete_slot: Optional[int] = None
    result_words: Dict[int, Word] = field(default_factory=dict)
    banks_written: List[int] = field(default_factory=list)
    # QoS: set by submit()-granted accesses only; None on direct issue().
    criticality: Optional[str] = None  # tier name (repro.sim.criticality)
    submit_slot: Optional[int] = None  # slot the op entered the entry queue
    deadline_slot: Optional[int] = None  # absolute SLA deadline, if any

    @property
    def result(self) -> Block:
        """The collected block (bank-indexed).  Valid once COMPLETED."""
        if self.state is not AccessState.COMPLETED or not self.kind.is_read:
            raise ValueError("result only available on a completed read access")
        words = self.result_words
        return Block(tuple(map(words.__getitem__, range(len(words)))))

    @property
    def latency(self) -> int:
        """Slots from issue to data-complete, β for an undisturbed access."""
        if self.complete_slot is None:
            raise ValueError("access has not completed")
        return self.complete_slot - self.issue_slot + 1

    @property
    def qos_latency(self) -> int:
        """Slots from submission to data-complete (queueing included).

        Falls back to :attr:`latency` for accesses issued directly (no
        entry-queue wait), so SLA accounting has one clock either way."""
        if self.complete_slot is None:
            raise ValueError("access has not completed")
        base = self.submit_slot if self.submit_slot is not None else self.issue_slot
        return self.complete_slot - base + 1

    @property
    def deadline_met(self) -> Optional[bool]:
        """Did the access make its SLA deadline?  ``None`` when it has none.

        A D-slot budget is met iff :attr:`qos_latency` ``<= D``; with
        ``deadline_slot = submit_slot + D`` that is ``complete_slot <
        deadline_slot`` (the submission slot counts as the first slot)."""
        if self.deadline_slot is None:
            return None
        if self.complete_slot is None:
            return False
        return self.complete_slot < self.deadline_slot

    def visited_bank_zero(self) -> bool:
        """Has this access already updated/visited physical bank 0?

        Used by the write-priority anchor of §4.1.2 ("whichever simultaneous
        same-address write operation accesses memory bank 0 first will have
        the highest priority")."""
        return 0 in self.banks_written or 0 in self.result_words


@dataclass(slots=True)
class PendingAccess:
    """One submitted op waiting for AT-space entry on its processor.

    A processor owns exactly one AT-space partition, so ops submitted
    while it is occupied queue here; :meth:`CFMemory._grant_entry` picks
    the winner the moment the partition frees.  ``seq`` is the global
    submission order (the FIFO tiebreaker), ``rank`` the criticality
    arbitration rank (lower wins a contended grant).  ``access`` is set
    once the op is granted and issued.
    """

    seq: int
    proc: int
    kind: AccessKind
    offset: int
    data: Optional[Block]
    version: Optional[str]
    tag: str
    on_finish: Optional[Callable[["BlockAccess"], None]]
    criticality: Optional[str]
    rank: int
    submit_slot: int
    deadline: Optional[int]  # relative SLA budget in slots, if any
    access: Optional[BlockAccess] = None

    @property
    def granted(self) -> bool:
        return self.access is not None


#: Valid arbitration policies for contended AT-space entry.
ARBITRATION_POLICIES = ("priority", "fifo")


class AccessController:
    """Hook interface consulted by the engine (see module docstring)."""

    def on_slot(self, mem: "CFMemory", slot: int) -> None:
        """Called once at the top of every slot (ATTs shift here)."""

    def on_bank(
        self, mem: "CFMemory", access: BlockAccess, bank: int, slot: int
    ) -> ControlAction:
        """Called when ``access``'s path reaches ``bank`` at ``slot``."""
        return ControlAction.PROCEED

    def on_start(self, mem: "CFMemory", access: BlockAccess, slot: int) -> None:
        """Called when an access performs its first word (incl. restarts)."""


class PermissiveController(AccessController):
    """No access control at all — exhibits the Fig 4.1 inconsistency."""


@cache
def _overrides(cls: type) -> Tuple[bool, bool, bool]:
    """Which of ``on_slot``, ``on_start``, ``on_bank`` controller class
    ``cls`` overrides.

    A hook left at the :class:`AccessController` no-op is never called:
    :meth:`CFMemory.tick` skips it, and a controller overriding none of
    them lets :meth:`CFMemory.run_batch` take the span walk.  Hooks are
    looked up on the class, so one test per class serves every slot.
    """
    return (cls.on_slot is not AccessController.on_slot,
            cls.on_start is not AccessController.on_start,
            cls.on_bank is not AccessController.on_bank)


#: ``insort`` key of the proc-sorted ``CFMemory.active``.
_BY_PROC = attrgetter("proc")


class CFMemory:
    """A conflict-free memory module and its access engine."""

    def __init__(
        self,
        config: CFMConfig,
        controller: Optional[AccessController] = None,
        probe: Optional[Probe] = None,
        metrics: Optional[MetricsRegistry] = None,
        arbitration: str = "priority",
    ) -> None:
        if config.n_modules != 1:
            raise ValueError(
                "CFMemory models a single conflict-free module; compose "
                "modules with repro.network.partial for partially "
                "conflict-free systems"
            )
        self.cfg = config
        self.controller = controller or PermissiveController()
        self.slot = 0
        self._next_id = 0
        # Monotone write counter: bumped on every write_word so the span
        # walk can detect stores made behind its back (ticks, finish
        # callbacks poking blocks) and drop its memoized reads.
        self._write_stamp = 0
        # offset -> result dict of a read that collected the whole block in
        # one span (see _advance_span); valid while _memo_stamp matches.
        self._read_memo: Dict[int, Dict[int, Word]] = {}
        self._memo_stamp = 0
        # The AT-space schedule as its formula: proc addresses bank
        # _ring[slot % _period + _offsets[proc]] at a slot, and (healthy)
        # _ring[first:first + k] is the first k banks of the wrap-around
        # visit sequence from bank `first`.  Building it statically proves
        # the schedule conflict-free, which is what lets run_batch() drop
        # the per-visit conflict dictionary.
        self._ring, self._period, self._offsets = at_schedule(
            config.banks_per_module, config.bank_cycle)
        self.banks: List[Dict[int, Word]] = [dict() for _ in range(config.n_banks)]
        #: Active accesses, kept sorted by processor — the deterministic
        #: arbitration order — so tick() never re-sorts.
        self.active: List[BlockAccess] = []
        # O(1) one-outstanding-access-per-processor enforcement.
        self._proc_busy = [False] * config.n_procs
        # No finished-access history: a processor owns one AT partition,
        # so an access needs only its in-flight state.  Every finish is
        # delivered through on_finish (and _finish, the seam every engine
        # calls); whoever wants a history records it there.
        # QoS entry arbitration (invariant 12): ops submitted while their
        # processor's AT partition is occupied queue per processor; the
        # winner of a contended grant is picked at _finish time — a seam
        # every engine drives at identical slots, so arbitration is
        # engine-uniform by construction.  With the queues unused, the
        # whole feature is one integer check in _finish.
        if arbitration not in ARBITRATION_POLICIES:
            raise ValueError(
                f"unknown arbitration {arbitration!r} "
                f"(valid: {' '.join(ARBITRATION_POLICIES)})"
            )
        self.arbitration = arbitration
        self._entry_queues: List[List[PendingAccess]] = [
            [] for _ in range(config.n_procs)
        ]
        self._pending_total = 0
        self._submit_seq = 0
        #: Plain counters for the QoS layer (kept outside MetricsRegistry
        #: so engine-pinned, unobserved runs can still report them).
        self.qos_counts = {"granted": 0, "queued": 0, "contended": 0}
        # Observability (both observational only — attaching them can never
        # change a simulation result, and `is None` is the whole cost when off).
        # A probe pins the per-slot path (its event stream is defined per
        # slot); metrics ride the span walk (see _fast_eligible).
        self.probe = probe
        self.metrics = metrics
        #: Optional :class:`repro.faults.FaultInjector`.  An attached
        #: injector with a zero plan is a strict no-op (and keeps the batch
        #: path); an active one pins the per-slot path and drives the tick
        #: hooks below.
        self.faults = None
        # Degraded mode: the dead bank and the survivor that shadows it
        # (serves its word in passing) once degrade_bank() has fired.
        self._dead_bank: Optional[int] = None
        self._shadow_bank: Optional[int] = None
        if metrics is not None:
            n_banks = config.n_banks
            self._bank_util = [
                metrics.utilization(f"cfm.bank[{k}].util")
                for k in range(n_banks)
            ]
            self._latency_hist = metrics.histogram("cfm.latency")
            self._counters = metrics.counter("cfm.accesses")
            # Bank utilization is settled when the registry is read
            # (_settle_util).  Banks hold each accepted address for c
            # cycles (§3.1.3); a visit credits its whole hold at once, so
            # only the slot each bank's latest hold ends at is needed to
            # clip the holds that reach past the read.
            self._bank_busy_until = [-1] * n_banks
            self._util_busy = [0] * n_banks  # tick credits since the settle
            # Difference array of span credits (c per visit over a ring
            # range of banks); the extra cell takes a range's end at b.
            self._util_ranges = [0] * (n_banks + 1)
            self._util_clip = [0] * n_banks  # clip applied at the settle
            self._util_slot = 0  # slot the instruments are settled to
            # The last span's hold ends, kept until they matter (see
            # _flush_util_tail): (end slots, count, ring ends per access).
            self._util_tail: Optional[Tuple[range, int, List[int]]] = None
            metrics.on_read(self._settle_util)

    def __del__(self) -> None:
        # The registry holds _settle_util weakly (MetricsRegistry.on_read):
        # settle one last time, so a read after this module is freed still
        # sees its last slots.  _util_tail is the last accumulator set up;
        # credits accrue only with slots advanced since the last settle.
        if hasattr(self, "_util_tail") and self._util_slot != self.slot:
            self._settle_util()

    # -- memory content ----------------------------------------------------

    @property
    def n_banks(self) -> int:
        return self.cfg.n_banks

    def read_word(self, bank: int, offset: int) -> Word:
        return self.banks[bank].get(offset, _INIT_WORD)

    def write_word(self, bank: int, offset: int, word: Word) -> None:
        self._write_stamp += 1
        self.banks[bank][offset] = word

    def peek_block(self, offset: int) -> Block:
        """Directly inspect a block's current contents (no timing)."""
        return Block(tuple(self.read_word(k, offset) for k in range(self.n_banks)))

    def poke_block(self, offset: int, block: Block) -> None:
        """Directly install a block (test/bench setup, no timing)."""
        if len(block) != self.n_banks:
            raise ValueError(f"block must have {self.n_banks} words, got {len(block)}")
        for k, w in enumerate(block.words):
            self.write_word(k, offset, w)

    # -- issuing -----------------------------------------------------------

    def issue(
        self,
        proc: int,
        kind: AccessKind,
        offset: int,
        data: Optional[Block] = None,
        version: Optional[str] = None,
        tag: str = "",
        on_finish: Optional[Callable[[BlockAccess], None]] = None,
    ) -> BlockAccess:
        """Issue a block access for ``proc`` starting at the *next* tick.

        A processor may have only one outstanding access (it has exactly one
        AT-space partition)."""
        if not 0 <= proc < self.cfg.n_procs:
            raise ValueError(f"proc {proc} out of range [0, {self.cfg.n_procs})")
        if proc >= len(self._offsets):
            raise ValueError(
                f"proc {proc} out of range for a module serving "
                f"{self.cfg.procs_per_module_slot} processors"
            )
        if self._proc_busy[proc]:
            raise ValueError(f"processor {proc} already has an outstanding access")
        access_id = self._next_id
        if kind in _WRITE_KINDS:
            if data is None:
                raise ValueError("write access requires data")
            if len(data) != self.n_banks:
                raise ValueError(
                    f"write data must have {self.n_banks} words, got {len(data)}"
                )
            if version is None:
                # Only stores stamp words, so only they need a tag.
                version = f"w{access_id}"
        acc = BlockAccess(
            access_id, proc, kind, offset, self.slot, data, version, tag,
            on_finish,
        )
        self._next_id = access_id + 1
        self._proc_busy[proc] = True
        insort(self.active, acc, key=_BY_PROC)
        if self.probe is not None:
            self.probe.emit(
                "cfm", "issue", self.slot, access_id=acc.access_id,
                proc=proc, kind=kind.value, offset=offset,
            )
        return acc

    # -- QoS entry arbitration ---------------------------------------------

    def submit(
        self,
        proc: int,
        kind: AccessKind,
        offset: int,
        data: Optional[Block] = None,
        version: Optional[str] = None,
        tag: str = "",
        on_finish: Optional[Callable[[BlockAccess], None]] = None,
        criticality: Optional[str] = None,
        deadline: Optional[int] = None,
    ) -> PendingAccess:
        """Submit an op for AT-space entry, queueing if ``proc`` is busy.

        Unlike :meth:`issue` (which raises while the processor's partition
        is occupied), ``submit`` enqueues the op; the winner of a contended
        grant is picked when the partition frees (at :meth:`_finish`) by
        criticality rank, FIFO within a rank — or pure FIFO under
        ``arbitration="fifo"``, the baseline the QoS bench compares
        against.  When the processor is idle the op issues immediately, so
        a submission stream that never queues is bit-identical to the same
        stream of plain :meth:`issue` calls (invariant 12).

        ``deadline`` is a relative SLA budget in slots, measured from the
        submission slot (queueing counts against the deadline).
        """
        if not 0 <= proc < self.cfg.n_procs:
            raise ValueError(f"proc {proc} out of range [0, {self.cfg.n_procs})")
        if deadline is not None and deadline < 1:
            raise ValueError(f"deadline must be >= 1 slot, got {deadline}")
        pend = PendingAccess(
            seq=self._submit_seq,
            proc=proc,
            kind=kind,
            offset=offset,
            data=data,
            version=version,
            tag=tag,
            on_finish=on_finish,
            criticality=parse_tier(criticality),
            rank=rank_of(criticality),
            submit_slot=self.slot,
            deadline=deadline,
        )
        self._submit_seq += 1
        if not self._proc_busy[proc] and not self._entry_queues[proc]:
            self._issue_pending(pend)
        else:
            self._entry_queues[proc].append(pend)
            self._pending_total += 1
            self.qos_counts["queued"] += 1
        return pend

    def pending(self, proc: Optional[int] = None) -> int:
        """Ops waiting for AT-space entry (on ``proc``, or in total)."""
        if proc is None:
            return self._pending_total
        return len(self._entry_queues[proc])

    def _issue_pending(self, pend: PendingAccess) -> BlockAccess:
        acc = self.issue(
            pend.proc, pend.kind, pend.offset, data=pend.data,
            version=pend.version, tag=pend.tag, on_finish=pend.on_finish,
        )
        acc.criticality = pend.criticality
        acc.submit_slot = pend.submit_slot
        if pend.deadline is not None:
            acc.deadline_slot = pend.submit_slot + pend.deadline
        pend.access = acc
        return acc

    def _grant_entry(self, proc: int) -> None:
        """Grant the freed AT partition of ``proc`` to one queued op.

        Priority never changes *which* slots exist — the AT-space schedule
        is fixed — only who wins the contended entry (invariant 12).  The
        queue holds submissions in seq order, so index 0 is the FIFO pick
        and ``min`` by ``(rank, seq)`` the priority pick; with a single
        waiter the two coincide, which is why zero-contention runs cannot
        depend on the policy.
        """
        queue = self._entry_queues[proc]
        if len(queue) > 1:
            self.qos_counts["contended"] += 1
            if self.arbitration == "priority":
                best = min(range(len(queue)),
                           key=lambda i: (queue[i].rank, queue[i].seq))
            else:
                best = 0
            pend = queue.pop(best)
        else:
            pend = queue.pop()
        self._pending_total -= 1
        self.qos_counts["granted"] += 1
        self._issue_pending(pend)

    # -- engine ------------------------------------------------------------

    def _finish(self, acc: BlockAccess, state: AccessState, slot: int,
                unlink: bool = True) -> None:
        # ``unlink=False`` is _advance_span's bulk-unlink protocol: the
        # caller has already removed every finisher from ``active`` in one
        # pass instead of one O(n) list.remove per finisher.  Everything
        # else here is unchanged, so completion order, complete_slot,
        # observers, and callbacks stay bit-identical.
        acc.state = state
        if unlink:
            self.active.remove(acc)  # identity compare (eq=False)
        proc = acc.proc
        self._proc_busy[proc] = False
        completed = state is AccessState.COMPLETED
        if completed:
            # fault_delay is the extra drain a slow-bank fault imposed; it
            # is 0 on every unfaulted access, keeping this line inert.
            acc.complete_slot = complete = (slot + self.cfg.bank_cycle - 1
                                            + acc.fault_delay)
        metrics = self.metrics
        if metrics is not None:
            if completed:
                self._counters.incr("completed")
                self._latency_hist.add(complete - acc.issue_slot + 1)
                # Per-tier SLA accounting only for criticality-tagged
                # accesses: untagged runs snapshot byte-identically.
                tier = acc.criticality
                if tier is not None:
                    metrics.histogram(f"cfm.latency[{tier}]").add(
                        acc.qos_latency)
                    if acc.deadline_slot is not None:
                        met = acc.deadline_met
                        metrics.counter("cfm.deadline").incr(
                            f"{tier}.{'met' if met else 'missed'}"
                        )
            else:
                self._counters.incr("aborted")
                if acc.final_action is ControlAction.RETRY:
                    self._counters.incr("retries")
        if self.probe is not None:
            if completed:
                self.probe.emit(
                    "cfm", "complete", slot, access_id=acc.access_id,
                    proc=acc.proc, kind=acc.kind.value, latency=acc.latency,
                    restarts=acc.restarts,
                )
            else:
                self.probe.emit(
                    "cfm", "abort", slot, access_id=acc.access_id,
                    proc=acc.proc, kind=acc.kind.value,
                    action=acc.final_action.value if acc.final_action else None,
                )
        on_finish = acc.on_finish
        if on_finish is not None:
            on_finish(acc)
        # QoS grant: the freed AT partition goes to one queued op.  After
        # the finish callback (which may itself have re-issued — legacy
        # callers keep their slot), and guarded by one integer check so
        # submission-free runs pay nothing.  Every engine calls _finish at
        # identical slots in identical order, so grants are engine-uniform.
        if (self._pending_total
                and self._entry_queues[proc]
                and not self._proc_busy[proc]):
            self._grant_entry(proc)

    def _hooks(self):
        """The current controller and whether its class overrides
        ``on_start`` and ``on_bank`` (see :func:`_overrides`)."""
        ctrl = self.controller
        _, on_start, on_bank = _overrides(type(ctrl))
        return ctrl, on_start, on_bank

    def tick(self) -> None:
        """Advance one slot: every active access performs one word.

        Controller hooks left at the base no-op are skipped.  The
        controller is re-read whenever foreign code has run (a hook or a
        finish callback), so one swapped mid-slot governs the accesses
        that come after it in the slot's processor order.
        """
        slot = self.slot
        faults = self.faults
        f_stuck = None
        if faults is not None and faults.active:
            f_stuck = faults.stuck_banks(slot)
            if self._dead_bank is None:
                dead = faults.dead_bank_due(slot)
                if dead is not None:
                    if self.active:
                        # Cannot reconfigure the schedule mid-access: the
                        # dying bank behaves as stuck until in-flight
                        # accesses drain (they abort on touching it).
                        f_stuck = f_stuck | {dead}
                    else:
                        self.degrade_bank(dead)
            if not f_stuck:
                f_stuck = None
        ctrl = self.controller
        on_slot, on_start, on_bank = _overrides(type(ctrl))
        if on_slot:
            ctrl.on_slot(self, slot)
            if self.controller is not ctrl:
                ctrl, on_start, on_bank = self._hooks()
        active = self.active
        if not active:
            # Nothing visits a bank.  Utilization needs no work either:
            # its totals are the slots advanced, settled when read.
            self.slot = slot + 1
            return
        # Bank -> processor of this slot's visits: a second visit to one
        # bank would falsify the paper's theorem.
        banks_used: Dict[int, int] = {}
        if self.metrics is not None:
            if self._util_tail is not None:
                self._flush_util_tail()
            util_busy = self._util_busy
            busy_until = self._bank_busy_until
            cycle = self.cfg.bank_cycle
            hold_end = slot + cycle - 1
        else:
            util_busy = None
        # This slot's phase along the schedule ring: each visit's bank is
        # one add and one index away.
        phase = slot % self._period
        ring = self._ring
        offsets = self._offsets
        banks = self.banks
        n_banks = self.cfg.n_banks
        # The degraded schedule cannot switch mid-slot: degrade_bank
        # refuses while any access of this slot is still in flight.
        dead = self._dead_bank
        shadow = -1 if dead is None else self._shadow_bank
        write_kinds = _WRITE_KINDS
        init = _INIT_WORD
        active_state = AccessState.ACTIVE
        proceed = ControlAction.PROCEED
        # Processor order is the deterministic arbitration order; with the
        # AT-space schedule it is provably irrelevant (no shared banks).
        # `self.active` is maintained proc-sorted, so the snapshot needs no
        # re-sort.
        for acc in list(active):
            if acc.state is not active_state:
                continue
            if self.controller is not ctrl:
                ctrl, on_start, on_bank = self._hooks()
            bank = ring[phase + offsets[acc.proc]]
            if util_busy is not None:
                # Credit this visit's hold [slot, slot + c - 1] minus any
                # overlap with the bank's previous hold (only the degraded
                # schedule can revisit a bank within c slots).
                fresh = hold_end - busy_until[bank]
                util_busy[bank] += fresh if fresh < cycle else cycle
                busy_until[bank] = hold_end
            if bank in banks_used:
                raise ConflictError(
                    f"bank {bank} addressed by procs {banks_used[bank]} "
                    f"and {acc.proc} at slot {slot} — AT-space violated"
                )
            banks_used[bank] = acc.proc
            if f_stuck is not None and bank in f_stuck:
                # A stuck bank cannot accept the address: the access aborts
                # for re-issue by its owner (the RETRY path the recovery
                # layer's bounded backoff rides on).
                faults.count("bank.stuck_abort")
                acc.fault = "bank_stuck"
                acc.restarts += 1
                acc.final_action = ControlAction.RETRY
                self._finish(acc, AccessState.ABORTED, slot)
                continue
            done = acc.words_done
            if done == 0:
                acc.first_bank = bank
                acc.start_slot = slot
                if on_start:
                    ctrl.on_start(self, acc, slot)
                    if self.controller is not ctrl:
                        ctrl, on_start, on_bank = self._hooks()
            if on_bank:
                action = ctrl.on_bank(self, acc, bank, slot)
                if self.controller is not ctrl:
                    ctrl, on_start, on_bank = self._hooks()
                if action is not proceed:
                    if action is ControlAction.ABORT:
                        acc.final_action = ControlAction.ABORT
                        self._finish(acc, AccessState.ABORTED, slot)
                        continue
                    if action is ControlAction.RETRY:
                        acc.restarts += 1
                        acc.final_action = ControlAction.RETRY
                        self._finish(acc, AccessState.ABORTED, slot)
                        continue
                    if action is ControlAction.RESTART:
                        # Restart "from the current memory bank" (§4.1.2):
                        # discard the words collected so far; this bank
                        # becomes word 0.
                        acc.restarts += 1
                        acc.words_done = done = 0
                        acc.result_words.clear()
                        acc.banks_written.clear()
                        acc.first_bank = bank
                        acc.start_slot = slot
                        if on_start:
                            ctrl.on_start(self, acc, slot)
                            if self.controller is not ctrl:
                                ctrl, on_start, on_bank = self._hooks()
            # Perform the word (write_word/read_word inlined; every store
            # still bumps _write_stamp for the span walk's read memo).
            done += 1
            if acc.kind in write_kinds:
                data = acc.data.words
                self._write_stamp += 1
                banks[bank][acc.offset] = Word(data[bank].value, acc.version)
                acc.banks_written.append(bank)
                if bank == shadow:
                    # Degraded mode: the shadow bank serves the dead bank's
                    # word during its own visit, so block width stays b on
                    # a b-1 schedule.
                    self._write_stamp += 1
                    banks[dead][acc.offset] = Word(data[dead].value,
                                                   acc.version)
                    acc.banks_written.append(dead)
                    done += 1
            else:
                acc.result_words[bank] = banks[bank].get(acc.offset, init)
                if bank == shadow:
                    acc.result_words[dead] = banks[dead].get(acc.offset, init)
                    done += 1
            acc.words_done = done
            if done == n_banks:
                if faults is not None and faults.active:
                    extra = faults.completion_extra(slot)
                    if extra:
                        acc.fault = acc.fault or "bank_slow"
                        acc.fault_delay = extra
                        faults.count("bank.slow_drain", extra)
                self._finish(acc, AccessState.COMPLETED, slot)
        self.slot += 1

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.tick()

    # -- degraded mode -----------------------------------------------------

    def degrade_bank(self, dead_bank: int) -> None:
        """Remap ``dead_bank`` out: switch to the ``b-1`` AT schedule.

        The module keeps serving full-width blocks on the surviving banks,
        with the dead bank's successor serving its word in passing (see
        :mod:`repro.faults.degrade`, which re-proves the reduced schedule
        conflict-free).  Raises :class:`DegradedModeError` when no such
        schedule exists (``c = 1``), when accesses are in flight, or when
        the module is already degraded.
        """
        from repro.faults.degrade import shadow_bank_for
        from repro.faults.errors import DegradedModeError

        if self._dead_bank is not None:
            raise DegradedModeError(
                f"module already degraded (bank {self._dead_bank} dead); "
                f"cannot also lose bank {dead_bank}",
                slot=self.slot,
            )
        if self.active:
            raise DegradedModeError(
                f"cannot switch to the degraded schedule with "
                f"{len(self.active)} accesses in flight",
                slot=self.slot,
            )
        # May itself raise DegradedModeError: with c = 1 all b processors
        # cannot share b-1 surviving banks conflict-free.
        self._ring, self._period, self._offsets = at_schedule(
            self.cfg.banks_per_module, self.cfg.bank_cycle, dead_bank)
        self._dead_bank = dead_bank
        self._shadow_bank = shadow_bank_for(self.n_banks, dead_bank)
        if self.faults is not None:
            self.faults.count("bank.degraded")
        if self.probe is not None:
            self.probe.emit(
                "cfm", "degrade", self.slot, dead_bank=dead_bank,
                shadow_bank=self._shadow_bank,
            )

    @property
    def degraded(self) -> bool:
        return self._dead_bank is not None

    # -- fast path ---------------------------------------------------------

    def _fast_eligible(self) -> bool:
        """May the batch engine stand in for tick()?

        Requires: no probe (its event stream is defined per-slot, so it
        pins the reference path), no live fault injection (fault windows
        and the degraded schedule are defined per-slot too), and a
        controller that overrides none of the hooks — i.e. the
        access-control layer is provably inert.  A metrics registry rides
        along: the span walk credits bank occupancy per access
        (:meth:`_advance_span`, settled by :meth:`_settle_util`) and every
        other instrument fires in :meth:`_finish`.
        """
        if self.probe is not None:
            return False
        if self._dead_bank is not None:
            return False
        if self.faults is not None and self.faults.active:
            return False
        return not any(_overrides(type(self.controller)))

    def run_batch(self, slots: int) -> None:
        """Advance ``slots`` slots with results identical to :meth:`run`.

        The one fast driver behind every non-reference engine name.  Three
        result-preserving accelerations, each falling back to :meth:`tick`
        the moment its precondition breaks:

        * **idle-slot skipping** — with nothing in flight the slot counter
          leaps straight to the end;
        * **epoch batching** — an undisturbed access is a straight walk
          along the bank ring, so every active access is run forward to
          the earliest completion slot in one pass
          (:meth:`_advance_span`; conflict checks are subsumed by the
          static conflict-freedom proof of the schedule itself);
        * **completion-slot scheduling** — finish callbacks fire exactly
          at their slot-accurate times, in processor order, so chained
          re-issues land on the same slots as under :meth:`tick`.

        Whole-block reads share one result dict per offset (the span
        walk's memo) for as long as no store has touched the offset.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        end = self.slot + slots
        n_banks = self.cfg.banks_per_module
        active = self.active
        write_kinds = _WRITE_KINDS
        # Eligibility can only change through finish callbacks (issue/
        # probe/controller swaps all happen there) or controller hooks on
        # the slow path, so it is re-derived after those points only.
        eligible = self._fast_eligible()
        while self.slot < end:
            if not eligible:
                self.tick()
                eligible = self._fast_eligible()
                continue
            if not active:
                self.slot = end  # idle-slot skip
                break
            # One pass finds the batch hazard and the earliest finish.
            # The hazard: two accesses share an offset with a write
            # involved.  Writes interleave with same-offset accesses
            # *through the banks*, bank by bank, so only the per-slot
            # path reproduces their ordering (the Fig 4.1 behaviour);
            # disjoint offsets or read-only sharing cannot interact.
            seen: Dict[int, bool] = {}
            most_done = 0
            hazard = False
            for acc in active:
                offset = acc.offset
                is_write = acc.kind in write_kinds
                has_write = seen.get(offset)
                if has_write is not None and (has_write or is_write):
                    hazard = True
                    break
                seen[offset] = is_write
                if acc.words_done > most_done:
                    most_done = acc.words_done
            if hazard:
                self.tick()
                eligible = self._fast_eligible()
                continue
            # The slot at which the furthest-along access performs its
            # last word.
            target = self.slot + n_banks - most_done - 1
            if target >= end:
                target = end - 1
            if self._advance_span(target):
                eligible = self._fast_eligible()

    def _advance_span(self, target: int) -> int:
        """Run every in-flight access forward through slot ``target``.

        The word movement of one :meth:`run_batch` epoch.  The caller has
        proven the span interaction-free (no probe, no fault plan, no
        degraded bank, no same-offset write interleaving) and ``target``
        no later than the earliest finish, so each access is a straight
        walk along the bank ring.  Completions all land at ``target`` and
        fire in processor order with ``slot`` set the way :meth:`tick`
        would; returns the number fired.

        Whole-block reads share one result dict per offset through
        ``_read_memo``.  Span writes pop their offset; any store through
        :meth:`write_word` (a tick, a finish callback's poke_block) bumps
        ``_write_stamp``, and the whole memo is dropped before the next
        span.  A memoized dict is never mutated after it is built, so
        readers share it rather than copy it.

        With a registry attached, each access credits its visits' holds
        to ``cfm.bank[k].util`` in O(1) (see :meth:`_settle_util`): every
        access walks the whole span along one ring range of banks, and
        visits to one bank are at least c slots apart (every slot's
        schedule row is injective and b = n·c), so each visit holds its
        bank for c slots of its own.  Only the visits of the span's last c slots
        hold past the slot before ``target``, where finish callbacks read;
        where their holds end is kept pending (:meth:`_flush_util_tail`).
        """
        slot = self.slot
        active = self.active
        n_banks = self.cfg.banks_per_module
        phase = slot % n_banks
        offsets = self._offsets
        span = target - slot + 1
        if self.metrics is not None:
            ranges = self._util_ranges
            cycle = self.cfg.bank_cycle
            if span < cycle:
                # The last span's holds may outlast this one.
                self._flush_util_tail()
            tail = cycle if cycle < span else span
            ends: List[int] = []
        else:
            ranges = None
        memo = self._read_memo
        if self._memo_stamp != self._write_stamp:
            memo.clear()
            self._memo_stamp = self._write_stamp
        ring = self._ring
        banks = self.banks
        finishers: List[BlockAccess] = []
        # active cannot mutate inside this loop (callbacks only fire from
        # _finish below), so no snapshot copy is needed.
        for acc in active:
            first = ring[phase + offsets[acc.proc]]
            done = acc.words_done
            if not done:
                acc.first_bank = first
                acc.start_slot = slot
                # controller.on_start is the base no-op (the caller's
                # eligibility proof), so it is not called.
            offset = acc.offset
            steps = n_banks - done
            if span < steps:
                steps = span
            if acc.kind in _WRITE_KINDS:
                data = acc.data
                assert data is not None
                words = data.words
                version = acc.version
                written = acc.banks_written
                for bank in ring[first:first + steps]:
                    banks[bank][offset] = Word(words[bank].value, version)
                    written.append(bank)
                memo.pop(offset, None)
            elif steps == n_banks:
                # Whole block in one epoch: the result holds every bank's
                # word, independent of rotation order, so one dict per
                # offset serves every streaming read.
                cached = memo.get(offset)
                if cached is None:
                    cached = memo[offset] = {
                        bank: banks[bank].get(offset, _INIT_WORD)
                        for bank in ring[first:first + steps]
                    }
                acc.result_words = cached
            else:
                results = acc.result_words
                for bank in ring[first:first + steps]:
                    results[bank] = banks[bank].get(offset, _INIT_WORD)
            if ranges is not None:
                # c busy slots on each bank of [first, first + steps).
                ranges[first] += cycle
                hi = first + steps
                if hi > n_banks:
                    ranges[0] += cycle
                    hi -= n_banks
                ranges[hi] -= cycle
                ends.append(hi)
            acc.words_done = done + steps
            if done + steps == n_banks:
                finishers.append(acc)
        if ranges is not None:
            self._util_tail = (range(target + cycle - tail, target + cycle),
                               tail, ends)
        if finishers:
            # Unlink every finisher in one pass before any callback runs,
            # instead of one O(n) list.remove per finish.  Processor keys
            # are unique, so the proc-sorted list callbacks re-issue into
            # ends up exactly as under per-finish unlinking.
            if len(finishers) == len(active):
                active.clear()
            else:
                gone = {id(acc) for acc in finishers}
                active[:] = [acc for acc in active if id(acc) not in gone]
            # Completions observe the slot they finish in, exactly as under
            # tick(); re-issues from callbacks join at target + 1.
            self.slot = target
            for acc in finishers:
                self._finish(acc, AccessState.COMPLETED, target, unlink=False)
        self.slot = target + 1
        return len(finishers)

    def _flush_util_tail(self) -> None:
        """Record where the last span's final c visits' holds end.

        Those holds reach past the span, so a read must clip them and a
        degraded tick must see them.  A later span at least c slots long
        outlasts all of them, so it drops them unwritten; a tick, a
        shorter span or a read writes them first (in slot order, so a
        newer hold end is never overwritten by an older one).
        """
        pending = self._util_tail
        if pending is None:
            return
        self._util_tail = None
        untils, tail, ends = pending
        until = self._bank_busy_until
        for hi in ends:
            lo = hi - tail  # negative: the tail wraps past bank 0
            if lo >= 0:
                until[lo:hi] = untils
            else:
                until[lo:] = untils[:-lo]
                until[:hi] = untils[-lo:]

    def _settle_util(self) -> None:
        """Bring every ``cfm.bank[k].util`` up to the current slot.

        The registry calls this before it is read (``snapshot``,
        ``fractions``, ``get``), so the instruments hold what a per-slot
        account would: ``total`` gains the slots advanced since the last
        settle, and a bank is busy in every slot one of its holds covers.
        Visits credit their whole hold when they happen (ticks per bank,
        spans through a difference array), so the part of each bank's
        latest hold that reaches past the last advanced slot is taken
        back here and given back by the next settle.  Adds deltas only,
        so instruments shared with other writers keep their sums.
        """
        self._flush_util_tail()
        slot = self.slot
        last = slot - 1
        advanced = slot - self._util_slot
        self._util_slot = slot
        busy = self._util_busy
        ranges = self._util_ranges
        clips = self._util_clip
        new_clips = [until - last if until > last else 0
                     for until in self._bank_busy_until]
        # accumulate(ranges)[k]: the span credits of bank k.
        for util, ticked, spanned, old, new in zip(
                self._bank_util, busy, accumulate(ranges), clips, new_clips):
            util.busy += ticked + spanned + old - new
            util.total += advanced
        # In place: a tick or span that a read interrupts (from a finish
        # callback) keeps crediting the lists it holds.
        clips[:] = new_clips
        n_banks = len(busy)
        busy[:] = [0] * n_banks
        ranges[:] = [0] * (n_banks + 1)

    def run_engine(self, slots: int, engine: Optional[str] = None) -> None:
        """Advance ``slots`` slots under the selected engine strategy.

        ``None`` selects :data:`repro.fastpath.engine.DEFAULT_ENGINE`.
        ``reference`` is the per-slot :meth:`run`; every other name is an
        alias of :meth:`run_batch`.  All produce bit-identical observable
        results (invariants 10 and 11).
        """
        name = resolve_engine(engine, layer="cfm")
        if name == ENGINE_REFERENCE:
            self.run(slots)
        else:
            self.run_batch(slots)

    def run_until_idle(self, max_slots: int = 100_000) -> int:
        """Tick until no access is active; returns slots elapsed.

        Strict timeout at ``start + max_slots``
        (:func:`repro.sim.engine.run_until`): the :class:`SimulationTimeout`
        names every access still in flight.
        """
        return run_until(self.tick, lambda: not self.active,
                         lambda: self.slot, max_slots, "accesses",
                         self._stuck)

    def _stuck(self) -> List[str]:
        """Timeout forensics: every access still in flight."""
        return [
            f"proc {a.proc} {a.kind.value}@{a.offset} "
            f"words_done={a.words_done}"
            for a in self.active
        ]

    def drain(self, extra: int = 0) -> None:
        """Run until idle plus the pipeline-drain cycles."""
        self.run_until_idle()
        self.run(extra or (self.cfg.bank_cycle - 1))
