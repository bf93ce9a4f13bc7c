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
from typing import Callable, Dict, List, Optional

from repro.core.block import Block, Word
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINE_REFERENCE, resolve_engine
from repro.fastpath.tables import bank_orders, slot_bank_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.sim.criticality import parse_tier, rank_of
from repro.sim.engine import SimulationTimeout

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


@dataclass(slots=True)
class BlockAccess:
    """One in-flight block access.

    ``slots=True``: these are allocated once per access and touched once
    per slot — the dominant record type of the slot-accurate simulators.
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
        n = len(self.result_words)
        return Block(tuple(self.result_words[k] for k in range(n)))

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
        """Did the access make its SLA deadline?  ``None`` when it has none."""
        if self.deadline_slot is None:
            return None
        if self.complete_slot is None:
            return False
        return self.complete_slot <= self.deadline_slot

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


class CFMemory:
    """A conflict-free memory module and its access engine."""

    def __init__(
        self,
        config: CFMConfig,
        controller: Optional[AccessController] = None,
        check_conflicts: bool = True,
        probe: Optional[Probe] = None,
        metrics: Optional[MetricsRegistry] = None,
        engine: Optional[str] = None,
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
        self.check_conflicts = check_conflicts
        #: Engine strategy used by :meth:`run_engine` when none is passed
        #: per call; validated here so a bad name fails at construction.
        self.engine = resolve_engine(engine, layer="cfm")
        self.slot = 0
        self._next_id = 0
        # Monotone write counter: bumped on every write_word so run_batch
        # can detect stores made behind its back (ticks, finish callbacks
        # poking blocks) and drop its memoized reads.
        self._write_stamp = 0
        # The whole AT-space schedule, precomputed once per (b, c) shape:
        # _table[slot % b][proc] is the bank proc addresses at that slot,
        # _orders[first] the wrap-around visit sequence from bank `first`.
        # Building the table also statically proves the schedule
        # conflict-free (every row injective), which is what lets
        # run_batch() drop the per-visit conflict dictionary.
        self._table = slot_bank_table(config.banks_per_module, config.bank_cycle)
        self._orders = bank_orders(config.banks_per_module)
        self.banks: List[Dict[int, Word]] = [dict() for _ in range(config.n_banks)]
        #: Active accesses, kept sorted by processor — the deterministic
        #: arbitration order — so tick() never re-sorts.
        self.active: List[BlockAccess] = []
        # O(1) one-outstanding-access-per-processor enforcement.
        self._proc_busy = [False] * config.n_procs
        self.completed: List[BlockAccess] = []
        self.aborted: List[BlockAccess] = []
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
        self.probe = probe
        self.metrics = metrics
        #: Optional :class:`repro.obs.HotpathProfiler`.  Unlike probe and
        #: metrics this does *not* pin the per-slot path: it only counts
        #: how run_batch() advanced time, never what the simulation did.
        self.hotpath = None
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
            self._bank_util = [
                metrics.utilization(f"cfm.bank[{k}].util")
                for k in range(config.n_banks)
            ]
            self._latency_hist = metrics.histogram("cfm.latency")
            self._counters = metrics.counter("cfm.accesses")
            # Banks hold each accepted address for c cycles (§3.1.3).
            self._bank_busy_until = [-1] * config.n_banks

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
        if proc >= len(self._table[0]):
            raise ValueError(
                f"proc {proc} out of range for a module serving "
                f"{self.cfg.procs_per_module_slot} processors"
            )
        if self._proc_busy[proc]:
            raise ValueError(f"processor {proc} already has an outstanding access")
        if kind.is_write:
            if data is None:
                raise ValueError("write access requires data")
            if len(data) != self.n_banks:
                raise ValueError(
                    f"write data must have {self.n_banks} words, got {len(data)}"
                )
        acc = BlockAccess(
            access_id=self._next_id,
            proc=proc,
            kind=kind,
            offset=offset,
            issue_slot=self.slot,
            data=data,
            version=version if version is not None else f"w{self._next_id}",
            tag=tag,
            on_finish=on_finish,
        )
        self._next_id += 1
        self._proc_busy[proc] = True
        insort(self.active, acc, key=lambda a: a.proc)
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
        # pass (list.remove is an O(n) scan through the dataclass __eq__ of
        # each already-reissued access — the dominant cost of finishing
        # under load).  Everything else here is unchanged, so completion
        # order, complete_slot, observers, and callbacks stay bit-identical.
        acc.state = state
        if unlink:
            self.active.remove(acc)
        self._proc_busy[acc.proc] = False
        if state is AccessState.COMPLETED:
            # fault_delay is the extra drain a slow-bank fault imposed; it
            # is 0 on every unfaulted access, keeping this line inert.
            acc.complete_slot = slot + self.cfg.bank_cycle - 1 + acc.fault_delay
            self.completed.append(acc)
        else:
            self.aborted.append(acc)
        if self.metrics is not None:
            if state is AccessState.COMPLETED:
                self._counters.incr("completed")
                self._latency_hist.add(acc.latency)
                # Per-tier SLA accounting only for criticality-tagged
                # accesses: untagged runs snapshot byte-identically.
                if acc.criticality is not None:
                    self.metrics.histogram(
                        f"cfm.latency[{acc.criticality}]"
                    ).add(acc.qos_latency)
                    if acc.deadline_slot is not None:
                        met = acc.complete_slot <= acc.deadline_slot
                        self.metrics.counter("cfm.deadline").incr(
                            f"{acc.criticality}.{'met' if met else 'missed'}"
                        )
            else:
                self._counters.incr("aborted")
                if acc.final_action is ControlAction.RETRY:
                    self._counters.incr("retries")
        if self.probe is not None:
            if state is AccessState.COMPLETED:
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
        if acc.on_finish is not None:
            acc.on_finish(acc)
        # QoS grant: the freed AT partition goes to one queued op.  After
        # the finish callback (which may itself have re-issued — legacy
        # callers keep their slot), and guarded by one integer check so
        # submission-free runs pay nothing.  Every engine calls _finish at
        # identical slots in identical order, so grants are engine-uniform.
        if (self._pending_total
                and self._entry_queues[acc.proc]
                and not self._proc_busy[acc.proc]):
            self._grant_entry(acc.proc)

    def tick(self) -> None:
        """Advance one slot: every active access performs one word."""
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
        self.controller.on_slot(self, slot)
        banks_used: Dict[int, int] = {}
        visited: Optional[List[int]] = [] if self.metrics is not None else None
        # The precomputed AT-space row for this slot replaces per-visit
        # modular arithmetic (table lookups, no method dispatch).
        row = self._table[slot % len(self._table)]
        # Processor order is the deterministic arbitration order; with the
        # AT-space schedule it is provably irrelevant (no shared banks).
        # `self.active` is maintained proc-sorted, so the snapshot needs no
        # re-sort.
        for acc in list(self.active):
            if acc.state is not AccessState.ACTIVE:
                continue
            bank = row[acc.proc]
            if visited is not None:
                visited.append(bank)
            if self.check_conflicts:
                other = banks_used.get(bank)
                if other is not None:
                    raise ConflictError(
                        f"bank {bank} addressed by procs {other} and {acc.proc} "
                        f"at slot {slot} — AT-space violated"
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
            if acc.words_done == 0:
                acc.first_bank = bank
                acc.start_slot = slot
                self.controller.on_start(self, acc, slot)
            action = self.controller.on_bank(self, acc, bank, slot)
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
                # Restart "from the current memory bank" (§4.1.2): discard
                # the words collected so far; this bank becomes word 0.
                acc.restarts += 1
                acc.words_done = 0
                acc.result_words.clear()
                acc.banks_written.clear()
                acc.first_bank = bank
                acc.start_slot = slot
                self.controller.on_start(self, acc, slot)
            # Perform the word.
            if acc.kind.is_write:
                assert acc.data is not None
                self.write_word(bank, acc.offset, Word(acc.data[bank].value, acc.version))
                acc.banks_written.append(bank)
            else:
                acc.result_words[bank] = self.read_word(bank, acc.offset)
            acc.words_done += 1
            if self._dead_bank is not None and bank == self._shadow_bank:
                # Degraded mode: the shadow bank serves the dead bank's
                # word during its own visit, so block width stays b on a
                # b-1 schedule.
                dead = self._dead_bank
                if acc.kind.is_write:
                    self.write_word(
                        dead, acc.offset, Word(acc.data[dead].value, acc.version)
                    )
                    acc.banks_written.append(dead)
                else:
                    acc.result_words[dead] = self.read_word(dead, acc.offset)
                acc.words_done += 1
            if acc.words_done == self.n_banks:
                if faults is not None and faults.active:
                    extra = faults.completion_extra(slot)
                    if extra:
                        acc.fault = acc.fault or "bank_slow"
                        acc.fault_delay = extra
                        faults.count("bank.slow_drain", extra)
                self._finish(acc, AccessState.COMPLETED, slot)
        if visited is not None:
            busy_until = self._bank_busy_until
            hold = self.cfg.bank_cycle - 1
            for bank in visited:
                if slot + hold > busy_until[bank]:
                    busy_until[bank] = slot + hold
            for k in range(self.cfg.n_banks):
                self._bank_util[k].tick(busy_until[k] >= slot)
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
        from repro.faults.degrade import degraded_slot_bank_table, shadow_bank_for
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
        self._table = degraded_slot_bank_table(
            self.cfg.banks_per_module, self.cfg.bank_cycle, dead_bank
        )
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

        Requires: no observers (probes/metrics are defined per-slot, so
        they pin the reference path), no live fault injection (fault
        windows and the degraded schedule are defined per-slot too), and a
        controller that overrides none of the hooks — i.e. the
        access-control layer is provably inert.
        """
        if self.probe is not None or self.metrics is not None:
            return False
        if self._dead_bank is not None:
            return False
        if self.faults is not None and self.faults.active:
            return False
        ctrl = type(self.controller)
        return (
            ctrl.on_slot is AccessController.on_slot
            and ctrl.on_bank is AccessController.on_bank
            and ctrl.on_start is AccessController.on_start
        )

    def _batch_hazard(self) -> bool:
        """Do two active accesses share an offset with a write involved?

        Writes interleave with same-offset accesses *through the banks*,
        bank by bank, so only the slot-by-slot path reproduces their
        ordering (the Fig 4.1 behaviour).  Disjoint offsets — or
        read-only sharing — cannot interact and may be batched.
        """
        seen: Dict[int, bool] = {}
        for acc in self.active:
            has_write = seen.get(acc.offset)
            is_write = acc.kind in _WRITE_KINDS
            if has_write is not None and (has_write or is_write):
                return True
            seen[acc.offset] = is_write
        return False

    def run_batch(self, slots: int) -> None:
        """Advance ``slots`` slots with results identical to :meth:`run`.

        The one fast driver behind every non-reference engine name.  Three
        result-preserving accelerations, each falling back to :meth:`tick`
        the moment its precondition breaks:

        * **idle-slot skipping** — with nothing in flight the slot counter
          leaps straight to the end;
        * **epoch batching** — an undisturbed access is a straight walk
          along a precomputed bank order, so every active access is run
          forward to the earliest completion slot in one pass
          (:meth:`_advance_span`; conflict checks are subsumed by the
          static row-injectivity proof of the table itself);
        * **completion-slot scheduling** — finish callbacks fire exactly
          at their slot-accurate times, in processor order, so chained
          re-issues land on the same slots as under :meth:`tick`.

        Whole-block reads share one result dict per offset (the memo
        below) for as long as no store has touched the offset.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        end = self.slot + slots
        n_banks = self.cfg.banks_per_module
        active = self.active
        # Eligibility and the hazard set can only change through finish
        # callbacks (issue/probe/controller swaps all happen there) or
        # controller hooks on the slow path — so both are re-derived after
        # those points rather than per round.
        eligible = self._fast_eligible()
        hazard = self._batch_hazard()
        # offset -> result dict of a read that collected the whole block in
        # one epoch.  Span writes pop their offset; any store through
        # write_word (a tick, a finish callback's poke_block) bumps
        # _write_stamp, and the whole memo is dropped before the next epoch.
        memo: Dict[int, Dict[int, Word]] = {}
        stamp = self._write_stamp
        hp = self.hotpath
        # Claim the shared profiler: while this driver advances time, inner
        # or sibling layers' slot counters are suppressed, so each slot is
        # attributed to exactly one layer.
        token = hp.claim("cfm") if hp is not None else None
        try:
            while self.slot < end:
                if not eligible:
                    if hp is not None:
                        hp.count("cfm", "tick.pinned")
                    self.tick()
                    eligible = self._fast_eligible()
                    hazard = self._batch_hazard()
                    continue
                if not active:
                    if hp is not None:
                        hp.count("cfm", "skipped_slots", end - self.slot)
                    self.slot = end  # idle-slot skip
                    break
                if hazard:
                    if hp is not None:
                        hp.count("cfm", "fallback.hazard")
                    self.tick()
                    eligible = self._fast_eligible()
                    hazard = self._batch_hazard()
                    continue
                if self._write_stamp != stamp:
                    memo.clear()
                    stamp = self._write_stamp
                slot = self.slot
                # Earliest slot at which some access performs its last word.
                target = min(
                    slot + n_banks - acc.words_done - 1 for acc in active
                )
                if target >= end:
                    target = end - 1
                if self._advance_span(target, memo):
                    eligible = self._fast_eligible()
                    hazard = self._batch_hazard()
                if hp is not None:
                    hp.count("cfm", "batched_slots", target - slot + 1)
        finally:
            if hp is not None:
                hp.release(token)

    def _advance_span(self, target: int,
                      memo: Optional[Dict[int, Dict[int, Word]]] = None) -> int:
        """Run every in-flight access forward through slot ``target``.

        The word movement of one epoch, shared by :meth:`run_batch` and the
        cache and hierarchy batchers.  The caller has proven the span
        interaction-free (no observer, no fault plan, no degraded bank, no
        same-offset write interleaving) and ``target`` no later than the
        earliest finish, so each access is a straight walk along its
        precomputed bank order.  Completions all land at ``target`` and
        fire in processor order with ``slot`` set the way :meth:`tick`
        would; returns the number fired.

        ``memo`` is :meth:`run_batch`'s whole-block read memo.  A memoized
        dict is never mutated after it is built and is only handed to
        accesses completing this epoch, so readers share it rather than
        copy it.
        """
        slot = self.slot
        active = self.active
        if not active:
            self.slot = target + 1
            return 0
        if memo is None:
            memo = {}
        n_banks = self.cfg.banks_per_module
        orders = self._orders
        banks = self.banks
        row = self._table[slot % n_banks]
        span = target - slot + 1
        finishers: List[BlockAccess] = []
        # active cannot mutate inside this loop (callbacks only fire from
        # _finish below), so no snapshot copy is needed.
        for acc in active:
            bank_now = row[acc.proc]
            done = acc.words_done
            if not done:
                acc.first_bank = bank_now
                acc.start_slot = slot
                # controller.on_start is the base no-op (the caller's
                # eligibility proof), so it is not called.
            offset = acc.offset
            order = orders[bank_now]
            steps = n_banks - done
            if span < steps:
                steps = span
            if acc.kind in _WRITE_KINDS:
                data = acc.data
                assert data is not None
                words = data.words
                version = acc.version
                written = acc.banks_written
                for bank in order if steps == n_banks else order[:steps]:
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
                        for bank in order
                    }
                acc.result_words = cached
            else:
                results = acc.result_words
                for bank in order[:steps]:
                    results[bank] = banks[bank].get(offset, _INIT_WORD)
            acc.words_done = done + steps
            if done + steps == n_banks:
                finishers.append(acc)
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

    def run_engine(self, slots: int, engine: Optional[str] = None) -> None:
        """Advance ``slots`` slots under the selected engine strategy.

        ``engine`` overrides the instance default for this call only.
        ``reference`` is the per-slot :meth:`run`; every other name is an
        alias of :meth:`run_batch`.  All produce bit-identical observable
        results (invariants 10 and 11).
        """
        name = resolve_engine(engine, default=self.engine, layer="cfm")
        if name == ENGINE_REFERENCE:
            self.run(slots)
        else:
            self.run_batch(slots)

    def run_until_idle(self, max_slots: int = 100_000) -> int:
        """Tick until no access is active; returns slots elapsed.

        Raises :class:`SimulationTimeout` the moment ``max_slots`` slots
        have elapsed with accesses still active — strict semantics: the
        loop may tick slots ``start .. start + max_slots - 1`` and the
        timeout fires at slot ``start + max_slots``, the same boundary
        every driver loop in the repo uses.
        """
        start = self.slot
        while self.active:
            if self.slot - start >= max_slots:
                stuck = [
                    f"proc {a.proc} {a.kind.value}@{a.offset} "
                    f"words_done={a.words_done}"
                    for a in self.active
                ]
                raise SimulationTimeout(
                    f"accesses still active after {max_slots} slots: "
                    + "; ".join(stuck),
                    slot=self.slot, max_slots=max_slots, stuck=stuck,
                )
            self.tick()
        return self.slot - start

    def drain(self, extra: int = 0) -> None:
        """Run until idle plus the pipeline-drain cycles."""
        self.run_until_idle()
        self.run(extra or (self.cfg.bank_cycle - 1))
