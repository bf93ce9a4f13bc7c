"""A slot-accurate two-level hierarchical CFM (§5.4.1–5.4.2, Fig 5.6).

The recursion, executed rather than modeled:

* each **cluster** is a full Chapter 5 machine — a
  :class:`repro.cache.protocol.CacheSystem` whose memory banks are the
  cluster's *second-level cache banks*;
* the **global level** is another CFM: one
  :class:`repro.core.cfm.CFMemory` whose "processors" are the clusters'
  network controllers, with a global access controller that checks every
  cluster's L2 directory in passing — exactly as the intra-cluster
  protocol checks L1 directories at coupled banks;
* a **network controller** per cluster serves L2 misses with the Table 5.4
  priorities: triggered second-level write-backs (after flushing the L1
  owner inside the cluster) beat fetch requests.

Both levels read one Table 5.1, :data:`repro.cache.state.TABLE_5_1`; here
a cluster's L2 line is a request's local line, and another cluster's L2
the remote copy its global access passes.

CPU requests walk the paper's §5.4.2 paths: an L2 hit is an ordinary
intra-cluster access (β_L); an L2 miss parks the request while the NC
fetches globally (β_G) and then replays it locally — producing the
2β_L + β_G "global memory" latency of Table 5.5 *emergently*; a remote
dirty block additionally forces the remote L1 flush and L2 write-back
chain before the re-issued fetch.

Block values flow end to end: a store lands in an L1 line, its write-back
reaches the cluster's cache banks, the L2 write-back publishes it to
global data, and a later fetch by another cluster installs it there — so
tests can assert *data* correctness across the hierarchy, not just state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.protocol import CacheSystem, CpuOp
from repro.cache.state import TABLE_5_1, CacheLineState as S, RemoteAction, Rule
from repro.core.block import Block
from repro.core.cfm import (
    AccessController,
    AccessKind,
    AccessState,
    BlockAccess,
    CFMemory,
    ControlAction,
)
from repro.core.config import CFMConfig
from repro.hierarchy.controller import EventType, NetworkController
from repro.hierarchy.hierarchical import IllegalStateCombination, _LEGAL
from repro.sim.criticality import parse_tier
from repro.sim.engine import all_settled, raise_timeout, run_until

class HierOpKind(enum.Enum):
    """Processor-level request kinds against the two-level machine."""
    LOAD = "load"
    STORE = "store"
    __hash__ = object.__hash__  # singletons: dict lookups call no Python


#: The Table 5.1 rule of each request kind, read against its cluster's L2.
_RULES = {
    HierOpKind.LOAD: TABLE_5_1[AccessKind.READ],
    HierOpKind.STORE: TABLE_5_1[AccessKind.READ_INVALIDATE],
}
_INVALIDATE = RemoteAction.INVALIDATE
_TRIGGER_WB = RemoteAction.WRITE_BACK


class HierPhase(enum.Enum):
    """Lifecycle of a request through the hierarchy (§5.4.2 paths)."""
    DISCOVER = "discover"  # the intra-cluster attempt that finds the L2 miss
    WAIT_NC = "wait_nc"  # parked while the network controller fetches
    CLUSTER = "cluster"  # ordinary intra-cluster access in flight
    DONE = "done"


@dataclass
class HierOp:
    """One processor-level request against the two-level machine."""

    gproc: int
    kind: HierOpKind
    offset: int
    store_words: Dict[int, int] = field(default_factory=dict)
    on_done: Optional[Callable[["HierOp"], None]] = None
    #: QoS tier (repro.sim.criticality); orders this op's NC fetch within
    #: its Table 5.4 priority class.  ``None`` = untagged (normal).
    criticality: Optional[str] = None

    phase: HierPhase = HierPhase.CLUSTER
    issue_slot: int = -1
    done_slot: int = -1
    result: Optional[Block] = None
    nc_fetches: int = 0
    cluster_op: Optional[CpuOp] = None  # the in-flight intra-cluster request

    @property
    def done(self) -> bool:
        return self.phase is HierPhase.DONE

    @property
    def latency(self) -> int:
        if not self.done:
            raise ValueError("op has not completed")
        return self.done_slot - self.issue_slot + 1


@dataclass
class _NCTransaction:
    kind: AccessKind  # READ / READ_INVALIDATE / WRITE_BACK at global level
    offset: int
    waiters: List[HierOp] = field(default_factory=list)
    # Tier of the op that created the transaction; coalesced waiters ride
    # at that tier (they share its queue position either way).
    criticality: Optional[str] = None


class _GlobalController(AccessController):
    """The global-level access controller: L2 directories checked in
    passing, remote dirty chains triggered, competing fetches serialized
    (first-issued wins, as at the L1 level)."""

    def __init__(self, hier: "SlotAccurateHierarchy"):
        # The hierarchy's per-cluster state, not the hierarchy: it holds
        # this controller, and a reference back would make every finished
        # run a cycle for the collector.
        self.l2 = hier.l2
        self.ncs = hier.ncs
        self.clusters = hier.clusters
        self.cluster_inflight = hier._cluster_inflight
        self.invalidations_sent = 0
        self.triggered_l2_writebacks = 0

    def on_bank(
        self, mem: CFMemory, access: BlockAccess, bank: int, slot: int
    ) -> ControlAction:
        if access.kind is AccessKind.WRITE_BACK:
            return ControlAction.PROCEED
        # First-issued-wins among concurrent global fetches of one block.
        for other in mem.active:
            if (
                other is not access
                and other.offset == access.offset
                and other.kind is not AccessKind.WRITE_BACK
                and (
                    other.issue_slot < access.issue_slot
                    or (other.issue_slot == access.issue_slot
                        and other.proc < access.proc)
                )
                and access.kind is AccessKind.READ_INVALIDATE
            ):
                return ControlAction.RETRY
        q = bank  # global bank k is coupled with cluster k's NC (c = 1)
        if q == access.proc:
            return ControlAction.PROCEED
        state = self.l2[q].get(access.offset)
        if state is None:
            return ControlAction.PROCEED  # cluster q holds no copy
        remote = TABLE_5_1[access.kind].remote[state]
        if remote is _INVALIDATE:
            self._invalidate_cluster(q, access.offset)
            self.invalidations_sent += 1
        elif remote is _TRIGGER_WB:
            # Remote dirty: trigger the L1-flush → L2-write-back chain.
            self._trigger_l2_writeback(q, access.offset)
            self.triggered_l2_writebacks += 1
            return ControlAction.RETRY
        return ControlAction.PROCEED

    def _invalidate_cluster(self, cluster: int, offset: int) -> None:
        """Invalidation from above (Table 5.4 priority 2): drop the L2 line
        and every L1 copy below it, in passing."""
        self.ncs[cluster].queue.record(EventType.INVALIDATION_FROM_ABOVE, offset)
        self.l2[cluster].pop(offset, None)
        for d in self.clusters[cluster].dirs:
            d.invalidate(offset)
        # In-flight intra-cluster loads for this block may still fill after
        # the invalidation: let them deliver their (consistently old) value
        # without caching it — the L1-level rule, one level up.
        for op in self.cluster_inflight.get((cluster, offset), []):
            if op.kind is HierOpKind.LOAD and op.cluster_op is not None:
                op.cluster_op.invalidate_on_fill = True

    def _trigger_l2_writeback(self, cluster: int, offset: int) -> None:
        nc = self.ncs[cluster]
        if offset in nc.wb_pending:
            return
        if nc.current is not None and nc.current.offset == offset \
                and nc.current.kind is AccessKind.WRITE_BACK:
            return
        nc.wb_pending.add(offset)
        txn = _NCTransaction(kind=AccessKind.WRITE_BACK, offset=offset)
        nc.queue.enqueue(EventType.WRITE_BACK, offset, payload=txn)


@dataclass
class _NCState:
    queue: NetworkController
    current: Optional[_NCTransaction] = None
    global_access: Optional[BlockAccess] = None
    flushing_op: Optional[CpuOp] = None  # intra-cluster L1 flush in flight
    retry_at: int = -1
    wb_pending: set = field(default_factory=set)  # offsets queued for L2 WB


class SlotAccurateHierarchy:
    """k clusters × m processors, slot-accurate at both levels."""

    RETRY_DELAY = 2

    def __init__(self, n_clusters: int, procs_per_cluster: int,
                 n_lines: int = 64, bank_cycle: int = 1,
                 faults=None):
        if n_clusters < 2 or procs_per_cluster < 1:
            raise ValueError("need >= 2 clusters and >= 1 processor each")
        self.n_clusters = n_clusters
        self.per = procs_per_cluster
        self.n_procs = n_clusters * procs_per_cluster
        self.clusters = [
            CacheSystem(procs_per_cluster, bank_cycle=bank_cycle,
                        n_lines=n_lines)
            for _ in range(n_clusters)
        ]
        #: Optional :class:`repro.faults.FaultInjector`: at this level it
        #: drives NC stalls; bank/completion faults belong to the cluster
        #: and module layers (attach the injector there via chaos harness).
        self.faults = faults
        self.l2: List[Dict[int, S]] = [dict() for _ in range(n_clusters)]
        self.ncs = [
            _NCState(queue=NetworkController(c)) for c in range(n_clusters)
        ]
        # The published (global-memory) value of each block, cluster-width.
        self.global_data: Dict[int, Block] = {}
        # Blocks are frozen, so one zero block per width serves every
        # unpublished read and every global write-back.
        self._zero_cluster = Block.zeros(self._cluster_width())
        self._parked: List[Tuple[int, HierOp]] = []  # (ready_slot, op)
        self._parked_next = -1  # earliest ready slot; -1 = nothing parked
        # In-flight intra-cluster requests, keyed by (cluster, offset):
        # the global controller consults this the way the L1 controller
        # consults processor records (§5.2.4, one level up).
        self._cluster_inflight: Dict[Tuple[int, int], List[HierOp]] = {}
        self.global_controller = _GlobalController(self)
        self.global_mem = CFMemory(
            CFMConfig(n_procs=n_clusters), controller=self.global_controller
        )
        self._zero_global = Block.zeros(self.global_mem.cfg.n_banks)
        self.slot = 0

    # -- topology -----------------------------------------------------------

    def cluster_of(self, gproc: int) -> int:
        if not 0 <= gproc < self.n_procs:
            raise ValueError(f"processor {gproc} out of range")
        return gproc // self.per

    def local_of(self, gproc: int) -> int:
        return gproc % self.per

    @property
    def beta_local(self) -> int:
        return self.clusters[0].cfg.block_access_time

    @property
    def beta_global(self) -> int:
        return self.global_mem.cfg.block_access_time

    # -- data helpers ----------------------------------------------------------

    def _cluster_width(self) -> int:
        return self.clusters[0].cfg.n_banks

    def _global_value(self, offset: int) -> Block:
        return self.global_data.get(offset, self._zero_cluster)

    # -- public API --------------------------------------------------------------

    def load(self, gproc: int, offset: int,
             on_done: Optional[Callable[[HierOp], None]] = None,
             criticality: Optional[str] = None) -> HierOp:
        op = HierOp(gproc=gproc, kind=HierOpKind.LOAD, offset=offset,
                    on_done=on_done, issue_slot=self.slot,
                    criticality=parse_tier(criticality))
        self._route(op)
        return op

    def store(self, gproc: int, offset: int, words: Dict[int, int],
              on_done: Optional[Callable[[HierOp], None]] = None,
              criticality: Optional[str] = None) -> HierOp:
        op = HierOp(gproc=gproc, kind=HierOpKind.STORE, offset=offset,
                    store_words=dict(words), on_done=on_done,
                    issue_slot=self.slot, criticality=parse_tier(criticality))
        self._route(op)
        return op

    # -- request routing (§5.4.2 paths) ----------------------------------------------

    def _l2_sufficient(self, cluster: int, offset: int, rule: Rule) -> bool:
        """Does the cluster's L2 line already satisfy ``rule``'s access?"""
        return self.l2[cluster].get(offset, S.INVALID) in rule.hits

    def _route(self, op: HierOp) -> None:
        cluster = self.cluster_of(op.gproc)
        if self._l2_sufficient(cluster, op.offset, _RULES[op.kind]):
            self._issue_cluster_op(op)
            return
        # The intra-cluster attempt that discovers the L2 miss costs one
        # local block access (the first β_L of the 2β_L + β_G path).
        op.phase = HierPhase.DISCOVER
        ready = self.slot + self.beta_local
        self._parked.append((ready, op))
        if self._parked_next < 0 or ready < self._parked_next:
            self._parked_next = ready

    def _discovered(self, op: HierOp) -> None:
        cluster = self.cluster_of(op.gproc)
        rule = _RULES[op.kind]
        if self._l2_sufficient(cluster, op.offset, rule):
            # Someone else's fetch landed meanwhile.
            self._issue_cluster_op(op)
            return
        op.phase = HierPhase.WAIT_NC
        kind = rule.op
        nc = self.ncs[cluster]
        # Coalesce with an already-queued compatible transaction.
        for ev in list(nc.queue._heap):
            txn = ev.payload
            if (
                isinstance(txn, _NCTransaction)
                and txn.offset == op.offset
                and txn.kind == kind
            ):
                txn.waiters.append(op)
                return
        cur = nc.current
        if (
            cur is not None
            and cur.offset == op.offset
            and cur.kind == kind
        ):
            cur.waiters.append(op)
            return
        txn = _NCTransaction(kind=kind, offset=op.offset, waiters=[op],
                             criticality=op.criticality)
        # A fetch's NC event is named after its global access.
        nc.queue.enqueue(EventType[kind.name], op.offset, requester=op.gproc,
                         payload=txn, criticality=txn.criticality)

    def _issue_cluster_op(self, op: HierOp) -> None:
        op.phase = HierPhase.CLUSTER
        cluster = self.cluster_of(op.gproc)
        local = self.local_of(op.gproc)
        cs = self.clusters[cluster]
        if op.kind is HierOpKind.LOAD:
            op.cluster_op = cs.load(
                local, op.offset,
                on_done=lambda c_op, op=op: self._cluster_done(op, c_op),
            )
        else:
            op.cluster_op = cs.store(
                local, op.offset, op.store_words,
                on_done=lambda c_op, op=op: self._cluster_done(op, c_op),
            )
        self._cluster_inflight.setdefault((cluster, op.offset), []).append(op)

    def _cluster_done(self, op: HierOp, c_op: CpuOp) -> None:
        cluster = self.cluster_of(op.gproc)
        key = (cluster, op.offset)
        inflight = self._cluster_inflight.get(key, [])
        if op in inflight:
            inflight.remove(op)
            if not inflight:
                self._cluster_inflight.pop(key, None)
        op.phase = HierPhase.DONE
        # The cluster op's own completion slot, c - 1 past this one: the
        # final bank's word still drains (β_L = b + c - 1, §3.1.4).
        op.done_slot = c_op.done_slot
        op.result = c_op.result
        op.cluster_op = None
        if op.on_done is not None:
            op.on_done(op)

    # -- the NC state machines --------------------------------------------------------------

    def _nc_step(self, cluster: int) -> None:
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.nc_stalled(cluster, self.slot)
        ):
            # The controller is frozen for this window: nothing is popped,
            # nothing issued; queued events simply wait it out.
            self.faults.count("nc.stalled")
            return
        nc = self.ncs[cluster]
        if nc.current is None:
            if len(nc.queue) == 0:
                return
            ev = nc.queue.pop()
            assert ev is not None
            nc.current = ev.payload  # type: ignore[assignment]
            nc.retry_at = self.slot
        # Table 5.4: a queued write-back preempts a fetch that is between
        # retries — otherwise two controllers each retrying a fetch of the
        # other's dirty block would deadlock ("write-back needs to be
        # served first", §5.4.3).
        head = nc.queue.peek()
        if (
            nc.current is not None
            and nc.current.kind is not AccessKind.WRITE_BACK
            and nc.global_access is None
            and nc.flushing_op is None
            and head is not None
            and head.event_type is EventType.WRITE_BACK
        ):
            preempted = nc.current
            ev = nc.queue.pop()
            assert ev is not None
            nc.current = ev.payload  # type: ignore[assignment]
            nc.retry_at = self.slot
            nc.queue.enqueue(EventType[preempted.kind.name],
                             preempted.offset, payload=preempted,
                             criticality=preempted.criticality)
        txn = nc.current
        assert txn is not None
        if nc.global_access is not None or nc.flushing_op is not None:
            return  # something already in flight
        if self.slot < nc.retry_at:
            return
        if txn.kind is AccessKind.WRITE_BACK:
            self._nc_start_writeback(cluster, nc, txn)
        else:
            self._nc_start_fetch(cluster, nc, txn)

    def _nc_start_writeback(self, cluster: int, nc: _NCState,
                            txn: _NCTransaction) -> None:
        # An in-flight local store would re-dirty the line under our feet:
        # hold the write-back until it completes (Table 5.4 lets the WB
        # keep its priority; it just waits for a consistent line).
        for op in self._cluster_inflight.get((cluster, txn.offset), []):
            if op.kind is HierOpKind.STORE:
                nc.retry_at = self.slot + 1
                return
        # Step 1: flush the dirty L1 owner inside the cluster, if any
        # (the recursive protocol: L2 WB only after the L1 WB below it).
        cs = self.clusters[cluster]
        owner = next(
            (p for p in range(self.per)
             if cs.dirs[p].state_of(txn.offset) is S.DIRTY),
            None,
        )
        if owner is not None:
            if cs.procs[owner].current_op is not None:
                nc.retry_at = self.slot + 1  # the owner is busy; wait
                return
            nc.flushing_op = cs.flush(
                owner, txn.offset,
                on_done=lambda c_op, c=cluster: self._nc_l1_flushed(c),
            )
            return
        # Step 2: the global write-back itself.
        nc.global_access = self.global_mem.issue(
            cluster, AccessKind.WRITE_BACK, txn.offset,
            data=self._zero_global,
            on_finish=lambda acc, c=cluster: self._nc_global_done(c, acc),
        )

    def _nc_l1_flushed(self, cluster: int) -> None:
        self.ncs[cluster].flushing_op = None  # retry the WB path next tick

    def _nc_start_fetch(self, cluster: int, nc: _NCState,
                        txn: _NCTransaction) -> None:
        if self._l2_sufficient(cluster, txn.offset, TABLE_5_1[txn.kind]):
            # A coalesced/raced transaction already produced the state we
            # need — never issue a stale fetch that would downgrade it.
            nc.current = None
            for op in txn.waiters:
                self._issue_cluster_op(op)
            return
        try:
            nc.global_access = self.global_mem.issue(
                cluster, txn.kind, txn.offset,
                on_finish=lambda acc, c=cluster: self._nc_global_done(c, acc),
            )
        except ValueError:
            nc.retry_at = self.slot + 1  # our global port is still draining

    def _nc_global_done(self, cluster: int, acc: BlockAccess) -> None:
        nc = self.ncs[cluster]
        nc.global_access = None
        txn = nc.current
        assert txn is not None
        if acc.state is AccessState.ABORTED:
            nc.retry_at = self.slot + self.RETRY_DELAY
            return
        if txn.kind is AccessKind.WRITE_BACK:
            # Publish the cluster's L2 banks to global data.  If a local
            # store slipped in while the global write-back was in flight
            # (L1 dirty again, or a store en route), the line must STAY
            # dirty — the published snapshot is the consistent pre-store
            # value and the next trigger will flush the rest.
            self.global_data[txn.offset] = self.clusters[cluster].mem.peek_block(
                txn.offset
            )
            cs = self.clusters[cluster]
            redirtied = any(
                cs.dirs[p].state_of(txn.offset) is S.DIRTY
                for p in range(self.per)
            ) or any(
                op.kind is HierOpKind.STORE
                for op in self._cluster_inflight.get((cluster, txn.offset), [])
            )
            if not redirtied:
                self.l2[cluster][txn.offset] = S.VALID
            nc.wb_pending.discard(txn.offset)
            nc.current = None
            return
        # Fetch completed: install the published value into the L2 banks —
        # but never downgrade a line a racing transaction already made
        # dirty (its banks hold newer data than global memory).
        if self.l2[cluster].get(txn.offset) is not S.DIRTY:
            self.clusters[cluster].mem.poke_block(
                txn.offset, self._global_value(txn.offset)
            )
            self.l2[cluster][txn.offset] = TABLE_5_1[txn.kind].fill
        nc.current = None
        for op in txn.waiters:
            op.nc_fetches += 1
            self._issue_cluster_op(op)

    # -- engine ---------------------------------------------------------------------------

    def tick(self) -> None:
        # Wake parked discovery attempts (scanned only when the earliest
        # ready slot has actually arrived — the common tick skips this).
        if self._parked and self._parked_next <= self.slot:
            due = [op for (ready, op) in self._parked if ready <= self.slot]
            self._parked = [(r, op) for (r, op) in self._parked if r > self.slot]
            self._parked_next = (
                min(r for r, _ in self._parked) if self._parked else -1
            )
            for op in due:
                self._discovered(op)
        # An idle network controller has nothing to step, unless a live
        # fault plan must see (and count) its stall windows.
        stalls = self.faults is not None and self.faults.active
        for c, nc in enumerate(self.ncs):
            if nc.current is not None or nc.queue._heap or stalls:
                self._nc_step(c)
        for cs in self.clusters:
            cs.tick()
        self.global_mem.tick()
        self.slot += 1

    def run_until(self, done: Callable[[], bool], max_slots: int = 300_000) -> int:
        """Tick until ``done()``; strict timeout at ``start + max_slots``
        (:func:`repro.sim.engine.run_until`), the boundary :meth:`run_ops`
        shares, so both raise :class:`SimulationTimeout` at the same slot.
        """
        return run_until(self.tick, done, lambda: self.slot, max_slots,
                         "hierarchical ops", self._stuck)

    def run_ops(self, ops: List[HierOp], max_slots: int = 300_000) -> None:
        """:meth:`run_until` all ``ops`` are done, result-identical to
        ticking every slot: while no network controller, parked request
        or global access has work and every cluster is quiet
        (:meth:`CacheSystem._quiet_until`), the clusters' memories walk
        the span in lockstep."""
        done = all_settled(ops)
        limit = self.slot + max_slots  # no span may reach it
        while not done():
            slot = self.slot
            if slot >= limit:
                raise_timeout("hierarchical ops", slot, max_slots,
                              self._stuck())
            end = self._quiet_until(slot, limit - 1)
            if end > slot:
                for cs in self.clusters:
                    cs.mem._advance_span(end)
                self.global_mem.slot = end + 1  # idle; no hook per slot
                self.slot = end + 1
            else:
                self.tick()

    def _quiet_until(self, slot: int, end: int) -> int:
        """The last slot, from ``slot`` on and at most ``end``, that only
        the clusters' memory walks fill; below ``slot`` when ``slot`` must
        be ticked."""
        for cs in self.clusters:
            # Cheapest first: a processor acting next slot ends it
            # (CacheSystem._quiet_until would say so too).
            if cs._cpu_wake <= slot + 1:
                return slot - 1
        if self.faults is not None and self.faults.active:
            return slot - 1
        for nc in self.ncs:
            # A controller with work, including a global access in flight
            # (only controllers issue them), steps every slot.
            if nc.current is not None or nc.queue._heap:
                return slot - 1
        if self._parked and self._parked_next <= end:
            end = self._parked_next - 1
        for cs in self.clusters:
            quiet = cs._quiet_until(slot)
            if quiet < end:
                end = quiet
                if end <= slot:
                    break
        return end

    def _stuck(self) -> List[str]:
        """Timeout forensics: parked ops, controller work, global ops."""
        stuck: List[str] = []
        for ready, op in self._parked:
            stuck.append(
                f"gproc {op.gproc} {op.kind.value}@{op.offset} "
                f"parked until slot {ready}"
            )
        for c, nc in enumerate(self.ncs):
            if nc.current is not None:
                stuck.append(
                    f"NC {c} {nc.current.kind.value}@{nc.current.offset} "
                    f"retry_at={nc.retry_at}"
                )
            if len(nc.queue):
                stuck.append(f"NC {c} {len(nc.queue)} events queued")
        for (cluster, offset), ops in self._cluster_inflight.items():
            for op in ops:
                stuck.append(
                    f"gproc {op.gproc} {op.kind.value}@{offset} "
                    f"in flight in cluster {cluster}"
                )
        return stuck

    # -- invariants ---------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Table 5.3 per (L1, L2) pair plus single-dirty at each level."""
        offsets = set(self.global_data)
        for c in range(self.n_clusters):
            offsets |= set(self.l2[c])
        dirty_l2 = {
            off: [c for c in range(self.n_clusters)
                  if self.l2[c].get(off) is S.DIRTY]
            for off in offsets
        }
        for off, owners in dirty_l2.items():
            if len(owners) > 1:
                raise IllegalStateCombination(
                    f"block {off}: dirty L2 in clusters {owners}"
                )
        for c, cs in enumerate(self.clusters):
            for p in range(self.per):
                for off in offsets:
                    combo = (
                        cs.dirs[p].state_of(off),
                        self.l2[c].get(off, S.INVALID),
                    )
                    if combo not in _LEGAL:
                        raise IllegalStateCombination(
                            f"block {off}, cluster {c} proc {p}: "
                            f"L1={combo[0].value} under L2={combo[1].value}"
                        )
