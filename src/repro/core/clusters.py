"""Multiple conflict-free clusters with free-slot remote access (§3.3, Fig 3.12).

A CFM cluster need not populate every AT-space partition with a processor:
"the number of processors can be less, leaving free slots for other purposes
such as DMA and remote memory accesses."  Two (or more) clusters connect
through memory-mapped ports; a remote request travels the inter-cluster
link, is served at the destination *using a free time slot* — so it adds no
memory or network contention there — and the reply travels back.  To the
requester the remote access is "just a 'slower' regular memory access".

Contention remains possible only on the inter-cluster link itself, which is
modeled as a FIFO of configurable capacity per slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.core.block import Block
from repro.core.cfm import AccessKind, BlockAccess, CFMemory
from repro.core.config import CFMConfig
from repro.sim.engine import run_until


@dataclass
class RemoteRequest:
    """A remote memory access in flight between clusters."""

    req_id: int
    src_cluster: int
    src_proc: int
    dst_cluster: int
    kind: AccessKind
    offset: int
    data: Optional[Block] = None
    issue_slot: int = 0
    complete_slot: Optional[int] = None
    result: Optional[Block] = None
    on_finish: Optional[Callable[["RemoteRequest"], None]] = None

    @property
    def latency(self) -> int:
        if self.complete_slot is None:
            raise ValueError("request has not completed")
        return self.complete_slot - self.issue_slot + 1


class ConflictFreeCluster:
    """One CFM cluster: local processors on some AT-space partitions, the
    remaining partitions free for remote service."""

    def __init__(self, cluster_id: int, config: CFMConfig, n_local_procs: int):
        capacity = config.procs_per_module_slot
        if not 0 <= n_local_procs <= capacity:
            raise ValueError(
                f"cluster supports at most {capacity} partitions, "
                f"got {n_local_procs} local processors"
            )
        self.cluster_id = cluster_id
        self.memory = CFMemory(config)
        self.n_local = n_local_procs
        # Free partitions (Fig 3.12: one free slot per 3-processor cluster).
        self.free_partitions: List[int] = list(range(n_local_procs, capacity))
        self._busy_partitions: Dict[int, RemoteRequest] = {}
        self.pending_remote: Deque[RemoteRequest] = deque()
        self.remote_served = 0

    @property
    def n_free(self) -> int:
        return len(self.free_partitions)

    def enqueue_remote(self, req: RemoteRequest) -> None:
        self.pending_remote.append(req)

    def start_pending(self, send_reply: Callable[[RemoteRequest], None]) -> None:
        """Bind queued remote requests to free partitions (one per partition)."""
        while self.pending_remote and self.free_partitions:
            req = self.pending_remote.popleft()
            part = self.free_partitions.pop(0)
            self._busy_partitions[part] = req

            def finish(acc: BlockAccess, part: int = part, req: RemoteRequest = req) -> None:
                self.free_partitions.append(part)
                self.free_partitions.sort()
                del self._busy_partitions[part]
                self.remote_served += 1
                if acc.kind.is_read:
                    req.result = acc.result
                send_reply(req)

            self.memory.issue(
                proc=part,
                kind=req.kind,
                offset=req.offset,
                data=req.data,
                tag=f"remote:{req.req_id}",
                on_finish=finish,
            )


class ClusterSystem:
    """A set of conflict-free clusters joined by a shared link (Fig 3.12)."""

    def __init__(
        self,
        configs: List[CFMConfig],
        local_procs: List[int],
        link_latency: int = 4,
        link_bandwidth: int = 1,
    ) -> None:
        if len(configs) != len(local_procs):
            raise ValueError("configs and local_procs must align")
        if link_latency < 1:
            raise ValueError("link_latency must be >= 1")
        if link_bandwidth < 1:
            raise ValueError("link_bandwidth must be >= 1")
        self.clusters = [
            ConflictFreeCluster(i, cfg, n) for i, (cfg, n) in enumerate(zip(configs, local_procs))
        ]
        self.link_latency = link_latency
        self.link_bandwidth = link_bandwidth
        self.slot = 0
        self._next_req = 0
        # (deliver_slot, destination_cluster, payload, is_reply)
        self._in_flight: List[Tuple[int, int, RemoteRequest, bool]] = []
        self._link_queue: Deque[Tuple[int, RemoteRequest, bool]] = deque()
        self.completed: List[RemoteRequest] = []
        self.link_busy_slots = 0

    def message_delay(self, src: int, dst: int) -> int:
        """Transit time for one message src → dst.

        The base system models a single shared interconnect (constant
        latency); :class:`repro.core.topologies.TopologyClusterSystem`
        overrides this with per-hop routing over an arbitrary topology."""
        return self.link_latency

    def remote_access(
        self,
        src_cluster: int,
        src_proc: int,
        dst_cluster: int,
        kind: AccessKind,
        offset: int,
        data: Optional[Block] = None,
        on_finish: Optional[Callable[[RemoteRequest], None]] = None,
    ) -> RemoteRequest:
        """Issue a remote access through the memory-mapped I/O port."""
        if src_cluster == dst_cluster:
            raise ValueError("remote access must target a different cluster")
        req = RemoteRequest(
            req_id=self._next_req,
            src_cluster=src_cluster,
            src_proc=src_proc,
            dst_cluster=dst_cluster,
            kind=kind,
            offset=offset,
            data=data,
            issue_slot=self.slot,
            on_finish=on_finish,
        )
        self._next_req += 1
        self._link_queue.append((dst_cluster, req, False))
        return req

    def local_access(
        self, cluster: int, proc: int, kind: AccessKind, offset: int,
        data: Optional[Block] = None,
    ) -> BlockAccess:
        """Issue an ordinary local access inside ``cluster``."""
        cl = self.clusters[cluster]
        if not 0 <= proc < cl.n_local:
            raise ValueError(f"proc {proc} is not a local processor of cluster {cluster}")
        return cl.memory.issue(proc=proc, kind=kind, offset=offset, data=data)

    def tick(self) -> None:
        slot = self.slot
        # 1. Launch queued messages, bounded by link bandwidth (the only
        #    place contention can appear in this scheme, §3.3).
        launched = 0
        while self._link_queue and launched < self.link_bandwidth:
            dst, req, is_reply = self._link_queue.popleft()
            src = req.dst_cluster if is_reply else req.src_cluster
            delay = self.message_delay(src, dst)
            self._in_flight.append((slot + delay, dst, req, is_reply))
            launched += 1
        if self._link_queue:
            self.link_busy_slots += 1
        # 2. Deliver arrived messages.
        still: List[Tuple[int, int, RemoteRequest, bool]] = []
        for deliver, dst, req, is_reply in self._in_flight:
            if deliver > slot:
                still.append((deliver, dst, req, is_reply))
                continue
            if is_reply:
                req.complete_slot = slot
                self.completed.append(req)
                if req.on_finish is not None:
                    req.on_finish(req)
            else:
                self.clusters[dst].enqueue_remote(req)
        self._in_flight = still
        # 3. Bind pending remote requests to free partitions and tick memories.
        for cl in self.clusters:
            cl.start_pending(self._send_reply)
        for cl in self.clusters:
            cl.memory.tick()
        self.slot += 1

    def _send_reply(self, req: RemoteRequest) -> None:
        self._link_queue.append((req.src_cluster, req, True))

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.tick()

    def run_until_done(self, n_requests: int, max_slots: int = 100_000) -> None:
        """Tick until ``n_requests`` remote requests have completed; strict
        timeout at ``start + max_slots``."""
        run_until(self.tick, lambda: len(self.completed) >= n_requests,
                  lambda: self.slot, max_slots, "remote requests",
                  self._stuck)

    def _stuck(self) -> List[str]:
        """Timeout forensics: where each unfinished remote request is."""
        stuck: List[str] = []
        for dst, req, is_reply in self._link_queue:
            what = "reply" if is_reply else "request"
            stuck.append(f"req {req.req_id} {what} for cluster {dst} "
                         f"queued on the link")
        for deliver, dst, req, is_reply in self._in_flight:
            what = "reply" if is_reply else "request"
            stuck.append(f"req {req.req_id} {what} for cluster {dst} "
                         f"arriving at slot {deliver}")
        for cl in self.clusters:
            for req in cl.pending_remote:
                stuck.append(f"req {req.req_id} waiting for a free "
                             f"partition in cluster {cl.cluster_id}")
            stuck += [f"cluster {cl.cluster_id} {entry}"
                      for entry in cl.memory._stuck()]
        return stuck
