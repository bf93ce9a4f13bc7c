"""Resource binding on a distributed-memory machine (§6.5.2).

Every shared variable has a **home server** (a node); a bind sends a
request message to the server, whose daemon verifies it against the
variable's active binds (same Fig 6.11 machinery, but per-server).  The
grant reply carries the region's data for ro and rw binds; an rw unbind
ships the (possibly modified) region back so the server can update the
original copy — "data consistency is maintained by the resource binding
paradigm through message-passing".

Messages pay a configurable network latency; the runtime counts messages
and bytes so the benchmark can compare the shared-memory and
distributed-memory implementations of the same program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple
from collections import deque

from repro.binding.region import AccessType, Region, regions_conflict
from repro.sim.engine import raise_timeout
from repro.sim.procs import Process, Scheduler, SchedulerDeadlock, Syscall


@dataclass
class RemoteBind(Syscall):
    """bind() against the home server of the target region's variable."""

    target: Region
    access: AccessType = AccessType.RW
    blocking: bool = True


@dataclass
class RemoteUnbind(Syscall):
    """unbind(); an rw unbind ships the region data home."""

    descriptor: "RemoteDescriptor"


@dataclass
class RemoteDescriptor:
    """A granted remote bind, carrying the shipped region data.

    ``snapshot`` is the copy of the region's elements taken at the server
    when the grant reply was sent (what the client may read); the client
    records updates in ``writes``, which an rw unbind ships home — the
    release-consistency style data movement of §6.5.2."""

    bind_id: int
    owner_pid: int
    target: Region
    access: AccessType
    home: int  # server node
    data_words: int  # size shipped (for traffic accounting)
    snapshot: Dict[int, Any] = field(default_factory=dict)
    writes: Dict[int, Any] = field(default_factory=dict)

    def read(self, element: int) -> Any:
        """The element's value as of the bind (plus our own writes)."""
        if element in self.writes:
            return self.writes[element]
        if element not in self.snapshot:
            raise KeyError(f"element {element} is outside this bind's region")
        return self.snapshot[element]

    def write(self, element: int, value: Any) -> None:
        """Record an update; it becomes globally visible at unbind."""
        if self.access is not AccessType.RW:
            raise PermissionError("writing through a read-only bind")
        if element not in self.snapshot:
            raise KeyError(f"element {element} is outside this bind's region")
        self.writes[element] = value


@dataclass
class _ServerBind:
    desc: RemoteDescriptor
    queue: Deque[Tuple[Process, RemoteBind]] = field(default_factory=deque)


@dataclass
class TrafficStats:
    requests: int = 0
    grants: int = 0
    denials: int = 0
    data_messages: int = 0
    words_shipped: int = 0

    @property
    def messages(self) -> int:
        return self.requests + self.grants + self.denials + self.data_messages


class DistributedBindingRuntime:
    """Binding over message-passing: servers own variables, clients bind.

    Latency model: a granted bind costs one request + one reply
    (2 × ``hop_latency`` cycles of delay before the requester resumes);
    data rides the reply/unbind for free apart from the word count, which
    is tallied for bandwidth comparisons.
    """

    def __init__(
        self,
        n_nodes: int,
        hop_latency: int = 4,
        home_of: Optional[Callable[[str], int]] = None,
        max_cycles: int = 1_000_000,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")
        self.n_nodes = n_nodes
        self.hop_latency = hop_latency
        self.home_of = home_of or (lambda var: hash(var) % n_nodes)
        self.sched = Scheduler(max_cycles=max_cycles)
        self.sched.handle(RemoteBind, self._handle_bind)
        self.sched.handle(RemoteUnbind, self._handle_unbind)
        self._ids = itertools.count()
        # Per-server active binding lists.
        self.server_binds: Dict[int, Dict[int, _ServerBind]] = {
            s: {} for s in range(n_nodes)
        }
        self.traffic = TrafficStats()
        # The servers' authoritative copies: var -> element -> value.
        self.values: Dict[str, Dict[int, Any]] = {}
        self._pending_grants: List[Tuple[int, Process, RemoteDescriptor]] = []

    def spawn(self, gen: Generator[Syscall, Any, Any], name: str = "") -> Process:
        return self.sched.spawn(gen, name)

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Run every process to completion; returns the final cycle.

        Raises :class:`~repro.sim.procs.SchedulerDeadlock` when every live
        process is blocked with no grant in flight, and
        :class:`~repro.sim.engine.SimulationTimeout` at exactly
        ``start + max_cycles``, naming each live process and what it
        waits on."""
        limit = max_cycles if max_cycles is not None else self.sched.max_cycles
        start = self.sched.cycle
        while True:
            self._deliver_grants()
            live = self.sched.live()
            if not live:
                return self.sched.cycle
            if all(p.ready_at is None for p in live) and not self._pending_grants:
                raise SchedulerDeadlock([p for p in live if p.blocked])
            if self.sched.cycle - start >= limit:
                raise_timeout("distributed binding runtime", self.sched.cycle,
                              limit, self.sched.stuck())
            self.sched.step()

    def _deliver_grants(self) -> None:
        due = [g for g in self._pending_grants if g[0] <= self.sched.cycle]
        self._pending_grants = [
            g for g in self._pending_grants if g[0] > self.sched.cycle
        ]
        for _when, proc, desc in due:
            self.traffic.grants += 1
            if desc.access in (AccessType.RO, AccessType.RW):
                self.traffic.data_messages += 1
                self.traffic.words_shipped += desc.data_words
            self.sched.unblock(proc, desc, delay=0)

    def _region_words(self, region: Region) -> int:
        words = 1
        for sel in region.selectors:
            if not isinstance(sel, str):
                words *= sel.count()
        return words

    def _region_elements(self, region: Region) -> List[int]:
        """Element indices of the region's first index range (or [0] for a
        whole-variable bind treated as one element)."""
        for sel in region.selectors:
            if not isinstance(sel, str):
                return list(range(sel.start, sel.stop, sel.step))
        return [0]

    def peek(self, var: str, element: int, default: Any = 0) -> Any:
        """The server's current value of one element (test/inspection)."""
        return self.values.get(var, {}).get(element, default)

    # -- handlers -----------------------------------------------------------------

    def _conflicts(
        self, server: int, requester: Process, target: Region, access: AccessType
    ) -> List[_ServerBind]:
        return [
            sb
            for sb in self.server_binds[server].values()
            if sb.desc.owner_pid != requester.pid
            and regions_conflict(target, access, sb.desc.target, sb.desc.access)
        ]

    def _grant(
        self, server: int, proc: Process, call: RemoteBind
    ) -> RemoteDescriptor:
        desc = RemoteDescriptor(
            bind_id=next(self._ids),
            owner_pid=proc.pid,
            target=call.target,
            access=call.access,
            home=server,
            data_words=self._region_words(call.target),
            snapshot={
                e: self.values.get(call.target.var, {}).get(e, 0)
                for e in self._region_elements(call.target)
            },
        )
        self.server_binds[server][desc.bind_id] = _ServerBind(desc=desc)
        return desc

    def _handle_bind(self, sched: Scheduler, proc: Process, call: RemoteBind) -> Any:
        server = self.home_of(call.target.var)
        self.traffic.requests += 1
        conflicts = self._conflicts(server, proc, call.target, call.access)
        if not conflicts:
            desc = self._grant(server, proc, call)
            # request + reply round trip before the requester resumes
            self._pending_grants.append(
                (sched.cycle + 2 * self.hop_latency, proc, desc)
            )
            return sched.block(proc, on=("remote-bind", call.target.describe()))
        if not call.blocking:
            self.traffic.denials += 1
            return None
        conflicts[0].queue.append((proc, call))
        return sched.block(proc, on=("remote-bind-wait", call.target.describe()))

    def _handle_unbind(
        self, sched: Scheduler, proc: Process, call: RemoteUnbind
    ) -> Any:
        desc = call.descriptor
        server = desc.home
        sb = self.server_binds[server].pop(desc.bind_id, None)
        if sb is None:
            raise ValueError(f"descriptor {desc.bind_id} not active on server {server}")
        self.traffic.requests += 1  # the unbind message itself
        if desc.access is AccessType.RW:
            # rw unbind ships the region back to update the original copy —
            # the release point at which the writes become globally visible.
            self.traffic.data_messages += 1
            self.traffic.words_shipped += desc.data_words
            store = self.values.setdefault(desc.target.var, {})
            store.update(desc.writes)
        for waiter, request in list(sb.queue):
            conflicts = self._conflicts(server, waiter, request.target, request.access)
            if not conflicts:
                d2 = self._grant(server, waiter, request)
                self._pending_grants.append(
                    (sched.cycle + 2 * self.hop_latency, waiter, d2)
                )
            else:
                conflicts[0].queue.append((waiter, request))
        return None
