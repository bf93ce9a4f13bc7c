"""The fault injector: a plan's runtime face at every hook point.

One :class:`FaultInjector` wraps one :class:`repro.faults.plan.FaultPlan`
and is attached to the engines via their ``faults`` slots
(``CFMemory.faults``, ``CacheSystem(faults=...)``,
``SlotAccurateHierarchy(faults=...)``, ``SynchronousOmegaNetwork``,
``PartiallySynchronousOmega``).  The engines ask cheap point queries
("is bank k stuck at slot t?"); the injector answers from the plan and
tallies every consumed fault, so a run's fault exposure is visible in its
metrics snapshot.

The contract that keeps the differential harness honest:

* ``injector.active`` is ``False`` for a zero plan — every hook treats
  that exactly like no injector at all, so zero-plan runs stay on the
  fastpath and stay bit-identical to unfaulted runs;
* queries are pure functions of ``(plan, slot)`` — attaching the same
  plan twice replays the same faults.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.faults.plan import FaultEvent, FaultPlan

#: What should happen to a completion: deliver now, deliver late, or never.
CompletionFate = Union[None, Tuple[str, int], str]


class FaultInjector:
    """Runtime fault oracle + counters for one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, metrics=None):
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self.metrics = metrics
        self._by_kind: Dict[str, Tuple[FaultEvent, ...]] = {}
        for ev in plan.events:
            self._by_kind.setdefault(ev.kind, ())
        for kind in self._by_kind:
            self._by_kind[kind] = plan.by_kind(kind)
        self._fault_counter = metrics.counter("faults") if metrics is not None else None

    @property
    def active(self) -> bool:
        """False for a zero plan: every hook must then be a strict no-op."""
        return not self.plan.is_zero

    # -- counters ----------------------------------------------------------

    def count(self, event: str, n: int = 1) -> None:
        """Tally a consumed fault (mirrored into metrics if attached)."""
        self.counters[event] = self.counters.get(event, 0) + n
        if self._fault_counter is not None:
            self._fault_counter.incr(event, n)

    def snapshot(self) -> Dict[str, int]:
        return dict(sorted(self.counters.items()))

    # -- point queries, one per hook ---------------------------------------

    def _events(self, kind: str) -> Tuple[FaultEvent, ...]:
        return self._by_kind.get(kind, ())

    def stuck_banks(self, slot: int) -> FrozenSet[int]:
        """Banks whose visits must abort (for retry) at ``slot``."""
        stuck = [e.target for e in self._events("bank_stuck") if e.active(slot)]
        return frozenset(stuck) if stuck else frozenset()

    def completion_extra(self, slot: int) -> int:
        """Extra drain slots a completion at ``slot`` suffers (slow banks)."""
        extra = 0
        for e in self._events("bank_slow"):
            if e.active(slot) and e.extra > extra:
                extra = e.extra
        return extra

    def dead_bank_due(self, slot: int) -> Optional[int]:
        """The bank whose permanent death is in effect at ``slot``.

        One dead bank per plan is supported (the first scheduled one);
        degradation of an already-degraded module is not modelled."""
        due = [e for e in self._events("bank_dead") if e.active(slot)]
        if not due:
            return None
        return min(due, key=lambda e: (e.start, e.target)).target

    def nc_stalled(self, cluster: int, slot: int) -> bool:
        """Is cluster ``cluster``'s network controller frozen at ``slot``?"""
        return any(
            e.active(slot) and e.target == cluster
            for e in self._events("nc_stall")
        )

    def completion_fate(self, proc: int, slot: int) -> CompletionFate:
        """How a completion for ``proc`` at ``slot`` is delivered.

        ``None`` = deliver now; ``("delay", k)`` = deliver ``k`` slots
        late; ``"lost"`` = never delivered (the issuer wedges and the
        :class:`SimulationTimeout` forensics escalate it)."""
        for e in self._events("completion_lost"):
            if e.active(slot) and e.target == proc:
                return "lost"
        for e in self._events("completion_delay"):
            if e.active(slot) and e.target == proc:
                return ("delay", max(1, e.extra))
        return None

    def input_blocked(self, net, input_port: int, output_port: int,
                      slot: int) -> bool:
        """Does a dropped link/switch sever this input→output path?

        ``net`` is the underlying :class:`repro.network.omega.OmegaNetwork`
        (for path expansion); a ``link_drop`` kills the input port's wire
        outright, a ``switch_drop`` kills one 2×2 switch in one stage."""
        for e in self._events("link_drop"):
            if e.active(slot) and e.target == input_port:
                return True
        drops = [e for e in self._events("switch_drop") if e.active(slot)]
        if not drops:
            return False
        for hop in net.route_path(input_port, output_port):
            for e in drops:
                if hop.stage == e.extra and hop.switch == e.target:
                    return True
        return False

    def module_blocked(self, module: int, slot: int) -> bool:
        """Is a whole memory module unreachable at ``slot`` (partial nets)?"""
        return any(
            e.active(slot) and e.target == module
            for e in self._events("module_drop")
        )
