"""Synchronous (clock-driven) omega networks (§3.2.1).

The goal: make an N×N omega network behave exactly like one big N×N
synchronous switch — at time slot *t*, input *i* is connected to output
``(t + i) mod N`` — with **no** routing, setup time, or propagation delay,
because every 2×2 switch sets its state directly from the system clock.

Lawrie proved the uniform-shift permutations are conflict-free on the
omega topology, so for every slot there exists a consistent assignment of
straight/interchange states; :class:`SynchronousOmegaNetwork` computes and
caches those states per slot (Fig 3.8 / Table 3.4 for N = 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.network.omega import OmegaNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe


class SynchronousOmegaNetwork:
    """An omega network whose switches are driven by the system clock."""

    def __init__(
        self,
        n_ports: int,
        probe: Optional[Probe] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
    ):
        self.net = OmegaNetwork(n_ports)
        self.n_ports = n_ports
        self._states: Dict[int, List[List[int]]] = {}
        self.probe = probe
        self.metrics = metrics
        #: Optional :class:`repro.faults.FaultInjector`: dropped links and
        #: switches sever input→output paths; :meth:`route` silently drops
        #: the affected payloads (the sender retries next period).
        self.faults = faults
        if metrics is not None:
            self._switch_util = [
                [
                    metrics.utilization(f"net.omega.stage[{s}].switch[{w}].busy")
                    for w in range(self.net.switches_per_stage)
                ]
                for s in range(self.net.n_stages)
            ]

    @property
    def n_stages(self) -> int:
        return self.net.n_stages

    def target(self, input_port: int, slot: int) -> int:
        """The slot-defined destination: (t + i) mod N."""
        if not 0 <= input_port < self.n_ports:
            raise ValueError(f"input port {input_port} out of range")
        return (slot + input_port) % self.n_ports

    def permutation(self, slot: int) -> List[int]:
        """The full connection permutation active at ``slot``."""
        n = self.n_ports
        return [(slot + i) % n for i in range(n)]

    def switch_states(self, slot: int) -> List[List[int]]:
        """states[column][switch] ∈ {0 straight, 1 interchange} at ``slot``.

        Deterministic in ``slot mod N`` — one time period has exactly N
        states (Table 3.4).  Computed once per phase and cached: in
        hardware these are literally wired from the clock."""
        phase = slot % self.n_ports
        if phase not in self._states:
            self._states[phase] = self.net.permutation_settings(self.permutation(phase))
        return self._states[phase]

    def state_table(self) -> List[List[List[int]]]:
        """All N per-slot state matrices of one period (regenerates Table 3.4)."""
        return [self.switch_states(t) for t in range(self.n_ports)]

    def route(self, payloads: Dict[int, object], slot: int) -> Dict[int, object]:
        """Move payloads input→output in one slot, contention-free.

        Contention is impossible by construction: the slot permutation is a
        bijection.  (Asserted anyway — the whole point of the design.)"""
        n = self.n_ports
        faults = self.faults
        dropped = 0
        out: Dict[int, object] = {}
        for i, payload in payloads.items():
            t = (slot + i) % n
            if (
                faults is not None
                and faults.active
                and faults.input_blocked(self.net, i, t, slot)
            ):
                # A dead link/switch on the path: the payload is lost in
                # the fabric for this slot; the same shift recurs one
                # period later, so the sender's retry takes a live path
                # once the fault window ends.
                dropped += 1
                continue
            assert t not in out, "synchronous omega produced a collision"
            out[t] = payload
        if dropped:
            faults.count("net.dropped", dropped)
        if self.metrics is not None:
            used = set()
            for i in payloads:
                for hop in self.net.route_path(i, (slot + i) % n):
                    used.add((hop.stage, hop.switch))
            for s in range(self.net.n_stages):
                for w in range(self.net.switches_per_stage):
                    self._switch_util[s][w].tick((s, w) in used)
        if self.probe is not None:
            self.probe.emit("net.omega", "route", slot,
                            payloads=len(payloads), inputs=sorted(payloads))
        return out

    def verify_period(self) -> bool:
        """Check every slot of a period is realizable conflict-free."""
        try:
            self.state_table()
        except Exception:
            return False
        return True

    def setup_delay(self) -> int:
        """Routing setup delay per access: zero, the headline advantage.

        Conventional circuit-switched MINs pay a per-stage setup/propagation
        cost to decode routing bits (§3.4.3); the clock-driven switches need
        none."""
        return 0
