"""Hot spots and tree saturation in buffered MINs (§2.1, Fig 2.1).

Pfister & Norton's effect: when many processors direct even a small excess
fraction of traffic at one memory module ("hot sink"), the switch buffers
feeding it fill, which blocks the switches behind them, until the whole
tree rooted at the hot module is saturated and *every* access — hot or not
— suffers.  This is the motivating pathology the CFM eliminates (its
busy-wait locks generate no network traffic at all, §4.2.2).

:class:`BufferedMINSimulator` is a packet-level omega network with finite
per-port FIFOs and destination-bit routing; :func:`tree_saturation_sweep`
produces the latency-vs-hot-rate curves for the Fig 2.1 benchmark.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.network.omega import OmegaNetwork, perfect_shuffle
from repro.sim.rng import SeedLike, derive_stream


@dataclass
class _Packet:
    dst: int
    injected: int
    is_hot: bool


@dataclass
class TreeSaturationReport:
    """Aggregate outcome of one buffered-MIN run."""

    cycles: int
    delivered_hot: int
    delivered_cold: int
    mean_latency_hot: float
    mean_latency_cold: float
    saturated_buffers: int  # buffers full at end of run
    blocked_injections: int

    @property
    def delivered(self) -> int:
        return self.delivered_hot + self.delivered_cold


class BufferedMINSimulator:
    """Packet-switched omega network with finite switch buffers.

    One packet moves one stage per cycle when the downstream buffer has
    room; the memory module at each output services one packet per
    ``service_time`` cycles.  With a hot-spot traffic component the buffers
    on the hot path fill and back-pressure spreads — tree saturation.
    """

    def __init__(
        self,
        n_ports: int,
        buffer_depth: int = 4,
        service_time: int = 1,
        hot_module: int = 0,
        seed: SeedLike = 0,
    ) -> None:
        self.net = OmegaNetwork(n_ports)
        self.n = n_ports
        self.k = self.net.n_stages
        if buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if service_time < 1:
            raise ValueError("service_time must be >= 1")
        self.buffer_depth = buffer_depth
        self.service_time = service_time
        self.hot_module = hot_module
        self.rng = derive_stream(seed, "hotspot", n_ports, buffer_depth, service_time)
        # queues[stage][wire]: packets waiting at the *output* wire of a stage.
        self.queues: List[List[Deque[_Packet]]] = [
            [deque() for _ in range(self.n)] for _ in range(self.k)
        ]
        self.module_busy_until = [-1] * self.n
        self.now = 0
        self.blocked_injections = 0
        self._lat_hot: List[int] = []
        self._lat_cold: List[int] = []
        self._rr = 0  # round-robin arbitration tie-breaker

    # -- routing helpers -----------------------------------------------------

    def _out_wire(self, stage: int, in_wire: int, dst: int) -> int:
        """Wire index after traversing ``stage`` toward ``dst``."""
        shuffled = perfect_shuffle(in_wire, self.n)
        switch = shuffled >> 1
        out_port = (dst >> (self.k - 1 - stage)) & 1
        return (switch << 1) | out_port

    # -- one simulated cycle ---------------------------------------------------

    def step(self, injections: List[Optional[Tuple[int, bool]]]) -> None:
        """Advance one cycle.  ``injections[i]`` is (dst, is_hot) or None."""
        if len(injections) != self.n:
            raise ValueError(f"need {self.n} injection slots")
        now = self.now
        # 1. Drain final stage into memory modules.
        for wire in range(self.n):
            q = self.queues[self.k - 1][wire]
            if q and self.module_busy_until[wire] < now:
                pkt = q.popleft()
                self.module_busy_until[wire] = now + self.service_time - 1
                lat = now - pkt.injected + self.k
                (self._lat_hot if pkt.is_hot else self._lat_cold).append(lat)
        # 2. Move packets stage s-1 → s (process downstream first so space
        #    freed this cycle is usable; head-of-line blocking is real).
        for stage in range(self.k - 1, 0, -1):
            self._advance_stage(stage)
        # 3. Inject new packets into stage 0.
        self._rr ^= 1
        order = range(self.n) if self._rr == 0 else range(self.n - 1, -1, -1)
        for src in order:
            inj = injections[src]
            if inj is None:
                continue
            dst, is_hot = inj
            out = self._out_wire(0, src, dst)
            if len(self.queues[0][out]) < self.buffer_depth:
                self.queues[0][out].append(_Packet(dst, now, is_hot))
            else:
                self.blocked_injections += 1
        self.now += 1

    def _advance_stage(self, stage: int) -> None:
        """Move at most one head packet per upstream queue into ``stage``."""
        moved_to: Dict[int, int] = {}
        wires = list(range(self.n))
        if self._rr:
            wires.reverse()
        for wire in wires:
            q = self.queues[stage - 1][wire]
            if not q:
                continue
            pkt = q[0]
            out = self._out_wire(stage, wire, pkt.dst)
            room = self.buffer_depth - len(self.queues[stage][out]) - moved_to.get(out, 0)
            if room > 0:
                q.popleft()
                self.queues[stage][out].append(pkt)
                moved_to[out] = moved_to.get(out, 0) + 1

    # -- measurement -----------------------------------------------------------

    def saturated_buffers(self) -> int:
        return sum(
            1
            for stage in self.queues
            for q in stage
            if len(q) >= self.buffer_depth
        )

    def run(self, cycles: int, rate: float, hot_fraction: float) -> TreeSaturationReport:
        """Drive with Bernoulli(rate) injections, ``hot_fraction`` to the
        hot module, the rest uniform."""
        if not 0.0 <= rate <= 1.0 or not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("rate and hot_fraction must be in [0, 1]")
        for _ in range(cycles):
            injections: List[Optional[Tuple[int, bool]]] = []
            for src in range(self.n):
                if self.rng.random() >= rate:
                    injections.append(None)
                    continue
                if self.rng.random() < hot_fraction:
                    injections.append((self.hot_module, True))
                else:
                    injections.append((self.rng.integers(0, self.n), False))
            self.step(injections)
        lat_h = self._lat_hot
        lat_c = self._lat_cold
        return TreeSaturationReport(
            cycles=cycles,
            delivered_hot=len(lat_h),
            delivered_cold=len(lat_c),
            mean_latency_hot=sum(lat_h) / len(lat_h) if lat_h else 0.0,
            mean_latency_cold=sum(lat_c) / len(lat_c) if lat_c else 0.0,
            saturated_buffers=self.saturated_buffers(),
            blocked_injections=self.blocked_injections,
        )


def tree_saturation_sweep(
    n_ports: int = 16,
    rate: float = 0.5,
    hot_fractions: Optional[List[float]] = None,
    cycles: int = 4000,
    seed: SeedLike = 0,
) -> List[Tuple[float, TreeSaturationReport]]:
    """Cold-traffic latency as the hot fraction grows (Fig 2.1's moral).

    The CFM comparator is trivial: latency is constant (β) at every hot
    fraction because no network contention exists at all."""
    if hot_fractions is None:
        hot_fractions = [0.0, 0.05, 0.1, 0.2, 0.4]
    out = []
    for h in hot_fractions:
        sim = BufferedMINSimulator(n_ports, seed=seed)
        out.append((h, sim.run(cycles, rate, h)))
    return out
