"""Conventional interconnect baselines (§2.1).

* :class:`ArbitratedCrossbar` — a crossbar with per-output arbitration and a
  routing setup delay, the conventional alternative to the synchronous
  switch box (which needs neither arbitration nor setup).
* :class:`CircuitSwitchRetryModel` — the BBN Butterfly discipline: a request
  that encounters contention is *aborted and retried later* rather than
  buffered (§2.1.2), holding an entire path while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.omega import OmegaNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.sim.rng import SeedLike, derive_stream


class ArbitratedCrossbar:
    """N×N crossbar: conflicting requests to one output are serialized."""

    def __init__(
        self,
        n_ports: int,
        setup_delay: int = 1,
        probe: Optional[Probe] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if n_ports <= 0:
            raise ValueError("n_ports must be positive")
        if setup_delay < 0:
            raise ValueError("setup_delay must be >= 0")
        self.n_ports = n_ports
        self.setup_delay = setup_delay
        self.granted = 0
        self.rejected = 0
        self._rounds = 0
        self.probe = probe
        self.metrics = metrics
        if metrics is not None:
            self._out_util = [
                metrics.utilization(f"net.xbar.out[{o}].util")
                for o in range(n_ports)
            ]
            self._counters = metrics.counter("net.xbar")

    def arbitrate(self, requests: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Grant at most one request per output (lowest input wins).

        Returns the granted (input, output) pairs; the rest are rejected
        and counted (their issuers must retry)."""
        taken: Dict[int, int] = {}
        granted: List[Tuple[int, int]] = []
        for inp, out in sorted(requests):
            if not 0 <= inp < self.n_ports or not 0 <= out < self.n_ports:
                raise ValueError(f"port pair ({inp}, {out}) out of range")
            if out in taken:
                self.rejected += 1
                continue
            taken[out] = inp
            granted.append((inp, out))
        self.granted += len(granted)
        self._rounds += 1
        if self.metrics is not None:
            self._counters.incr("granted", len(granted))
            self._counters.incr("rejected", len(requests) - len(granted))
            for o in range(self.n_ports):
                self._out_util[o].tick(o in taken)
        if self.probe is not None:
            self.probe.emit(
                "net.xbar", "arbitrate", self._rounds,
                requests=len(requests), granted=len(granted),
                rejected=len(requests) - len(granted),
            )
        return granted

    def transfer_latency(self) -> int:
        """Cycles before data can move: the setup/arbitration delay."""
        return self.setup_delay


@dataclass
class _HeldPath:
    src: int
    dst: int
    release_at: int


class CircuitSwitchRetryModel:
    """Circuit-switched omega where blocked requests abort and retry.

    Each granted request holds its whole source→destination path for
    ``hold_cycles`` (a block transfer); a new request conflicting with any
    held path is rejected and retried after a random backoff.  This is the
    Butterfly behaviour the CFM eliminates: note how the abort/retry traffic
    grows with offered load.
    """

    def __init__(
        self,
        n_ports: int,
        hold_cycles: int,
        retry_min: int = 1,
        retry_max: Optional[int] = None,
        seed: SeedLike = 0,
        probe: Optional[Probe] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.net = OmegaNetwork(n_ports)
        self.n_ports = n_ports
        self.probe = probe
        self.metrics = metrics
        if metrics is not None:
            self._counters = metrics.counter("net.circuit")
            self._held_hist = metrics.histogram("net.circuit.held_paths")
        if hold_cycles <= 0:
            raise ValueError("hold_cycles must be positive")
        self.hold_cycles = hold_cycles
        self.retry_min = retry_min
        self.retry_max = retry_max if retry_max is not None else hold_cycles
        if self.retry_min < 1 or self.retry_max < self.retry_min:
            raise ValueError("invalid retry window")
        self.rng = derive_stream(seed, "circuit_retry", n_ports, hold_cycles)
        self.now = 0
        self._held: List[_HeldPath] = []
        self.attempts = 0
        self.rejections = 0
        self.completions = 0

    def _active_pairs(self) -> List[Tuple[int, int]]:
        return [(h.src, h.dst) for h in self._held if h.release_at > self.now]

    def try_request(self, src: int, dst: int) -> Optional[int]:
        """Attempt a path now.  Returns completion time, or None if blocked
        (caller should retry after :meth:`backoff` cycles)."""
        self.attempts += 1
        self._held = [h for h in self._held if h.release_at > self.now]
        if not self.net.is_conflict_free(self._active_pairs() + [(src, dst)]):
            self.rejections += 1
            if self.metrics is not None:
                self._counters.incr("rejected")
            if self.probe is not None:
                self.probe.emit("net.circuit", "block", self.now,
                                src=src, dst=dst, held=len(self._held))
            return None
        done = self.now + self.hold_cycles
        self._held.append(_HeldPath(src, dst, done))
        self.completions += 1
        if self.metrics is not None:
            self._counters.incr("granted")
            self._held_hist.add(len(self._held))
        if self.probe is not None:
            self.probe.emit("net.circuit", "grant", self.now,
                            src=src, dst=dst, release_at=done)
        return done

    def backoff(self) -> int:
        """Random delayed retry (the Butterfly's conflict resolution)."""
        return self.rng.integers(self.retry_min, self.retry_max + 1)

    def advance(self, cycles: int = 1) -> None:
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        self.now += cycles

    @property
    def rejection_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.rejections / self.attempts
