"""A slot-accurate partially conflict-free machine (§3.2.2).

Composes *m* conflict-free modules — each a full
:class:`repro.core.cfm.CFMemory` engine whose "processors" are the
module's AT-space divisions — behind the circuit-switched front columns of
a partially synchronous omega network.  A processor reaching module *M*
uses the AT-space division of its contention set; the (module, division)
pair is a *port*: the circuit columns grant it to one block access at a
time, and a request finding it held is rejected for retry (the
Butterfly-style discipline of §2.1.2, but only *across* clusters — within
a conflict-free cluster ports never collide).

This is the slot-accurate counterpart of the transaction-level
:class:`repro.memory.interleaved.PartialCFMemorySimulator`; the Fig 3.14
benchmark cross-validates the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.block import Block
from repro.core.cfm import AccessKind, BlockAccess, CFMemory
from repro.core.config import CFMConfig
from repro.network.partial import PartialCFSystem
from repro.sim.engine import run_until
from repro.sim.rng import SeedLike, derive_rng
from repro.sim.stats import RunSummary


class MultiModuleCFM:
    """m conflict-free modules with circuit-switched port arbitration."""

    def __init__(self, system: PartialCFSystem):
        self.system = system
        module_cfg = CFMConfig(
            n_procs=system.divisions_per_module,
            bank_cycle=system.bank_cycle,
            word_width=system.config.word_width,
        )
        self.module_cfg = module_cfg
        self.modules = [CFMemory(module_cfg) for _ in range(system.n_modules)]
        # (module, division) -> proc currently holding the port
        self.port_owner: Dict[Tuple[int, int], int] = {}
        self.slot = 0
        self.rejections = 0
        self.grants = 0

    @property
    def beta(self) -> int:
        return self.module_cfg.block_access_time

    def port_of(self, proc: int, module: int) -> Tuple[int, int]:
        return (module, self.system.division_of(proc))

    def try_issue(
        self,
        proc: int,
        kind: AccessKind,
        module: int,
        offset: int,
        data: Optional[Block] = None,
        on_finish: Optional[Callable[[BlockAccess], None]] = None,
    ) -> Optional[BlockAccess]:
        """Attempt a block access through the circuit columns.

        Returns the in-flight access, or None if the port is held by
        another processor (caller retries later — §2.1.2's abort/retry)."""
        if not 0 <= module < self.system.n_modules:
            raise ValueError(f"module {module} out of range")
        port = self.port_of(proc, module)
        holder = self.port_owner.get(port)
        if holder is not None and holder != proc:
            self.rejections += 1
            return None
        division = self.system.division_of(proc)
        engine = self.modules[module]
        if any(a.proc == division for a in engine.active):
            # Same-division access already in flight (our own or a racing
            # cluster peer that won this slot).
            self.rejections += 1
            return None
        self.port_owner[port] = proc
        self.grants += 1

        def finish(acc: BlockAccess) -> None:
            if self.port_owner.get(port) == proc:
                del self.port_owner[port]
            if on_finish is not None:
                on_finish(acc)

        return engine.issue(
            proc=division, kind=kind, offset=offset, data=data,
            on_finish=finish,
        )

    def tick(self) -> None:
        for engine in self.modules:
            engine.tick()
        self.slot += 1

    def run_until_idle(self, max_slots: int = 100_000) -> None:
        """Tick until no module has an access in flight; strict timeout at
        ``start + max_slots``."""
        run_until(self.tick, lambda: not any(m.active for m in self.modules),
                  lambda: self.slot, max_slots, "multi-module accesses",
                  self._stuck)

    def _stuck(self) -> List[str]:
        """Timeout forensics: every access in flight, by module."""
        return [f"module {k} {entry}"
                for k, m in enumerate(self.modules) for entry in m._stuck()]


@dataclass
class _ProcState:
    active_module: Optional[int] = None
    service_start: int = -1
    next_attempt: int = -1
    in_flight: bool = False
    retries: int = 0
    queue_len: int = 0


class MultiModuleWorkloadDriver:
    """Drives a :class:`MultiModuleCFM` with the §3.4.2 workload.

    Bernoulli(r) arrivals per processor, locality-λ module choice, retry
    after an average of β/2 cycles on a port rejection — measured
    efficiency is β over the mean service time, directly comparable to
    both the analytic E(r, λ) and the transaction-level simulator."""

    def __init__(
        self,
        system: PartialCFSystem,
        rate: float,
        locality: float,
        seed: SeedLike = 0,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        self.system = system
        self.machine = MultiModuleCFM(system)
        self.rate = rate
        self.locality = locality
        self.rng = derive_rng(seed, "mm_driver", system.n_procs, rate, locality)

    def _choose_module(self, proc: int) -> int:
        local = self.system.local_module(proc)
        m = self.system.n_modules
        if m == 1 or self.rng.random() < self.locality:
            return local
        other = int(self.rng.integers(0, m - 1))
        return other + 1 if other >= local else other

    def run(self, cycles: int) -> RunSummary:
        n = self.system.n_procs
        beta = self.machine.beta
        procs = [_ProcState() for _ in range(n)]
        summary = RunSummary()
        arrivals = self.rng.random((cycles, n)) < self.rate
        mm = self.machine

        def completed(proc: int, st: _ProcState, acc: BlockAccess) -> None:
            summary.completed += 1
            summary.retries += st.retries
            assert acc.complete_slot is not None
            summary.latencies.add(acc.complete_slot - st.service_start + 1)
            st.in_flight = False
            st.active_module = None
            if st.queue_len > 0:
                st.queue_len -= 1
                st.active_module = self._choose_module(proc)
                st.service_start = mm.slot + 1
                st.next_attempt = mm.slot + 1
                st.retries = 0

        for now in range(cycles):
            for p in range(n):
                st = procs[p]
                if arrivals[now, p]:
                    if st.active_module is None and not st.in_flight:
                        st.active_module = self._choose_module(p)
                        st.service_start = now
                        st.next_attempt = now
                        st.retries = 0
                    else:
                        st.queue_len += 1
                if (
                    st.active_module is None
                    or st.in_flight
                    or st.next_attempt != now
                ):
                    continue
                acc = mm.try_issue(
                    p, AccessKind.READ, st.active_module, offset=p,
                    on_finish=lambda a, p=p, st=st: completed(p, st, a),
                )
                if acc is None:
                    summary.conflicts += 1
                    st.retries += 1
                    st.next_attempt = now + 1 + int(
                        self.rng.integers(0, max(1, beta - 1))
                    )
                else:
                    st.in_flight = True
            mm.tick()
        summary.cycles = cycles
        return summary

    def measure_efficiency(self, cycles: int) -> float:
        summary = self.run(cycles)
        if summary.completed == 0:
            return 0.0
        return summary.efficiency(self.machine.beta)
