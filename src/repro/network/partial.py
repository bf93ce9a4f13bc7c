"""Partially synchronous omega networks and partially conflict-free systems
(§3.2.2, Fig 3.11, Table 3.5).

For large machines a single conflict-free module would force enormous
blocks (64K banks → 64K-word blocks).  Instead the first *j* switch columns
stay circuit-switched — routed by the memory-module number — while the
remaining ``k − j`` columns are clock-driven.  This groups the ``N = 2^k``
banks into ``2^j`` conflict-free modules of ``2^(k−j)`` banks each, and
groups processors into **contention sets** (processors that reach every
module through the same port, hence share an AT-space division).  A
**conflict-free cluster** picks one processor from each contention set:
within a cluster, accesses never conflict; across clusters they may.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import CFMConfig
from repro.network.omega import OmegaNetwork


@dataclass(frozen=True)
class PartialConfigRow:
    """One row of Table 3.5."""

    n_modules: int
    banks_per_module: int
    block_words: int
    circuit_columns: int
    clock_columns: int
    remark: str


def configuration_table(n_banks: int) -> List[PartialConfigRow]:
    """Regenerate Table 3.5 for an ``n_banks``-bank machine (2×2 switches)."""
    k = n_banks.bit_length() - 1
    if 1 << k != n_banks:
        raise ValueError(f"n_banks must be a power of two, got {n_banks}")
    rows: List[PartialConfigRow] = []
    for j in range(k + 1):
        modules = 1 << j
        bpm = n_banks // modules
        remark = "CFM" if j == 0 else ("Conventional" if j == k else "")
        rows.append(
            PartialConfigRow(
                n_modules=modules,
                banks_per_module=bpm,
                block_words=bpm,
                circuit_columns=j,
                clock_columns=k - j,
                remark=remark,
            )
        )
    return rows


class PartiallySynchronousOmega:
    """An omega network with ``circuit_columns`` routed columns followed by
    clock-driven columns (Fig 3.11)."""

    def __init__(self, n_ports: int, circuit_columns: int, faults=None):
        self.net = OmegaNetwork(n_ports)
        if not 0 <= circuit_columns <= self.net.n_stages:
            raise ValueError(
                f"circuit_columns must be in [0, {self.net.n_stages}], "
                f"got {circuit_columns}"
            )
        self.n_ports = n_ports
        self.circuit_columns = circuit_columns
        #: Optional :class:`repro.faults.FaultInjector`: ``module_drop``
        #: events make whole modules unreachable through the circuit-
        #: switched columns (:meth:`module_available` answers per slot).
        self.faults = faults

    def module_available(self, module: int, slot: int) -> bool:
        """Can the circuit-switched columns reach ``module`` at ``slot``?

        Always true without an active injector; a ``module_drop`` window
        makes every path into the module's subtree unavailable — callers
        must hold the request and retry after the window."""
        if not 0 <= module < self.n_modules:
            raise ValueError(f"module {module} out of range")
        if self.faults is None or not self.faults.active:
            return True
        if self.faults.module_blocked(module, slot):
            self.faults.count("net.module_blocked")
            return False
        return True

    @property
    def clock_columns(self) -> int:
        return self.net.n_stages - self.circuit_columns

    @property
    def n_modules(self) -> int:
        """Conflict-free modules formed: 2^(circuit columns)."""
        return 1 << self.circuit_columns

    @property
    def banks_per_module(self) -> int:
        return self.n_ports // self.n_modules

    def module_of_bank(self, bank: int) -> int:
        """Banks are grouped contiguously: module = high routing bits."""
        if not 0 <= bank < self.n_ports:
            raise ValueError(f"bank {bank} out of range")
        return bank >> (self.net.n_stages - self.circuit_columns)

    def banks_of_module(self, module: int) -> List[int]:
        if not 0 <= module < self.n_modules:
            raise ValueError(f"module {module} out of range")
        bpm = self.banks_per_module
        return list(range(module * bpm, (module + 1) * bpm))

    def contention_set(self, proc: int) -> int:
        """Contention-set index of ``proc``.

        Processors congruent modulo the module size reach each module
        through the same circuit-switched port (Fig 3.11: {0,2,4,6} and
        {1,3,5,7} for two-bank modules), hence contend with each other and
        share one AT-space division."""
        if not 0 <= proc < self.n_ports:
            raise ValueError(f"proc {proc} out of range")
        return proc % self.banks_per_module

    def n_contention_sets(self) -> int:
        return self.banks_per_module

    def conflict_free_cluster(self, index: int) -> List[int]:
        """The ``index``-th canonical cluster: one proc per contention set.

        Cluster *i* is the processors ``{i·S .. i·S + S − 1}`` where S is
        the module size — consecutive processors cover all contention sets.
        """
        size = self.banks_per_module
        n_clusters = self.n_ports // size
        if not 0 <= index < n_clusters:
            raise ValueError(f"cluster index {index} out of range")
        procs = list(range(index * size, (index + 1) * size))
        assert len({self.contention_set(p) for p in procs}) == size
        return procs

    def bank_at(self, proc: int, module: int, slot: int) -> int:
        """Bank within ``module`` the clock assigns ``proc`` at ``slot``.

        The clock-driven columns implement the per-module AT-space mapping
        with the processor's contention-set index as its division: the
        uniform shift ``(t + division) mod banks_per_module``."""
        division = self.contention_set(proc)
        bpm = self.banks_per_module
        return module * bpm + (slot + division) % bpm

    def header_fields(self) -> List[str]:
        """Which address fields a request message must carry (Fig 3.10)."""
        fields = ["offset"]
        if self.circuit_columns > 0:
            fields.insert(0, "module")
        return fields


class PartialCFSystem:
    """Static description of a partially conflict-free multiprocessor.

    Binds a :class:`CFMConfig` to its network realization and exposes the
    cluster/contention-set structure used by the §3.4.2 efficiency model
    and the Fig 3.14/3.15 simulations.
    """

    def __init__(self, n_procs: int, n_modules: int, bank_cycle: int = 1,
                 word_width: int = 32) -> None:
        n_banks = bank_cycle * n_procs
        self.config = CFMConfig(
            n_procs=n_procs,
            word_width=word_width,
            bank_cycle=bank_cycle,
            n_modules=n_modules,
            n_banks=n_banks,
        )
        self.n_procs = n_procs
        self.n_modules = n_modules
        self.bank_cycle = bank_cycle
        # Per-processor cluster/division, precomputed for the hot
        # resource_key path of the retry simulators.  Subclasses that
        # reassign divisions must overwrite ``self._division`` too.
        per = self.config.procs_per_module_slot
        self._division = tuple(p % per for p in range(n_procs))
        self._cluster = tuple(p // per for p in range(n_procs))

    @property
    def divisions_per_module(self) -> int:
        """AT-space divisions (simultaneous conflict-free procs) per module."""
        return self.config.procs_per_module_slot

    @property
    def n_clusters(self) -> int:
        return self.config.n_clusters

    @property
    def beta(self) -> int:
        return self.config.block_access_time

    def cluster_of(self, proc: int) -> int:
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"proc {proc} out of range")
        return self._cluster[proc]

    def division_of(self, proc: int) -> int:
        """The AT-space division (= contention set) assigned to ``proc``."""
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"proc {proc} out of range")
        return self._division[proc]

    def local_module(self, proc: int) -> int:
        """The module co-located with ``proc``'s cluster."""
        return self.cluster_of(proc) % self.n_modules

    def resource_key(self, proc: int, module: int) -> Tuple[int, int]:
        """The unit of contention: (module, AT division).

        Two accesses conflict iff they target the same module *and* come
        from the same contention set while overlapping in time; members of
        one cluster never conflict (distinct divisions)."""
        return (module, self._division[proc])

    def conflicts(self, proc_a: int, proc_b: int, module_a: int, module_b: int) -> bool:
        """Could simultaneous block accesses by a and b conflict?"""
        if proc_a == proc_b:
            return True
        return self.resource_key(proc_a, module_a) == self.resource_key(proc_b, module_b)
