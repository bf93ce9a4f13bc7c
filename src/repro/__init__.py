"""repro — a reproduction of "A Conflict-Free Memory Design for
Multiprocessors" (Shing & Ni, Supercomputing '91; MSU dissertation 1992).

Subpackages
-----------
:mod:`repro.core`
    The CFM itself: AT-space, synchronous switches, the slot-accurate
    block-access memory engine, configurations, clusters (Chapter 3).
:mod:`repro.network`
    Omega networks: circuit-switched, fully synchronous, partially
    synchronous; message headers; baselines (§3.2).
:mod:`repro.memory`
    Conventional-memory baselines: interleaved retry simulators, hot-spot
    tree saturation (§2.1, §3.4).
:mod:`repro.tracking`
    Address tracking, data consistency, atomic swap, busy-wait locks
    (Chapter 4).
:mod:`repro.cache`
    The CFM cache coherence protocol, synchronization operations,
    snoopy/directory baselines (Chapter 5).
:mod:`repro.hierarchy`
    Hierarchical CFM, network controllers, DASH/KSR1 latency comparisons
    (§5.4).
:mod:`repro.binding`
    The resource-binding parallel programming paradigm, with Linda and
    semaphore baselines and a distributed-memory implementation
    (Chapter 6).
:mod:`repro.analysis`
    The closed-form efficiency and overhead models (§3.4).
:mod:`repro.sim`
    Simulation substrate: engines, cooperative processes, RNG, stats,
    workloads.

Quickstart
----------
>>> from repro.core import CFMConfig, CFMemory, AccessKind
>>> cfg = CFMConfig(n_procs=4, bank_cycle=2)       # 8 banks, beta = 9
>>> mem = CFMemory(cfg)
>>> acc = mem.issue(0, AccessKind.READ, offset=7)
>>> mem.drain()
>>> acc.latency == cfg.block_access_time
True

The names below are exported lazily (:mod:`repro._lazy`): ``import repro``
loads no subpackage, so an entry point such as ``repro.cli`` or
``repro.serve`` pays only for the modules it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CFMConfig",
    "CFMemory",
    "AccessKind",
    "ATSpace",
    "Block",
    "Word",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core": ("ATSpace", "CFMConfig", "CFMemory", "AccessKind"),
    ".core.block": ("Block", "Word"),
})
