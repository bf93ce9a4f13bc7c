"""Simulation kernel: the slot loop, cooperative processes, RNG, stats.

This subpackage is the substrate every simulator in the reproduction runs on:

* :mod:`repro.sim.engine` — :func:`~repro.sim.engine.run_until`, the one
  bounded "tick until done" loop every slot driver runs (one slot = one CPU
  cycle, the granularity of the paper), and its typed
  :class:`~repro.sim.engine.SimulationTimeout`.
* :mod:`repro.sim.procs` — cooperative generator-based processes with a
  deterministic round-robin scheduler; used by the lock simulations and the
  resource-binding runtime (Chapter 6).
* :mod:`repro.sim.rng` — seeded, stream-splittable randomness so every
  experiment is reproducible; numpy loads with a process's first stream.
* :mod:`repro.sim.stats` — counters, online mean/variance, histograms and
  utilization tracking used by the benchmark harness.
* :mod:`repro.sim.workload` — synthetic workload generators standing in for
  the paper's assumed access patterns (uniform rate *r*, hot-spot, locality λ).

The workload generators import numpy, so their names are exported lazily
(:mod:`repro._lazy`): ``from repro.sim import UniformWorkload`` works, but
``import repro.sim`` does not load them.
"""

from repro._lazy import lazy_exports
from repro.sim.engine import SimulationTimeout
from repro.sim.procs import Delay, Halt, Process, Scheduler, SchedulerDeadlock
from repro.sim.rng import derive_rng, make_rng
from repro.sim.stats import (
    Histogram,
    RunningStats,
    RunSummary,
    TallyCounter,
    Utilization,
)

__all__ = [
    "SimulationTimeout",
    "Process",
    "Scheduler",
    "SchedulerDeadlock",
    "Delay",
    "Halt",
    "make_rng",
    "derive_rng",
    "TallyCounter",
    "RunningStats",
    "RunSummary",
    "Histogram",
    "Utilization",
    "AccessEvent",
    "UniformWorkload",
    "HotSpotWorkload",
    "LocalityWorkload",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".workload": ("AccessEvent", "UniformWorkload", "HotSpotWorkload",
                  "LocalityWorkload"),
})
