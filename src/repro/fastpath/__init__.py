"""Fast-path simulation support.

The paper's central observation — the CFM schedule is *statically
determined* (at slot *t* processor *p* touches bank ``(t + c·p) mod b``,
§3.1, Table 3.1) — means a whole run's schedule is a formula, proven
conflict-free once per ``(b, c)`` shape in O(n).  This package holds that
formula (:mod:`repro.fastpath.tables`) plus the parallel bench runner;
the slot-skipping fast paths live on the components themselves
(:meth:`repro.core.cfm.CFMemory.run_batch` and the ``run_ops`` span loops
of :class:`repro.cache.protocol.CacheSystem` and
:class:`repro.hierarchy.slot_accurate.SlotAccurateHierarchy`).

:mod:`repro.fastpath.engine` is the engine-strategy seam.  ``reference``
is the per-slot tick.  ``batch`` is the one epoch driver,
:meth:`repro.core.cfm.CFMemory.run_batch`, and ``vectorized`` and
``stacked`` are wire-level aliases of it.  The cache and hierarchy
``run_ops`` loops take no engine; their spans share its per-epoch word
movement, ``CFMemory._advance_span``.  :mod:`repro.fastpath.stack`
validates a list of same-shape CFM run specs and runs them one by one:
runs are pure functions of their spec and share no work, so the sweep
runner and the serving layer run ``engine="stacked"`` specs like any
other.

Every fast path is differentially tested against the slot-by-slot
reference path for bit-identical traces, metrics, and bench payloads
(``tests/test_fastpath.py``, ``tests/test_fastpath_stage3.py``,
``tests/test_fastpath_stage4.py``).
"""

from repro.fastpath.engine import (
    DEFAULT_ENGINE,
    ENGINE_BATCH,
    ENGINE_REFERENCE,
    ENGINE_STACKED,
    ENGINE_VECTORIZED,
    ENGINES,
    engine_available,
    resolve_engine,
    supported_layers,
)
from repro.fastpath.parallel import derive_seed, map_specs, sweep
from repro.fastpath.tables import Schedule, at_schedule, bank_orders

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_BATCH",
    "ENGINE_REFERENCE",
    "ENGINE_STACKED",
    "ENGINE_VECTORIZED",
    "ENGINES",
    "Schedule",
    "at_schedule",
    "bank_orders",
    "derive_seed",
    "engine_available",
    "map_specs",
    "resolve_engine",
    "supported_layers",
    "sweep",
]
