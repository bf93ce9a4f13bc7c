"""Fast-path simulation support.

The paper's central observation — the CFM schedule is *statically
determined* (at slot *t* processor *p* touches bank ``(t + c·p) mod b``,
§3.1, Table 3.1) — means every per-slot modular computation the simulators
perform can be replaced by a table lookup computed once per ``(b, c)``
shape.  This package holds those tables plus the parallel bench runner;
the slot-skipping and batch dispatch fast paths live on the components
themselves (:meth:`repro.core.cfm.CFMemory.run_batch`,
:meth:`repro.sim.engine.SlotClock.advance_until`,
:meth:`repro.sim.engine.Engine.run_batch`).

:mod:`repro.fastpath.engine` is the engine-strategy seam every batched
layer dispatches through.  ``reference`` is the per-slot tick.  ``batch``
is the one epoch driver, :meth:`repro.core.cfm.CFMemory.run_batch`, and
``vectorized`` and ``stacked`` are wire-level aliases of it.  The cache
and hierarchy batchers share its per-epoch word movement,
``CFMemory._advance_span``.  :mod:`repro.fastpath.stack` validates a list
of same-shape CFM run specs and runs them one by one: runs are pure
functions of their spec and share no work, so the sweep runner and the
serving layer run ``engine="stacked"`` specs like any other.

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
from repro.fastpath.tables import (
    TABLE_CACHE_SIZE,
    assert_conflict_free,
    bank_orders,
    shift_permutations,
    slot_bank_table,
    warm_tables,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_BATCH",
    "ENGINE_REFERENCE",
    "ENGINE_STACKED",
    "ENGINE_VECTORIZED",
    "ENGINES",
    "TABLE_CACHE_SIZE",
    "assert_conflict_free",
    "bank_orders",
    "derive_seed",
    "engine_available",
    "map_specs",
    "resolve_engine",
    "supported_layers",
    "shift_permutations",
    "slot_bank_table",
    "sweep",
    "warm_tables",
]
