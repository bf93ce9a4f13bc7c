"""The engine seam and the engine-name differentials.

Three proof obligations:

* **engine seam** — ``resolve_engine`` and the per-layer ``engine=``
  constructor/dispatch surface behave identically everywhere.
* **engine-name differential** — every engine name a layer accepts
  (``reference`` and the fast driver's ``batch``/``vectorized``/
  ``stacked`` aliases) produces bit-identical full-state fingerprints,
  across shapes from (4, 1) to (128, 32), with and without a zero-fault
  plan attached, and under a degraded bank (the CFM batch driver must
  detect degraded mode and tick per slot).  On the coherence layers
  every name drives the one per-slot driver; these cases pin that each
  name still dispatches there.
* **observability** — HotpathProfiler counter sums equal the slots the
  CFM batch driver advanced, and every engine raises
  :class:`SimulationTimeout` at the identical strict boundary slot.

Also covered: bounded table caches + degraded-table aliasing, the
partial bench-document contract, and the ``--engine`` CLI surface.
"""

from __future__ import annotations

import json

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.faults.chaos import (
    _build_cache_ops,
    _build_hier_ops,
    _cache_fingerprint,
    _cfm_fingerprint,
    _hier_fingerprint,
    fingerprint_cache,
    fingerprint_hier,
)
from repro.fastpath.engine import (
    DEFAULT_ENGINE,
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    ENGINES,
    resolve_engine,
    supported_layers,
)
from repro.fastpath.tables import (
    TABLE_CACHE_SIZE,
    bank_orders,
    shift_permutations,
    slot_bank_table,
)
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimulationTimeout

#: Engines each layer can drive (``stacked`` is CFM-only; the other names
#: run everywhere).
CFM_ENGINES = tuple(e for e in ENGINES if "cfm" in supported_layers(e))
CACHE_ENGINES = tuple(e for e in ENGINES if "cache" in supported_layers(e))
HIER_ENGINES = tuple(e for e in ENGINES if "hierarchy" in supported_layers(e))


# --------------------------------------------------------------------------
# Engine registry


def test_resolve_engine_defaults_and_names():
    assert resolve_engine(None) == DEFAULT_ENGINE
    for name in ENGINES:
        assert resolve_engine(name) == name
    assert resolve_engine(None, default=ENGINE_REFERENCE) == ENGINE_REFERENCE


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_engine("turbo")


@pytest.mark.parametrize("engine", [None, *ENGINES])
def test_layer_constructors_accept_engine(engine):
    expect = resolve_engine(engine)
    assert CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine=engine).engine \
        == expect
    if engine is None or "cache" in supported_layers(engine):
        assert CacheSystem(4, engine=engine).engine == expect
        assert SlotAccurateHierarchy(2, 2, engine=engine).engine == expect
    else:
        # Layer-restricted engines fail at construction with a typed
        # error naming the layers that do support them.
        with pytest.raises(ValueError, match="supported layers"):
            CacheSystem(4, engine=engine)
        with pytest.raises(ValueError, match="supported layers"):
            SlotAccurateHierarchy(2, 2, engine=engine)


def test_layer_constructors_reject_unknown_engine():
    with pytest.raises(ValueError):
        CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine="turbo")
    with pytest.raises(ValueError):
        CacheSystem(4, engine="turbo")
    with pytest.raises(ValueError):
        SlotAccurateHierarchy(2, 2, engine="turbo")


# --------------------------------------------------------------------------
# Engine-name differential

CFM_SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16), (128, 32)]
#: Shapes small enough to also sweep with a zero-fault plan attached.
CFM_ZERO_SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]


@pytest.mark.parametrize("n_procs,bank_cycle", CFM_SHAPES)
def test_cfm_three_way_bit_identical(n_procs, bank_cycle):
    zeros = (False, True) if (n_procs, bank_cycle) in CFM_ZERO_SHAPES \
        else (False,)
    for attach_zero in zeros:
        prints = [
            _cfm_fingerprint(n_procs, bank_cycle, engine, attach_zero)
            for engine in CFM_ENGINES
        ]
        assert all(p == prints[0] for p in prints), (
            n_procs, bank_cycle, attach_zero)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_cache_three_way_bit_identical(attach_zero):
    prints = [
        _cache_fingerprint(4, rounds=4, seed=5, engine=engine,
                           attach_zero=attach_zero)
        for engine in CACHE_ENGINES
    ]
    assert all(p == prints[0] for p in prints)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_hierarchy_three_way_bit_identical(attach_zero):
    prints = [
        _hier_fingerprint(2, 2, rounds=3, seed=7, engine=engine,
                          attach_zero=attach_zero)
        for engine in HIER_ENGINES
    ]
    assert all(p == prints[0] for p in prints)


def _degraded_cache_fingerprint(engine):
    sys_ = CacheSystem(4, bank_cycle=2)
    sys_.mem.degrade_bank(3)
    ops = _build_cache_ops(sys_, 4, rounds=5, seed=9)
    sys_.run_ops_engine(ops, engine=engine)
    return fingerprint_cache(sys_, ops)


def test_cache_degraded_three_way_bit_identical():
    """A degraded cluster module under every engine name matches the
    reference bit for bit (the deleted batch classifier once replayed
    spans on the healthy period-b table here)."""
    prints = [_degraded_cache_fingerprint(engine) for engine in CACHE_ENGINES]
    assert all(p == prints[0] for p in prints)


def _degraded_hier_fingerprint(engine):
    hier = SlotAccurateHierarchy(2, 2, bank_cycle=2)
    hier.clusters[0].mem.degrade_bank(2)
    ops = _build_hier_ops(hier, rounds=3, seed=11)
    hier.run_ops_engine(ops, engine=engine)
    return fingerprint_hier(hier, ops)


def test_hierarchy_degraded_three_way_bit_identical():
    prints = [_degraded_hier_fingerprint(engine) for engine in HIER_ENGINES]
    assert all(p == prints[0] for p in prints)


# --------------------------------------------------------------------------
# Metrics snapshots identical across engines (satellite 4)


def _metered_cfm(engine):
    reg = MetricsRegistry()
    mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2), metrics=reg)
    done = []
    for p in range(8):
        mem.issue(p, AccessKind.READ, offset=p % 3,
                  on_finish=lambda a: done.append((a.proc, a.complete_slot)))
    mem.run_engine(40, engine=engine)
    return done, mem.slot, reg.snapshot()


def test_cfm_metrics_snapshot_identical_across_engines():
    """Observers pin the reference path inside every engine, so attached
    metrics must see the identical event stream regardless of strategy."""
    prints = [_metered_cfm(engine) for engine in CFM_ENGINES]
    assert all(p == prints[0] for p in prints)
    assert prints[0][2]  # the registry really was fed


# --------------------------------------------------------------------------
# Profiler counter sums (satellite 4)


def _slot_sum(events):
    """Sum of the (all slot-denominated) counters."""
    return sum(events.values())


def test_vector_counter_sum_equals_cfm_slots():
    hp = HotpathProfiler()
    mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))
    mem.hotpath = hp

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                  on_finish=reissue)

    for p in range(8):
        mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=reissue)
    mem.run_engine(500, engine=ENGINE_VECTORIZED)
    events = hp.snapshot()["cfm"]
    assert events.get("batched_slots", 0) > 0
    assert _slot_sum(events) == mem.slot == 500


# --------------------------------------------------------------------------
# Strict timeout boundary, identical across engines (satellite 1)


@pytest.mark.parametrize("engine", CACHE_ENGINES)
def test_cache_timeout_identical_slot_across_engines(engine):
    sys_ = CacheSystem(4)
    sys_.run_ops([sys_.acquire(0, 0)])  # unmatched acquire wedges proc 1
    start = sys_.slot
    blocked = sys_.store(1, 0, {0: 9})
    with pytest.raises(SimulationTimeout) as exc:
        sys_.run_ops_engine([blocked], max_slots=300, engine=engine)
    assert exc.value.slot == start + 300
    assert exc.value.max_slots == 300
    assert sys_.slot == start + 300


def test_cfm_run_until_idle_strict_boundary():
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))  # b = 4
    mem.issue(0, AccessKind.READ, offset=0)
    with pytest.raises(SimulationTimeout) as exc:
        mem.run_until_idle(max_slots=2)
    assert exc.value.slot == 2
    # A read needs exactly b slots; a budget of b completes without raising.
    mem2 = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    mem2.issue(0, AccessKind.READ, offset=0)
    assert mem2.run_until_idle(max_slots=4) == 4


# --------------------------------------------------------------------------
# Bounded table caches + degraded aliasing (satellite 2)


def test_table_caches_are_bounded():
    from repro.faults.degrade import degraded_slot_bank_table

    for fn in (slot_bank_table, bank_orders, shift_permutations,
               degraded_slot_bank_table):
        assert fn.cache_info().maxsize == TABLE_CACHE_SIZE, fn.__name__


def test_degraded_table_cannot_alias_genuine_shape():
    """A degraded period-(b-1) table can never collide with a genuine
    (b-1)-bank shape's cache entry.  Twice over: the caches are separate
    objects, and the contents are disjoint — degrading requires c >= 2
    with c | b, while a genuine (b-1)-bank table needs c | (b-1); c
    dividing both b and b-1 forces c = 1.  Concretely, the degraded
    table's rows still name *physical* banks (including b-1, excluding
    the dead one), which no genuine (b-1)-bank table contains."""
    from repro.faults.degrade import degraded_slot_bank_table

    n_banks, bank_cycle, dead = 8, 2, 3
    degraded = degraded_slot_bank_table(n_banks, bank_cycle, dead)
    assert len(degraded) == n_banks - 1  # period b-1
    values = {bank for row in degraded for bank in row}
    assert dead not in values
    assert n_banks - 1 in values  # physical bank 7 still addressed
    # Every genuine 7-bank shape (only c=1 and c=7 divide 7) stays in
    # range [0, 7) — it can never equal the degraded table.
    for c in (1, 7):
        genuine = slot_bank_table(n_banks - 1, c)
        assert all(bank < n_banks - 1 for row in genuine for bank in row)
        assert genuine != degraded
    # And any c >= 2 that could degrade an 8-bank module cannot describe
    # a genuine 7-bank shape at all.
    with pytest.raises(ValueError):
        slot_bank_table(n_banks - 1, bank_cycle)
    # Separate lru_caches: a degraded lookup never seeds the healthy one.
    assert degraded_slot_bank_table is not slot_bank_table


# --------------------------------------------------------------------------
# Partial bench documents: failed specs are listed in ``failures``


def test_sweep_marks_partial_on_worker_failure():
    from repro.fastpath.parallel import sweep
    from repro.obs.bench import benchmark_specs

    good = benchmark_specs("quick", quick=True)[0]
    bad = {"system": "no_such_system", "params": {}}
    doc = sweep([good, bad], jobs=1, name="quick", quick=True)
    assert len(doc["failures"]) == 1
    assert "no_such_system" in doc["failures"][0]["error"]
    assert len(doc["runs"]) == 1  # the surviving run is preserved


def test_sweep_without_failures_is_not_partial():
    from repro.fastpath.parallel import sweep
    from repro.obs.bench import benchmark_specs

    doc = sweep(benchmark_specs("quick", quick=True)[:1], jobs=1,
                name="quick", quick=True)
    assert "failures" not in doc


# --------------------------------------------------------------------------
# CLI surface (tentpole: repro bench --engine)


def test_cli_bench_engine_flag(tmp_path):
    from repro.cli import main

    assert main(["bench", "--quick", "--engine", "batch",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_quick.json").read_text())
    seam = {r["system"]: r for r in doc["runs"]
            if r["system"] in {"cfm", "cache", "hierarchy"}}
    assert set(seam) == {"cfm", "cache", "hierarchy"}
    for run in seam.values():
        assert run["params"]["engine"] == "batch"
    # Non-seam systems never grow an engine param.
    for run in doc["runs"]:
        if run["system"] not in seam:
            assert "engine" not in run["params"]


def test_cli_bench_rejects_unknown_engine(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["bench", "--quick", "--engine", "turbo"])
