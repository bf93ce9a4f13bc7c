"""The engine seam and the engine-name differentials.

Three proof obligations:

* **engine seam** — ``resolve_engine``, the CFM's ``engine=``
  constructor argument and the coherence bench runners, which only
  validate and record the name, reject the same names the same way.
* **engine-name differential** — every engine name the CFM accepts
  (``reference`` and the fast driver's ``batch``/``vectorized``/
  ``stacked`` aliases) produces bit-identical full-state fingerprints,
  across shapes from (4, 1) to (128, 32), with and without a zero-fault
  plan attached.  The coherence layers have one driver each, so there
  ``run_ops`` is held to ticking every slot: bare, with a zero-fault
  plan, and under a degraded bank (the CFM underneath must detect
  degraded mode and tick per slot).
* **observability** — the slots the CFM batch driver spans and ticks
  sum to the slots it advanced, and a cache run times out at the strict
  boundary slot under every engine name a cache spec accepts.

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
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
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
from repro.obs.bench import run_spec
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimulationTimeout, all_settled
from tests.history import count_spans, count_ticks

#: Engines the CFM can drive (all of them; ``stacked`` is CFM-only).
CFM_ENGINES = tuple(e for e in ENGINES if "cfm" in supported_layers(e))
#: Engine names a cache spec accepts and records (``stacked`` is not one).
CACHE_ENGINES = tuple(e for e in ENGINES if "cache" in supported_layers(e))


def _drive(system, ops, run_ops):
    """Run a coherence layer's ``ops`` with its one driver, ``run_ops``,
    or tick every slot through ``run_until``."""
    if run_ops:
        system.run_ops(ops)
    else:
        system.run_until(all_settled(ops))


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
    """The CFM is the one layer whose constructor takes an engine."""
    assert CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine=engine).engine \
        == resolve_engine(engine)


def test_layer_constructors_reject_unknown_engine():
    with pytest.raises(ValueError):
        CFMemory(CFMConfig(n_procs=4, bank_cycle=1), engine="turbo")


COHERENCE_SPECS = {
    "cache": {"n_procs": 4, "rounds": 2},
    "hierarchy": {"n_clusters": 2, "procs_per_cluster": 2, "rounds": 2},
}


@pytest.mark.parametrize("system", sorted(COHERENCE_SPECS))
def test_coherence_runners_validate_and_record_engine(system):
    """The cache and hierarchy runners run one driver whatever the name:
    they reject unknown names and the CFM-only ``stacked`` with typed
    errors, and a pinned report's statistics equal the unpinned one's,
    with the name recorded in ``params.engine``."""
    params = COHERENCE_SPECS[system]
    with pytest.raises(ValueError, match="unknown engine 'turbo'"):
        run_spec({"system": system, "params": {**params, "engine": "turbo"}})
    with pytest.raises(ValueError, match="supported layers: cfm"):
        run_spec({"system": system,
                  "params": {**params, "engine": "stacked"}})
    plain = run_spec({"system": system, "params": dict(params)})
    for engine in (e for e in ENGINES if system in supported_layers(e)):
        pinned = run_spec({"system": system,
                           "params": {**params, "engine": engine}})
        assert pinned["params"].pop("engine") == engine
        for key in ("cycles", "completed", "latency", "params"):
            assert pinned[key] == plain[key], (engine, key)


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


def _cache_print(run_ops, attach_zero):
    inj = FaultInjector(FaultPlan.zero()) if attach_zero else None
    sys_ = CacheSystem(4, faults=inj)
    ops = _build_cache_ops(sys_, 4, rounds=4, seed=5)
    _drive(sys_, ops, run_ops)
    return fingerprint_cache(sys_, ops)


def _hier_print(run_ops, attach_zero):
    inj = FaultInjector(FaultPlan.zero()) if attach_zero else None
    hier = SlotAccurateHierarchy(2, 2, faults=inj)
    ops = _build_hier_ops(hier, rounds=3, seed=7)
    _drive(hier, ops, run_ops)
    return fingerprint_hier(hier, ops)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_cache_three_way_bit_identical(attach_zero):
    """``run_ops`` and ticking every slot, each bare and (when
    ``attach_zero``) with a zero-fault plan attached, agree bit for bit;
    the chaos differential's own fingerprint agrees too."""
    prints = [_cache_print(run_ops, zero) for run_ops in (True, False)
              for zero in sorted({False, attach_zero})]
    prints.append(_cache_fingerprint(4, rounds=4, seed=5,
                                     attach_zero=attach_zero))
    assert all(p == prints[0] for p in prints)


@pytest.mark.parametrize("attach_zero", [False, True])
def test_hierarchy_three_way_bit_identical(attach_zero):
    prints = [_hier_print(run_ops, zero) for run_ops in (True, False)
              for zero in sorted({False, attach_zero})]
    prints.append(_hier_fingerprint(2, 2, rounds=3, seed=7,
                                    attach_zero=attach_zero))
    assert all(p == prints[0] for p in prints)


def _degraded_cache_fingerprint(run_ops):
    sys_ = CacheSystem(4, bank_cycle=2)
    sys_.mem.degrade_bank(3)
    ops = _build_cache_ops(sys_, 4, rounds=5, seed=9)
    _drive(sys_, ops, run_ops)
    return fingerprint_cache(sys_, ops)


def test_cache_degraded_run_ops_matches_ticks():
    """A degraded cluster module under ``run_ops`` matches ticking every
    slot bit for bit (a deleted batch classifier once replayed spans on
    the healthy period-b table here)."""
    assert _degraded_cache_fingerprint(run_ops=True) \
        == _degraded_cache_fingerprint(run_ops=False)


def _degraded_hier_fingerprint(run_ops):
    hier = SlotAccurateHierarchy(2, 2, bank_cycle=2)
    hier.clusters[0].mem.degrade_bank(2)
    ops = _build_hier_ops(hier, rounds=3, seed=11)
    _drive(hier, ops, run_ops)
    return fingerprint_hier(hier, ops)


def test_hierarchy_degraded_run_ops_matches_ticks():
    assert _degraded_hier_fingerprint(run_ops=True) \
        == _degraded_hier_fingerprint(run_ops=False)


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
# Spanned plus ticked slots


def test_vector_counter_sum_equals_cfm_slots(monkeypatch):
    """Under ``vectorized`` the batch driver spans or ticks every slot of
    a busy module (it never idles), and spans some."""
    spanned = count_spans(monkeypatch)
    ticked = count_ticks(monkeypatch)
    mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                  on_finish=reissue)

    for p in range(8):
        mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=reissue)
    mem.run_engine(500, engine=ENGINE_VECTORIZED)
    assert spanned[mem] > 0
    assert spanned[mem] + ticked[mem] == mem.slot == 500


# --------------------------------------------------------------------------
# Strict timeout boundary


@pytest.mark.parametrize("engine", CACHE_ENGINES)
def test_cache_timeout_identical_slot_across_engines(engine):
    """Every name a cache spec accepts runs ``run_ops``, except that
    ``reference`` ticks every slot; both raise at the strict boundary."""
    assert resolve_engine(engine, layer="cache") == engine
    sys_ = CacheSystem(4)
    sys_.run_ops([sys_.acquire(0, 0)])  # unmatched acquire wedges proc 1
    start = sys_.slot
    blocked = sys_.store(1, 0, {0: 9})
    with pytest.raises(SimulationTimeout) as exc:
        if engine == ENGINE_REFERENCE:
            sys_.run_until(all_settled([blocked]), max_slots=300)
        else:
            sys_.run_ops([blocked], max_slots=300)
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


def test_cli_bench_has_no_profile_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["bench", "--quick", "--profile"])
    assert exc.value.code == 2
    assert "--profile" in capsys.readouterr().err
