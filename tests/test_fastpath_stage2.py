"""One driver per coherence layer, against ticking every slot.

:meth:`CacheSystem.run_ops` and :meth:`SlotAccurateHierarchy.run_ops`
pass stretches that hold nothing but the memories' straight walk in one
span (every engine name runs them).  Everything here is differential:
the same workload runs once through ``run_ops``, observed the way
unpinned bench runs are, and once bare through ``run_until``, which
ticks every slot; *every* observable — op streams with issue/done slots,
hit/retry/access counts, directory states, bank contents with versions,
controller counters, the final slot — must match exactly.  The observed
runs' settled ``cfm.bank[k].util`` must equal
:func:`tests.history.bank_util_oracle`, replayed from access lifetimes
under the protocol's aborts and retries.  Span coverage is counted on
``CFMemory._advance_span``, so no differential here passes vacuously.

The hot-path profiler counts only the CFM batch driver; its
determinism, result-neutrality and exclusive claim are pinned here too.
"""

import random

import pytest

from repro.cache.protocol import CacheSystem
from repro.cache.state import CacheLineState
from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import RecordingProbe
from repro.sim.engine import SimulationTimeout, all_settled
from tests.history import bank_util_oracle, record_finishes, settled_util

SHAPES = [(4, 1), (8, 2), (16, 4)]


# --------------------------------------------------------------------------
# Cache-layer workloads (plans are (proc, kind, offset, words) scripts)


def _plan_shared(n_procs, rounds, seed):
    """Loads + stores over a small shared set: hazard-rich."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            off = rng.randrange(4)
            if rng.random() < 0.4:
                batch.append((p, "store", off, {rng.randrange(n_procs): p + 1}))
            else:
                batch.append((p, "load", off, None))
        plan.append(batch)
    return plan


def _plan_private(n_procs, rounds, seed):
    """Proc-private offsets: no coherence action after the first fills."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            off = p * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((p, "store", off, {rng.randrange(n_procs): p + 1}))
            else:
                batch.append((p, "load", off, None))
        plan.append(batch)
    return plan


def _plan_hit_heavy(n_procs, rounds, seed):
    """Each proc re-reads one private line: local hits, no memory traffic
    after the first fill."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            if rng.random() < 0.2:
                batch.append((p, "store", p, {0: p + 1}))
            else:
                batch.append((p, "load", p, None))
        plan.append(batch)
    return plan


def _plan_sync(n_procs, rounds, seed):
    """Acquire -> flush pairs over a shared lock line plus background
    loads — the sync-op path (wb_disabled lines).
    Every acquire is immediately paired with its flush: an unmatched
    acquire pins the line and livelocks every other op, by design."""
    rng = random.Random(seed)
    plan = []
    for r in range(rounds):
        owner = r % n_procs
        batch = [(owner, "acquire", 0, None), (owner, "flush", 0, None)]
        for p in range(n_procs):
            if p != owner:
                batch.append((p, "load", 1 + rng.randrange(3), None))
        plan.append(batch)
    return plan


def _run_cache_plan(n_procs, bank_cycle, plan, batch, probe=None,
                    metrics=None):
    """Run ``plan`` round by round through ``run_ops`` (``batch``, under
    that engine name) or by ticking every slot; with ``metrics``, the
    settled bank utilization is checked against the oracle after every
    round."""
    sys_ = CacheSystem(n_procs, bank_cycle=bank_cycle, probe=probe,
                       metrics=metrics)
    log = record_finishes(sys_.mem)
    all_ops = []
    for round_ops in plan:
        ops = []
        for p, kind, off, words in round_ops:
            if kind == "load":
                ops.append(sys_.load(p, off))
            elif kind == "store":
                ops.append(sys_.store(p, off, words))
            elif kind == "acquire":
                ops.append(sys_.acquire(p, off))
            else:
                ops.append(sys_.flush(p, off))
        if batch:
            sys_.run_ops_engine(ops, engine="batch")
        else:
            sys_.run_until(all_settled(ops))
        all_ops.extend(ops)
        if metrics is not None:
            assert settled_util(metrics.snapshot()) == bank_util_oracle(
                log, sys_.mem.active, sys_.cfg.n_banks, bank_cycle,
                sys_.slot)
    sys_.check_coherence_invariant()
    return sys_, all_ops


def _fingerprint(sys_, ops):
    n_offsets = 4 * sys_.cfg.n_procs + 4
    return {
        "ops": [(op.proc, op.kind.value, op.offset, op.issue_slot,
                 op.done_slot, op.was_hit, op.retries, op.memory_accesses,
                 None if op.result is None
                 else [(w.value, w.version) for w in op.result.words])
                for op in ops],
        "dirs": [
            [(off, line.state.value, line.wb_disabled)
             for off in range(n_offsets)
             if (line := d.lookup(off)) is not None]
            for d in sys_.dirs
        ],
        "banks": [
            sorted((off, w.value, w.version) for off, w in bank.items())
            for bank in sys_.mem.banks
        ],
        "stats": (sys_.stats_local_hits, sys_.stats_memory_ops),
        "ctrl": (sys_.controller.triggered_writebacks,
                 sys_.controller.invalidations_sent),
        "slot": sys_.slot,
    }


PLANS = {
    "shared": _plan_shared,
    "private": _plan_private,
    "hit_heavy": _plan_hit_heavy,
    "sync": _plan_sync,
}


@pytest.mark.parametrize("workload", sorted(PLANS))
@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_cache_batch_bit_identical(workload, n_procs, bank_cycle):
    """``run_ops``, observed, against bare ticks."""
    plan = PLANS[workload](n_procs, rounds=6, seed=n_procs * 10 + bank_cycle)
    ref_sys, ref_ops = _run_cache_plan(n_procs, bank_cycle, plan, batch=False)
    bat_sys, bat_ops = _run_cache_plan(n_procs, bank_cycle, plan, batch=True,
                                       metrics=MetricsRegistry())
    assert _fingerprint(ref_sys, ref_ops) == _fingerprint(bat_sys, bat_ops)


def test_cache_batch_with_probe_matches_unprobed():
    """A probe pins ``run_ops`` to ticks: it sees the same event stream
    as under bare ticks, and attaching one changes no result."""
    plan = _plan_shared(4, rounds=4, seed=3)
    ref_probe = RecordingProbe()
    ref_sys, ref_ops = _run_cache_plan(4, 1, plan, batch=False,
                                       probe=ref_probe)
    bat_probe = RecordingProbe()
    bat_sys, bat_ops = _run_cache_plan(4, 1, plan, batch=True,
                                       probe=bat_probe)
    assert _fingerprint(ref_sys, ref_ops) == _fingerprint(bat_sys, bat_ops)
    assert [(e.source, e.event, e.t) for e in ref_probe.events] == \
           [(e.source, e.event, e.t) for e in bat_probe.events]


def test_cache_batch_with_metrics_matches_bare():
    plan = _plan_private(4, rounds=4, seed=5)
    bare_sys, bare_ops = _run_cache_plan(4, 1, plan, batch=True)
    reg = MetricsRegistry()
    obs_sys, obs_ops = _run_cache_plan(4, 1, plan, batch=True, metrics=reg)
    assert _fingerprint(bare_sys, bare_ops) == _fingerprint(obs_sys, obs_ops)
    assert reg.snapshot()  # the registry really was fed


def test_cache_batch_timeout_names_stuck_op():
    sys_ = CacheSystem(4)
    op = sys_.acquire(0, 0)  # unmatched acquire: others can never finish
    sys_.run_ops([op])
    blocked = sys_.store(1, 0, {0: 9})
    with pytest.raises(SimulationTimeout) as exc:
        sys_.run_ops_engine([blocked], max_slots=500, engine="batch")
    assert "proc 1" in str(exc.value)
    assert exc.value.max_slots == 500
    assert any("proc 1" in s for s in exc.value.stuck)


def test_cache_reference_timeout_is_simulation_timeout():
    """run_ops hitting max_slots raises the same descriptive error (and
    stays a RuntimeError for pre-existing callers)."""
    sys_ = CacheSystem(4)
    sys_.run_ops([sys_.acquire(0, 0)])
    blocked = sys_.store(1, 0, {0: 9})
    with pytest.raises(RuntimeError) as exc:
        sys_.run_ops([blocked], max_slots=500)
    assert isinstance(exc.value, SimulationTimeout)
    assert "proc 1" in str(exc.value)


# --------------------------------------------------------------------------
# Hierarchy layer


def _seed_local(hier, n_clusters, per):
    width = hier._cluster_width()
    for c in range(n_clusters):
        for p in range(per):
            base = (c * per + p) * 4
            for off in range(base, base + 4):
                hier.clusters[c].mem.poke_block(
                    off,
                    Block.of_values([off + i for i in range(width)], "seed"),
                )
                hier.l2[c][off] = CacheLineState.DIRTY


def _hier_plan(n_clusters, per, rounds, seed, local):
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for g in range(n_clusters * per):
            off = g * 4 + rng.randrange(4) if local else rng.randrange(6)
            if rng.random() < 0.5:
                batch.append((g, "store", off,
                              {rng.randrange(per): rng.randrange(100)}))
            else:
                batch.append((g, "load", off, None))
        plan.append(batch)
    return plan


def _run_hier_plan(n_clusters, per, plan, batch, local, bank_cycle=1):
    hier = SlotAccurateHierarchy(n_clusters, per, bank_cycle=bank_cycle)
    if local:
        _seed_local(hier, n_clusters, per)
    all_ops = []
    for round_ops in plan:
        ops = [hier.load(g, off) if kind == "load"
               else hier.store(g, off, words)
               for g, kind, off, words in round_ops]
        if batch:
            hier.run_ops_engine(ops, engine="batch")
        else:
            hier.run_until(all_settled(ops))
        all_ops.extend(ops)
    hier.check_invariants()
    return hier, all_ops


def _hier_fingerprint(hier, ops):
    return {
        "ops": [(op.gproc, op.kind.value, op.offset, op.issue_slot,
                 op.done_slot, op.nc_fetches,
                 None if op.result is None
                 else [(w.value, w.version) for w in op.result.words])
                for op in ops],
        "l2": [sorted((k, v.value) for k, v in d.items()) for d in hier.l2],
        "gdata": sorted((k, [w.value for w in b.words])
                        for k, b in hier.global_data.items()),
        "gc": (hier.global_controller.invalidations_sent,
               hier.global_controller.triggered_l2_writebacks),
        "slot": hier.slot,
    }


@pytest.mark.parametrize("local", [True, False],
                         ids=["local_seeded", "global_shared"])
@pytest.mark.parametrize("n_clusters,per", [(2, 2), (4, 2), (2, 4)])
def test_hierarchy_batch_bit_identical(local, n_clusters, per):
    plan = _hier_plan(n_clusters, per, rounds=6,
                      seed=n_clusters * 10 + per, local=local)
    ref = _run_hier_plan(n_clusters, per, plan, batch=False, local=local)
    bat = _run_hier_plan(n_clusters, per, plan, batch=True, local=local)
    assert _hier_fingerprint(*ref) == _hier_fingerprint(*bat)


@pytest.mark.parametrize("local", [True, False],
                         ids=["local_seeded", "global_shared"])
@pytest.mark.parametrize("n_clusters,per,bank_cycle",
                         [(2, 2, 4), (4, 2, 2), (4, 4, 8)])
def test_hierarchy_spans_bit_identical(local, n_clusters, per, bank_cycle):
    """Clusters with c > 1, where the lockstep spans are long."""
    plan = _hier_plan(n_clusters, per, rounds=6,
                      seed=n_clusters * 10 + per + bank_cycle, local=local)
    ref = _run_hier_plan(n_clusters, per, plan, batch=False, local=local,
                         bank_cycle=bank_cycle)
    bat = _run_hier_plan(n_clusters, per, plan, batch=True, local=local,
                         bank_cycle=bank_cycle)
    assert _hier_fingerprint(*ref) == _hier_fingerprint(*bat)


# --------------------------------------------------------------------------
# Spans: how much they cover, and what ends them


def _count_spans(monkeypatch):
    """Slots passed by ``CFMemory._advance_span`` from now on."""
    spanned = [0]
    advance = CFMemory._advance_span

    def counting(mem, target):
        spanned[0] += target - mem.slot + 1
        return advance(mem, target)

    monkeypatch.setattr(CFMemory, "_advance_span", counting)
    return spanned


@pytest.mark.parametrize("n_procs,bank_cycle", [(8, 2), (16, 4)])
def test_private_streams_ride_spans(monkeypatch, n_procs, bank_cycle):
    """Proc-private streams at c > 1: most slots pass in spans."""
    plan = _plan_private(n_procs, rounds=12, seed=4)
    spanned = _count_spans(monkeypatch)
    sys_, _ = _run_cache_plan(n_procs, bank_cycle, plan, batch=True,
                              metrics=MetricsRegistry())
    assert spanned[0] > sys_.slot // 2


def test_hierarchy_local_streams_ride_spans(monkeypatch):
    plan = _hier_plan(4, 4, rounds=8, seed=2, local=True)
    spanned = _count_spans(monkeypatch)
    hier, _ = _run_hier_plan(4, 4, plan, batch=True, local=True,
                             bank_cycle=8)
    # Four cluster memories walk each spanned slot in lockstep.
    assert spanned[0] > 4 * hier.slot // 2


def test_shared_writes_end_spans(monkeypatch):
    """Stores to one shared offset: read-invalidates must meet each other
    and the remote copies at every coupled bank, so they tick."""
    sys_ = CacheSystem(4, bank_cycle=4)
    spanned = _count_spans(monkeypatch)
    sys_.run_ops([sys_.store(p, 0, {0: p}) for p in range(4)])
    assert spanned[0] == 0


def test_every_request_kind_wakes_an_idle_system():
    """Once every processor sleeps, each kind of request alone wakes the
    processor scan."""
    sys_ = CacheSystem(4, bank_cycle=2)
    sys_.run_ops([sys_.store(0, 0, {0: 1})])
    for make in (lambda: sys_.acquire(1, 0), lambda: sys_.flush(1, 0),
                 lambda: sys_.load(2, 1), lambda: sys_.store(3, 2, {0: 3})):
        sys_.run(2)  # a scan finds nothing to do: every processor sleeps
        op = make()
        sys_.run_ops([op], max_slots=1000)
        assert op.done


def _closed_loop_cache(n_procs, bank_cycle, batch, rounds=6):
    """Every finished op issues its processor's next one from ``on_done``,
    half of them to offsets another processor last touched."""
    sys_ = CacheSystem(n_procs, bank_cycle=bank_cycle)
    rng = random.Random(n_procs * 100 + bank_cycle)
    ops = []
    left = [rounds] * n_procs

    def next_op(p):
        if not left[p]:
            return
        left[p] -= 1
        shared = rng.random() < 0.5
        off = rng.randrange(4) if shared else 4 * (p + 1) + rng.randrange(4)
        if rng.random() < 0.5:
            op = sys_.store(p, off, {0: p + 1}, on_done=lambda o: next_op(p))
        else:
            op = sys_.load(p, off, on_done=lambda o: next_op(p))
        ops.append(op)

    for p in range(n_procs):
        next_op(p)
    if batch:
        sys_.run_ops(ops)
    else:
        sys_.run_until(all_settled(ops))
    sys_.check_coherence_invariant()
    return sys_, ops


@pytest.mark.parametrize("n_procs,bank_cycle", [(4, 1), (4, 4), (8, 2)])
def test_cache_closed_loop_bit_identical(n_procs, bank_cycle):
    """Ops issued from completion callbacks land on the same slots."""
    ref = _closed_loop_cache(n_procs, bank_cycle, batch=False)
    bat = _closed_loop_cache(n_procs, bank_cycle, batch=True)
    assert len(bat[1]) == n_procs * 6
    assert _fingerprint(*ref) == _fingerprint(*bat)


def _closed_loop_hier(batch):
    """Each finished op issues the next op of a processor in the *other*
    cluster, whose memory the lockstep span also walks."""
    hier = SlotAccurateHierarchy(2, 2, bank_cycle=4)
    _seed_local(hier, 2, 2)
    rng = random.Random(11)
    ops = []
    left = [5]

    def next_op(g):
        if not left[0]:
            return
        left[0] -= 1
        other = (g + 2) % 4
        off = other * 4 + rng.randrange(4)
        ops.append(hier.load(other, off, on_done=lambda o: next_op(other)))

    for g in range(4):
        ops.append(hier.load(g, g * 4, on_done=lambda o, g=g: next_op(g)))
    if batch:
        hier.run_ops(ops)
    else:
        hier.run_until(all_settled(ops))
    hier.check_invariants()
    return hier, ops


def test_hierarchy_cross_cluster_callbacks_bit_identical():
    ref = _closed_loop_hier(batch=False)
    bat = _closed_loop_hier(batch=True)
    assert len(bat[1]) == 9
    assert _hier_fingerprint(*ref) == _hier_fingerprint(*bat)


def test_hierarchy_timeout_is_simulation_timeout():
    hier = SlotAccurateHierarchy(2, 2)
    op = hier.load(0, 0)
    with pytest.raises(RuntimeError) as exc:
        hier.run_ops([op], max_slots=3)  # the L2-miss path needs far more
    assert isinstance(exc.value, SimulationTimeout)
    assert exc.value.max_slots == 3


# --------------------------------------------------------------------------
# Hot-path profiler semantics (the CFM batch driver)


def _streaming_cfm(n_procs, bank_cycle, hotpath=None, stride=1):
    """Full-load reads on private offsets, re-issued from the finish
    callback by every ``stride``-th processor."""
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    mem.hotpath = hotpath
    log = record_finishes(mem)

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=reissue)

    for p in range(0, n_procs, stride):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    return mem, log


def _cfm_fingerprint(mem, log):
    return (mem.slot,
            [(a.proc, a.issue_slot, a.complete_slot,
              sorted((k, w.value) for k, w in a.result_words.items()))
             for a in log.completed])


def test_profiler_never_changes_results():
    bare = _streaming_cfm(8, 2, stride=3)
    bare[0].run_batch(300)
    hp = HotpathProfiler()
    profiled = _streaming_cfm(8, 2, hotpath=hp, stride=3)
    profiled[0].run_batch(300)
    assert _cfm_fingerprint(*bare) == _cfm_fingerprint(*profiled)
    assert sum(sum(ev.values()) for ev in hp.snapshot().values()) > 0


def test_profiler_counters_deterministic():
    snaps = []
    for _ in range(2):
        hp = HotpathProfiler()
        mem, _ = _streaming_cfm(8, 2, hotpath=hp, stride=2)
        for k in (7, 50, 3, 120):
            mem.run_batch(k)
        snaps.append(hp.snapshot())
    assert snaps[0] == snaps[1]


def test_conflict_free_workloads_never_fall_back():
    """Private-offset CFM traffic never falls back, and the coherence
    layers count nothing: their profiled reports carry an empty section
    and the same statistics as unprofiled ones."""
    from repro.obs.bench import run_spec

    hp = HotpathProfiler()
    mem, _ = _streaming_cfm(8, 2, hotpath=hp)
    mem.run_batch(500)
    assert hp.fallbacks() == {"cfm": 0}
    assert hp.get("cfm", "batched_slots") > 0
    for spec in ({"system": "cache", "params": {
                     "n_procs": 8, "rounds": 6, "workload": "private"}},
                 {"system": "hierarchy", "params": {
                     "n_clusters": 2, "procs_per_cluster": 4, "rounds": 6,
                     "bank_cycle": 2, "workload": "local"}}):
        plain = run_spec(spec)
        profiled = run_spec({"system": spec["system"],
                             "params": {**spec["params"], "profile": True}})
        assert profiled.pop("hotpath") == {"counters": {}, "occupancy": {}}
        assert profiled == plain


def test_profiler_occupancy_shape():
    hp = HotpathProfiler()
    hp.count("cfm", "batched_slots", 90)
    hp.count("cfm", "tick.pinned", 10)
    occ = hp.occupancy()["cfm"]
    assert occ["batched"] == 90 and occ["ticked"] == 10
    assert occ["batched_frac"] == pytest.approx(0.9)


def test_shared_profiler_attributes_each_slot_to_one_layer():
    """While another layer holds the claim, a CFM batch run counts
    nothing; once released, its counters cover exactly the slots it
    advanced."""
    hp = HotpathProfiler()
    mem, _ = _streaming_cfm(8, 2, hotpath=hp)
    token = hp.claim("outer")
    mem.run_batch(40)
    assert hp.snapshot() == {}
    hp.count("outer", "tick.pinned", 40)
    hp.release(token)
    before = mem.slot
    mem.run_batch(40)
    occ = hp.occupancy()
    assert occ["outer"]["ticked"] == 40
    cfm = occ["cfm"]
    assert cfm["batched"] + cfm["skipped"] + cfm["ticked"] \
        == mem.slot - before == 40
