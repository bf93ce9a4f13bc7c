"""Metrics ride the fast path: observed batch runs equal per-slot runs.

A :class:`MetricsRegistry` does not pin the per-slot tick.  The span walk
credits ``cfm.bank[k].util`` per access (settled when the registry is
read) and every other instrument fires at completion, so each
differential below drives one workload per slot and through a batch
driver and requires the identical registry snapshot and completion log:

* **CFM** — ``run_batch`` against ``run`` for c in {1, 2, 4, 16}, with
  idle processors, odd chunk sizes (spans that end mid-walk), idle gaps,
  same-offset write hazards (tick and span interleaved) and ``submit``
  traffic with tiers and deadlines;
* **cache** — ``run_ops`` (with its spans) against ticking every slot
  on the bench's ``mix`` and ``private`` streams, settled utilization
  against the test-side oracle;
* **runner** — the unpinned ``_run_cfm`` report against a per-slot
  issue-and-tick loop kept here;
* **pins** — probes, controller hooks, live faults and the degraded
  schedule still pin the tick with a registry attached.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.obs.hotpath import HotpathProfiler
from repro.obs.metrics import MetricsRegistry
from repro.sim.criticality import TIERS
from repro.sim.engine import all_settled
from tests.history import bank_util_oracle, record_finishes, settled_util

#: (n_procs, bank_cycle): c in {1, 2, 4, 16}.
SHAPES = [(4, 1), (3, 2), (4, 4), (2, 16)]


def _log(log):
    return [(a.access_id, a.proc, a.state.value, a.complete_slot,
             a.issue_slot, a.restarts,
             sorted((k, w.value, w.version) for k, w in a.result_words.items()))
            for a in log.completed + log.aborted]


def _state(mem, reg, log):
    return (mem.slot, _log(log), [sorted(b.items()) for b in mem.banks],
            reg.snapshot())


# --------------------------------------------------------------------------
# CFM: run_batch vs run


def _streaming(cfg, stride):
    """Reads reissued from the finish callback by every ``stride``-th
    processor; the others stay idle."""
    reg = MetricsRegistry()
    mem = CFMemory(cfg, metrics=reg)
    log = record_finishes(mem)

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 3,
                  on_finish=reissue)

    for p in range(0, cfg.n_procs, stride):
        mem.issue(p, AccessKind.READ, offset=p % 3, on_finish=reissue)
    return mem, reg, log


def _chunks(total, seed):
    rng = random.Random(seed)
    out = []
    while total > 0:
        k = min(total, rng.choice([1, 2, 3, 5, 7, 11, 13, 37]))
        out.append(k)
        total -= k
    return out


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
@pytest.mark.parametrize("stride", [1, 2])
def test_streaming_reads_in_odd_chunks(n_procs, bank_cycle, stride):
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    slots = 7 * cfg.n_banks + 5
    ref_mem, ref_reg, ref_log = _streaming(cfg, stride)
    ref_mem.run(slots)
    whole_mem, whole_reg, whole_log = _streaming(cfg, stride)
    whole_mem.run_batch(slots)
    chunked_mem, chunked_reg, chunked_log = _streaming(cfg, stride)
    for k in _chunks(slots, seed=n_procs * 100 + bank_cycle):
        chunked_mem.run_batch(k)
    expected = _state(ref_mem, ref_reg, ref_log)
    assert _state(whole_mem, whole_reg, whole_log) == expected
    assert _state(chunked_mem, chunked_reg, chunked_log) == expected
    assert ref_reg.get("cfm.bank[0].util").total == slots


def _traffic(cfg, seed, advance, rounds=40):
    """Random ``submit`` traffic between randomly sized advances: reads
    and writes on a few shared offsets (same-offset write hazards), tiers
    and deadlines on some ops, and quiet rounds that leave the module
    idle.  ``advance(mem, k)`` moves the module ``k`` slots."""
    rng = random.Random(seed)
    reg = MetricsRegistry()
    mem = CFMemory(cfg, metrics=reg)
    log = record_finishes(mem)
    n_banks = cfg.n_banks
    for r in range(rounds):
        if rng.random() < 0.7:
            for p in range(cfg.n_procs):
                if rng.random() < 0.5:
                    continue
                write = rng.random() < 0.3
                offset = rng.randrange(3)
                data = (Block.of_values([r * 100 + k for k in range(n_banks)],
                                        f"t{r}p{p}") if write else None)
                tier = rng.choice((None,) + TIERS)
                deadline = rng.choice((None, n_banks, 4 * n_banks))
                mem.submit(p, AccessKind.WRITE if write else AccessKind.READ,
                           offset=offset, data=data, criticality=tier,
                           deadline=deadline)
        advance(mem, rng.choice([1, 2, 3, 5, n_banks - 1, n_banks,
                                 n_banks + 3, 3 * n_banks]))
    return mem, reg, log


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_traffic_matches_per_slot(n_procs, bank_cycle, seed):
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    ref_mem, ref_reg, ref_log = _traffic(cfg, seed,
                                         lambda mem, k: mem.run(k))
    hp = HotpathProfiler()

    def batched(mem, k):
        mem.hotpath = hp
        mem.run_batch(k)

    fast_mem, fast_reg, fast_log = _traffic(cfg, seed, batched)
    assert (_state(fast_mem, fast_reg, fast_log)
            == _state(ref_mem, ref_reg, ref_log))
    counts = hp.snapshot()["cfm"]
    # The registry no longer pins the tick: spans and idle skips carry
    # most of the run, and the write hazards still tick.
    assert "tick.pinned" not in counts
    assert counts.get("batched_slots", 0) > 0
    assert counts.get("skipped_slots", 0) > 0
    snap = ref_reg.snapshot()
    assert any(name.startswith("cfm.latency[") for name in snap)
    assert "cfm.deadline" in snap


def test_span_and_tick_interleave_on_a_write_hazard():
    """Two writers on one offset force ticks between spans; the holds a
    span leaves open carry into the ticks and back."""
    cfg = CFMConfig(n_procs=4, bank_cycle=4)
    n_banks = cfg.n_banks

    def build():
        reg = MetricsRegistry()
        mem = CFMemory(cfg, metrics=reg)
        log = record_finishes(mem)
        rounds = [0] * cfg.n_procs

        def again(acc):
            rounds[acc.proc] += 1
            kind = AccessKind.WRITE if acc.proc < 2 else AccessKind.READ
            offset = 0 if rounds[acc.proc] % 2 else acc.proc + 1
            data = (Block.of_values([acc.proc] * n_banks, "w")
                    if kind is AccessKind.WRITE else None)
            mem.issue(acc.proc, kind, offset=offset, data=data,
                      on_finish=again)

        for p in range(cfg.n_procs):
            kind = AccessKind.WRITE if p < 2 else AccessKind.READ
            data = (Block.of_values([p] * n_banks, "w")
                    if kind is AccessKind.WRITE else None)
            mem.issue(p, kind, offset=p + 1, data=data, on_finish=again)
        return mem, reg, log

    slots = 12 * n_banks + 7
    ref_mem, ref_reg, ref_log = build()
    ref_mem.run(slots)
    hp = HotpathProfiler()
    fast_mem, fast_reg, fast_log = build()
    fast_mem.hotpath = hp
    for k in _chunks(slots, seed=9):
        fast_mem.run_batch(k)
    assert (_state(fast_mem, fast_reg, fast_log)
            == _state(ref_mem, ref_reg, ref_log))
    counts = hp.snapshot()["cfm"]
    assert counts["fallback.hazard"] > 0 and counts["batched_slots"] > 0


def _pinned(cfg, pin):
    """Streaming reads with a registry and one of the remaining pins."""
    from repro.faults import FaultEvent, FaultInjector, FaultPlan
    from repro.obs.probe import RecordingProbe
    from repro.tracking.access_control import AddressTrackingController

    reg = MetricsRegistry()
    mem = CFMemory(cfg, metrics=reg,
                   probe=RecordingProbe() if pin == "probe" else None,
                   controller=(AddressTrackingController(cfg.n_banks)
                               if pin == "controller" else None))
    if pin == "faults":
        mem.faults = FaultInjector(FaultPlan.of([FaultEvent(
            kind="bank_stuck", start=5, duration=3, target=0)]))
    if pin == "degraded":
        mem.degrade_bank(1)
    log = record_finishes(mem)

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 3,
                  on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p % 3, on_finish=reissue)
    return mem, reg, log


@pytest.mark.parametrize("pin", ["probe", "controller", "faults",
                                 "degraded"])
def test_remaining_pins_still_pin_with_metrics(pin):
    """Probes, controller hooks, live faults and the degraded schedule
    still pin the per-slot tick when a registry is attached too."""
    cfg = CFMConfig(n_procs=4, bank_cycle=2)
    slots = 5 * cfg.n_banks
    ref_mem, ref_reg, ref_log = _pinned(cfg, pin)
    ref_mem.run(slots)
    hp = HotpathProfiler()
    fast_mem, fast_reg, fast_log = _pinned(cfg, pin)
    fast_mem.hotpath = hp
    fast_mem.run_batch(slots)
    assert hp.snapshot()["cfm"] == {"tick.pinned": slots}
    assert (_state(fast_mem, fast_reg, fast_log)
            == _state(ref_mem, ref_reg, ref_log))


# --------------------------------------------------------------------------
# Cache: run_ops vs ticking every slot, metrics attached


def _cache_stream(n_procs, workload, engine):
    """The stream through ``run_ops_engine`` under ``engine``, or by
    ticking every slot when ``engine`` is ``"reference"``."""
    rng = random.Random(f"{n_procs}.{workload}")
    reg = MetricsRegistry()
    sys_ = CacheSystem(n_procs, metrics=reg)
    log = record_finishes(sys_.mem)
    ops = []
    for _ in range(12):
        for p in range(n_procs):
            offset = (p * 4 + rng.randrange(4) if workload == "private"
                      else rng.randrange(4))
            if rng.random() < 0.3:
                ops.append(sys_.store(p, offset, {0: p + 1}))
            else:
                ops.append(sys_.load(p, offset))
    if engine == "reference":
        sys_.run_until(all_settled(ops))
    else:
        sys_.run_ops_engine(ops, engine=engine)
    fingerprint = (
        sys_.slot,
        [(op.proc, op.kind.value, op.offset, op.issue_slot, op.done_slot,
          op.was_hit, op.retries,
          None if op.result is None else [w.value for w in op.result.words])
         for op in ops],
        sys_.stats_local_hits, sys_.stats_memory_ops,
    )
    snap = reg.snapshot()
    assert settled_util(snap) == bank_util_oracle(
        log, sys_.mem.active, sys_.cfg.n_banks, 1, sys_.slot)
    return fingerprint, snap


@pytest.mark.parametrize("n_procs", [2, 4, 8])
@pytest.mark.parametrize("workload", ["mix", "private"])
def test_cache_metrics_snapshot_batch_equals_reference(n_procs, workload):
    ref_fp, ref_snap = _cache_stream(n_procs, workload, "reference")
    fast_fp, fast_snap = _cache_stream(n_procs, workload, "batch")
    assert fast_fp == ref_fp
    assert fast_snap == ref_snap
    ops = ref_snap["cache.ops"]["counts"]
    assert ops.get("load", 0) + ops.get("store", 0) == 12 * n_procs
    assert "cfm.bank[0].util" in ref_snap


# --------------------------------------------------------------------------
# Runner: unpinned _run_cfm vs a per-slot issue-and-tick loop


def _per_slot_report(n_procs, bank_cycle, cycles):
    """The unpinned runner as a per-slot loop: idle processors issue at
    the top of every slot, then the module ticks."""
    from repro.core.cfm import AccessState
    from repro.obs.bench import _run_report
    from repro.sim.stats import RunSummary

    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    params = {"n_procs": n_procs, "bank_cycle": bank_cycle,
              "n_banks": cfg.n_banks, "beta": cfg.block_access_time,
              "workload": "full_load_reads"}
    summary = RunSummary()
    metrics = MetricsRegistry()
    mem = CFMemory(cfg, metrics=metrics)
    outstanding = [False] * n_procs

    def finished(acc):
        outstanding[acc.proc] = False
        if acc.state is AccessState.COMPLETED:
            summary.completed += 1
            summary.latencies.add(acc.latency)
        else:
            summary.retries += acc.restarts or 1

    for _ in range(cycles):
        for p in range(n_procs):
            if not outstanding[p]:
                mem.issue(p, AccessKind.READ, offset=p % 4,
                          on_finish=finished)
                outstanding[p] = True
        mem.tick()
    summary.cycles = cycles
    return _run_report("cfm", params, summary, metrics, "cfm.bank")


@pytest.mark.parametrize("n_procs,bank_cycle,cycles", [
    (1, 1, 5), (4, 1, 0), (4, 1, 1), (4, 4, 333), (3, 2, 50),
    (8, 2, 1000), (2, 16, 97), (16, 4, 700),
])
def test_unpinned_runner_equals_per_slot_loop(n_procs, bank_cycle, cycles):
    from repro.obs.bench import run_spec

    report = run_spec({"system": "cfm", "params": {
        "n_procs": n_procs, "bank_cycle": bank_cycle, "cycles": cycles}})
    expected = _per_slot_report(n_procs, bank_cycle, cycles)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        expected, sort_keys=True)
    if report["completed"]:
        # Issued the slot after a finish: latency is beta = b + c - 1.
        beta = n_procs * bank_cycle + bank_cycle - 1
        assert report["latency"]["p50"] == report["latency"]["p99"] == beta
