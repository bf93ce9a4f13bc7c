"""The fault-injection & recovery layer (``repro.faults``).

Two invariants make the layer safe to ship, and both are pinned here:

* **zero-fault bit-identity** — attaching a zero :class:`FaultPlan`
  changes nothing, on both the reference and fastpath engines, at every
  layer (:func:`repro.faults.chaos.differential_zero_fault`);
* **complete-or-typed-error** — every seeded-fault run either completes
  or raises a :class:`FaultError` subclass / :class:`SimulationTimeout`;
  never a hang, never silent corruption.  A hypothesis sweep drives this
  over arbitrary seeds.

Plus the recovery mechanics one by one: bounded retry under stuck banks,
typed exhaustion, slow-bank completion delays, graceful degradation onto
the ``b-1`` AT schedule (and its ``c = 1`` impossibility), lost/delayed
completions at the cache layer, and network drop windows.
"""

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.faults import (
    DegradedModeError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NetworkFaultError,
    RecoveringOp,
    RetryExhaustedError,
    RetryPolicy,
    run_with_recovery,
    shadow_bank_for,
)
from repro.faults.chaos import (
    chaos_cache,
    chaos_cfm,
    chaos_hierarchy,
    chaos_network,
    chaos_sweep,
    differential_zero_fault,
)
from repro.fastpath.tables import at_schedule
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimulationTimeout
from repro.tracking.atomic import CFMDriver

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# --------------------------------------------------------------------------
# Plans and the injector


def test_zero_plan_is_inactive():
    inj = FaultInjector(FaultPlan.zero())
    assert FaultPlan.zero().is_zero
    assert not inj.active
    assert inj.snapshot() == {}


def test_plan_generation_is_deterministic():
    a = FaultPlan.generate(42, n_banks=8, n_procs=4)
    b = FaultPlan.generate(42, n_banks=8, n_procs=4)
    assert a == b
    assert not a.is_zero
    c = FaultPlan.generate(43, n_banks=8, n_procs=4)
    assert a != c  # different seed, different schedule


def test_event_windows_and_permanence():
    ev = FaultEvent(kind="bank_stuck", start=10, duration=3, target=1)
    assert not ev.active(9)
    assert ev.active(10) and ev.active(12)
    assert not ev.active(13)
    dead = FaultEvent(kind="bank_dead", start=10, duration=1, target=1)
    assert dead.active(10_000)  # permanent
    with pytest.raises(ValueError):
        FaultEvent(kind="gremlins", start=0, duration=1)
    with pytest.raises(ValueError):
        FaultEvent(kind="bank_stuck", start=0, duration=0)


def test_injector_mirrors_counters_into_metrics():
    metrics = MetricsRegistry()
    plan = FaultPlan.of([FaultEvent(kind="bank_stuck", start=0, duration=4)])
    inj = FaultInjector(plan, metrics=metrics)
    inj.count("bank.stuck_abort", 2)
    assert inj.snapshot() == {"bank.stuck_abort": 2}
    assert metrics.counter("faults").get("bank.stuck_abort") == 2


# --------------------------------------------------------------------------
# Zero-fault bit-identity (the differential harness)


def test_zero_fault_runs_are_bit_identical_at_every_layer():
    assert differential_zero_fault(seed=0) == {
        "cfm": True,
        "cache": True,
        "hierarchy": True,
    }


# --------------------------------------------------------------------------
# Degraded b-1 AT schedules


@pytest.mark.parametrize("n_banks,bank_cycle", [(8, 2), (16, 4), (32, 8)])
def test_degraded_table_is_conflict_free(n_banks, bank_cycle):
    for dead in (0, n_banks // 2, n_banks - 1):
        ring, period, offsets = at_schedule(n_banks, bank_cycle, dead)
        assert period == n_banks - 1  # period shrinks to b-1
        for slot in range(period):
            row = [ring[slot + offset] for offset in offsets]
            assert dead not in row  # the dead bank is never scheduled
            assert len(set(row)) == len(row)  # per-slot injectivity


def test_degraded_table_impossible_for_c1():
    # c = 1 means n = b processors: b-1 surviving banks cannot host an
    # injective per-slot assignment, so degradation must refuse, typed.
    with pytest.raises(DegradedModeError):
        at_schedule(4, 1, dead_bank=2)
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    with pytest.raises(DegradedModeError):
        mem.degrade_bank(2)


def test_degraded_memory_preserves_data_integrity():
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=2))  # b=8, n=4
    d = CFMDriver(mem)
    b = mem.n_banks
    before = [RecoveringOp(d, p, p, AccessKind.WRITE,
                           values=[100 + p * 10 + k for k in range(b)],
                           version=f"pre{p}").start()
              for p in range(4)]
    d.run_until(lambda: all(op.done for op in before))

    dead = 3
    mem.degrade_bank(dead)
    assert mem.degraded
    assert shadow_bank_for(b, dead) == (dead + 1) % b

    # Pre-degradation data survives (the dead bank's words are served by
    # the shadow bank on its pass), and new traffic lands correctly.
    after_w = [RecoveringOp(d, p, 4 + p, AccessKind.WRITE,
                            values=[200 + p * 10 + k for k in range(b)],
                            version=f"post{p}").start()
               for p in range(4)]
    d.run_until(lambda: all(op.done for op in after_w))
    reads = [RecoveringOp(d, p, p, AccessKind.READ).start() for p in range(4)]
    d.run_until(lambda: all(op.done for op in reads))
    reads2 = [RecoveringOp(d, p, 4 + p, AccessKind.READ).start()
              for p in range(4)]
    d.run_until(lambda: all(op.done for op in reads2))
    for p in range(4):
        assert reads[p].result.values == [100 + p * 10 + k for k in range(b)]
        assert reads2[p].result.values == [200 + p * 10 + k for k in range(b)]
        assert mem.peek_block(p).values == reads[p].result.values


def test_degrade_refuses_twice_and_c1():
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=2))
    mem.degrade_bank(1)
    with pytest.raises(DegradedModeError):
        mem.degrade_bank(2)  # second death: not modelled, typed refusal
    c1 = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    with pytest.raises(DegradedModeError):
        c1.degrade_bank(0)


# --------------------------------------------------------------------------
# Recovery: bounded retry, exhaustion, slow banks


def _stuck_setup(duration, *, policy=None):
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    plan = FaultPlan.of(
        [FaultEvent(kind="bank_stuck", start=0, duration=duration, target=0)]
    )
    inj = FaultInjector(plan)
    mem.faults = inj
    d = CFMDriver(mem)
    op = RecoveringOp(d, 0, 0, AccessKind.WRITE,
                      values=list(range(mem.n_banks)), version="w",
                      policy=policy)
    return mem, inj, d, op


def test_stuck_bank_recovers_within_budget():
    # Every block access visits every bank, so a stuck bank 0 aborts all
    # traffic until the window closes; linear backoff outlives the window.
    mem, inj, d, op = _stuck_setup(duration=30)
    run_with_recovery(d, [op])
    assert op.done and op.error is None
    assert op.attempts > 1
    assert inj.snapshot()["bank.stuck_abort"] >= 1
    assert mem.peek_block(0).values == list(range(mem.n_banks))


def test_stuck_bank_exhausts_retry_budget_typed():
    mem, inj, d, op = _stuck_setup(
        duration=100_000, policy=RetryPolicy(max_retries=3, backoff_slots=1)
    )
    with pytest.raises(RetryExhaustedError) as exc:
        run_with_recovery(d, [op])
    assert exc.value.attempts == 4  # initial issue + 3 retries
    assert exc.value.slot >= 0


def test_slow_bank_delays_completion_but_preserves_data():
    def run_one(inj):
        mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
        if inj is not None:
            mem.faults = inj
        done = []
        mem.issue(0, AccessKind.WRITE, 0,
                  data=Block.of_values([7] * mem.n_banks, "slow"),
                  on_finish=done.append)
        while not done:
            mem.tick()
        return mem, done[0]

    plan = FaultPlan.of(
        [FaultEvent(kind="bank_slow", start=0, duration=200, extra=5)]
    )
    inj = FaultInjector(plan)
    mem, acc = run_one(inj)
    baseline, ref = run_one(None)
    # The slow-bank window adds exactly its drain penalty to the
    # completion slot; the stored data is untouched.
    assert acc.fault == "bank_slow" and acc.fault_delay == 5
    assert acc.complete_slot == ref.complete_slot + 5
    assert inj.snapshot()["bank.slow_drain"] >= 5
    assert mem.peek_block(0).values == baseline.peek_block(0).values


# --------------------------------------------------------------------------
# Cache layer: delayed and lost completions


def test_delayed_completion_preserves_results():
    plan = FaultPlan.of(
        [FaultEvent(kind="completion_delay", start=0, duration=400,
                    target=1, extra=7)]
    )
    faulty = CacheSystem(4, faults=FaultInjector(plan))
    clean = CacheSystem(4)
    results = {}
    for name, sys_ in (("faulty", faulty), ("clean", clean)):
        ops = []
        # Sequenced rounds: a delayed completion slides the clock but must
        # never change what a later round observes.  (Ops are created
        # lazily — creation is issuance.)
        for make_round in (lambda: [sys_.store(1, 0, {0: 11})],
                           lambda: [sys_.load(1, 0), sys_.load(2, 0)]):
            round_ops = make_round()
            sys_.run_ops(round_ops, max_slots=4_000)
            ops.extend(round_ops)
        results[name] = [
            (op.proc, op.kind.value, op.offset,
             None if op.result is None
             else [w.value for w in op.result.words])
            for op in ops
        ]
    assert results["faulty"] == results["clean"]  # late, never wrong
    assert faulty.faults.snapshot()["completion.delayed"] >= 1
    assert faulty.slot > clean.slot


def test_lost_completion_escalates_to_timeout_forensics():
    plan = FaultPlan.of(
        [FaultEvent(kind="completion_lost", start=0, duration=10_000,
                    target=2)]
    )
    sys_ = CacheSystem(4, faults=FaultInjector(plan))
    wedged = sys_.load(2, 0)
    with pytest.raises(SimulationTimeout) as exc:
        sys_.run_ops([wedged], max_slots=500)
    assert "proc 2" in str(exc.value)  # forensics name the wedged proc
    assert any("proc 2" in s for s in exc.value.stuck)
    assert sys_.faults.snapshot()["completion.lost"] >= 1


# --------------------------------------------------------------------------
# Network and hierarchy windows


def test_network_drop_window_retries_to_completion():
    plan = FaultPlan.of(
        [FaultEvent(kind="link_drop", start=0, duration=12, target=3)]
    )
    out = chaos_network(plan, n_ports=8)
    assert out["outcome"] == "completed"
    assert out["counters"]["net.dropped"] >= 1


def test_network_drop_outliving_budget_is_typed():
    plan = FaultPlan.of(
        [FaultEvent(kind="link_drop", start=0, duration=10_000, target=3)]
    )
    out = chaos_network(plan, n_ports=8, max_slots=64)
    assert out["outcome"] == "NetworkFaultError"
    assert out["typed"]
    with pytest.raises(NetworkFaultError):
        raise NetworkFaultError("x", slot=0)  # the type is importable/raisable


def test_nc_stall_window_completes():
    plan = FaultPlan.of(
        [FaultEvent(kind="nc_stall", start=2, duration=8, target=0)]
    )
    out = chaos_hierarchy(plan)
    assert out["outcome"] == "completed"
    assert out["typed"]


# --------------------------------------------------------------------------
# The chaos sweep: complete-or-typed-error, everywhere


def test_chaos_sweep_quick_is_all_typed():
    runs = chaos_sweep(seed=0, trials=2, quick=True)
    assert {r["layer"] for r in runs} == {"cfm", "cache", "hierarchy",
                                          "network"}
    for r in runs:
        assert r["typed"], f"untyped escape: {r['layer']} {r['outcome']}"
    # The c=1 bank_dead scenario must surface as the typed refusal…
    assert any(r["outcome"] == "DegradedModeError" for r in runs
               if r["layer"] == "cfm" and r["shape"] == [4, 1])
    # …and the c=2 one as an actual degraded completion.
    assert any(r["outcome"] == "completed" and r.get("degraded")
               for r in runs if r["layer"] == "cfm" and r["shape"] == [8, 2])


# --------------------------------------------------------------------------
# Property-based: arbitrary seeds never hang, never escape untyped


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_cfm_chaos_completes_or_raises_typed(seed):
    plan = FaultPlan.generate(
        seed, n_banks=4, n_procs=4, horizon=128, n_events=3,
        kinds=("bank_stuck", "bank_slow"),
    )
    out = chaos_cfm(plan, n_procs=4, bank_cycle=1, rounds=1,
                    max_slots=4_000)
    assert out["typed"], f"untyped escape: {out['outcome']}: {out['error']}"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_cache_chaos_completes_or_raises_typed(seed):
    plan = FaultPlan.generate(
        seed, n_banks=4, n_procs=4, horizon=128, n_events=3,
        kinds=("bank_stuck", "bank_slow", "completion_delay",
               "completion_lost"),
    )
    out = chaos_cache(plan, n_procs=4, rounds=2, max_slots=3_000)
    assert out["typed"], f"untyped escape: {out['outcome']}: {out['error']}"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_plan_attachment_never_perturbs_cfm(seed):
    # Bit-identity holds for *any* seed on the plan: a zero plan's seed is
    # provenance only.
    mem_a = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    mem_b = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    mem_b.faults = FaultInjector(FaultPlan.zero(seed=seed))
    for mem in (mem_a, mem_b):
        d = CFMDriver(mem)
        ops = [RecoveringOp(d, p, p % 2, AccessKind.WRITE,
                            values=[p] * mem.n_banks, version="v").start()
               for p in range(4)]
        d.run_until(lambda: all(op.done for op in ops))
    assert mem_a.slot == mem_b.slot
    for off in range(2):
        assert mem_a.peek_block(off).values == mem_b.peek_block(off).values
        assert mem_a.peek_block(off).versions == mem_b.peek_block(off).versions
