"""Bank utilization is settled when the registry is read.

``CFMemory`` keeps cheap per-bank accumulators (O(1) per visit in a tick,
O(1) per access in a span) and brings the ``cfm.bank[k].util``
instruments up to date only when the registry is read.  Each test here
drives a workload with a registry attached, reads it (several times,
mid-run) and compares every bank's busy/total with
:func:`tests.history.bank_util_oracle`, which replays each access's
lifetime against the AT-space schedule without calling the engine.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry
from tests.history import bank_util_oracle, record_finishes, settled_util

#: (n_procs, bank_cycle): c in {1, 2, 4, 16}.
SHAPES = [(4, 1), (3, 2), (4, 4), (2, 16)]


def _observed(cfg):
    reg = MetricsRegistry()
    mem = CFMemory(cfg, metrics=reg)
    return mem, reg, record_finishes(mem)


def _check(mem, reg, log, dead_bank=None):
    """Two reads in a row settle to the oracle; the second is a no-op."""
    expected = bank_util_oracle(log, mem.active, mem.cfg.n_banks,
                                mem.cfg.bank_cycle, mem.slot, dead_bank)
    first = reg.snapshot()
    assert settled_util(first) == expected
    assert reg.snapshot() == first
    fractions = reg.fractions("cfm.bank")
    assert fractions == {name: busy / total if total else 0.0
                         for name, (busy, total) in expected.items()}
    assert (reg.get("cfm.bank[0].util").busy,
            reg.get("cfm.bank[0].util").total) == expected["cfm.bank[0].util"]


def _traffic(mem, rng, rounds, advance):
    """Reads and writes on three shared offsets (same-offset write
    hazards, so ticks and spans interleave), idle processors and quiet
    rounds that leave the module empty, each round followed by
    ``advance(k)`` with a random k; the registry is read every round."""
    cfg = mem.cfg
    n_banks = cfg.n_banks
    for r in range(rounds):
        if rng.random() < 0.7:
            for p in range(cfg.n_procs):
                if rng.random() < 0.5:
                    continue
                write = rng.random() < 0.3
                data = (Block.of_values([r * 100 + k for k in range(n_banks)],
                                        f"t{r}p{p}") if write else None)
                mem.submit(p, AccessKind.WRITE if write else AccessKind.READ,
                           offset=rng.randrange(3), data=data)
        advance(rng.choice([1, 2, 3, 5, n_banks - 1, n_banks, n_banks + 3,
                            3 * n_banks]))
        yield r


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
@pytest.mark.parametrize("driver", ["run", "run_batch"])
def test_settles_to_the_oracle_every_round(n_procs, bank_cycle, driver):
    mem, reg, log = _observed(CFMConfig(n_procs=n_procs,
                                        bank_cycle=bank_cycle))
    rng = random.Random(n_procs * 100 + bank_cycle)
    for _ in _traffic(mem, rng, 30, getattr(mem, driver)):
        _check(mem, reg, log)
    assert log.completed and mem.slot > 10 * mem.cfg.n_banks


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_streaming_spans_in_odd_chunks(n_procs, bank_cycle):
    """Full-load reads re-issued from the finish callback: every span
    ends mid-walk somewhere, so its last c - 1 visits hold past it."""
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    mem, reg, log = _observed(cfg)

    def reissue(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    rng = random.Random(bank_cycle)
    for _ in range(40):
        mem.run_batch(rng.choice([1, 2, 3, 7, 13, cfg.n_banks + 1]))
        _check(mem, reg, log)


def test_tick_and_span_interleave_on_a_write_hazard():
    """Two writers alternate onto one offset: run_batch ticks through
    each hazard and spans between them, carrying holds both ways."""
    cfg = CFMConfig(n_procs=4, bank_cycle=4)
    n_banks = cfg.n_banks
    mem, reg, log = _observed(cfg)
    rounds = [0] * cfg.n_procs

    def again(acc):
        rounds[acc.proc] += 1
        write = acc.proc < 2
        offset = 0 if rounds[acc.proc] % 2 else acc.proc + 1
        mem.issue(acc.proc, AccessKind.WRITE if write else AccessKind.READ,
                  offset=offset,
                  data=Block.of_values([acc.proc] * n_banks, "w")
                  if write else None,
                  on_finish=again)

    for p in range(cfg.n_procs):
        write = p < 2
        mem.issue(p, AccessKind.WRITE if write else AccessKind.READ,
                  offset=p + 1,
                  data=Block.of_values([p] * n_banks, "w") if write else None,
                  on_finish=again)
    for k in [5, 11, 3, 17, 1, 29, 2, 40, 7]:
        mem.run_batch(k)
        _check(mem, reg, log)


def test_reads_inside_a_slot_count_only_the_slots_before_it():
    """A finish callback that reads the registry mid-slot (mid-tick and
    at a span's end) sees the slots before the current one, and the
    holds it clips are given back at the next read."""
    cfg = CFMConfig(n_procs=3, bank_cycle=2)
    mem, reg, log = _observed(cfg)
    seen = []
    # The accesses not yet finished, kept here: a span unlinks all of its
    # finishers from ``mem.active`` before the first callback runs.
    inflight = {}

    def reissue(acc):
        del inflight[acc.proc]
        expected = bank_util_oracle(log, inflight.values(), cfg.n_banks,
                                    cfg.bank_cycle, mem.slot)
        seen.append(settled_util(reg.snapshot()) == expected)
        inflight[acc.proc] = mem.issue(acc.proc, AccessKind.READ,
                                       offset=acc.proc, on_finish=reissue)

    for p in range(cfg.n_procs):
        inflight[p] = mem.issue(p, AccessKind.READ, offset=p,
                                on_finish=reissue)
    mem.run(20)
    mem.run_batch(20)
    _check(mem, reg, log)
    assert len(seen) > 6 and all(seen)


def test_degraded_schedule_revisits_within_c_slots():
    """On the period-(b-1) schedule one bank can be revisited before its
    hold ends; the overlap counts once."""
    cfg = CFMConfig(n_procs=4, bank_cycle=2)
    mem, reg, log = _observed(cfg)
    mem.degrade_bank(1)
    rng = random.Random(5)
    for _ in _traffic(mem, rng, 25, mem.run_batch):
        _check(mem, reg, log, dead_bank=1)


@pytest.mark.parametrize("kind", ["bank_stuck", "bank_slow"])
def test_live_faults(kind):
    """Stuck banks abort accesses at their visit (the first visit too);
    slow banks delay completion.  Both pin the per-slot tick."""
    cfg = CFMConfig(n_procs=4, bank_cycle=2)
    mem, reg, log = _observed(cfg)
    mem.faults = FaultInjector(FaultPlan.of([
        FaultEvent(kind=kind, start=s, duration=4, target=s % cfg.n_banks,
                   extra=3)
        for s in (3, 17, 40, 41, 90)]))
    rng = random.Random(11)
    for _ in _traffic(mem, rng, 25, mem.run_batch):
        _check(mem, reg, log)
    assert log.aborted if kind == "bank_stuck" else log.completed


class _Writer:
    def __init__(self):
        self.calls = 0

    def settle(self):
        self.calls += 1


def test_registry_settles_before_every_read():
    reg = MetricsRegistry()
    writer = _Writer()
    reg.on_read(writer.settle)
    reg.utilization("u")
    reg.get("u")
    reg.snapshot()
    reg.fractions("u")
    reg.to_json()
    assert writer.calls == 4


def _streamed(reg, slots):
    """A (4, 4) module streaming reads for ``slots`` slots into ``reg``,
    the last access still in flight."""
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=4), metrics=reg)

    def again(acc):
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=again)

    for p in range(4):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=again)
    mem.run_batch(slots)
    return mem


def test_registry_keeps_no_module_alive():
    """Many modules share one registry in turn: each is freed with its
    run, and the registry still holds every slot each one advanced."""
    reg = MetricsRegistry()
    refs = []
    for run in range(5):
        mem = _streamed(reg, 50 + run)
        refs.append(weakref.ref(mem))
        del mem
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5
    held = MetricsRegistry()
    kept = [_streamed(held, 50 + run) for run in range(5)]
    assert reg.snapshot() == held.snapshot()
    assert reg._settlers == []  # the freed writers' hooks are dropped
    assert sum(m.slot for m in kept) == reg.get("cfm.bank[0].util").total
