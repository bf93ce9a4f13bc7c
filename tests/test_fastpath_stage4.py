"""Stacked spec execution and the fast driver's lanes (invariant 11).

Proof obligations:

* **differential sweep** — :func:`repro.fastpath.stack.run_specs_stacked`
  is bit-identical to per-spec serial :func:`repro.obs.bench.run_spec`
  across shapes (4, 1)…(128, 32), every engine pin, and duplicate specs
  (which get their own lanes);
* **lane identity** — a lane advanced through the ``stacked`` engine
  alias on mixed workloads (full-load reads, partial load, private
  writes, mixed budgets) ends in exactly the state a per-slot
  ``mem.run(slots)`` produces: same banks, same completion log, same
  slot;
* **shared whole-block memo** — :meth:`CFMemory.run_batch` hands one
  result dict to every whole-block reader of an offset; stores between
  reads (in-span writes, finish-callback pokes) invalidate it, matching
  the per-slot reference bit for bit;
* **hazard fallback** — a lane that picks up a same-offset write
  interleave (or carries a probe from the start) ticks per slot while a
  clean lane stays batched, and both remain bit-identical to their
  serial runs;
* **metrics-snapshot identity** — observed lanes see the identical
  event stream stacked or serial; a metrics registry alone keeps its
  lane batched.
"""

from __future__ import annotations

import json

import pytest

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.fastpath.engine import ENGINE_STACKED, ENGINES, engine_available
from repro.fastpath.stack import run_specs_stacked, stack_shape, stackable_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import RecordingProbe
from tests.history import count_spans, count_ticks, record_finishes


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _fingerprint(mem: CFMemory, log, finished):
    return (
        mem.slot,
        [sorted(bank.items()) for bank in mem.banks],
        [(a.proc, a.words_done) for a in mem.active],
        len(finished.completed),
        list(log),
    )


# --------------------------------------------------------------------------
# Workload builders: each returns a primed module, its completion log and
# a record of its finishes (tests/history.py).  Deterministic, so a fresh
# serial twin sees the identical issue stream.


def _reads(cfg: CFMConfig, stride: int = 1):
    """Full-load streaming reads; ``stride > 1`` leaves procs idle."""
    mem = CFMemory(cfg)
    finished = record_finishes(mem)
    log = []

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot, acc.first_bank))
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                  on_finish=reissue)

    for p in range(0, cfg.n_procs, stride):
        mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=reissue)
    return mem, log, finished


def _private_writes(cfg: CFMConfig):
    """Every 2nd reissue of a proc writes a processor-private offset —
    hazard-free, exercising the span write path + memo invalidation."""
    mem = CFMemory(cfg)
    finished = record_finishes(mem)
    log = []
    counts = [0] * cfg.n_procs

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot))
        p = acc.proc
        counts[p] += 1
        if counts[p] % 2 == 0:
            data = Block.of_values([counts[p] * 100 + p] * mem.n_banks)
            mem.issue(p, AccessKind.WRITE, offset=p, data=data,
                      version=f"P{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    return mem, log, finished


def _conflicting_writes(cfg: CFMConfig):
    """Procs 0 and 1 periodically write the SAME offset: under full load
    both writes go in flight together, the write-interleave hazard breaks
    the static proof, and the lane must tick per slot mid-run."""
    mem = CFMemory(cfg)
    finished = record_finishes(mem)
    log = []
    counts = [0] * cfg.n_procs

    def reissue(acc):
        log.append((acc.proc, acc.complete_slot, mem.slot))
        p = acc.proc
        counts[p] += 1
        if p < 2 and counts[p] % 3 == 0:
            data = Block.of_values([counts[p] * 10 + p] * mem.n_banks)
            mem.issue(p, AccessKind.WRITE, offset=0, data=data,
                      version=f"W{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    return mem, log, finished


WORKLOADS = [_reads, lambda cfg: _reads(cfg, stride=2), _private_writes,
             _conflicting_writes]


# --------------------------------------------------------------------------
# Lane identity


def _run_lanes(lanes, budgets):
    for (mem, *_), budget in zip(lanes, budgets):
        mem.run_engine(budget, engine=ENGINE_STACKED)


@pytest.mark.parametrize("n_procs,bank_cycle", [(4, 1), (8, 2), (16, 4)])
def test_run_stack_mixed_workloads_match_serial(n_procs, bank_cycle):
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    slots = 6 * cfg.n_banks
    stacked = [build(cfg) for build in WORKLOADS]
    _run_lanes(stacked, [slots] * len(stacked))
    for build, lane in zip(WORKLOADS, stacked):
        serial_mem, *serial = build(cfg)
        serial_mem.run(slots)
        assert _fingerprint(*lane) == _fingerprint(serial_mem, *serial)


def test_run_stack_mixed_budgets_match_serial():
    cfg = CFMConfig(n_procs=8, bank_cycle=2)
    budgets = [2 * cfg.n_banks, 5 * cfg.n_banks, 0, 3 * cfg.n_banks + 7]
    stacked = [_reads(cfg) for _ in budgets]
    _run_lanes(stacked, budgets)
    for budget, lane in zip(budgets, stacked):
        serial_mem, *serial = _reads(cfg)
        serial_mem.run(budget)
        assert _fingerprint(*lane) == _fingerprint(serial_mem, *serial)


# --------------------------------------------------------------------------
# Shared whole-block memo: run_batch vs the per-slot reference


def _results(accs):
    return [(a.proc, a.kind.value, a.complete_slot,
             None if a.kind.is_write else a.result.words) for a in accs]


def _memo_differential(build, slots):
    """Run ``build``'s module per slot and through run_batch; the
    completion streams (read results included) and banks must agree."""
    ref, ref_log = build()
    ref_finished = record_finishes(ref)
    ref.run(slots)
    fast, fast_log = build()
    fast_finished = record_finishes(fast)
    fast.run_batch(slots)
    assert _results(fast_finished.completed) == _results(ref_finished.completed)
    assert [sorted(b.items()) for b in fast.banks] == \
        [sorted(b.items()) for b in ref.banks]
    assert fast.slot == ref.slot
    return ref_log, fast_log


def test_memo_read_write_read_same_offset_across_epochs():
    """A whole-block read memoizes offset 0; a later write to offset 0
    must drop the memo, so the second read sees the new words — while
    the first reader's result keeps the pre-write words."""
    cfg = CFMConfig(n_procs=4, bank_cycle=1)

    def build():
        mem = CFMemory(cfg)
        mem.poke_block(0, Block.of_values([1, 2, 3, 4], "seed"))
        log = []
        steps = iter([
            lambda: mem.issue(0, AccessKind.WRITE, offset=0,
                              data=Block.of_values([9, 8, 7, 6]),
                              version="new", on_finish=step),
            lambda: mem.issue(0, AccessKind.READ, offset=0, on_finish=step),
        ])

        def step(acc):
            log.append(acc)
            nxt = next(steps, None)
            if nxt is not None:
                nxt()

        mem.issue(0, AccessKind.READ, offset=0, on_finish=step)
        return mem, log

    ref_log, fast_log = _memo_differential(build, 4 * cfg.n_banks)
    first, _, second = fast_log
    assert [w.value for w in first.result.words] == [1, 2, 3, 4]
    assert [w.value for w in second.result.words] == [9, 8, 7, 6]
    assert first.result.words == ref_log[0].result.words


def test_memo_dropped_when_finish_callback_pokes_memoized_offset():
    """A finish callback that stores through poke_block bumps the write
    stamp; the next whole-block read of that offset must not be served
    from the memo built before the poke."""
    cfg = CFMConfig(n_procs=4, bank_cycle=1)

    def build():
        mem = CFMemory(cfg)
        log = []
        count = [0]

        def reissue(acc):
            log.append(acc)
            count[0] += 1
            mem.poke_block(1, Block.of_values([count[0]] * 4, "poke"))
            mem.issue(acc.proc, AccessKind.READ, offset=1, on_finish=reissue)

        mem.issue(0, AccessKind.READ, offset=1, on_finish=reissue)
        return mem, log

    _, fast_log = _memo_differential(build, 5 * cfg.n_banks)
    # Each read sees the block the previous completion poked.
    assert [acc.result.words[0].value for acc in fast_log] == [0, 1, 2, 3, 4]


def test_memo_two_readers_of_one_offset_complete_in_one_epoch():
    """Two whole-block readers of one offset finishing in the same epoch
    share the memoized dict; both match the per-slot results."""
    cfg = CFMConfig(n_procs=4, bank_cycle=1)

    def build():
        mem = CFMemory(cfg)
        mem.poke_block(5, Block.of_values([10, 11, 12, 13], "seed"))
        log = []
        for p in (1, 3):
            mem.issue(p, AccessKind.READ, offset=5, on_finish=log.append)
        return mem, log

    ref_log, fast_log = _memo_differential(build, cfg.n_banks)
    assert len(fast_log) == 2
    assert fast_log[0].complete_slot == fast_log[1].complete_slot
    assert fast_log[0].result_words is fast_log[1].result_words
    for fast_acc, ref_acc in zip(fast_log, ref_log):
        assert fast_acc.result.words == ref_acc.result.words


# --------------------------------------------------------------------------
# Hazard fallback inside a lane


def test_hazard_lane_ejects_while_stackmates_stay_vectorized(monkeypatch):
    cfg = CFMConfig(n_procs=8, bank_cycle=2)
    slots = 8 * cfg.n_banks
    clean = _reads(cfg)
    hazard = _conflicting_writes(cfg)
    spanned = count_spans(monkeypatch)
    ticked = count_ticks(monkeypatch)
    _run_lanes([clean, hazard], [slots, slots])

    # The clean lane never left the span walk...
    assert spanned[clean[0]] == slots
    assert ticked[clean[0]] == 0
    # ...the hazard lane spanned some epochs, ticked through its write
    # interleaves, and every one of its slots is accounted for once.
    assert spanned[hazard[0]] > 0
    assert ticked[hazard[0]] > 0
    assert spanned[hazard[0]] + ticked[hazard[0]] == slots

    # Both lanes remain bit-identical to their serial runs.
    for build, lane in [(_reads, clean), (_conflicting_writes, hazard)]:
        serial_mem, *serial = build(cfg)
        serial_mem.run(slots)
        assert _fingerprint(*lane) == _fingerprint(serial_mem, *serial)


def _observed(cfg, probe=None):
    """Full-load reads on a module with a metrics registry attached (and
    ``probe``, if given)."""
    reg = MetricsRegistry()
    mem = CFMemory(cfg, metrics=reg, probe=probe)
    done = []

    def reissue(acc):
        done.append((acc.proc, acc.complete_slot))
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 3,
                  on_finish=reissue)

    for p in range(cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p % 3, on_finish=reissue)
    return mem, done, reg


def test_observed_lane_ejects_with_identical_metrics_snapshot(monkeypatch):
    """A probe voids the static proof before the first epoch: the lane
    ticks every slot, and its probe and registry see the identical event
    stream a serial run feeds them."""
    cfg = CFMConfig(n_procs=4, bank_cycle=1)
    slots = 40

    obs_probe = RecordingProbe()
    obs_mem, obs_done, obs_reg = _observed(cfg, obs_probe)
    spanned = count_spans(monkeypatch)
    ticked = count_ticks(monkeypatch)
    _run_lanes([(obs_mem, obs_done), _reads(cfg)], [slots, slots])
    assert spanned[obs_mem] == 0
    assert ticked[obs_mem] == slots

    serial_probe = RecordingProbe()
    serial_mem, serial_done, serial_reg = _observed(cfg, serial_probe)
    serial_mem.run(slots)
    assert obs_done == serial_done
    assert obs_mem.slot == serial_mem.slot == slots
    assert obs_probe.events == serial_probe.events
    assert obs_reg.snapshot() == serial_reg.snapshot()
    assert obs_reg.snapshot()  # the registry really was fed


def test_metrics_lane_rides_the_span_walk(monkeypatch):
    """A metrics registry alone keeps the lane batched: every slot is a
    spanned slot, and the snapshot equals the per-slot run's."""
    cfg = CFMConfig(n_procs=4, bank_cycle=2)
    slots = 10 * cfg.n_banks + 3

    obs_mem, obs_done, obs_reg = _observed(cfg)
    spanned = count_spans(monkeypatch)
    ticked = count_ticks(monkeypatch)
    _run_lanes([(obs_mem, obs_done), _reads(cfg)], [slots, slots])
    assert spanned[obs_mem] == slots
    assert ticked[obs_mem] == 0

    serial_mem, serial_done, serial_reg = _observed(cfg)
    serial_mem.run(slots)
    assert obs_done == serial_done
    assert obs_mem.slot == serial_mem.slot == slots
    assert obs_reg.snapshot() == serial_reg.snapshot()
    assert obs_reg.get("cfm.bank[0].util").total == slots


# --------------------------------------------------------------------------
# Spec-level differential sweep (invariant 11)

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16), (128, 32)]


def _spec(n_procs, bank_cycle, cycles, engine):
    return {"system": "cfm",
            "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                       "cycles": cycles, "engine": engine}}


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_run_specs_stacked_matches_run_spec(n_procs, bank_cycle):
    from repro.obs.bench import run_spec

    n_banks = n_procs * bank_cycle
    # The reference pin rides only the small shapes (it is the slow
    # per-slot oracle); the fast-driver aliases sweep everything.
    engines = [e for e in ENGINES if n_banks <= 64 or e != "reference"]
    specs = [_spec(n_procs, bank_cycle, n_banks * (i + 2), engine)
             for i, engine in enumerate(engines)]
    specs.append(_normalized(specs[-1]))  # duplicate spec: its own lane
    serial = [run_spec(_normalized(s)) for s in specs]
    stacked = run_specs_stacked([_normalized(s) for s in specs])
    assert _normalized(stacked) == _normalized(serial)
    # Each report still names ITS spec's engine pin, and the duplicate's
    # report is identical to its twin's.
    assert [r["params"]["engine"] for r in stacked] == engines + [engines[-1]]
    assert _normalized(stacked[-1]) == _normalized(stacked[-2])


def test_run_specs_stacked_validation():
    assert run_specs_stacked([]) == []
    with pytest.raises(ValueError, match="not stackable"):
        run_specs_stacked([{"system": "cfm",
                            "params": {"n_procs": 4, "cycles": 10}}])
    with pytest.raises(ValueError, match="shape"):
        run_specs_stacked([_spec(4, 1, 20, "stacked"),
                           _spec(8, 2, 20, "stacked")])
    # A spec without an int budget is rejected up front, never run.
    for cycles in (None, True, -1, "10"):
        spec = _spec(4, 1, cycles, "stacked")
        if cycles is None:
            del spec["params"]["cycles"]
        with pytest.raises(ValueError, match="not stackable"):
            run_specs_stacked([spec])


def test_stackable_spec_predicate():
    good = _spec(4, 1, 100, "stacked")
    assert stackable_spec(good)
    assert stack_shape(good) == (4, 1)
    assert stack_shape(_spec(8, 4, 100, "vectorized")) == (32, 4)
    # Any engine pin qualifies (results are engine-invariant) ...
    assert all(stackable_spec(_spec(4, 1, 100, e)) for e in ENGINES)
    # ... but the engineless observed path, faults, probes, other
    # systems, and malformed params never do.
    assert not stackable_spec({"system": "cfm",
                               "params": {"n_procs": 4, "cycles": 100}})
    assert not stackable_spec(dict(good, inject={"events": []}))
    assert not stackable_spec(dict(good, system="cache"))
    bad_probe = _normalized(good)
    bad_probe["params"]["probe"] = "record"
    assert not stackable_spec(bad_probe)
    for params in ({"n_procs": 0, "cycles": 10, "engine": "stacked"},
                   {"n_procs": 4, "cycles": -1, "engine": "stacked"},
                   {"n_procs": 4, "engine": "stacked"},  # no cycles
                   {"n_procs": 4, "cycles": True, "engine": "stacked"},
                   {"n_procs": 4, "cycles": 10, "engine": "turbo"},
                   {"n_procs": "x", "cycles": 10, "engine": "stacked"}):
        assert not stackable_spec({"system": "cfm", "params": params})


def test_width_one_stack_is_the_run_engine_stacked_path():
    assert engine_available(ENGINE_STACKED, "cfm")
    serial_mem, *serial = _reads(CFMConfig(n_procs=8, bank_cycle=2))
    serial_mem.run(160)
    mem, *lane = _reads(CFMConfig(n_procs=8, bank_cycle=2))
    mem.run_engine(160, engine=ENGINE_STACKED)
    assert _fingerprint(mem, *lane) == _fingerprint(serial_mem, *serial)
