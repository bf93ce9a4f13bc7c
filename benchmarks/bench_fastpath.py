"""Fast-path microbench: speed floors per layer.

* **core** — the CFM under full load (every processor always has an
  outstanding block read, reissued from the completion callback) across
  the Table 3.3 shapes: :meth:`CFMemory.run_batch` equals :meth:`CFMemory.
  run`; every fast engine name (``batch``, ``vectorized``, ``stacked``
  all run the one fast driver) on the large shapes, and the reference
  itself, hold speed floors.  A stack of 16 same-shape specs through
  :func:`repro.fastpath.stack.run_specs_stacked` must equal per-spec
  serial ``run_spec``.  A shape's first run in a fresh process costs
  about what its second does (:func:`test_cold_start_ratio`): the
  schedule is a formula, built in O(n), not a per-shape table.  The
  wall time and peak RSS of a fresh interpreter that imports the bench
  harness and runs one small cfm, cache or hierarchy spec are printed,
  not gated (:func:`test_cold_start_setup_time`).
* **coherence** — the cache protocol under full load (proc-private
  offsets, every processor streaming loads and stores) through its one
  driver, :meth:`CacheSystem.run_ops`, which passes provably quiet
  stretches in spans.
* **hierarchy** — the two-level machine with all-local traffic (L2
  seeded dirty) through :meth:`SlotAccurateHierarchy.run_ops`, whose
  cluster memories span in lockstep.

The engine-name, coherence and hierarchy gates, and the gate on the
reference itself, are *floors*: simulated slots per calibration loop of
``perfbench/hostspeed.py`` (slots/s over the host's loops/s, with the
calibration loop timed in turn with the path).  A ratio over the reference would shrink whenever
the reference got faster; a floor moves only with the path it times.  A
last gate holds an observed run (``run_spec`` with no engine pin, a
metrics registry attached) within :data:`MAX_OBSERVED_OVERHEAD` of the
same spec pinned to ``batch``, as the median of back-to-back pairs
(:func:`benchmarks._timing.median_ratio`): metrics ride the batch driver
instead of pinning the per-slot tick, and bank utilization is settled
when read.

Every floor's timing is :func:`benchmarks._timing.best_of`; each fast
engine's result is asserted bit-identical to the reference's before any
speed is gated.  Timed regions keep the garbage collector on, as
``sim_sweep`` and the serve workers do: the engine holds only in-flight
accesses, so a run leaves the collector little to trace.  Run the gates,
with their timing tables, through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py -q -s
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from typing import List, Tuple

import pytest

from benchmarks._timing import (best_of, emit_gate_table, host_speed,
                                median_ratio)
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]

#: Every ``MIN_*_SLOTS_PER_LOOP`` floor is simulated slots/s divided by
#: the host's speed in calibration loops/s (``perfbench/hostspeed.py``,
#: timed in turn with the path, :func:`timed_at_host_speed`), and set
#: midway between ten clean runs and ten with the path it times slowed
#: 2x, on a 2-vCPU Xeon (CHANGES.md lists the runs).
#:
#: The slot-by-slot reference, at FLOOR_SHAPE under full load.  Clean
#: runs read 1005-1237; ``CFMemory.tick`` slowed 2x, 404-522.
FLOOR_SHAPE = (16, 4)
FLOOR_SLOTS = 20_000
MIN_REFERENCE_SLOTS_PER_LOOP = 763.0

#: Coherence layer: (n_procs, bank_cycle) CacheSystem shapes; the floor
#: applies to ``run_ops`` on the last (largest) one.  Set on the batch
#: driver ``run_ops`` has since absorbed: clean runs read 970-1247, its
#: span step slowed 2x, 458-631.
CACHE_SHAPES = [(8, 2), (16, 4)]
MIN_CACHE_SLOTS_PER_LOOP = 800.0
CACHE_ROUNDS = 60

#: Hierarchy layer: (n_clusters, procs_per_cluster, bank_cycle).  Set on
#: the batch driver ``run_ops`` has since absorbed: clean runs read
#: 402-587; its span step slowed 2x, 228-329.
HIER_SHAPE = (4, 4, 8)
MIN_HIER_SLOTS_PER_LOOP = 365.0
HIER_ROUNDS = 40

#: Shapes the engine-name gate runs on, with the slot count per shape (a
#: few full rotations of the b=n·c bank cycle each, so epoch batching and
#: the whole-block read memo both get exercised), and each shape's floor
#: for every fast engine name.  Clean runs read (lowest engine per run)
#: 5212-7308 at (64, 16) and 1656-2883 at (128, 32);
#: ``CFMemory._advance_span`` slowed 2x, 2418-3803 and 941-1412.
ENGINE_SHAPES = [((64, 16), 4 * 64 * 16), ((128, 32), 3 * 128 * 32)]
MIN_ENGINE_SLOTS_PER_LOOP = {(64, 16): 4507.0, (128, 32): 1534.0}

#: Observed overhead: unpinned ``run_spec`` (metrics attached) over the
#: same spec pinned to ``batch``, at OBSERVED_SHAPE for OBSERVED_CYCLES,
#: the median of OBSERVED_PAIRS back-to-back pairs.  On a 2-vCPU Xeon ten
#: runs read 1.14-1.40x; with bank utilization accounted per span instead
#: of settled when read (CHANGES.md lists the runs), the gate fails.
OBSERVED_SHAPE = (64, 16)
OBSERVED_CYCLES = 20_000
OBSERVED_PAIRS = 21
MAX_OBSERVED_OVERHEAD = 1.75

#: Cold start: in each of COLD_PROCESSES fresh processes, the first
#: ``run_spec`` of COLD_SHAPE (engine ``batch``, COLD_CYCLES cycles) over
#: the second; the median ratio must stay <= MAX_COLD_START_RATIO.  With
#: the schedule materialised as b rows of n banks per shape the ratio
#: read 2.55 on a 2-vCPU Xeon; built from its formula, 0.93.
COLD_SHAPE = (128, 32)
COLD_CYCLES = 20_000
COLD_PROCESSES = 5
MAX_COLD_START_RATIO = 1.3

#: Cold-start set-up: import ``run_spec`` and run one spec in a fresh
#: interpreter, timed SETUP_LAUNCHES times per spec.  Printed, not gated.
#: The cfm spec is ``perfbench`` ``sim_sweep``'s ``setup_s`` recipe (the
#: first spec of its list); the cache and hierarchy specs are what a serve
#: worker's first coherence request pays.
SETUP_SPECS = (
    {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 4, "cycles": 3000}},
    {"system": "cache", "params": {
        "n_procs": 4, "rounds": 4, "workload": "mix"}},
    {"system": "hierarchy", "params": {
        "n_clusters": 2, "procs_per_cluster": 2, "rounds": 4,
        "workload": "global"}},
)
SETUP_LAUNCHES = 5

#: Stacked specs: STACK_WIDTH identical STACK_SHAPE bench specs.
STACK_SHAPE = (64, 16)
STACK_SLOTS = 4 * 64 * 16
STACK_WIDTH = 16


def _full_load(mem: CFMemory, log: List[Tuple[int, int, int]]) -> None:
    def reissue(acc):
        log.append((acc.access_id, acc.proc, acc.complete_slot))
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)


def _run_one(n_procs: int, bank_cycle: int, slots: int, fast: bool):
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    log: List[Tuple[int, int, int]] = []
    _full_load(mem, log)
    t0 = time.perf_counter()
    if fast:
        mem.run_batch(slots)
    else:
        mem.run(slots)
    elapsed = time.perf_counter() - t0
    return elapsed, (log, mem.slot)


@pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
def test_fastpath_equivalence(n_procs, bank_cycle):
    _, slow = _run_one(n_procs, bank_cycle, 2_000, fast=False)
    _, fast = _run_one(n_procs, bank_cycle, 2_000, fast=True)
    assert slow == fast


def _calibration():
    """One :func:`best_of` run of the host-speed calibration: seconds per
    calibration loop."""
    return 1.0 / host_speed(), None


def timed_at_host_speed(*runs, repeats: int = 3):
    """:func:`best_of` ``runs`` with the calibration loop timed in turn
    beside them: ``(host speed in loops/s, best_of result)``.

    Both sides are a best of ``repeats`` samples taken in turn, so a drift
    in the host's speed reaches the runs and the calibration alike and
    cancels out of a rate per calibration loop."""
    (loop_s, _), *timed = best_of(_calibration, *runs, repeats=repeats)
    return 1.0 / loop_s, timed


def test_reference_floor():
    """The per-slot reference is the path every probed, faulted or
    engine-pinned run takes; its rate per unit of host speed must not fall
    below the floor."""
    n_procs, bank_cycle = FLOOR_SHAPE
    speed, [(t_ref, (_, end))] = timed_at_host_speed(
        partial(_run_one, n_procs, bank_cycle, FLOOR_SLOTS, fast=False))
    assert end == FLOOR_SLOTS
    per_loop = FLOOR_SLOTS / t_ref / speed
    emit_gate_table(
        f"CFM full-load reference, host-normalised ({FLOOR_SLOTS} slots)",
        ["shape (n, c)", "ref (s)", "slots/s", "host loops/s",
         "slots per loop"],
        [(f"({n_procs}, {bank_cycle})", f"{t_ref:.3f}",
          f"{FLOOR_SLOTS / t_ref:,.0f}", f"{speed:.1f}", f"{per_loop:.0f}")],
    )
    assert per_loop >= MIN_REFERENCE_SLOTS_PER_LOOP, (
        f"reference only {per_loop:.0f} slots per calibration loop on "
        f"{FLOOR_SHAPE}, need >= {MIN_REFERENCE_SLOTS_PER_LOOP:.0f}"
    )


def _run_spec_once(spec):
    from repro.obs.bench import run_spec

    t0 = time.perf_counter()
    report = run_spec(spec)
    elapsed = time.perf_counter() - t0
    return elapsed, report


def test_observed_overhead():
    """An observed CFM run costs at most MAX_OBSERVED_OVERHEAD times the
    unobserved batch run of the same spec."""
    n_procs, bank_cycle = OBSERVED_SHAPE
    params = {"n_procs": n_procs, "bank_cycle": bank_cycle,
              "cycles": OBSERVED_CYCLES}
    ratio, observed, fast = median_ratio(
        partial(_run_spec_once, {"system": "cfm", "params": params}),
        partial(_run_spec_once, {"system": "cfm",
                                 "params": {**params, "engine": "batch"}}),
        pairs=OBSERVED_PAIRS)
    assert observed["cycles"] == fast["cycles"] == OBSERVED_CYCLES
    assert observed["completed"] > 0 and observed["metrics"]
    emit_gate_table(
        f"CFM full-load: observed run_spec vs engine=batch "
        f"({OBSERVED_CYCLES} cycles, median of {OBSERVED_PAIRS} pairs)",
        ["shape (n, c)", "overhead"],
        [(f"({n_procs}, {bank_cycle})", f"{ratio:.2f}x")],
    )
    assert ratio <= MAX_OBSERVED_OVERHEAD, (
        f"observed run {ratio:.2f}x the batch run on {OBSERVED_SHAPE}, "
        f"need <= {MAX_OBSERVED_OVERHEAD}x"
    )


# --------------------------------------------------------------------------
# Coherence layer: CacheSystem.run_ops, the one driver


def _cache_plan(n_procs: int, rounds: int, seed: int = 1):
    """Full-load conflict-free op stream: every processor streams loads
    and stores over its own four offsets, one op per round."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for p in range(n_procs):
            offset = p * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((p, "store", offset,
                              {rng.randrange(n_procs): rng.randrange(1000)}))
            else:
                batch.append((p, "load", offset, None))
        plan.append(batch)
    return plan


def _cache_fingerprint(sys_, ops):
    return (
        [(op.proc, op.kind.value, op.offset, op.issue_slot, op.done_slot,
          op.was_hit, op.retries, op.memory_accesses,
          None if op.result is None else [w.value for w in op.result.words])
         for op in ops],
        sys_.slot,
        sys_.stats_local_hits, sys_.stats_memory_ops,
    )


def _run_cache_once(n_procs: int, bank_cycle: int, rounds: int):
    from repro.cache.protocol import CacheSystem

    sys_ = CacheSystem(n_procs, bank_cycle=bank_cycle)
    plan = _cache_plan(n_procs, rounds)
    all_ops = []
    t0 = time.perf_counter()
    for batch in plan:
        ops = [sys_.load(p, off) if kind == "load"
               else sys_.store(p, off, words)
               for p, kind, off, words in batch]
        sys_.run_ops(ops)
        all_ops.extend(ops)
    elapsed = time.perf_counter() - t0
    return elapsed, _cache_fingerprint(sys_, all_ops)


def measure_cache(rounds: int = CACHE_ROUNDS, repeats: int = 3):
    """(shape, slots, seconds, host speed) per :data:`CACHE_SHAPES`
    shape."""
    rows = []
    for n_procs, bank_cycle in CACHE_SHAPES:
        speed, [(t_run, fp)] = timed_at_host_speed(
            partial(_run_cache_once, n_procs, bank_cycle, rounds),
            repeats=repeats)
        rows.append(((n_procs, bank_cycle), fp[1], t_run, speed))
    return rows


def test_cache_floor():
    rows = measure_cache()
    emit_gate_table(
        f"Coherence full-load run_ops, host-normalised "
        f"({CACHE_ROUNDS} rounds)",
        ["shape (n, c)", "slots", "run (s)", "host loops/s",
         "slots per loop"],
        [(f"({n}, {c})", str(slots), f"{t:.3f}", f"{speed:.1f}",
          f"{slots / t / speed:.0f}")
         for (n, c), slots, t, speed in rows],
    )
    shape, slots, t, speed = rows[-1]
    per_loop = slots / t / speed
    assert per_loop >= MIN_CACHE_SLOTS_PER_LOOP, (
        f"coherence driver only {per_loop:.0f} slots per calibration loop "
        f"on {shape}, need >= {MIN_CACHE_SLOTS_PER_LOOP:.0f}"
    )


# --------------------------------------------------------------------------
# Hierarchy layer: SlotAccurateHierarchy.run_ops, the one driver


def _hier_plan(n_clusters: int, per: int, rounds: int, seed: int = 1):
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        batch = []
        for g in range(n_clusters * per):
            offset = g * 4 + rng.randrange(4)
            if rng.random() < 0.5:
                batch.append((g, "store", offset,
                              {rng.randrange(per): rng.randrange(1000)}))
            else:
                batch.append((g, "load", offset, None))
        plan.append(batch)
    return plan


def _hier_fingerprint(h, ops):
    return (
        [(op.gproc, op.kind.value, op.offset, op.issue_slot, op.done_slot,
          op.nc_fetches,
          None if op.result is None else [w.value for w in op.result.words])
         for op in ops],
        [sorted((k, v.value) for k, v in d.items()) for d in h.l2],
        h.slot,
    )


def _run_hier_once(n_clusters: int, per: int, bank_cycle: int, rounds: int):
    from repro.cache.state import CacheLineState
    from repro.core.block import Block
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    h = SlotAccurateHierarchy(n_clusters, per, bank_cycle=bank_cycle)
    width = h._cluster_width()
    for c in range(n_clusters):
        for p in range(per):
            base = (c * per + p) * 4
            for off in range(base, base + 4):
                h.clusters[c].mem.poke_block(
                    off, Block.of_values([off + i for i in range(width)],
                                         "seed"))
                h.l2[c][off] = CacheLineState.DIRTY
    plan = _hier_plan(n_clusters, per, rounds)
    all_ops = []
    t0 = time.perf_counter()
    for batch in plan:
        ops = [h.load(g, off) if kind == "load" else h.store(g, off, words)
               for g, kind, off, words in batch]
        h.run_ops(ops)
        all_ops.extend(ops)
    elapsed = time.perf_counter() - t0
    h.check_invariants()
    return elapsed, _hier_fingerprint(h, all_ops)


def measure_hierarchy(rounds: int = HIER_ROUNDS, repeats: int = 3):
    """(slots, seconds, host speed) at :data:`HIER_SHAPE`."""
    speed, [(t_run, fp)] = timed_at_host_speed(
        partial(_run_hier_once, *HIER_SHAPE, rounds), repeats=repeats)
    return fp[2], t_run, speed


def test_hierarchy_floor():
    slots, t_run, speed = measure_hierarchy()
    per_loop = slots / t_run / speed
    n_clusters, per, bank_cycle = HIER_SHAPE
    emit_gate_table(
        f"Hierarchy all-local run_ops, host-normalised "
        f"({HIER_ROUNDS} rounds)",
        ["shape (k, m, c)", "slots", "run (s)", "host loops/s",
         "slots per loop"],
        [(f"({n_clusters}, {per}, {bank_cycle})", str(slots),
          f"{t_run:.3f}", f"{speed:.1f}", f"{per_loop:.0f}")],
    )
    assert per_loop >= MIN_HIER_SLOTS_PER_LOOP, (
        f"hierarchy driver only {per_loop:.0f} slots per calibration loop "
        f"on {HIER_SHAPE}, need >= {MIN_HIER_SLOTS_PER_LOOP:.0f}"
    )


# --------------------------------------------------------------------------
# Engine names: the one fast driver vs slot-by-slot reference


def _run_engine_once(n_procs: int, bank_cycle: int, slots: int, engine: str):
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    log: List[Tuple[int, int, int]] = []
    _full_load(mem, log)
    t0 = time.perf_counter()
    mem.run_engine(slots, engine=engine)
    elapsed = time.perf_counter() - t0
    return elapsed, (log, mem.slot)


def measure_engines(repeats: int = 3):
    """(shape, slots, host speed, {engine: s}) per gated shape.

    Every fast engine name's completion log is asserted bit-identical to
    the (untimed) reference's; each time is :func:`best_of` ``repeats``."""
    from repro.fastpath.engine import ENGINE_REFERENCE, ENGINES

    fast = [e for e in ENGINES if e != ENGINE_REFERENCE]
    rows = []
    for (n_procs, bank_cycle), slots in ENGINE_SHAPES:
        _, ref = _run_engine_once(n_procs, bank_cycle, slots,
                                  ENGINE_REFERENCE)
        assert ref[1] == slots
        speed, timed = timed_at_host_speed(
            *(partial(_run_engine_once, n_procs, bank_cycle, slots, engine)
              for engine in fast),
            repeats=repeats)
        for engine, (_, out) in zip(fast, timed):
            assert out == ref, f"{engine} diverged on the full-load workload"
        rows.append(((n_procs, bank_cycle), slots, speed,
                     {engine: t for engine, (t, _) in zip(fast, timed)}))
    return rows


def test_engine_floor():
    rows = measure_engines()
    emit_gate_table(
        "CFM full-load fast driver per engine name, host-normalised",
        ["shape (n, c)", "slots", "host loops/s", "engine", "fast (s)",
         "slots per loop"],
        [(f"({n}, {c})", str(slots), f"{speed:.1f}", engine, f"{tf:.4f}",
          f"{slots / tf / speed:.0f}")
         for (n, c), slots, speed, t_fast in rows
         for engine, tf in t_fast.items()],
    )
    for shape, slots, speed, t_fast in rows:
        floor = MIN_ENGINE_SLOTS_PER_LOOP[shape]
        for engine, tf in t_fast.items():
            per_loop = slots / tf / speed
            assert per_loop >= floor, (
                f"{engine} only {per_loop:.0f} slots per calibration loop "
                f"on {shape}, need >= {floor:.0f}"
            )


def test_stack_bit_identity():
    """A stack of ``STACK_WIDTH`` identical ``STACK_SHAPE`` specs returns
    exactly the reports per-spec serial ``run_spec`` does (invariant 11)."""
    from repro.fastpath.stack import run_specs_stacked
    from repro.obs.bench import run_spec

    n_procs, bank_cycle = STACK_SHAPE
    specs = [{"system": "cfm",
              "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                         "cycles": STACK_SLOTS, "engine": "stacked"}}
             for _ in range(STACK_WIDTH)]
    assert run_specs_stacked(specs) == [run_spec(spec) for spec in specs]


# --------------------------------------------------------------------------
# Cold start: a shape's first run costs what its second does


#: Child process: warm the imports on a small shape, then time the first
#: and second run of the gated spec; prints first over second.
_COLD_START_CHILD = """
import sys, time
from repro.obs.bench import run_spec
n_procs, bank_cycle, cycles = map(int, sys.argv[1:4])
run_spec({"system": "cfm", "params": {
    "n_procs": 4, "bank_cycle": 1, "cycles": 16, "engine": "batch"}})
spec = {"system": "cfm", "params": {"n_procs": n_procs,
        "bank_cycle": bank_cycle, "cycles": cycles, "engine": "batch"}}
seconds = []
for _ in range(2):
    t0 = time.perf_counter()
    run_spec(spec)
    seconds.append(time.perf_counter() - t0)
print(seconds[0] / seconds[1])
"""


#: Child process: import plus one call; prints its peak RSS in MB, the
#: VmHWM of ``/proc/self/status`` (``ru_maxrss`` would also count the
#: forking parent's peak), or ``nan`` where there is no such file.
_SETUP_CHILD = """
import json, sys
from repro.obs.bench import run_spec
run_spec(json.loads(sys.argv[1]))
peak = float("nan")
try:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1]) / 1024
except OSError:
    pass
print(peak)
"""


def _fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        timeout=120, env=env, cwd=root, check=True).stdout


def _cold_start_ratio() -> float:
    n_procs, bank_cycle = COLD_SHAPE
    out = _fresh_python(_COLD_START_CHILD, str(n_procs), str(bank_cycle),
                        str(COLD_CYCLES))
    return float(out.split()[-1])


def test_cold_start_ratio():
    """A fresh process's first ``COLD_SHAPE`` run costs at most
    MAX_COLD_START_RATIO times its second, as the median over
    COLD_PROCESSES processes."""
    ratios = [_cold_start_ratio() for _ in range(COLD_PROCESSES)]
    ratio = statistics.median(ratios)
    emit_gate_table(
        f"CFM cold start: first over second run_spec in a fresh process "
        f"({COLD_CYCLES} cycles, engine=batch, median of {COLD_PROCESSES})",
        ["shape (n, c)", "ratios", "median"],
        [(f"{COLD_SHAPE}", " ".join(f"{r:.2f}" for r in ratios),
          f"{ratio:.2f}x")],
    )
    assert ratio <= MAX_COLD_START_RATIO, (
        f"first {COLD_SHAPE} run {ratio:.2f}x the second, need <= "
        f"{MAX_COLD_START_RATIO}x"
    )


def test_cold_start_setup_time():
    """Print, per SETUP_SPECS entry, the median wall time and peak RSS
    over SETUP_LAUNCHES fresh interpreters of importing ``run_spec`` and
    running the spec; the cfm row is what ``sim_sweep`` reports as
    ``setup_s``.  Ungated: it is mostly interpreter and import time, which
    no floor of this file normalises."""
    rows = []
    for spec in SETUP_SPECS:
        seconds, peaks = [], []
        for _ in range(SETUP_LAUNCHES):
            t0 = time.perf_counter()
            out = _fresh_python(_SETUP_CHILD, json.dumps(spec))
            seconds.append(time.perf_counter() - t0)
            peaks.append(float(out.split()[-1]))
        rows.append((
            f"{spec['system']} "
            f"{json.dumps(spec['params'], sort_keys=True)}",
            " ".join(f"{t:.3f}" for t in seconds),
            f"{statistics.median(seconds):.3f} s",
            f"{statistics.median(peaks):.1f} MB"))
    emit_gate_table(
        f"Cold start: import + first run_spec in a fresh interpreter "
        f"(median of {SETUP_LAUNCHES}, not gated; the cfm row is "
        f"sim_sweep's setup_s recipe)",
        ["spec", "seconds", "median", "VmHWM"],
        rows,
    )
