"""A run's live heap is bounded by what is in flight, not by its length.

A processor owns exactly one AT-space partition, so an access needs only
its in-flight state: once finished and delivered through ``on_finish``,
nothing in the engine, the coherence protocol or the hierarchy keeps it.
After each run below, with the system still referenced, a full
collection leaves at most one live :class:`BlockAccess` per processor of
every module in the system.  A finished coherence run holds no
reference cycle either: reference counting alone frees it, leaving the
cyclic collector nothing to find.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.cfm import AccessKind, BlockAccess, CFMemory
from repro.core.config import CFMConfig
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.obs.bench import run_spec
from repro.sim.engine import all_settled


def _live_accesses() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is BlockAccess)


def _drive(system, ops, engine: str) -> None:
    """A coherence layer has one driver, ``run_ops``; ``reference`` ticks
    every slot through ``run_until`` instead."""
    if engine == "reference":
        system.run_until(all_settled(ops))
    else:
        system.run_ops(ops)


@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_full_load_cfm_keeps_only_in_flight_accesses(engine):
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=16))
    finishes = [0]

    def reissue(acc):
        finishes[0] += 1
        mem.issue(acc.proc, AccessKind.READ, offset=acc.proc,
                  on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)
    mem.run_engine(20_000, engine=engine)
    assert finishes[0] > 1000
    assert _live_accesses() <= mem.cfg.n_procs


@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_cache_mix_keeps_only_in_flight_accesses(engine):
    """Loads and stores over four shared offsets: retries, invalidations
    and triggered write-backs all fire."""
    rng = random.Random(7)
    sys_ = CacheSystem(4)
    ops = []
    for _ in range(80):
        for p in range(4):
            offset = rng.randrange(4)
            if rng.random() < 0.3:
                ops.append(sys_.store(p, offset, {0: p + 1}))
            else:
                ops.append(sys_.load(p, offset))
    _drive(sys_, ops, engine)
    assert sys_.stats_memory_ops > 100
    assert _live_accesses() <= sys_.cfg.n_procs


@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_hierarchy_global_keeps_only_in_flight_accesses(engine):
    """Offsets shared across clusters: NC fetches and L2 write-back chains
    run through the global module as well as the cluster modules."""
    rng = random.Random(7)
    h = SlotAccurateHierarchy(2, 2)
    for _ in range(40):
        ops = []
        for g in range(h.n_procs):
            offset = rng.randrange(6)
            if rng.random() < 0.5:
                ops.append(h.store(g, offset, {rng.randrange(2): g + 1}))
            else:
                ops.append(h.load(g, offset))
        _drive(h, ops, engine)
    assert sum(cs.stats_memory_ops for cs in h.clusters) > 100
    assert _live_accesses() <= h.n_procs + h.n_clusters


#: The coherence calls of the perfbench ``sim_sweep`` workload.
COHERENCE_SPECS = {
    "cache_sys.mix": {"system": "cache", "params": {
        "n_procs": 4, "rounds": 80, "seed": 7, "workload": "mix"}},
    "cache_sys.private": {"system": "cache", "params": {
        "n_procs": 4, "rounds": 150, "seed": 7, "workload": "private"}},
    "hierarchy.local": {"system": "hierarchy", "params": {
        "n_clusters": 2, "procs_per_cluster": 2, "rounds": 100,
        "seed": 7, "workload": "local"}},
    "hierarchy.global": {"system": "hierarchy", "params": {
        "n_clusters": 2, "procs_per_cluster": 2, "rounds": 40,
        "seed": 7, "workload": "global"}},
}


@pytest.mark.parametrize("name", sorted(COHERENCE_SPECS))
def test_finished_coherence_run_leaves_nothing_for_the_collector(name):
    """No controller points back at the system that holds it, so a run's
    caches, directories and queues go when its last reference does."""
    spec = COHERENCE_SPECS[name]
    run_spec(spec)  # a first call's imports may leave garbage of their own
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_spec(spec)
        gc.collect()
        left = gc.garbage[before:]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
    assert [type(obj).__name__ for obj in left] == []


#: Measures, in a fresh interpreter, how far one (128, 32) run_spec
#: raises the process's peak RSS (MB) over what the imports left.
_RSS_PROBE = """
import json, resource, sys
from repro.obs.bench import run_spec
def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
before = peak_mb()
run_spec(json.loads(sys.argv[1]))
print(peak_mb() - before)
"""


def test_large_shape_memory_grows_with_b_not_b_squared():
    """b = 4096 banks: the shape's tables hold the b x (b/c) schedule and
    one bank ring of 2b entries, about 30 MB with the run's bank dicts.
    Tables of b bank orders of b entries each took ~600 MB and stayed
    for the life of the process.  At most 24 KB per bank may remain."""
    spec = {"system": "cfm", "params": {"n_procs": 128, "bank_cycle": 32,
                                        "cycles": 10_000, "engine": "batch"}}
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, json.dumps(spec)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    grown_mb = float(out.stdout.strip().splitlines()[-1])
    n_banks = 128 * 32
    assert grown_mb * 1024 / n_banks <= 24, f"peak RSS grew {grown_mb:.0f} MB"
