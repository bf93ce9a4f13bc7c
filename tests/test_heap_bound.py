"""A run's live heap is bounded by what is in flight, not by its length.

A processor owns exactly one AT-space partition, so an access needs only
its in-flight state: once finished and delivered through ``on_finish``,
nothing in the engine, the coherence protocol or the hierarchy keeps it.
After each run below, with the system still referenced, a full
collection leaves at most one live :class:`BlockAccess` per processor of
every module in the system.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.cfm import AccessKind, BlockAccess, CFMemory
from repro.core.config import CFMConfig
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy


def _live_accesses() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is BlockAccess)


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


@pytest.mark.parametrize("fast", [True, False], ids=["batch", "reference"])
def test_cache_mix_keeps_only_in_flight_accesses(fast):
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
    if fast:
        sys_.run_ops_batch(ops)
    else:
        sys_.run_ops(ops)
    assert sys_.stats_memory_ops > 100
    assert _live_accesses() <= sys_.cfg.n_procs


@pytest.mark.parametrize("fast", [True, False], ids=["batch", "reference"])
def test_hierarchy_global_keeps_only_in_flight_accesses(fast):
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
        if fast:
            h.run_ops_batch(ops)
        else:
            h.run_ops(ops)
    assert sum(cs.stats_memory_ops for cs in h.clusters) > 100
    assert _live_accesses() <= h.n_procs + h.n_clusters
