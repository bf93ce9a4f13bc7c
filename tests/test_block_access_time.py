"""Every layer reports the paper's block access time β (§3.1.4).

A block access takes β = b + c − 1 slots: b bank visits, after which the
final bank's word drains c − 1 more cycles.  A lone access reads exactly
β at every layer and every bank cycle c: the CFM under either engine, a
cache miss, and a hierarchy L2 hit (β_L).  A hierarchy read of a block no
cluster holds walks the clean two-level path of Table 5.5, 2β_L + β_G:
the local access that discovers the L2 miss, the global fetch, and the
local access replayed after it.
"""

from __future__ import annotations

import pytest

from repro.cache.protocol import CacheSystem
from repro.cache.state import CacheLineState
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

BANK_CYCLES = [1, 2, 4, 8]


@pytest.mark.parametrize("c", BANK_CYCLES)
@pytest.mark.parametrize("engine", [None, "reference"],
                         ids=["unpinned", "reference"])
def test_lone_cfm_read_takes_beta(c, engine):
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=c))
    beta = mem.cfg.block_access_time
    acc = mem.issue(0, AccessKind.READ, 1)
    mem.run_engine(4 * beta, engine=engine)
    assert acc.latency == beta == mem.cfg.n_banks + c - 1


@pytest.mark.parametrize("c", BANK_CYCLES)
def test_lone_cache_miss_takes_beta(c):
    system = CacheSystem(4, bank_cycle=c)
    op = system.load(0, 1)
    system.run_ops([op])
    assert not op.was_hit
    assert op.latency == system.cfg.block_access_time


@pytest.mark.parametrize("c", BANK_CYCLES)
def test_hierarchy_l2_hit_takes_beta_local(c):
    hier = SlotAccurateHierarchy(2, 4, bank_cycle=c)
    hier.l2[0][3] = CacheLineState.VALID
    op = hier.load(0, 3)
    hier.run_ops([op])
    assert op.nc_fetches == 0
    assert op.latency == hier.beta_local


@pytest.mark.parametrize("c", BANK_CYCLES)
def test_hierarchy_clean_global_read_takes_two_beta_local_plus_beta_global(c):
    hier = SlotAccurateHierarchy(2, 4, bank_cycle=c)
    op = hier.load(0, 5)
    hier.run_ops([op])
    assert op.nc_fetches == 1
    assert op.latency == 2 * hier.beta_local + hier.beta_global
