"""Degenerate and boundary configurations across the stack.

A library a downstream user adopts gets handed the smallest and oddest
machines first; every layer must behave (or fail loudly) there.
"""

import pytest

from repro.cache.protocol import CacheSystem
from repro.core.atspace import ATSpace
from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.network.partial import PartialCFSystem
from repro.network.synchronous import SynchronousOmegaNetwork


class TestSingleProcessor:
    def test_one_proc_one_bank_machine(self):
        cfg = CFMConfig(n_procs=1, bank_cycle=1)
        assert cfg.n_banks == 1
        assert cfg.block_access_time == 1
        mem = CFMemory(cfg)
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.drain()
        assert acc.latency == 1

    def test_one_proc_pipelined_banks(self):
        cfg = CFMConfig(n_procs=1, bank_cycle=4)
        assert cfg.n_banks == 4
        mem = CFMemory(cfg)
        acc = mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1] * 4))
        mem.drain()
        assert acc.latency == 7  # 4 + 4 − 1

    def test_single_proc_cache_system(self):
        sys_ = CacheSystem(1)
        op = sys_.store(0, 0, {0: 5})
        sys_.run_ops([op])
        f = sys_.flush(0, 0)
        sys_.run_ops([f])
        assert sys_.mem.peek_block(0).values[0] == 5


class TestTinyNetworks:
    def test_two_port_synchronous_omega(self):
        net = SynchronousOmegaNetwork(2)
        assert net.verify_period()
        assert net.permutation(1) == [1, 0]

    def test_atspace_single_bank(self):
        space = ATSpace(1)
        assert space.partitions_are_exclusive()
        assert space.bank_at(0, 99) == 0


class TestUnbalancedPartialSystems:
    def test_more_clusters_than_modules(self):
        """16 processors over 2 modules: clusters share the modules
        round-robin, divisions stay in range."""
        sys_ = PartialCFSystem(n_procs=16, n_modules=2, bank_cycle=1)
        assert sys_.n_clusters == 2
        for p in range(16):
            assert 0 <= sys_.local_module(p) < 2
            assert 0 <= sys_.division_of(p) < 8

    def test_minimum_partial_system(self):
        sys_ = PartialCFSystem(n_procs=2, n_modules=2, bank_cycle=1)
        assert sys_.beta == 1
        assert not sys_.conflicts(0, 1, 0, 1)


class TestEngineFlags:
    def test_result_unavailable_before_completion(self):
        mem = CFMemory(CFMConfig(n_procs=4))
        acc = mem.issue(0, AccessKind.READ, 0)
        with pytest.raises(ValueError):
            _ = acc.result
        with pytest.raises(ValueError):
            _ = acc.latency

    def test_write_access_has_no_result(self):
        mem = CFMemory(CFMConfig(n_procs=4))
        acc = mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1] * 4))
        mem.drain()
        with pytest.raises(ValueError):
            _ = acc.result


class TestBigBlockMachines:
    def test_table_3_3_top_row_runs(self):
        """The 256-bank, 1-bit-word extreme actually executes (slowly but
        correctly): β = 257."""
        cfg = CFMConfig(n_procs=128, word_width=1, bank_cycle=2)
        assert cfg.n_banks == 256
        assert cfg.block_access_time == 257
        mem = CFMemory(cfg)
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.drain()
        assert acc.latency == 257

    def test_many_concurrent_on_big_machine(self):
        cfg = CFMConfig(n_procs=64, bank_cycle=1)
        mem = CFMemory(cfg)
        accs = [mem.issue(p, AccessKind.READ, p % 4) for p in range(64)]
        mem.drain()
        assert all(a.latency == 64 for a in accs)
