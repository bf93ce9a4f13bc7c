"""Tests for atomic swap / RMW and the Fig 4.6 interaction matrix (§4.2)."""

import pytest

from repro.core.block import Block
from repro.core.cfm import AccessKind, CFMemory
from repro.core.config import CFMConfig
from repro.tracking.access_control import AddressTrackingController, PriorityMode
from repro.tracking.atomic import (
    CFMDriver,
    OpStatus,
    ReadOperation,
    SwapOperation,
    WriteOperation,
    fetch_and_add,
)
from repro.tracking.atomic import test_and_set as atomic_test_and_set


def make_driver(n=8):
    cfg = CFMConfig(n_procs=n, bank_cycle=1)
    ctl = AddressTrackingController(cfg.n_banks, PriorityMode.FIRST_WINS)
    mem = CFMemory(cfg, controller=ctl)
    return CFMDriver(mem), ctl


class TestSwapBasics:
    def test_swap_returns_old_and_stores_new(self):
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([7] * 8, "init"))
        s = SwapOperation(d, 0, 0, [9] * 8, version="s").start()
        d.run_until(lambda: s.done)
        assert s.status is OpStatus.DONE
        assert s.old_block.values == [7] * 8
        assert d.mem.peek_block(0).values == [9] * 8

    def test_swap_phases_are_continuous(self):
        """§4.2.1: read + write proceed with no extra delay → exactly 2β."""
        d, _ = make_driver()
        s = SwapOperation(d, 0, 0, [1] * 8).start()
        d.run_until(lambda: s.done)
        assert s.total_latency == 16  # 8 (read) + 8 (write), back to back

    def test_rmw_callable_new_values(self):
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([10] * 8, "init"))
        s = SwapOperation(d, 0, 0, lambda old: [w.value * 2 for w in old.words]).start()
        d.run_until(lambda: s.done)
        assert d.mem.peek_block(0).values == [20] * 8

    def test_swap_value_width_checked(self):
        d, _ = make_driver()
        s = SwapOperation(d, 0, 0, [1, 2]).start()
        with pytest.raises(ValueError):
            d.run_until(lambda: s.done)


class TestFig46Interactions:
    def test_a_concurrent_swaps_serialize(self):
        """Fig 4.6a/b: overlapping swaps — one restarts, results match a
        serial order."""
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([0] * 8, "init"))
        s1 = SwapOperation(d, 0, 0, [1] * 8, version="s1").start()
        s2 = SwapOperation(d, 4, 0, [2] * 8, version="s2").start()
        d.run_until(lambda: s1.done and s2.done)
        old1, old2 = s1.old_block.values[0], s2.old_block.values[0]
        final = d.mem.peek_block(0).values[0]
        serial_orders = {  # (old1, old2, final) for s1;s2 and s2;s1
            (0, 1, 2),
            (2, 0, 1),
        }
        assert (old1, old2, final) in serial_orders
        assert s1.full_restarts + s2.full_restarts >= 1

    def test_c_disjoint_swaps_no_conflict(self):
        """Fig 4.6c: non-overlapping swaps finish without restarts."""
        d, _ = make_driver()
        s1 = SwapOperation(d, 0, 1, [1] * 8).start()
        d.run(8)
        s2 = SwapOperation(d, 4, 1, [2] * 8).start()
        d.run(20)
        # s1's write overlaps nothing of s2's read window here.
        d.run_until(lambda: s1.done and s2.done)
        assert s1.full_restarts == 0

    def test_d_write_restarts_on_swap_write(self):
        """Fig 4.6d: a simple write detecting a swap's write restarts
        (rather than aborting) and eventually completes."""
        d, ctl = make_driver()
        s = SwapOperation(d, 0, 0, [1] * 8, version="s").start()
        d.run(9)  # swap is now in its write phase
        w = WriteOperation(d, 4, 0, [2] * 8, version="w").start()
        d.run_until(lambda: s.done and w.done)
        assert w.status is OpStatus.DONE
        assert w.attempts >= 2  # restarted at least once
        assert d.mem.peek_block(0).values == [2] * 8  # write serialized after

    def test_e_swap_restarts_on_simple_write(self):
        """Fig 4.6e: a swap detecting a simple write restarts entirely."""
        d, _ = make_driver()
        w = WriteOperation(d, 4, 0, [2] * 8, version="w").start()
        s = SwapOperation(d, 0, 0, [1] * 8, version="s").start()
        d.tick()
        d.run_until(lambda: s.done and w.done)
        assert s.status is OpStatus.DONE
        # Swap serialized after the write: it must have read w's data.
        assert s.old_block.values == [2] * 8
        assert d.mem.peek_block(0).values == [1] * 8

    def test_f_write_write_first_wins(self):
        """Fig 4.6f: under swap-mode priority the later simple write
        aborts after detecting the earlier one."""
        d, ctl = make_driver()
        w1 = WriteOperation(d, 1, 0, [1] * 8, version="first").start()
        d.tick()
        w2 = WriteOperation(d, 5, 0, [2] * 8, version="second").start()
        d.run_until(lambda: w1.done and w2.done)
        assert w1.status is OpStatus.DONE
        assert w2.status is OpStatus.ABORTED
        assert d.mem.peek_block(0).versions[0] == "first"


class TestAtomicity:
    @pytest.mark.parametrize("n_swappers", [2, 4, 8])
    def test_swaps_form_a_chain(self, n_swappers):
        """Each completed swap's old value is another's new value (or the
        initial value): the defining property of atomic exchange."""
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([0] * 8, "init"))
        procs = range(0, 8, 8 // n_swappers)
        swaps = [
            SwapOperation(d, p, 0, [p + 1] * 8, version=f"s{p}").start()
            for p in procs
        ]
        d.run_until(lambda: all(s.done for s in swaps))
        olds = sorted(s.old_block.values[0] for s in swaps)
        news = sorted([p + 1 for p in procs])
        final = d.mem.peek_block(0).values[0]
        # Multiset equality: {olds} = {0} ∪ {news} − {final}
        expected = sorted([0] + [v for v in news if v != final] )
        assert olds == expected

    def test_fetch_and_add_accumulates(self):
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([0] * 8, "init"))
        ops = [fetch_and_add(d, p, 0, 1) for p in (0, 2, 4, 6)]
        d.run_until(lambda: all(o.done for o in ops))
        assert d.mem.peek_block(0).values[0] == 4
        assert sorted(o.old_block.values[0] for o in ops) == [0, 1, 2, 3]

    def test_test_and_set_exactly_one_winner(self):
        d, _ = make_driver()
        d.mem.poke_block(0, Block.of_values([0] * 8, "init"))
        ops = [atomic_test_and_set(d, p, 0) for p in (1, 3, 5, 7)]
        d.run_until(lambda: all(o.done for o in ops))
        winners = [o for o in ops if all(w.value == 0 for w in o.old_block.words)]
        assert len(winners) == 1


class TestPriorityOverReads:
    def test_spinning_readers_do_not_delay_swap(self):
        """§4.2.2: reads have lowest priority — a swap under a storm of
        same-block reads completes in its conflict-free time."""
        d, _ = make_driver()
        readers = [ReadOperation(d, p, 0).start() for p in (1, 2, 3, 5, 6, 7)]
        s = SwapOperation(d, 0, 0, [1] * 8, version="s").start()
        d.run_until(lambda: s.done)
        assert s.total_latency == 16  # undisturbed 2β
        d.run_until(lambda: all(r.done for r in readers))


class TestTimeoutForensics:
    """SimulationTimeout from the driver must name what is wedged —
    including operations parked on the deferred heap, not just the
    memory's active accesses."""

    def test_timeout_names_deferred_recovery_ops(self):
        from repro.faults import RecoveringOp
        from repro.sim.engine import SimulationTimeout

        d, _ = make_driver()
        op = RecoveringOp(d, 1, 2)
        op.attempts = 3  # as if parked after three failed issues
        d.defer(100, op.start)
        with pytest.raises(SimulationTimeout) as exc:
            d.run_until(lambda: False, max_slots=5)
        msg = str(exc.value)
        assert "deferred RecoveringOp proc 1@2 attempts=3" in msg
        assert any("RecoveringOp proc 1@2" in s for s in exc.value.stuck)

    def test_timeout_reports_plain_callbacks_by_name(self):
        from repro.sim.engine import SimulationTimeout

        d, _ = make_driver()

        def poke_later():
            pass

        d.defer(100, poke_later)
        with pytest.raises(SimulationTimeout) as exc:
            d.run_until(lambda: False, max_slots=5)
        assert "deferred callback poke_later" in str(exc.value)

    def test_timeout_still_names_active_accesses(self):
        from repro.sim.engine import SimulationTimeout

        d, _ = make_driver()
        # An access that never finishes within the budget: issue and bound
        # the run to fewer slots than a block access needs.
        ReadOperation(d, 2, 1).start()
        with pytest.raises(SimulationTimeout) as exc:
            d.run_until(lambda: False, max_slots=3)
        assert "proc 2" in str(exc.value)


class _CountingDriver(CFMDriver):
    """Counts the slots the driver actually ticks."""

    def __init__(self, mem):
        super().__init__(mem)
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        super().tick()


class _NoLeapDriver(_CountingDriver):
    def _leap_safe(self):
        return False


def _observed_rounds(driver_cls, n, c, seed, retry_delay):
    """Rounds of one random read/write/swap per processor on a few hot
    offsets under FIRST_WINS, an idle gap before each round, with a
    metrics registry attached.  Returns everything the run produced."""
    import random

    from repro.obs.metrics import MetricsRegistry

    rng = random.Random(seed)
    cfg = CFMConfig(n_procs=n, bank_cycle=c)
    metrics = MetricsRegistry()
    mem = CFMemory(cfg, metrics=metrics,
                   controller=AddressTrackingController(
                       cfg.n_banks, PriorityMode.FIRST_WINS))
    driver = driver_cls(mem)
    ops = []
    for rnd in range(3):
        batch = []

        def start(batch=batch, rnd=rnd):
            for proc in range(n):
                kind = rng.choice((ReadOperation, WriteOperation,
                                   SwapOperation))
                offset = rng.randrange(2)
                if kind is ReadOperation:
                    op = kind(driver, proc, offset, retry_delay=retry_delay)
                else:
                    values = [rnd * 100 + proc] * cfg.n_banks
                    op = kind(driver, proc, offset, values,
                              version=f"r{rnd}p{proc}",
                              retry_delay=retry_delay)
                batch.append(op.start())

        driver.defer(1 + rng.randrange(12), start)
        driver.run_until(lambda: batch and all(op.done for op in batch))
        ops.extend(batch)
    outcome = [
        (type(op).__name__, op.status, op.attempts, op.issue_slot,
         op.done_slot, getattr(op, "full_restarts", None),
         getattr(op, "result", None) and op.result.values,
         getattr(op, "old_block", None) and op.old_block.values)
        for op in ops
    ]
    blocks = [mem.peek_block(offset).values for offset in range(2)]
    return (outcome, blocks, mem.slot, metrics.snapshot()), driver.ticks


class TestLeapWithMetrics:
    """A registry no longer pins the driver to per-slot ticking: leaping
    idle slots toward a deferred re-issue or round start leaves every op
    result, the final slot and the metrics snapshot exactly as ticking
    each slot does."""

    @pytest.mark.parametrize("retry_delay", [1, 7])
    @pytest.mark.parametrize("n, c", [(4, 1), (4, 2), (8, 2)])
    def test_leaping_matches_ticking(self, n, c, retry_delay):
        leapt = ticked = 0
        for seed in range(12):
            fast, fast_ticks = _observed_rounds(_CountingDriver, n, c, seed,
                                                retry_delay)
            slow, slow_ticks = _observed_rounds(_NoLeapDriver, n, c, seed,
                                                retry_delay)
            assert fast == slow, (n, c, seed, retry_delay)
            leapt += fast_ticks
            ticked += slow_ticks
        assert leapt < ticked
