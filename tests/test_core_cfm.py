"""Tests for the slot-accurate CFM memory engine (§3.1, Figs 3.2/3.5/3.6)."""

import dataclasses

import pytest

from repro.core.block import Block
from repro.core.cfm import (
    AccessKind,
    AccessState,
    CFMemory,
    ConflictError,
    ControlAction,
    AccessController,
    BlockAccess,
)
from repro.core.config import CFMConfig
from tests.history import record_finishes


def make(n=4, c=1, **kw):
    return CFMemory(CFMConfig(n_procs=n, bank_cycle=c), **kw)


class TestBlockAccessTiming:
    def test_read_latency_is_beta_c1(self):
        mem = make(4, 1)
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.drain()
        assert acc.state is AccessState.COMPLETED
        assert acc.latency == 4  # β = 4 + 1 − 1

    def test_read_latency_is_beta_c2(self):
        """Fig 3.6: with c = 2 the final word drains one extra cycle."""
        mem = make(4, 2)
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.drain()
        assert acc.latency == 9  # β = 8 + 2 − 1

    def test_access_starts_at_any_slot_without_stall(self):
        """§3.1.1: no delay required before starting a block access."""
        mem = make(4, 1)
        mem.run(3)  # arbitrary phase
        acc = mem.issue(2, AccessKind.READ, 0)
        mem.drain()
        assert acc.latency == 4
        assert acc.first_bank == mem.cfg.bank_for(2, 3)

    def test_concurrent_accesses_all_complete_at_full_speed(self):
        mem = make(8, 1)
        accs = [mem.issue(p, AccessKind.READ, p) for p in range(8)]
        mem.drain()
        assert all(a.latency == 8 for a in accs)

    def test_staggered_issues_never_conflict(self):
        mem = make(8, 1)
        accs = []
        for p in range(8):
            accs.append(mem.issue(p, AccessKind.READ, 0))
            mem.tick()
        mem.drain()
        assert all(a.state is AccessState.COMPLETED for a in accs)
        assert all(a.latency == 8 for a in accs)


class TestDataMovement:
    def test_write_then_read_roundtrip(self):
        mem = make(4, 1)
        w = mem.issue(0, AccessKind.WRITE, 5, data=Block.of_values([1, 2, 3, 4]),
                      version="v1")
        mem.drain()
        r = mem.issue(1, AccessKind.READ, 5)
        mem.drain()
        assert r.result.values == [1, 2, 3, 4]
        assert r.result.is_single_version()

    def test_blocks_at_different_offsets_independent(self):
        mem = make(4, 1)
        mem.issue(0, AccessKind.WRITE, 1, data=Block.of_values([9] * 4))
        mem.drain()
        r = mem.issue(0, AccessKind.READ, 2)
        mem.drain()
        assert r.result.values == [0, 0, 0, 0]

    def test_each_bank_written_exactly_once(self):
        mem = make(4, 1)
        w = mem.issue(3, AccessKind.WRITE, 0, data=Block.of_values([5, 6, 7, 8]))
        mem.drain()
        assert sorted(w.banks_written) == [0, 1, 2, 3]
        assert mem.peek_block(0).values == [5, 6, 7, 8]

    def test_fig_4_1_corruption_without_access_control(self):
        """Two same-block writes interleave into a mixed-version block:
        'bank 0 contains data from processor 1 and the others contain data
        from processor 0' (Fig 4.1, permissive controller)."""
        mem = make(4, 1)
        mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1, 2, 3, 4]),
                  version="P0")
        mem.issue(1, AccessKind.WRITE, 0, data=Block.of_values([11, 12, 13, 14]),
                  version="P1")
        mem.drain()
        blk = mem.peek_block(0)
        assert not blk.is_single_version()
        assert blk.versions == ["P1", "P0", "P0", "P0"]


class TestEngineRules:
    def test_one_outstanding_access_per_processor(self):
        mem = make(4, 1)
        mem.issue(0, AccessKind.READ, 0)
        with pytest.raises(ValueError):
            mem.issue(0, AccessKind.READ, 1)

    def test_write_requires_full_block_data(self):
        mem = make(4, 1)
        with pytest.raises(ValueError):
            mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1, 2]))
        with pytest.raises(ValueError):
            mem.issue(0, AccessKind.WRITE, 0)

    def test_proc_out_of_range(self):
        mem = make(4, 1)
        with pytest.raises(ValueError):
            mem.issue(4, AccessKind.READ, 0)

    def test_on_finish_callback_fires(self):
        mem = make(4, 1)
        done = []
        mem.issue(0, AccessKind.READ, 0, on_finish=lambda a: done.append(a.state))
        mem.drain()
        assert done == [AccessState.COMPLETED]

    def test_run_until_idle_raises_on_stuck(self):
        class Staller(AccessController):
            def on_bank(self, mem, access, bank, slot):
                return ControlAction.RESTART  # never lets it finish

        mem = CFMemory(CFMConfig(n_procs=4), controller=Staller())
        mem.issue(0, AccessKind.READ, 0)
        with pytest.raises(RuntimeError):
            mem.run_until_idle(max_slots=100)

    def test_poke_block_validates_width(self):
        mem = make(4, 1)
        with pytest.raises(ValueError):
            mem.poke_block(0, Block.of_values([1]))


class TestControllerHooks:
    def test_abort_action_stops_access(self):
        class AbortAll(AccessController):
            def on_bank(self, mem, access, bank, slot):
                return ControlAction.ABORT

        mem = CFMemory(CFMConfig(n_procs=4), controller=AbortAll())
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.run(2)
        assert acc.state is AccessState.ABORTED
        assert acc.final_action is ControlAction.ABORT

    def test_retry_action_marks_final_action(self):
        class RetryAll(AccessController):
            def on_bank(self, mem, access, bank, slot):
                return ControlAction.RETRY

        mem = CFMemory(CFMConfig(n_procs=4), controller=RetryAll())
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.run(2)
        assert acc.state is AccessState.ABORTED
        assert acc.final_action is ControlAction.RETRY
        assert acc.restarts == 1

    def test_restart_collects_from_current_bank(self):
        class RestartOnce(AccessController):
            def __init__(self):
                self.fired = False

            def on_bank(self, mem, access, bank, slot):
                if not self.fired and access.words_done == 2:
                    self.fired = True
                    return ControlAction.RESTART
                return ControlAction.PROCEED

        mem = CFMemory(CFMConfig(n_procs=4), controller=RestartOnce())
        acc = mem.issue(0, AccessKind.READ, 0)
        mem.drain()
        assert acc.state is AccessState.COMPLETED
        assert acc.restarts == 1
        assert acc.latency == 4 + 2  # two wasted slots before the restart

    def test_on_start_sees_first_bank(self):
        starts = []

        class Spy(AccessController):
            def on_start(self, mem, access, slot):
                starts.append((access.first_bank, slot))

        mem = CFMemory(CFMConfig(n_procs=4), controller=Spy())
        mem.run(2)
        mem.issue(1, AccessKind.READ, 0)
        mem.drain()
        assert starts == [(3, 2)]  # bank (2 + 1) mod 4 at slot 2


class _OnlyOnSlot(AccessController):
    def __init__(self):
        self.calls = []

    def on_slot(self, mem, slot):
        self.calls.append(slot)


class _OnlyOnStart(AccessController):
    def __init__(self):
        self.calls = []

    def on_start(self, mem, access, slot):
        self.calls.append((access.proc, access.first_bank, slot))


class _OnlyOnBank(AccessController):
    def __init__(self):
        self.calls = []

    def on_bank(self, mem, access, bank, slot):
        self.calls.append((access.proc, bank, slot))
        return ControlAction.PROCEED


class TestHookSkipping:
    """The tick calls only the hooks a controller's class overrides; each
    overridden hook still sees exactly the calls of the full schedule."""

    N_PROCS, CYCLE, SLOTS = 4, 2, 41

    def _drive(self, ctrl, runner):
        n, c = self.N_PROCS, self.CYCLE
        mem = make(n, c, controller=ctrl)
        finished = record_finishes(mem)
        width = mem.n_banks

        def issue(p):
            if p % 2:
                mem.issue(p, AccessKind.WRITE, offset=p,
                          data=Block.of_values([p] * width), on_finish=again)
            else:
                mem.issue(p, AccessKind.READ, offset=p, on_finish=again)

        def again(acc):
            issue(acc.proc)

        for p in range(n):  # proc p's first word lands at slot p
            issue(p)
            runner(mem, 1)
        runner(mem, self.SLOTS - n)
        assert mem.slot == self.SLOTS
        return mem, finished

    def _expected(self):
        """Every access walks b consecutive slots from its start; proc p
        starts at p, p + b, p + 2b, ... and visits bank (t + c·p) mod b."""
        n, c, slots = self.N_PROCS, self.CYCLE, self.SLOTS
        b = n * c
        starts, banks = [], []
        for p in range(n):
            for s in range(p, slots, b):
                starts.append((s, p, (s + c * p) % b))
                banks.extend((t, p, (t + c * p) % b)
                             for t in range(s, min(s + b, slots)))
        return ([(p, k, s) for s, p, k in sorted(starts)],
                [(p, k, t) for t, p, k in sorted(banks)])

    @pytest.mark.parametrize("runner", [
        lambda mem, k: mem.run(k), lambda mem, k: mem.run_batch(k),
    ], ids=["tick", "run_batch"])
    def test_single_hook_controllers_see_every_call(self, runner):
        starts, banks = self._expected()
        for cls, expected in ((_OnlyOnSlot, list(range(self.SLOTS))),
                              (_OnlyOnStart, starts),
                              (_OnlyOnBank, banks)):
            ctrl = cls()
            self._drive(ctrl, runner)
            assert ctrl.calls == expected, cls.__name__

    def test_single_hook_runs_match_permissive(self):
        def words(driven):
            mem, finished = driven
            return ([(a.access_id, a.proc, a.complete_slot)
                     for a in finished.completed],
                    [sorted((k, o, w.value, w.version)
                            for o, w in bank.items())
                     for k, bank in enumerate(mem.banks)])

        base = words(self._drive(None, lambda mem, k: mem.run(k)))
        for cls in (_OnlyOnSlot, _OnlyOnStart, _OnlyOnBank):
            assert words(self._drive(cls(), lambda mem, k: mem.run(k))) == base

    def test_controller_swapped_in_a_finish_callback_mid_tick(self):
        # b = 4, c = 1.  Proc 0 finishes at slot 3 and its callback swaps
        # in a spy; procs 1 (mid-access) and 2 (first word) come later in
        # slot 3's processor order, so the spy already sees their visits.
        spy = _OnlyOnBank()
        starts = _OnlyOnStart()
        mem = make(4, 1)

        def swap(acc):
            mem.controller = spy

        mem.issue(0, AccessKind.READ, 0, on_finish=swap)
        mem.run(1)
        mem.issue(1, AccessKind.READ, 1)
        mem.run(2)
        mem.issue(2, AccessKind.READ, 2)
        mem.run(1)
        assert spy.calls == [(1, 0, 3), (2, 1, 3)]
        mem.controller = starts  # on_start only, swapped between ticks
        mem.run(1)
        assert starts.calls == []  # no access starts at slot 4
        assert mem.slot == 5

    def test_controller_swapped_away_mid_tick_stops_its_calls(self):
        spy = _OnlyOnBank()
        mem = make(4, 1, controller=spy)
        finished = record_finishes(mem)

        def swap(acc):
            mem.controller = AccessController()

        mem.issue(0, AccessKind.READ, 0, on_finish=swap)
        mem.run(1)
        mem.issue(1, AccessKind.READ, 1)
        mem.run(3)
        # Slot 3: proc 0's last word is seen, then the swap, so proc 1's
        # visit of the same slot is not.
        assert spy.calls[-2:] == [(1, 3, 2), (0, 3, 3)]
        mem.drain()
        assert [a.proc for a in finished.completed] == [0, 1]


class TestBlockAccessIdentity:
    def test_equal_looking_accesses_are_distinct(self):
        a = BlockAccess(0, 0, AccessKind.READ, 0, 0)
        b = BlockAccess(0, 0, AccessKind.READ, 0, 0)
        assert a == a and a != b
        assert len({a, b}) == 2
        accesses = [b, a]
        accesses.remove(a)
        assert accesses[0] is b

    def test_finish_unlinks_the_access_itself(self):
        mem = make(4, 1)
        acc = mem.issue(0, AccessKind.READ, 0)
        # A twin that matches every field acc has when _finish unlinks it.
        twin = dataclasses.replace(acc, state=AccessState.COMPLETED)
        mem.active.insert(0, twin)
        finished = record_finishes(mem)
        mem._finish(acc, AccessState.COMPLETED, 3)
        assert mem.active == [twin] and mem.active[0] is twin
        assert finished.completed[0] is acc
