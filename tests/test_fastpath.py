"""Differential tests for the fast-path layer (:mod:`repro.fastpath`).

Every acceleration must be *result-identical* to its slot-by-slot
reference: same completion streams, same memory contents, same metrics
snapshots, same probe event streams, same bench documents.  These tests
run the fast and reference paths side by side and compare the full
observable state, across the Table 3.3 machine shapes.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.block import Block
from repro.core.cfm import (
    AccessController,
    AccessKind,
    AccessState,
    CFMemory,
    ControlAction,
)
from repro.core.config import CFMConfig
from repro.fastpath.tables import at_schedule, bank_orders
from repro.network.synchronous import SynchronousOmegaNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import RecordingProbe
from tests.history import record_finishes

SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8)]


# --------------------------------------------------------------------------
# The AT-space schedule


def _row(schedule, slot):
    """The banks every processor addresses at ``slot``."""
    ring, period, offsets = schedule
    return [ring[slot % period + offset] for offset in offsets]


class TestTables:
    @pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
    def test_slot_bank_table_matches_config_formula(self, n_procs, bank_cycle):
        """Three periods of the slot→bank table (Table 3.1, generalized)
        read off the schedule equal the config formula."""
        cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
        schedule = at_schedule(cfg.n_banks, bank_cycle)
        assert schedule.period == cfg.n_banks
        for slot in range(3 * cfg.n_banks):
            assert _row(schedule, slot) == [
                cfg.bank_for(proc, slot) for proc in range(n_procs)]

    @pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
    def test_rows_are_injective(self, n_procs, bank_cycle):
        n_banks = n_procs * bank_cycle
        schedule = at_schedule(n_banks, bank_cycle)
        for slot in range(schedule.period):
            row = _row(schedule, slot)
            assert len(set(row)) == len(row) == n_procs

    def test_bank_orders_wrap(self):
        ring = bank_orders(4)
        assert len(ring) == 8  # O(b): one ring serves every first bank
        assert ring[0:4] == (0, 1, 2, 3)
        assert ring[3:7] == (3, 0, 1, 2)

    def test_shift_permutations(self):
        net = SynchronousOmegaNetwork(8)
        for t in range(8):
            assert net.permutation(t) == [(t + i) % 8 for i in range(8)]
            for i in range(8):
                assert net.target(i, t) == (t + i) % 8

    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError):
            at_schedule(0, 1)
        with pytest.raises(ValueError):
            at_schedule(8, 3)  # 8 banks don't divide into cycle-3 slots


#: Address-space cap of the large-shape child process, and the most its
#: peak RSS may grow building one module.  A materialised (1024, 32)
#: schedule would hold 33.5M entries, far past the cap.
LARGE_SHAPE_AS_LIMIT = 768 << 20
LARGE_SHAPE_MAX_GROWTH_KB = 64 << 10

_LARGE_SHAPE_CHILD = """
import resource, sys
from repro.core.cfm import CFMemory
from repro.core.config import CFMConfig
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
mem = CFMemory(CFMConfig(n_procs=1024, bank_cycle=32))
if sys.argv[2] == "degraded":
    mem.degrade_bank(mem.n_banks // 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.parametrize("mode", ["healthy", "degraded"])
def test_large_shape_schedule_memory_is_linear(mode):
    """A (1024, 32) module — 32 768 banks — builds under a 768 MB
    address-space cap with its peak RSS growing less than 64 MB: the
    schedule costs O(b), not b rows of n banks."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_SHAPE_CHILD,
         str(LARGE_SHAPE_AS_LIMIT), mode],
        capture_output=True, text=True, timeout=120, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    growth_kb = int(proc.stdout.split()[-1])
    assert growth_kb < LARGE_SHAPE_MAX_GROWTH_KB, growth_kb


# --------------------------------------------------------------------------
# CFMemory: run_batch ≡ run


def _full_load_workload(mem: CFMemory, log, write_every=0):
    """Reissue-on-completion workload: every proc always has an access.

    ``write_every > 0`` makes every k-th reissue of a processor a write —
    to a processor-private offset, so batching stays hazard-free."""
    counts = [0] * mem.cfg.n_procs

    def reissue(acc):
        log.append((acc.access_id, acc.proc, acc.state.value, mem.slot,
                    acc.complete_slot))
        p = acc.proc
        counts[p] += 1
        if write_every and counts[p] % write_every == 0:
            data = Block.of_values(
                [counts[p] * 100 + p] * mem.cfg.n_banks
            )
            mem.issue(p, AccessKind.WRITE, offset=p, data=data,
                      version=f"P{p}.{counts[p]}", on_finish=reissue)
        else:
            mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)

    for p in range(mem.cfg.n_procs):
        mem.issue(p, AccessKind.READ, offset=p, on_finish=reissue)


def _state_fingerprint(mem: CFMemory, finished):
    return (
        mem.slot,
        [sorted(bank.items()) for bank in mem.banks],
        [(a.access_id, a.proc, a.words_done) for a in mem.active],
        len(finished.completed),
        len(finished.aborted),
    )


class TestCFMBatchEquivalence:
    @pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
    def test_full_load_reads(self, n_procs, bank_cycle):
        self._compare(n_procs, bank_cycle, write_every=0)

    @pytest.mark.parametrize("n_procs,bank_cycle", SHAPES)
    def test_mixed_reads_and_writes(self, n_procs, bank_cycle):
        self._compare(n_procs, bank_cycle, write_every=3)

    def _compare(self, n_procs, bank_cycle, write_every, slots=400):
        log_ref, log_fast = [], []
        ref = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
        fast = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
        finished_ref = record_finishes(ref)
        finished_fast = record_finishes(fast)
        _full_load_workload(ref, log_ref, write_every)
        _full_load_workload(fast, log_fast, write_every)
        ref.run(slots)
        fast.run_batch(slots)
        assert log_ref == log_fast
        assert (_state_fingerprint(ref, finished_ref)
                == _state_fingerprint(fast, finished_fast))
        for a, b in zip(finished_ref.completed, finished_fast.completed):
            if a.kind.is_read:
                assert a.result == b.result
            assert (a.issue_slot, a.complete_slot, a.latency) == (
                b.issue_slot, b.complete_slot, b.latency)

    def test_idle_slot_skip_lands_on_exact_slot(self):
        mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2))
        finished = record_finishes(mem)
        mem.run_batch(1234)
        assert mem.slot == 1234
        assert not finished.completed

    def test_staggered_issue_from_callbacks(self):
        # Completions re-issue at their exact slot-accurate times, so the
        # second generation starts mid-batch on both paths.
        for cls_slots in (37, 100, 333):
            log_ref, log_fast = [], []
            ref = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
            fast = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
            _full_load_workload(ref, log_ref)
            _full_load_workload(fast, log_fast)
            ref.run(cls_slots)
            fast.run_batch(cls_slots)
            assert log_ref == log_fast

    def test_same_offset_write_hazard_matches_fig_4_1(self):
        # Two simultaneous writes to one block interleave through the banks
        # (the Fig 4.1 corruption); the batch path must fall back and
        # reproduce the identical word-by-word outcome.
        def run(runner):
            mem = CFMemory(CFMConfig(n_procs=4))
            mem.issue(0, AccessKind.WRITE, 0,
                      data=Block.of_values([1, 2, 3, 4]), version="P0")
            mem.issue(1, AccessKind.WRITE, 0,
                      data=Block.of_values([10, 20, 30, 40]), version="P1")
            runner(mem)
            return [(w.value, w.version) for w in mem.peek_block(0).words]

        ref = run(lambda m: m.run(16))
        fast = run(lambda m: m.run_batch(16))
        assert ref == fast
        # The corruption itself: words from both writers.
        assert {v for _, v in ref} == {"P0", "P1"}

    def test_read_write_same_offset_hazard(self):
        def run(runner):
            mem = CFMemory(CFMConfig(n_procs=4))
            mem.poke_block(2, Block.of_values([7, 8, 9, 10]))
            r = mem.issue(0, AccessKind.READ, 2)
            mem.issue(1, AccessKind.WRITE, 2,
                      data=Block.of_values([70, 80, 90, 100]), version="W")
            runner(mem)
            return [(w.value, w.version) for w in r.result.words]

        assert run(lambda m: m.run(16)) == run(lambda m: m.run_batch(16))

    def test_probe_attached_falls_back_with_identical_stream(self):
        def run(runner, probed):
            probe = RecordingProbe() if probed else None
            log = []
            mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2), probe=probe)
            _full_load_workload(mem, log)
            runner(mem)
            events = [e.as_dict() for e in probe.events] if probed else None
            return log, events

        log_ref, ev_ref = run(lambda m: m.run(200), probed=True)
        log_fast, ev_fast = run(lambda m: m.run_batch(200), probed=True)
        assert ev_ref == ev_fast
        assert log_ref == log_fast
        # And with the probe off, the numbers still agree.
        log_off, _ = run(lambda m: m.run_batch(200), probed=False)
        assert log_off == log_ref

    def test_metrics_attached_snapshots_identical(self):
        def run(runner):
            metrics = MetricsRegistry()
            log = []
            mem = CFMemory(CFMConfig(n_procs=8, bank_cycle=2),
                           metrics=metrics)
            _full_load_workload(mem, log)
            runner(mem)
            return log, metrics.snapshot()

        log_ref, snap_ref = run(lambda m: m.run(200))
        log_fast, snap_fast = run(lambda m: m.run_batch(200))
        assert snap_ref == snap_fast
        assert log_ref == log_fast

    def test_custom_controller_falls_back(self):
        # A controller overriding any hook pins the reference path; the
        # batch runner must produce the controller-visited slot sequence.
        class CountingController(AccessController):
            def __init__(self):
                self.visits = []

            def on_bank(self, mem, access, bank, slot):
                self.visits.append((access.access_id, bank, slot))
                return ControlAction.PROCEED

        def run(runner):
            ctrl = CountingController()
            mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1),
                           controller=ctrl)
            mem.issue(0, AccessKind.READ, 0)
            mem.issue(2, AccessKind.READ, 1)
            runner(mem)
            return ctrl.visits

        assert run(lambda m: m.run(12)) == run(lambda m: m.run_batch(12))


# --------------------------------------------------------------------------
# Retry simulators: golden values (pre-fastpath captures)


class TestInterleavedGolden:
    """Pinned outputs captured from the pre-optimization scan loop — the
    idle-proc-skipping rewrite must preserve draws and arbitration."""

    def test_conventional_seed0(self):
        from repro.memory.interleaved import ConventionalMemorySimulator

        s = ConventionalMemorySimulator(8, 8, rate=0.04, beta=17, seed=0)
        r = s.run(3000)
        assert (r.completed, r.retries, r.conflicts) == (764, 1128, 1152)

    def test_conventional_seed3(self):
        from repro.memory.interleaved import ConventionalMemorySimulator

        s = ConventionalMemorySimulator(8, 8, rate=0.04, beta=17, seed=3)
        r = s.run(3000)
        assert (r.completed, r.retries, r.conflicts) == (789, 1134, 1162)

    @pytest.mark.parametrize("locality,expect", [
        (0.0, (1656, 369, 373, 4.449275)),
        (0.9, (1656, 94, 94, 4.113527)),
    ])
    def test_partial_locality(self, locality, expect):
        from repro.memory.interleaved import PartialCFMemorySimulator
        from repro.network.partial import PartialCFSystem

        sys_ = PartialCFSystem(n_procs=16, n_modules=4, bank_cycle=1)
        sim = PartialCFMemorySimulator(sys_, rate=0.05, locality=locality,
                                       seed=1)
        r = sim.run(2000)
        completed, retries, conflicts, mean = expect
        assert (r.completed, r.retries, r.conflicts) == (
            completed, retries, conflicts)
        assert r.latencies.mean() == pytest.approx(mean, abs=1e-6)


# --------------------------------------------------------------------------
# Parallel sweep: pooled ≡ serial


class TestParallelSweep:
    SPECS = [
        {"system": "cfm",
         "params": {"n_procs": 8, "bank_cycle": 2, "cycles": 300}},
        {"system": "interleaved",
         "params": {"n_procs": 8, "n_modules": 8, "rate": 0.04, "beta": 17,
                    "cycles": 1000, "seed": 7}},
        {"system": "partial",
         "params": {"n_procs": 16, "n_modules": 4, "bank_cycle": 1,
                    "rate": 0.05, "locality": 0.9, "cycles": 800,
                    "seed": 2}},
    ]

    def test_jobs_2_equals_jobs_1(self):
        from repro.fastpath.parallel import sweep

        serial = sweep(self.SPECS, jobs=1, name="t")
        pooled = sweep(self.SPECS, jobs=2, name="t")
        serial.pop("timing")
        pooled.pop("timing")
        assert serial == pooled

    def test_failed_spec_preserves_survivors_and_reports(self):
        """One bad spec costs its own report, not the sweep: survivors
        stay in ``runs`` (in spec order), the failure lands in the
        ``failures`` section as data — identically under a pool."""
        from repro.fastpath.parallel import sweep

        bad = {"system": "no_such_system", "params": {}}
        specs = [self.SPECS[0], bad, self.SPECS[1]]
        for jobs in (1, 2):
            doc = sweep(specs, jobs=jobs, name="t")
            assert [r["system"] for r in doc["runs"]] == [
                "cfm", "interleaved"]
            (failure,) = doc["failures"]
            assert failure["spec"] == bad
            assert "no_such_system" in failure["error"]
            assert len(doc["timing"]["runs"]) == 2  # no timing for failures

    def test_timing_section_is_separable(self):
        from repro.fastpath.parallel import sweep

        doc = sweep(self.SPECS[:1], jobs=1, name="t", timing=True)
        assert doc["timing"]["jobs"] == 1
        assert len(doc["timing"]["runs"]) == 1
        bare = sweep(self.SPECS[:1], jobs=1, name="t", timing=False)
        assert "timing" not in bare
        assert bare["runs"] == doc["runs"]

    def test_parallel_bench_pins_engines_like_run_benchmark(self, tmp_path):
        """``repro bench --parallel`` and the sweep runner pin engines by
        :func:`repro.obs.bench.run_benchmark`'s rule, including its
        qos -> cfm layer mapping: the runs are identical."""
        import json

        from repro.cli import main
        from repro.fastpath.parallel import sweep
        from repro.obs import bench

        expected = bench.run_benchmark("qos", quick=True,
                                       engine="batch")["runs"]
        assert {r["params"]["engine"] for r in expected} == {"batch"}
        assert main(["bench", "qos", "--quick", "--engine", "batch",
                     "--parallel", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_qos.json").read_text())
        assert doc["runs"] == json.loads(json.dumps(expected))
        specs = bench.pin_specs(bench.benchmark_specs("qos", quick=True),
                                engine="batch")
        assert sweep(specs, jobs=1, name="qos", quick=True,
                     timing=False)["runs"] == expected

    def test_derive_seed_deterministic_and_distinct(self):
        from repro.fastpath.parallel import derive_seed

        a = derive_seed(0, "sweep", 0.02, 0)
        assert a == derive_seed(0, "sweep", 0.02, 0)
        assert a != derive_seed(0, "sweep", 0.02, 1)
        assert a != derive_seed(1, "sweep", 0.02, 0)

    def test_benchmark_specs_match_registry_output(self):
        from repro.obs.bench import BENCHMARKS, benchmark_specs, run_spec

        specs = benchmark_specs("quick")
        assert [run_spec(s) for s in specs] == BENCHMARKS["quick"](True)


class TestEngineLayerResolution:
    """The per-layer engine availability surface (stage 4 satellite):
    ``stacked`` is CFM-only, and mismatches fail with a typed ValueError
    naming the layers that DO support the engine."""

    def test_supported_layers_registry(self):
        from repro.fastpath.engine import (
            ENGINE_LAYERS,
            ENGINES,
            supported_layers,
        )

        assert supported_layers("reference") == ENGINE_LAYERS
        assert supported_layers("batch") == ENGINE_LAYERS
        assert supported_layers("vectorized") == ENGINE_LAYERS
        assert supported_layers("stacked") == ("cfm",)
        for name in ENGINES:
            assert set(supported_layers(name)) <= set(ENGINE_LAYERS)

    def test_engine_available_predicate(self):
        from repro.fastpath.engine import engine_available

        assert engine_available("reference", "cache")
        assert engine_available("batch", "hierarchy")
        assert engine_available("vectorized", "hierarchy")
        assert not engine_available("stacked", "cache")
        assert not engine_available("stacked", "hierarchy")
        assert engine_available("stacked", "cfm")
        assert engine_available("vectorized", "cfm")
        # Unknown engines and unknown layers are simply unavailable.
        assert not engine_available("turbo", "cfm")
        assert not engine_available("stacked", "network")

    def test_resolve_engine_layer_mismatch_is_typed(self):
        from repro.fastpath.engine import resolve_engine

        assert resolve_engine("stacked", layer="cfm") == "stacked"
        with pytest.raises(ValueError, match="supported layers: cfm"):
            resolve_engine("stacked", layer="cache")
        with pytest.raises(ValueError, match="supported layers: cfm"):
            resolve_engine("stacked", layer="hierarchy")
