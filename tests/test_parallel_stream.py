"""Streaming sweep semantics and the seed-derivation contract.

Pins the satellite behaviours the serving layer builds on:

* :func:`repro.fastpath.parallel.map_specs` streams results through
  ``ProcessPoolExecutor.map`` in spec order and fires ``on_result`` per
  completed spec on both the inline and pooled paths — identical returned
  lists either way.
* :func:`repro.fastpath.parallel.sweep` surfaces per-spec progress events
  (including the first failure) while later specs may still be running.
* ``ops_per_sec`` emits ``null`` — not ``0.0`` — when a report carries no
  ``"completed"`` count, so "no data" stays distinguishable from "zero
  throughput" in bench documents.
* :func:`repro.fastpath.parallel.derive_seed` is a pure function of its
  inputs: golden values pinned, distinct across adjacent (shape, seed)
  keys, and identical when computed in a separate process.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.fastpath.parallel import derive_seed, map_specs, sweep
from repro.obs.bench import ops_per_sec

SPECS = [
    {"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 200}},
    {"system": "interleaved",
     "params": {"n_procs": 4, "n_modules": 4, "rate": 0.5, "beta": 2,
                "cycles": 200, "seed": 7}},
    {"system": "cache", "params": {"n_procs": 4, "rounds": 2}},
]

FAILING_SPEC = {"system": "no_such_system", "params": {}}


class TestMapSpecsStreaming:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_result_fires_in_spec_order(self, jobs):
        events = []
        results = map_specs(
            SPECS, jobs=jobs,
            on_result=lambda i, spec, res: events.append((i, spec["system"],
                                                          res)),
        )
        assert [e[0] for e in events] == [0, 1, 2]
        assert [e[1] for e in events] == [s["system"] for s in SPECS]
        # The callback saw exactly the results the call returned.
        assert [e[2] for e in events] == results

    def test_streamed_results_identical_to_inline(self):
        inline = map_specs(SPECS, jobs=1)
        pooled = map_specs(SPECS, jobs=2)
        for (r1, _, e1), (r2, _, e2) in zip(inline, pooled):
            assert r1 == r2
            assert e1 == e2

    def test_failure_is_data_with_callback(self):
        events = []
        results = map_specs(
            [SPECS[0], FAILING_SPEC], jobs=2,
            on_result=lambda i, spec, res: events.append((i, res[2])),
        )
        assert events[0][1] is None
        assert "no_such_system" in events[1][1]
        assert results[0][2] is None and results[1][2] is not None


class TestSweepProgress:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_events_stream_per_spec(self, jobs):
        events = []
        doc = sweep(SPECS, jobs=jobs, name="t", progress=events.append)
        assert len(events) == len(SPECS)
        for i, (event, spec) in enumerate(zip(events, SPECS)):
            assert event["index"] == i
            assert event["total"] == len(SPECS)
            assert event["system"] == spec["system"]
            assert event["wall_time_s"] > 0
            assert event["error"] is None
        assert len(doc["runs"]) == len(SPECS)
        assert "failures" not in doc

    def test_first_failure_surfaces_in_its_event(self):
        events = []
        doc = sweep([FAILING_SPEC] + SPECS[:1], jobs=1, name="t",
                    progress=events.append)
        assert "no_such_system" in events[0]["error"]
        assert "\n" not in events[0]["error"]  # first line only, not a traceback
        assert events[1]["error"] is None
        assert doc["partial"] is True
        assert len(doc["failures"]) == 1

    def test_progress_is_observational_only(self):
        with_progress = sweep(SPECS, jobs=1, name="t", timing=False,
                              progress=lambda e: None)
        without = sweep(SPECS, jobs=1, name="t", timing=False)
        assert with_progress == without


class TestOpsPerSecNull:
    def test_missing_completed_is_null_not_zero(self):
        assert ops_per_sec({"system": "stub"}, 1.0) is None

    def test_zero_elapsed_is_null(self):
        assert ops_per_sec({"completed": 100}, 0.0) is None

    def test_live_value(self):
        assert ops_per_sec({"completed": 100}, 2.0) == 50.0

    def test_sweep_timing_emits_null_for_countless_report(self, monkeypatch):
        # A run_spec whose report never counted completions: its timing row
        # must carry ops_per_sec=null, pinning the "missing data is not
        # zero throughput" contract end to end through sweep().
        monkeypatch.setattr("repro.fastpath.parallel.run_spec",
                            lambda spec: {"system": spec["system"]})
        doc = sweep([{"system": "stub", "params": {}}], jobs=1, name="t")
        row = doc["timing"]["runs"][0]
        assert row["ops_per_sec"] is None
        assert row["wall_time_s"] > 0


class TestDeriveSeed:
    GOLDEN = {
        (0, ("serve.shard", 4, 1)): 788197322,
        (0, ("serve.shard", 8, 2)): 1076318473,
        (42, ("sweep", "cfm", 0)): 1577818601,
        (7, ()): 834304025,
    }

    def test_golden_values(self):
        # These exact integers are load-bearing: shard routing
        # (repro.serve.shard) and sweep seeding both assume the derivation
        # never changes across versions.
        for (base, keys), expected in self.GOLDEN.items():
            assert derive_seed(base, *keys) == expected

    def test_in_range_and_deterministic(self):
        for base in (0, 1, 7, 2**30):
            for keys in ((), ("a",), ("a", 1), (1, "a")):
                value = derive_seed(base, *keys)
                assert 0 <= value < 2**31 - 1
                assert value == derive_seed(base, *keys)

    def test_distinct_across_adjacent_keys(self):
        shapes = [(4, 1), (8, 2), (16, 4), (32, 8)]
        seeds = range(4)
        values = {derive_seed(s, "grid", b, c)
                  for s in seeds for b, c in shapes}
        assert len(values) == len(shapes) * len(seeds)

    def test_key_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_identical_across_processes(self):
        cases = list(self.GOLDEN)
        code = (
            "from repro.fastpath.parallel import derive_seed\n"
            + "\n".join(
                "print(derive_seed({}, *{!r}))".format(base, keys)
                for base, keys in cases
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        got = [int(line) for line in proc.stdout.split()]
        assert got == [self.GOLDEN[c] for c in cases]
