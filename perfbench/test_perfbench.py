"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke runs start real ``repro serve`` processes with one-second
phases; together they take about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from stats import block_percentile, percentile, window_rate
from streams import (Feed, canonical, fresh_stream, hot_specs, payload_of,
                     probe_requests, request_stream)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SERVE = ("serve_hot", "serve_fresh")


def _lines(workload: str, seed: int, n: int = 300):
    return [r.line for r in islice(Feed(request_stream(workload, seed)), n)]


@pytest.mark.parametrize("workload", SERVE)
def test_seed_gives_byte_identical_stream(workload):
    assert _lines(workload, 7) == _lines(workload, 7)


@pytest.mark.parametrize("workload", SERVE)
def test_distinct_seeds_give_distinct_streams(workload):
    assert _lines(workload, 7) != _lines(workload, 8)


def test_serve_fresh_never_repeats_a_cache_key():
    keys = [canonical(payload_of(r)) for r in islice(fresh_stream(3), 20000)]
    assert len(set(keys)) == len(keys)
    # The set-up probe runs on the measured server first.
    probes = {canonical(payload_of(r)) for r in probe_requests()}
    assert not probes & set(keys)
    hot = {canonical(payload_of(r)) for r in islice(request_stream(
        "serve_hot", 3), 5000)}
    assert not probes & hot


def test_serve_hot_draws_from_a_few_dozen_specs():
    keys = {canonical(payload_of(r)) for r in islice(request_stream(
        "serve_hot", 3), 5000)}
    assert keys <= {canonical(s) for s in hot_specs()}
    assert 24 <= len(hot_specs()) <= 48


def test_metric_names_and_units():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert name.match(n), n
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert unit.match(m["unit"]), m
    assert {w["name"] for w in SPEC["workloads"]} == {
        "serve_hot", "serve_fresh", "sim_sweep"}


def test_order_statistics():
    values = list(range(1, 3001))
    assert percentile(values, 0.99) == 2970
    assert block_percentile(values, 0.99) == 1990  # blocks of 1000
    assert block_percentile(values[:1500], 0.99) == 1485  # one block
    times = [k / 100 for k in range(300)]  # 100 per second for 3 s
    assert window_rate(times, 0.0, 3.0) == pytest.approx(100.0)


def test_rates_at_reference_speed():
    from hostspeed import REFERENCE_LOOPS_PER_S as ref
    from hostspeed import at_reference, speed

    # Measured while the host ran at half the reference speed: doubled.
    assert at_reference(100.0, [ref / 2, ref / 2]) == pytest.approx(200.0)
    assert at_reference(100.0, [ref / 2, 3 * ref / 2]) == pytest.approx(100.0)
    assert speed() > 0


def _metrics_doc(hits, misses, evictions, batches, requests, stacks,
                 width, misses0, peak):
    """A ``/metrics`` document with the fields the ledger reads."""
    counter = lambda **counts: {"type": "counter",  # noqa: E731
                                "counts": counts}
    return {
        "cache": {"hits": hits, "misses": misses, "evictions": evictions},
        "inflight": {"peak": peak},
        "pool": {"n_shards": 2},
        "sla": {"tiers": {}},
        "service": {
            "serve.batch": counter(batches=batches, requests=requests),
            "serve.stack": counter(stacks=stacks, width=width),
            "serve.tables[0]": counter(misses=misses0),
        },
    }


def test_published_metrics_are_snapshot_differences():
    from serve_workloads import published_metrics

    before = _metrics_doc(10, 5, 0, 4, 8, 0, 0, 1, 7)
    after = _metrics_doc(40, 15, 3, 14, 38, 2, 5, 1, 9)
    assert published_metrics(before, after) == {
        "service.inflight_peak": 9.0,
        "cache.hit_frac": 0.75,
        "cache.evictions": 3.0,
        "batch.size_mean": 3.0,
        "stack.width_mean": 2.5,
        "tables.misses": 0.0,
    }


def _run(workload: str, trace: int, seconds: str = "1", cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


def _result(workload: str, trace: int):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", SERVE + ("sim_sweep",))
def test_smoke_timed_run(workload):
    metrics = _result(workload, 0)
    assert all(v > 0 for v in metrics.values()), metrics


def test_smoke_traced_serve_hot_reads_the_cache():
    metrics = _result("serve_hot", 1)
    # Warm-up sends every spec once, so every later request is a hit.
    assert metrics["cache.hit_frac"] >= 0.99
    assert metrics["pool.busy_frac"] < 0.05
    assert metrics["service.decode_us"] > 0
    assert metrics["cache.get_us"] > 0


def test_smoke_traced_serve_fresh_misses_and_runs():
    metrics = _result("serve_fresh", 1)
    assert metrics["cache.hit_frac"] == 0.0
    assert metrics["cache.put_us"] > 0
    assert metrics["pool.busy_frac"] > 0.05
    assert metrics["pool.roundtrip_ms.p50"] > 0
    assert metrics["run_spec.cfm_ms"] > 0
    assert metrics["ledger.coverage"] > 0


def test_smoke_traced_sim_sweep_uses_no_serving_layer():
    metrics = _result("sim_sweep", 1)
    serving = [m["name"] for m in SPEC["per_layer"]
               if m["name"].split(".")[0] in (
                   "service", "spec", "cache", "batch", "worker", "stack",
                   "pool", "tables", "sla", "loadgen", "ledger", "client")]
    assert serving and all(metrics[n] == 0 for n in serving), serving
    for cls in ("cfm.observed", "cfm.vectorized", "cfm.stacked",
                "cache_sys.mix", "hierarchy.global"):
        assert metrics[f"{cls}.slots_per_s"] > 0, cls


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("sim_sweep", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _processes_in(directory: Path):
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            cwd = Path(proc.joinpath("cwd").readlink())
        except OSError:
            continue
        if cwd == directory or directory in cwd.parents:
            found.append(proc.joinpath("cmdline").read_bytes())
    return found


def test_leaves_no_process_behind(tmp_path):
    """A serve_fresh run checks its many reports on a process pool; every
    process it started is gone when it exits.  Its output goes to a file,
    so nothing waits for a process that still holds the pipe."""
    for name in ("BENCHMARK.json", "perfbench", "src"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, tmp_path / name)
    log = tmp_path / "run.log"
    with open(log, "w") as out:
        code = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_fresh",
             "--seed", "1", "--seconds", "2", "--trace", "0"],
            cwd=tmp_path, stdout=out, stderr=subprocess.STDOUT,
            timeout=300).returncode
    assert code == 0, log.read_text()[-4000:]
    info = json.loads(log.read_text().strip().splitlines()[-2])["info"]
    assert info["checked_reports"] > 64, info
    assert _processes_in(tmp_path) == []
