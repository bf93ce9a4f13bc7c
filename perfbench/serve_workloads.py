"""The two serve workloads, ``serve_hot`` and ``serve_fresh``.

A timed run (``trace=0``) measures, on default-flag ``repro serve``
processes driven from outside over TCP:

1. set-up: :data:`SETUP_LAUNCHES` launches, each timed from process start
   to the set-up probe's responses; the last server stays up;
2. an untimed warm-up;
3. an open-loop phase at the workload's fixed offered rate,
   :data:`OPEN_SHARE` of ``seconds`` long (deadline share; latency
   percentiles as diagnostics);
4. a closed-loop phase, the rest (throughput, simulated slots/s).

A traced run (``trace=1``) measures an untraced closed loop, then repeats
warm-up, open loop and closed loop on a server with the cost ledger
installed (``traced_server.py``) and reports the per-layer metrics.

Every served report of every distinct spec, plus a seeded sample of cache
hits, is compared with a serial ``run_spec`` of the same spec after a JSON
round trip; a mismatch counts as a failed request.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Tuple

from loadgen import Client, Sample
from server import Server, launch
from stats import block_percentile, mean, median, percentile, window_rate
from streams import (OPEN_LOOP, TIERS, Feed, Prepared, canonical, hot_specs,
                     request_stream)

SETUP_LAUNCHES = 3
#: Requests each of the two connections keeps outstanding in a closed
#: loop: four times the server's default depth (32) in all, so the server
#: always finds a request waiting on its sockets and never idles on the
#: client's round trip.
WINDOW = 64
WARMUP_S = 1.5
#: Share of ``seconds`` given to the open-loop phase; the closed loop gets
#: the rest.
OPEN_SHARE = 0.4
#: Share of cache hits whose report is checked (``serve_hot``).
HIT_SAMPLE = 0.02
HIT_SAMPLE_MAX = 400


class Checker:
    """Keeps the reports to check: every distinct spec's first served
    report, and a seeded sample of later (cache-hit) responses."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"perfbench.check.{seed}")
        self._seen = set()
        self.sampled = 0

    def keep(self, key: str) -> bool:
        if key not in self._seen:
            self._seen.add(key)
            return True
        if self.sampled < HIT_SAMPLE_MAX and self._rng.random() < HIT_SAMPLE:
            self.sampled += 1
            return True
        return False


def _serial_report(key: str) -> str:
    """Serial ``run_spec`` of a payload, as its canonical JSON round trip."""
    from repro.obs.bench import run_spec

    return canonical(run_spec(json.loads(key)))


def check_reports(samples: List[Sample]) -> int:
    """Compare every kept report with a serial run; returns mismatches.

    Runs after the server has stopped, on two processes (the host's
    cores) when there are many specs.  They are forked: a spawn context
    also starts a resource-tracker process that nothing waits for, and it
    outlives the benchmark."""
    kept = [s for s in samples if s.report is not None]
    keys = sorted({s.key for s in kept})
    if len(keys) > 64:
        with ProcessPoolExecutor(2, mp_context=get_context("fork")) as ex:
            expected = dict(zip(keys, ex.map(_serial_report, keys,
                                             chunksize=16)))
    else:
        expected = {key: _serial_report(key) for key in keys}
    return sum(1 for s in kept if canonical(s.report) != expected[s.key])


class Run:
    """One server's share of a run: its client, feed and collected samples."""

    def __init__(self, workload: str, feed: Feed, client: Client) -> None:
        self.workload = workload
        self.config = OPEN_LOOP[workload]
        self.feed = feed
        self.client = client
        self.samples: List[Sample] = []

    async def warm_up(self) -> None:
        if self.workload == "serve_hot":
            # Every distinct spec once, so the measured phases are reads.
            rng = random.Random(0)
            self.samples += await self.client.send_all(
                [Prepared.of({"id": f"w{i}", "criticality": rng.choice(TIERS),
                              **spec}) for i, spec in enumerate(hot_specs())],
                WINDOW)
        await self.closed(WARMUP_S)

    async def open(self, seconds: float) -> List[Sample]:
        samples = await self.client.open_loop(
            self.feed, self.config["rate_rps"], seconds)
        self.samples += samples
        return samples

    async def closed(self, seconds: float):
        samples, start, end = await self.client.closed_loop(
            self.feed, WINDOW, seconds, self.config["prefill_rps"])
        self.samples += samples
        return samples, start, end

    async def saturate(self, server: Server, seconds: float):
        """The measured closed loop, with the load generator and the
        server's main thread on different CPUs (:meth:`Server.apart`)."""
        with server.apart():
            return await self.closed(seconds)


def deadline_met_frac(samples: List[Sample], limit_ms: float) -> float:
    """Share of open-loop requests answered ``ok`` within the limit."""
    return sum(1 for s in samples
               if s.ok and s.latency_ms <= limit_ms) / len(samples)


def open_latency(samples: List[Sample]) -> Dict[str, float]:
    """Open-loop latency from due time: the median, and the p99 of each
    block of 1000 requests, median over blocks.  Reported with the
    per-layer metrics and on the diagnostics line, not as end-to-end
    metrics (see README.md)."""
    latencies = [s.latency_ms for s in samples if s.answered]
    return {"p50": median(latencies),
            "p99": block_percentile(latencies, 0.99)}


def closed_metrics(samples: List[Sample], start: float,
                   end: float) -> Dict[str, float]:
    """Closed-loop completions and simulated slots per second (medians
    over one-second windows)."""
    done = [s for s in samples if s.ok]
    rps = window_rate([s.done for s in done], start, end)
    in_window = [s for s in done if start <= s.done < end]
    slots_per_request = mean([s.cycles for s in in_window])
    return {"throughput_rps": rps,
            "sim_slots_per_s": rps * slots_per_request}


def _failed(samples: List[Sample]) -> int:
    return sum(1 for s in samples if not s.ok)


async def timed_run(workload: str, seed: int, seconds: float, root: Path,
                    tmp_dir: Path) -> Tuple[Dict[str, float], int, int, dict]:
    """The end-to-end metrics of one run, with attempted/failed counts."""
    feed = Feed(request_stream(workload, seed))
    checker = Checker(seed)
    setups = []
    for k in range(SETUP_LAUNCHES):
        server, setup_s = await launch(root, tmp_dir)
        setups.append(setup_s)
        if k < SETUP_LAUNCHES - 1:
            server.stop()
    try:
        async with Client(server.host, server.port,
                          keep_report=checker.keep) as client:
            run = Run(workload, feed, client)
            await run.warm_up()
            open_ = await run.open(seconds * OPEN_SHARE)
            # Read after the fixed-size open loop: the server's memory grows
            # with the requests it has served, and the closed loop serves
            # as many as the host's speed allows.
            rss = server.peak_rss_mb()
            closed, start, end = await run.saturate(
                server, seconds * (1 - OPEN_SHARE))
    finally:
        server.stop()
    mismatched = check_reports(run.samples)
    metrics = {"setup_s": median(setups), "peak_rss_mb": rss,
               "deadline_met_frac": deadline_met_frac(
                   open_, run.config["limit_ms"]),
               **closed_metrics(closed, start, end)}
    latency = open_latency(open_)
    info = {"open_loop_requests": len(open_),
            "closed_loop_requests": len(closed),
            "latency_p50_ms": latency["p50"],
            "latency_p99_ms": latency["p99"],
            "late_p99_ms": percentile([s.late_ms for s in open_], 0.99),
            "checked_reports": sum(1 for s in run.samples
                                   if s.report is not None),
            "mismatched_reports": mismatched}
    return (metrics, len(run.samples), _failed(run.samples) + mismatched,
            info)


async def traced_run(workload: str, seed: int, seconds: float, root: Path,
                     tmp_dir: Path) -> Tuple[Dict[str, float], int, int, dict]:
    """The per-layer metrics of one run, with attempted/failed counts.

    A quarter of ``seconds`` goes to an untraced closed loop, the rest to
    the traced server's open and closed loops."""
    feed = Feed(request_stream(workload, seed))
    checker = Checker(seed)
    server, _ = await launch(root, tmp_dir)
    try:
        async with Client(server.host, server.port,
                          keep_report=checker.keep) as client:
            plain = Run(workload, feed, client)
            await plain.warm_up()
            samples, start, end = await plain.saturate(server, seconds / 4)
    finally:
        server.stop()
    plain_rps = closed_metrics(samples, start, end)["throughput_rps"]

    server, _ = await launch(root, tmp_dir, traced=True)
    try:
        async with Client(server.host, server.port,
                          keep_report=checker.keep) as client:
            run = Run(workload, feed, client)
            await run.warm_up()
            before = await _phase(client, "open")
            open_ = await run.open(seconds / 2)
            await _phase(client, "closed")
            closed, start, end = await run.saturate(server, seconds / 4)
            after = await _phase(client, "end")
            phases = (await client.control(
                {"op": "perfbench_ledger", "action": "dump"}))["phases"]
    finally:
        server.stop()
    every = plain.samples + run.samples
    mismatched = check_reports(every)
    traced_rps = closed_metrics(closed, start, end)["throughput_rps"]
    metrics = layer_metrics(phases, open_, closed,
                            (end - start) + _span(open_))
    metrics.update(published_metrics(before, after))
    latency = open_latency(open_)
    sla_p99 = max((tier.get("p99", 0.0)
                   for tier in after["sla"]["tiers"].values()), default=0.0)
    metrics["client.latency_p50_ms"] = latency["p50"]
    metrics["client.latency_p99_ms"] = latency["p99"]
    metrics["sla.p99_gap_ms"] = latency["p99"] - sla_p99
    metrics["loadgen.late_p99_ms"] = percentile(
        [s.late_ms for s in open_], 0.99)
    metrics["trace.overhead_frac"] = (plain_rps / traced_rps - 1.0
                                      if traced_rps else 0.0)
    metrics["ledger.coverage"] = _coverage(phases.get("open", {}),
                                           latency["p50"])
    info = {"untraced_rps": plain_rps, "traced_rps": traced_rps,
            "mismatched_reports": mismatched}
    return metrics, len(every), _failed(every) + mismatched, info


async def _phase(client: Client, name: str) -> Dict[str, object]:
    """Start ledger phase ``name``; returns the server's ``/metrics``
    document at that boundary."""
    await client.control({"op": "perfbench_ledger", "action": "phase",
                          "name": name})
    return (await client.control({"op": "metrics"}))["metrics"]


def _counts(doc: Dict[str, object], name: str) -> Dict[str, float]:
    """The counts of one counter instrument of a ``/metrics`` document."""
    return doc["service"].get(name, {}).get("counts", {})


def published_metrics(before: Dict[str, object],
                      after: Dict[str, object]) -> Dict[str, float]:
    """Per-layer counts the server publishes in ``/metrics``, over the
    measured phases (the difference of two snapshots)."""
    def delta(name: str, field: str) -> float:
        return float(_counts(after, name).get(field, 0)
                     - _counts(before, name).get(field, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache = {k: after["cache"][k] - before["cache"][k]
             for k in ("hits", "misses", "evictions")}
    shards = range(after["pool"]["n_shards"])
    return {
        # Peak dispatched (cache-missing) requests in flight since launch.
        "service.inflight_peak": float(after["inflight"]["peak"]),
        "cache.hit_frac": ratio(cache["hits"],
                                cache["hits"] + cache["misses"]),
        "cache.evictions": float(cache["evictions"]),
        "batch.size_mean": ratio(delta("serve.batch", "requests"),
                                 delta("serve.batch", "batches")),
        "stack.width_mean": ratio(delta("serve.stack", "width"),
                                  delta("serve.stack", "stacks")),
        "tables.misses": sum(delta(f"serve.tables[{k}]", "misses")
                             for k in shards),
    }


def _span(samples: List[Sample]) -> float:
    """Wall seconds from the first due time to the last response."""
    if not samples:
        return 0.0
    return max(s.done for s in samples) - min(s.due for s in samples)


def _merged(phases: Dict[str, Dict[str, List[float]]],
            names=("open", "closed")) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for phase in names:
        for name, values in phases.get(phase, {}).items():
            out.setdefault(name, []).extend(values)
    return out


#: Ledger components whose medians sum to the ledger's account of one
#: request's latency (``ledger.coverage``).
_PATH = ("service.decode", "spec.validate", "cache.key", "cache.get",
         "cache.put", "batch.wait", "pool.roundtrip", "service.encode")


def _coverage(samples: Dict[str, List[float]], client_p50_ms: float) -> float:
    if client_p50_ms <= 0:
        return 0.0
    accounted = sum(median(samples.get(name, [])) for name in _PATH)
    return accounted * 1e3 / client_p50_ms


def layer_metrics(phases: Dict[str, Dict[str, List[float]]],
                  open_: List[Sample], closed: List[Sample],
                  traced_s: float) -> Dict[str, float]:
    """Per-layer timings from the ledger and the client's own samples.

    A metric whose layer did no work in the run reads 0."""
    L = _merged(phases)
    us = lambda name: median(L.get(name, [])) * 1e6  # noqa: E731
    ms = lambda name, q: percentile(L.get(name, []), q) * 1e3  # noqa: E731
    dispatched = [s for s in open_ + closed if s.ok and not s.cached]
    # Open loop only: in the closed loop a request also waits behind the
    # client's own window.
    overhead = [s.latency_ms - s.wall_ms for s in open_
                if s.ok and not s.cached]
    compute = [s.wall_ms for s in dispatched]
    busy = [sum(L.get(f"pool.busy.shard{k}", [])) / traced_s if traced_s
            else 0.0 for k in (0, 1)]
    out = {
        "service.decode_us": us("service.decode"),
        "service.encode_us": us("service.encode"),
        "service.overhead_ms.p50": median(overhead),
        "service.overhead_ms.p99": percentile(overhead, 0.99),
        "spec.validate_us": us("spec.validate"),
        "cache.key_us": us("cache.key"),
        "cache.get_us": us("cache.get"),
        "cache.put_us": us("cache.put"),
        "batch.wait_ms.p50": ms("batch.wait", 0.5),
        "batch.wait_ms.p99": ms("batch.wait", 0.99),
        "worker.dedup_frac": mean([1.0 if s.deduped else 0.0
                                   for s in dispatched]),
        "pool.roundtrip_ms.p50": ms("pool.roundtrip", 0.5),
        "pool.ipc_ms.p50": ms("pool.ipc", 0.5),
        "pool.busy_frac": mean(busy),
        "pool.busy_frac.shard0": busy[0],
        "pool.busy_frac.shard1": busy[1],
        "worker.compute_ms.p50": median(compute),
        "worker.compute_ms.p99": percentile(compute, 0.99),
    }
    out.update(sim_layer_metrics(L))
    return out


#: Layer paths with a ``<path>.slots_per_s`` metric.
SIM_CLASSES = ("cfm.observed", "cfm.reference", "cfm.batch",
               "cfm.vectorized", "cfm.stacked", "cache_sys.mix",
               "cache_sys.private", "hierarchy.local", "hierarchy.global")


def sim_layer_metrics(L: Dict[str, List[float]]) -> Dict[str, float]:
    """Simulator per-layer metrics from ``ledger.install_sim`` samples."""
    out = {f"run_spec.{system}_ms": median(L.get(f"run_spec.{system}", []))
           * 1e3 for system in ("cfm", "cache", "hierarchy")}
    for cls in SIM_CLASSES:
        seconds = sum(L.get(f"{cls}.s", []))
        out[f"{cls}.slots_per_s"] = (sum(L.get(f"{cls}.slots", [])) / seconds
                                     if seconds else 0.0)
    return out
