"""Serving throughput: warm pools, micro-batching, and the result cache.

Three same-run gates on ``repro.serve``:

1. **warm vs fresh**: a persistent worker pool sharded by machine shape —
   each worker forked once and kept, its imports done after its first
   request — serves a mixed-shape request stream at >= 2x the throughput
   of standing up a fresh worker process for every request.
2. **batched vs per-request**: under >= 32 concurrent same-shape requests
   (heavy traffic with duplicates in flight, the regime the continuous
   batcher exists for), micro-batched dispatch through the full service
   path — coalescing queue, one pool task per batch, intra-batch dedup —
   serves >= 2x the requests/sec of one-pool-task-per-request dispatch
   (``max_batch=1`` through the identical code path).  A stacked pass pins
   every request to ``engine="stacked"`` — the fast CFM driver without a
   metrics registry, where the unpinned requests run it observed — and
   must be at least as fast as batched (an engine pin must never cost
   throughput); a cached pass of steady-state content-addressed hits must
   be at least as fast as batched too.
3. **pool round trip vs in process**: one 8-spec batch through a one-shard
   pool costs at most :data:`MAX_ROUND_TRIP_RATIO` times the same specs
   run in this process.  The pool adds only IPC, so the ratio sits near 1
   and moves when the worker side gets slower.

Beside the gates, :func:`test_hit_path_ledger` prints the in-process cost
of a cache hit's front half, stage by stage, in µs per request — decode,
validate, key, lookup, account, encode — with no bound (host noise is
larger than any stage), as a baseline for changes to the serving path.

Every timing is :func:`benchmarks._timing.best_of`.  Every distinct spec's
served report is asserted bit-identical (post JSON round-trip) to
:func:`repro.obs.bench.run_spec` run serially: the serving layer must
never buy throughput with drift.

Run the gates through pytest (CI ``serve-smoke``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q -s
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Dict, List, Tuple

from benchmarks._timing import best_of, emit_gate_table
from repro.obs.bench import run_spec
from repro.serve.cache import payload_key
from repro.serve.pool import ShardedWorkerPool, serve_worker
from repro.serve.service import SimulationService, encode_response
from repro.serve.spec import validate_request
from repro.sim.criticality import TIERS

#: The Table 3.3 working set of ``(n_banks, bank_cycle)`` shapes.
QUICK_SHAPES: Tuple[Tuple[int, int], ...] = ((4, 1), (8, 2), (16, 4), (32, 8))
N_SHARDS = 2
CYCLES = 200
MIN_SPEEDUP = 2.0

#: The batching workload: >= 32 concurrent same-shape requests drawn from
#: a handful of distinct specs — the "dozens of identical or same-shape
#: specs in flight" regime.  Cycle counts differ so the batch carries
#: genuinely distinct work alongside duplicates.
N_CONCURRENT = 32
BATCH_SHAPE = (4, 1)
BATCH_CYCLE_CHOICES = (100, 150, 200, 250)
MAX_BATCH = 16
MIN_BATCH_SPEEDUP = 2.0
#: Engine-pin gate: the same concurrent traffic with every request pinned
#: to ``engine="stacked"`` (the fast CFM driver) must serve at least as
#: many requests/sec as the unpinned micro-batched dispatch, whose cfm
#: requests run the same driver with a metrics registry attached.
MIN_STACKED_RATIO = 1.0

#: Round-trip gate: distinct unpinned cfm specs of one shape
#: (``n_procs`` 4, ``bank_cycle`` 4), about 30-40 ms of compute in all.
#: The ceiling is set midway between ten clean runs (0.99-1.14) and ten
#: with ``serve_worker_batch`` slowed 2x (1.99-2.46) on a 2-vCPU Xeon.
ROUND_TRIP_SHAPE = (4, 4)
ROUND_TRIP_CYCLES = tuple(range(1000, 1800, 100))
MAX_ROUND_TRIP_RATIO = 1.56

#: Hit-path ledger: request lines over the :data:`QUICK_SHAPES` cfm specs,
#: spread over a few tenants and every criticality tier.
LEDGER_LINES = 512
LEDGER_TENANTS = 4


def _payloads(n_requests: int,
              shapes: Tuple[Tuple[int, int], ...] = QUICK_SHAPES,
              cycles: int = CYCLES) -> List[Dict[str, object]]:
    """A mixed-shape request stream: round-robin over ``shapes``."""
    out = []
    for i in range(n_requests):
        n_banks, bank_cycle = shapes[i % len(shapes)]
        out.append({
            "system": "cfm",
            "params": {"n_procs": n_banks // bank_cycle,
                       "bank_cycle": bank_cycle, "cycles": cycles},
        })
    return out


def _reports(results: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The reports of served results (or responses), each asserted ok."""
    for result in results:
        assert result["ok"], result.get("error")
    return [result["report"] for result in results]


def _assert_identical_to_serial(reports: List[Dict[str, object]],
                                requests: List[Dict[str, object]]) -> None:
    seen = set()
    for report, request in zip(reports, requests):
        spec = {"system": request["system"],
                "params": dict(request["params"])}
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        served = json.loads(json.dumps(report, sort_keys=True))
        assert served == json.loads(json.dumps(run_spec(spec),
                                               sort_keys=True)), (
            f"served report diverged from serial run_spec for {request}"
        )


def measure_warm(pool: ShardedWorkerPool, payloads: List[Dict[str, object]]
                 ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + reports to serve ``payloads`` through a persistent pool."""
    t0 = time.perf_counter()
    futures = []
    for p in payloads:
        shard = pool.shard_of(p["system"], p["params"])
        futures.append(pool.submit([dict(p)], shard))
    results = [f.result()[0] for f in futures]
    return time.perf_counter() - t0, _reports(results)


def measure_fresh(payloads: List[Dict[str, object]]
                  ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + reports to serve ``payloads`` standing up one fresh
    executor per request."""
    results = []
    t0 = time.perf_counter()
    for payload in payloads:
        with ProcessPoolExecutor(1) as executor:
            results.append(executor.submit(serve_worker,
                                           dict(payload)).result())
    return time.perf_counter() - t0, _reports(results)


def _batch_requests(n_requests: int = N_CONCURRENT) -> List[Dict[str, object]]:
    """Same-shape concurrent traffic with duplicates: ``n_requests`` over
    ``len(BATCH_CYCLE_CHOICES)`` distinct specs of one machine shape."""
    n_banks, bank_cycle = BATCH_SHAPE
    out = []
    for i in range(n_requests):
        out.append({
            "id": f"b{i}", "tenant": f"team{i % 3}", "system": "cfm",
            "params": {"n_procs": n_banks // bank_cycle,
                       "bank_cycle": bank_cycle,
                       "cycles": BATCH_CYCLE_CHOICES[i % len(BATCH_CYCLE_CHOICES)]},
        })
    return out


def serve_round(pool: ShardedWorkerPool, requests: List[Dict[str, object]],
                max_batch: int, cache_size: int
                ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + reports for ``requests`` submitted all at once to a new
    service on ``pool``.  With a cache, the timed pass runs against the
    cache an untimed pass populated — the steady state repeated traffic
    sees — and every response must come from it."""
    async def one_pass(service: SimulationService):
        t0 = time.perf_counter()
        responses = await asyncio.gather(
            *(service.process(dict(r)) for r in requests))
        return time.perf_counter() - t0, list(responses)

    async def go():
        service = SimulationService(pool=pool, max_inflight=len(requests),
                                    max_batch=max_batch,
                                    cache_size=cache_size)
        if cache_size:
            await one_pass(service)
        seconds, responses = await one_pass(service)
        if cache_size:
            assert all(r.get("cached") for r in responses), (
                "warm-cache pass expected every response from the cache")
        return seconds, _reports(responses)

    return asyncio.run(go())


def measure_batching(pool: ShardedWorkerPool,
                     requests: List[Dict[str, object]]) -> Dict[str, float]:
    """Seconds per mode: per-request, micro-batched, engine-pinned
    (stacked) and cached, all through the full service path on ``pool``;
    the only differences are the knobs under test."""
    stacked = [{**r, "params": {**r["params"], "engine": "stacked"}}
               for r in requests]
    modes = (("per_request", requests, 1, 0),
             ("batched", requests, MAX_BATCH, 0),
             ("stacked", stacked, MAX_BATCH, 0),
             ("cached", requests, MAX_BATCH, 1024))
    timed = best_of(*(partial(serve_round, pool, reqs, max_batch, cache_size)
                      for _, reqs, max_batch, cache_size in modes))
    seconds: Dict[str, float] = {}
    for (mode, reqs, _, _), (t, reports) in zip(modes, timed):
        _assert_identical_to_serial(reports, reqs)
        seconds[mode] = t
    return seconds


def _round_trip_specs() -> List[Dict[str, object]]:
    n_procs, bank_cycle = ROUND_TRIP_SHAPE
    return [{"system": "cfm",
             "params": {"n_procs": n_procs, "bank_cycle": bank_cycle,
                        "cycles": cycles}}
            for cycles in ROUND_TRIP_CYCLES]


def measure_round_trip(pool: ShardedWorkerPool,
                       specs: List[Dict[str, object]]
                       ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + reports for ``specs`` as one batch to shard 0."""
    t0 = time.perf_counter()
    results = pool.submit([dict(s) for s in specs], 0).result()
    return time.perf_counter() - t0, _reports(results)


def measure_in_process(specs: List[Dict[str, object]]
                       ) -> Tuple[float, List[Dict[str, object]]]:
    """Seconds + reports for ``specs`` run here, one after another."""
    t0 = time.perf_counter()
    reports = [run_spec(dict(s)) for s in specs]
    return time.perf_counter() - t0, reports


def _hit_lines(n_lines: int = LEDGER_LINES) -> List[str]:
    """Request lines, one per cached spec in turn, as a client sends them."""
    payloads = _payloads(len(QUICK_SHAPES))
    return [json.dumps({"id": f"h{i}", "tenant": f"t{i % LEDGER_TENANTS}",
                        "criticality": TIERS[i % len(TIERS)],
                        **payloads[i % len(payloads)]}, sort_keys=True)
            for i in range(n_lines)]


def measure_hit_path(service: SimulationService,
                     lines: List[str]) -> Dict[str, float]:
    """µs per request of each stage of the front half answering ``lines``
    as cache hits, and of the whole pass (``front half``), each stage
    timed alone over every line (:func:`best_of`)."""
    objs = [json.loads(line) for line in lines]
    requests = [validate_request(obj) for obj in objs]
    keys = [payload_key(r.payload) for r in requests]
    shards = [service.pool.shard_of(r.system, r.params, r.shape)
              for r in requests]
    responses = [service._front_line(line) for line in lines]
    assert all(r.get("cached") for r in responses), "expected only hits"
    cache = service.cache

    def timed(stage):
        def run():
            t0 = time.perf_counter()
            stage()
            return time.perf_counter() - t0, None
        return run

    def account():
        for request, shard in zip(requests, shards):
            service._account(request, shard).add(True, 0.0, True,
                                                 request.deadline_ms)

    def front():
        for line in lines:
            encode_response(service._front_line(line)).encode()

    stages = {
        "decode": lambda: [json.loads(line) for line in lines],
        "validate": lambda: [validate_request(obj, default_id="req")
                             for obj in objs],
        "key": lambda: [payload_key(r.payload) for r in requests],
        "lookup": lambda: [cache.get(key) for key in keys],
        "account": account,
        "encode": lambda: [encode_response(r).encode() for r in responses],
        "front half": front,
    }
    timings = best_of(*(timed(stage) for stage in stages.values()))
    return {name: seconds / len(lines) * 1e6
            for name, (seconds, _) in zip(stages, timings)}


def test_hit_path_ledger():
    """The hit path's cost by stage; printed, not gated."""
    lines = _hit_lines()
    with ShardedWorkerPool(n_shards=N_SHARDS) as pool:
        service = SimulationService(pool=pool)
        for payload in _payloads(len(QUICK_SHAPES)):
            request = validate_request(payload, default_id="warm")
            service.cache.put(payload_key(request.payload),
                              json.dumps(run_spec(payload), sort_keys=True))
        us = measure_hit_path(service, lines)
    emit_gate_table(
        f"Serving: in-process hit path ({len(lines)} cached requests), "
        "µs per request, no bound",
        ["stage", "µs/request"],
        [(name, f"{v:.1f}") for name, v in us.items()],
    )


def test_warm_sharded_pool_speedup():
    payloads = _payloads(16)
    with ShardedWorkerPool(n_shards=N_SHARDS) as pool:
        (t_warm, warm), (t_fresh, fresh) = best_of(
            partial(measure_warm, pool, payloads),
            partial(measure_fresh, payloads))
    _assert_identical_to_serial(warm, payloads)
    _assert_identical_to_serial(fresh, payloads)
    speedup = t_fresh / t_warm if t_warm > 0 else float("inf")
    emit_gate_table(
        "Serving: warm sharded pool vs fresh pool per request",
        ["path", "wall (s)", "req/s"],
        [("warm", f"{t_warm:.3f}", f"{len(payloads) / t_warm:.1f}"),
         ("fresh", f"{t_fresh:.3f}", f"{len(payloads) / t_fresh:.1f}"),
         ("speedup", f"{speedup:.1f}x", f">= {MIN_SPEEDUP}x")],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm sharded pool only {speedup:.1f}x over "
        f"fresh-pool-per-request, need >= {MIN_SPEEDUP}x"
    )


def test_micro_batched_dispatch_speedup():
    requests = _batch_requests(N_CONCURRENT)
    with ShardedWorkerPool(n_shards=N_SHARDS) as pool:
        seconds = measure_batching(pool, requests)
    speedup = seconds["per_request"] / seconds["batched"]
    emit_gate_table(
        f"Serving: micro-batched vs per-request dispatch "
        f"({N_CONCURRENT} concurrent same-shape requests)",
        ["mode", "wall (s)", "req/s"],
        [(mode, f"{s:.3f}", f"{len(requests) / s:.1f}")
         for mode, s in seconds.items()]
        + [("speedup", f"{speedup:.1f}x", f">= {MIN_BATCH_SPEEDUP}x")],
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"micro-batched dispatch only {speedup:.1f}x over per-request "
        f"dispatch, need >= {MIN_BATCH_SPEEDUP}x"
    )
    assert seconds["batched"] >= MIN_STACKED_RATIO * seconds["stacked"], (
        "stacked-engine traffic slower than unpinned micro-batched "
        "dispatch — an engine pin must never cost throughput"
    )
    assert seconds["batched"] >= seconds["cached"], (
        "cache hits slower than batched dispatch — the cache is not "
        "serving from memory"
    )


def test_pool_round_trip_matches_in_process():
    specs = _round_trip_specs()
    with ShardedWorkerPool(n_shards=1) as pool:
        (t_pool, served), (t_local, _) = best_of(
            partial(measure_round_trip, pool, specs),
            partial(measure_in_process, specs))
    _assert_identical_to_serial(served, specs)
    ratio = t_pool / t_local
    emit_gate_table(
        f"Serving: one-shard pool round trip vs in process "
        f"({len(specs)} specs, one batch)",
        ["path", "wall (s)"],
        [("pool", f"{t_pool:.3f}"), ("in process", f"{t_local:.3f}"),
         ("ratio", f"{ratio:.2f}x <= {MAX_ROUND_TRIP_RATIO}x")],
    )
    assert ratio <= MAX_ROUND_TRIP_RATIO, (
        f"pool round trip {ratio:.2f}x the in-process run, need "
        f"<= {MAX_ROUND_TRIP_RATIO}x"
    )
