"""Micro-batching contract: coalescing, per-request semantics, shutdown.

What continuous batching must preserve from PR 7's per-request dispatch
(``repro.serve.batch`` + the batch worker in ``repro.serve.pool``):

1. **Per-request results** — a batch returns one result dict per payload,
   in payload order; duplicates are served by one engine run and are
   bit-identical to running each alone;
2. **Typed faults stay per-request** — a faulted payload inside a batch
   errors alone; its batch-mates complete;
3. **Flushing is count/drain-driven** — batches never exceed
   ``max_batch``, requests of different ``(system, shape)`` keys never
   share a batch, and ``max_batch=1`` reproduces per-request dispatch;
4. **Graceful shutdown** — SIGTERM drains in-flight work, flushes final
   metrics, and exits 0 with no pool stack traces (subprocess test).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import (
    MicroBatcher,
    ShardedWorkerPool,
    SimulationService,
    batch_key,
    serve_worker,
    serve_worker_batch,
)

CFM_PARAMS = {"n_procs": 4, "bank_cycle": 1, "cycles": 200}
DEAD_BANK_INJECT = {
    "events": [{"kind": "bank_dead", "start": 3, "duration": 1, "target": 1,
                "extra": 0}],
}


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _cfm(cycles=200, **extra):
    payload = {"system": "cfm", "params": dict(CFM_PARAMS, cycles=cycles)}
    payload.update(extra)
    return payload


@pytest.fixture(scope="module")
def pool():
    with ShardedWorkerPool(n_shards=2) as p:
        yield p


# --------------------------------------------------------------------------
# Batch keys


class TestBatchKey:
    def test_groups_by_system_and_shape(self):
        assert batch_key(_cfm()) == ("cfm", (4, 1))
        assert batch_key(_cfm(cycles=999)) == ("cfm", (4, 1))
        assert batch_key({"system": "cfm",
                          "params": {"n_procs": 8, "bank_cycle": 2,
                                     "cycles": 10}}) == ("cfm", (16, 2))

    def test_shapeless_systems_group_by_system(self):
        key = batch_key({"system": "interleaved",
                         "params": {"n_procs": 8, "seed": 3}})
        assert key == ("interleaved", None)


# --------------------------------------------------------------------------
# The batch worker (in-process)


class TestServeWorkerBatch:
    def test_one_result_per_payload_in_order(self):
        payloads = [_cfm(100), _cfm(150), _cfm(200)]
        results = serve_worker_batch(payloads)
        assert len(results) == 3
        for payload, result in zip(payloads, results):
            assert result["ok"], result.get("error")
            alone = serve_worker(dict(payload))
            assert (_normalized(result["report"])
                    == _normalized(alone["report"]))

    def test_duplicates_deduped_and_bit_identical(self):
        payloads = [_cfm(100), _cfm(100), _cfm(150), _cfm(100)]
        results = serve_worker_batch(payloads)
        assert [r.get("deduped", False) for r in results] == [
            False, True, False, True]
        assert (_normalized(results[0]["report"])
                == _normalized(results[1]["report"])
                == _normalized(results[3]["report"]))
        assert (_normalized(results[1]["report"])
                == _normalized(serve_worker(_cfm(100))["report"]))

    def test_injected_payloads_are_never_deduped(self):
        faulted = _cfm(inject=dict(DEAD_BANK_INJECT, seed=0, rounds=2))
        results = serve_worker_batch([faulted, dict(faulted)])
        assert all(r["ok"] is False for r in results)
        assert all(r["error"]["type"] == "DegradedModeError" for r in results)
        assert not any(r.get("deduped") for r in results)

    def test_fault_inside_batch_is_per_request(self):
        payloads = [_cfm(100),
                    _cfm(inject=dict(DEAD_BANK_INJECT, seed=0, rounds=2)),
                    _cfm(150)]
        results = serve_worker_batch(payloads)
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False and results[1]["error"]["typed"]
        assert results[2]["ok"] is True

    def test_empty_batch(self):
        assert serve_worker_batch([]) == []


# --------------------------------------------------------------------------
# Engine-pinned ``stacked`` payloads inside a batch


def _stacked(cycles):
    return {"system": "cfm",
            "params": dict(CFM_PARAMS, cycles=cycles, engine="stacked")}


class TestStackedBatch:
    def test_stacked_payloads_report_their_own_time(self):
        """``engine="stacked"`` payloads run one by one like any other
        payload: the same envelope and report as :func:`serve_worker`, and
        each ``wall_ms`` is the payload's own run, not a share of its
        batch-mates' time."""
        payloads = [_stacked(100), _stacked(20_000)]
        results = serve_worker_batch(payloads)
        for payload, result in zip(payloads, results):
            assert result["ok"], result.get("error")
            alone = serve_worker(_normalized(payload))
            assert set(result) == set(alone)
            assert (_normalized(result["report"])
                    == _normalized(alone["report"]))
        assert results[1]["wall_ms"] > results[0]["wall_ms"]


# --------------------------------------------------------------------------
# The batcher (asyncio, real pool)


class TestMicroBatcher:
    def test_max_batch_validated(self, pool):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(pool, max_batch=0)

    def test_concurrent_submits_coalesce_and_resolve(self, pool):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(pool, max_batch=4, metrics=metrics)
            payloads = [_cfm(100 + 10 * (i % 3)) for i in range(12)]
            results = await asyncio.gather(
                *(batcher.submit(dict(p)) for p in payloads))
            return batcher, payloads, results

        batcher, payloads, results = asyncio.run(scenario())
        assert batcher.pending() == 0 and batcher.inflight_batches() == 0
        for payload, result in zip(payloads, results):
            assert result["ok"], result.get("error")
            assert (_normalized(result["report"])
                    == _normalized(serve_worker(dict(payload))["report"]))
        sizes = metrics.stats("serve.batch.size")
        counts = metrics.counter("serve.batch")
        assert counts["requests"] == 12
        assert counts["batches"] == sizes.n
        assert sizes.maximum <= 4
        assert counts["batches"] < 12  # something actually coalesced

    def test_different_keys_never_share_a_batch(self, pool):
        async def scenario():
            batcher = MicroBatcher(pool, max_batch=8)
            a = {"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 1,
                                             "cycles": 100}}
            b = {"system": "cfm", "params": {"n_procs": 8, "bank_cycle": 2,
                                             "cycles": 100}}
            # Force both onto one shard so key-splitting, not routing,
            # is what separates them.
            results = await asyncio.gather(
                *(batcher.submit(dict(p), shard=0)
                  for p in [a, b, a, b, a, b]))
            return results

        results = asyncio.run(scenario())
        assert all(r["ok"] for r in results)
        shapes = {r["report"]["params"]["n_banks"] for r in results}
        assert shapes == {4, 16}

    def test_max_batch_one_is_per_request_dispatch(self, pool):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(pool, max_batch=1, metrics=metrics)
            results = await asyncio.gather(
                *(batcher.submit(_cfm(100)) for _ in range(5)))
            return results

        results = asyncio.run(scenario())
        assert all(r["ok"] for r in results)
        counts = metrics.counter("serve.batch")
        assert counts["batches"] == counts["requests"] == 5
        assert metrics.stats("serve.batch.size").maximum == 1.0


# --------------------------------------------------------------------------
# Flush-order fairness (deterministic fake pool: the test completes
# batches by hand, so which key flushes next is fully observable)


class _FakePool:
    """Captures dispatched batches; the test completes them explicitly.

    One shard, one batch in flight: everything after batch 1 must queue."""

    n_shards = 1

    def __init__(self):
        self.batches = []

    def shard_of(self, system, params, shape=None):
        return 0

    def submit(self, payloads, shard):
        future = concurrent.futures.Future()
        self.batches.append((payloads, future))
        return future

    async def complete_next(self):
        """Resolve the latest batch and let the batcher act on it."""
        payloads, future = self.batches[-1]
        future.set_result([{"ok": True, "report": dict(p["params"]),
                            "wall_ms": 0.0} for p in payloads])
        await asyncio.sleep(0)  # the loop copies the result to its future
        await asyncio.sleep(0)  # ...then runs the batcher's done-callback


def _shape_payload(n_procs, cycles):
    return {"system": "cfm", "params": {"n_procs": n_procs, "bank_cycle": 1,
                                        "cycles": cycles}}


class TestFlushFairness:
    def test_hot_key_cannot_starve_older_key(self):
        """Satellite regression: a stream of same-shape arrivals landing
        behind an older different-shape request must not be flushed ahead
        of it — the lead pick is the OLDEST pending entry's key."""

        async def scenario():
            pool = _FakePool()
            batcher = MicroBatcher(pool, max_batch=8)
            first = asyncio.ensure_future(
                batcher.submit(_shape_payload(4, 100)))
            await asyncio.sleep(0)
            assert len(pool.batches) == 1  # capacity 1: in flight
            # The older, different-shape victim...
            victim = asyncio.ensure_future(
                batcher.submit(_shape_payload(8, 100)))
            # ...then a hot same-shape stream arrives behind it.
            hot = [asyncio.ensure_future(
                batcher.submit(_shape_payload(4, 100 + i)))
                for i in range(4)]
            await asyncio.sleep(0)
            assert batcher.pending() == 5
            await pool.complete_next()  # finish batch 1 → one flush decision
            # The victim's key flushed next, alone — not the hot key.
            assert [p["params"]["n_procs"]
                    for p in pool.batches[1][0]] == [8]
            await pool.complete_next()
            assert [p["params"]["n_procs"]
                    for p in pool.batches[2][0]] == [4, 4, 4, 4]
            await pool.complete_next()
            await asyncio.gather(first, victim, *hot)

        asyncio.run(scenario())

    def test_latency_critical_key_flushes_first(self):
        """Criticality only reorders the contended flush: a queued
        latency-critical request pulls its key's batch ahead of an older
        untagged key."""

        async def scenario():
            pool = _FakePool()
            batcher = MicroBatcher(pool, max_batch=8)
            first = asyncio.ensure_future(
                batcher.submit(_shape_payload(4, 100)))
            await asyncio.sleep(0)
            older = asyncio.ensure_future(
                batcher.submit(_shape_payload(8, 100)))
            crit = asyncio.ensure_future(
                batcher.submit(_shape_payload(16, 100),
                               criticality="latency_critical"))
            await asyncio.sleep(0)
            await pool.complete_next()
            # The critical request's key wins the contended flush...
            assert [p["params"]["n_procs"]
                    for p in pool.batches[1][0]] == [16]
            await pool.complete_next()
            # ...and the older key follows (reordered, never starved).
            assert [p["params"]["n_procs"]
                    for p in pool.batches[2][0]] == [8]
            await pool.complete_next()
            await asyncio.gather(first, older, crit)

        asyncio.run(scenario())

    def test_untagged_flush_order_is_arrival_order(self):
        """With no tags every rank ties, so the (rank, seq) lead pick is
        exactly the seed FIFO behavior — key after key in arrival order."""

        async def scenario():
            pool = _FakePool()
            batcher = MicroBatcher(pool, max_batch=8)
            tasks = [asyncio.ensure_future(batcher.submit(p)) for p in (
                _shape_payload(4, 100), _shape_payload(8, 100),
                _shape_payload(16, 100), _shape_payload(8, 110))]
            await asyncio.sleep(0)
            order = []
            while batcher.pending() or batcher.inflight_batches():
                order.append([p["params"]["n_procs"]
                              for p in pool.batches[-1][0]])
                await pool.complete_next()
            await asyncio.gather(*tasks)
            assert order == [[4], [8, 8], [16]]

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# Service integration: streaming + backpressure survive batching


class TestBatchedService:
    def test_streamed_responses_with_batching_and_faults(self, pool):
        async def scenario():
            service = SimulationService(pool=pool, max_inflight=4,
                                        max_batch=3, cache_size=0)
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": f"r{i}", "tenant": "t", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=100 + 25 * (i % 2))}
                for i in range(8)
            ]
            requests.append({"id": "flt", "system": "cfm",
                             "params": dict(CFM_PARAMS),
                             "inject": dict(DEAD_BANK_INJECT)})
            for req in requests:
                writer.write((json.dumps(req) + "\n").encode())
            await writer.drain()
            writer.write_eof()
            responses = {}
            while len(responses) < len(requests):
                line = await reader.readline()
                assert line, "connection closed early"
                resp = json.loads(line)
                responses[resp["id"]] = resp
            writer.close()
            server.close()
            await server.wait_closed()
            return service, responses

        service, responses = asyncio.run(scenario())
        assert all(responses[f"r{i}"]["ok"] for i in range(8))
        flt = responses["flt"]
        assert flt["ok"] is False and flt["error"]["typed"]
        assert service.peak_inflight <= 4
        snap = service.metrics_snapshot()
        assert snap["service"]["serve.batch.size"]["max"] <= 3
        assert snap["batch"]["pending"] == 0

    def test_drain_waits_for_inflight_work(self, pool):
        async def scenario():
            service = SimulationService(pool=pool, max_inflight=8,
                                        max_batch=4, cache_size=0)
            tasks = [asyncio.ensure_future(service.process(
                {"id": f"d{i}", "system": "cfm",
                 "params": dict(CFM_PARAMS)})) for i in range(6)]
            await asyncio.sleep(0)  # let the tasks submit to the batcher
            await service.drain()
            assert service.closing is True
            assert all(t.done() for t in tasks), "drain returned early"
            return [t.result() for t in tasks]

        results = asyncio.run(scenario())
        assert all(r["ok"] for r in results)


# --------------------------------------------------------------------------
# Graceful shutdown (subprocess: the full `repro serve` surface)


class TestGracefulShutdown:
    def test_sigterm_drains_flushes_metrics_and_exits_clean(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        cwd = os.path.dirname(os.path.dirname(__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--shards", "1",
             "--max-batch", "4", "--cache-size", "8"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )
        try:
            announce = proc.stderr.readline()
            assert "serving JSONL+HTTP on " in announce, announce
            hostport = announce.split("serving JSONL+HTTP on ", 1)[1].split()[0]
            host, _, port = hostport.rpartition(":")

            async def drive():
                reader, writer = await asyncio.open_connection(
                    host, int(port))
                for i in range(3):
                    req = {"id": f"s{i}", "system": "cfm",
                           "params": dict(CFM_PARAMS, cycles=100 + 50 * i)}
                    writer.write((json.dumps(req) + "\n").encode())
                await writer.drain()
                responses = []
                while len(responses) < 3:
                    line = await asyncio.wait_for(reader.readline(),
                                                  timeout=60)
                    assert line, "connection closed early"
                    responses.append(json.loads(line))
                # A repeat of s0 after its result is cached → one hit
                # (sent separately so it can't ride s0's batch instead).
                writer.write((json.dumps(
                    {"id": "s3", "system": "cfm",
                     "params": dict(CFM_PARAMS, cycles=100)}) + "\n").encode())
                await writer.drain()
                writer.write_eof()
                line = await asyncio.wait_for(reader.readline(), timeout=60)
                assert line, "connection closed early"
                responses.append(json.loads(line))
                writer.close()
                return responses

            responses = asyncio.run(drive())
            assert all(r["ok"] for r in responses)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        stderr = proc.stderr.read()
        assert proc.returncode == 0, (proc.returncode, stderr)
        assert "draining in-flight requests" in stderr, stderr
        assert "final metrics: " in stderr, stderr
        final = json.loads(stderr.split("final metrics: ", 1)[1]
                           .splitlines()[0])
        assert final["service"]["serve.requests"]["counts"]["total"] == 4
        assert final["cache"]["hits"] == 1  # the duplicate hit
        assert "Traceback" not in stderr, stderr
        assert "BrokenProcessPool" not in stderr, stderr

    def test_sigint_also_exits_clean(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        cwd = os.path.dirname(os.path.dirname(__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--shards", "1"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )
        try:
            announce = proc.stderr.readline()
            assert "serving JSONL+HTTP on " in announce, announce
            time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        stderr = proc.stderr.read()
        assert proc.returncode == 0, (proc.returncode, stderr)
        assert "final metrics: " in stderr, stderr
        assert "Traceback" not in stderr, stderr
