"""The serving layer's contract, end to end.

Pinned here (mirrors the invariants listed in ``repro/serve/__init__.py``):

1. **Bit-identity** — a report served through the sharded pool equals
   :func:`repro.obs.bench.run_spec` run serially, after a JSON round-trip
   (what actually crosses the wire).
2. **Typed faults are responses** — a faulted request returns
   ``ok=False`` with a typed error payload, and the worker that served it
   answers the next request.
3. **Backpressure** — in-flight depth never exceeds ``max_inflight``.
4. **Deterministic routing** — shard assignment is a pure function of the
   spec's shape, and warm-shape ownership partitions the shape set.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal

import pytest

from repro.serve import (
    DEFAULT_WARM_SHAPES,
    RequestError,
    ShardedWorkerPool,
    SimulationService,
    owned_shapes,
    serve_worker,
    shape_of,
    shard_for,
    shard_for_shape,
    validate_request,
)

CFM_PARAMS = {"n_procs": 4, "bank_cycle": 1, "cycles": 200}
DEAD_BANK_INJECT = {
    # (4,1) has no b-1 schedule: bank death must surface DegradedModeError.
    "events": [{"kind": "bank_dead", "start": 3, "duration": 1, "target": 1,
                "extra": 0}],
}


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


# --------------------------------------------------------------------------
# Validation


class TestValidateRequest:
    def test_minimal_request_fills_defaults(self):
        req = validate_request({"id": 7, "system": "cfm",
                                "params": dict(CFM_PARAMS)})
        assert req.id == "7"
        assert req.tenant == "anonymous"
        assert req.spec == {"system": "cfm", "params": CFM_PARAMS}

    def test_missing_id_uses_default(self):
        req = validate_request({"system": "cfm", "params": dict(CFM_PARAMS)},
                               default_id="req-9")
        assert req.id == "req-9"

    @pytest.mark.parametrize("bad, fragment", [
        ({"id": "x", "system": "no_such"}, "unknown system"),
        ({"id": "x", "system": "cfm", "params": {"frob": 1}}, "unknown param"),
        ({"id": "x", "system": "cfm", "params": {"probe": 1}}, "cannot be served"),
        ({"id": "x", "system": "cfm", "params": {"n_procs": [4]}}, "JSON scalar"),
        ({"id": "x", "system": "cfm", "params": dict(CFM_PARAMS),
          "extra_field": 1}, "unknown request field"),
        ({"id": "x", "system": "cfm", "tenant": ""}, "tenant"),
        ({"id": "x", "system": "cache",
          "inject": {"kinds": ["bank_stuck"]}}, "only served for system 'cfm'"),
        ({"id": "x", "system": "cfm",
          "inject": {"kinds": ["not_a_kind"]}}, "inject.kinds"),
        ({"id": "x", "system": "cfm",
          "inject": {"events": [{"kind": "bad_kind"}]}}, "unknown fault kind"),
        # Event fields are true ints: no str, list, float or bool coercion.
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_stuck", "target": "x"}]}}, "target must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_stuck", "target": [1]}]}}, "target must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_slow", "start": 1.5}]}}, "start must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_slow", "duration": True}]}},
         "duration must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_slow", "extra": "2"}]}}, "extra must be an int"),
        ({"id": "x", "system": "cfm", "inject": {
            "events": [{"kind": "bank_stuck"}], "seed": True}},
         "seed must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"rounds": True}},
         "rounds must be an int"),
        ({"id": "x", "system": "cfm", "inject": {"n_events": True}},
         "n_events must be an int"),
        # The fault window is checked where a worker would check it.
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_stuck", "start": -1}]}}, "fault window"),
        ({"id": "x", "system": "cfm", "inject": {"events": [
            {"kind": "bank_stuck", "duration": 0}]}}, "fault window"),
        ("just a string", "JSON object"),
    ])
    def test_rejects_malformed(self, bad, fragment):
        with pytest.raises(RequestError, match=fragment):
            validate_request(bad)

    def test_inject_validates_and_normalizes(self):
        req = validate_request({
            "id": "x", "system": "cfm", "params": dict(CFM_PARAMS),
            "inject": dict(DEAD_BANK_INJECT),
        })
        (event,) = req.inject["events"]
        assert event == {"kind": "bank_dead", "target": 1, "start": 3,
                         "duration": 1, "extra": 0}
        assert req.payload["inject"]["seed"] == 0


# --------------------------------------------------------------------------
# Shard routing


class TestShardRouting:
    def test_routing_is_deterministic_and_in_range(self):
        for n_shards in (1, 2, 4, 7):
            for shape in DEFAULT_WARM_SHAPES:
                s = shard_for_shape(shape, n_shards)
                assert 0 <= s < n_shards
                assert s == shard_for_shape(shape, n_shards)

    def test_shapes_spread_across_shards(self):
        owners = {shard_for_shape(s, 4) for s in DEFAULT_WARM_SHAPES}
        assert len(owners) >= 2  # the working set is not all on one worker

    def test_owned_shapes_partition_the_working_set(self):
        n_shards = 3
        owned = [owned_shapes(i, n_shards, DEFAULT_WARM_SHAPES)
                 for i in range(n_shards)]
        flat = [s for shapes in owned for s in shapes]
        assert sorted(flat) == sorted(DEFAULT_WARM_SHAPES)

    def test_shape_of_knows_the_table_keys(self):
        assert shape_of("cfm", {"n_procs": 8, "bank_cycle": 2}) == (16, 2)
        assert shape_of("cache", {"n_procs": 4}) == (4, 1)
        assert shape_of("hierarchy",
                        {"n_clusters": 2, "procs_per_cluster": 4,
                         "bank_cycle": 2}) == (8, 2)
        assert shape_of("sync_omega", {"n_ports": 8}) == (8, 1)
        assert shape_of("interleaved", {"n_procs": 8, "seed": 3}) is None

    def test_same_shape_same_shard_regardless_of_system(self):
        a = shard_for("cfm", {"n_procs": 8, "bank_cycle": 2}, 4)
        b = shard_for("cache", {"n_procs": 8, "bank_cycle": 2}, 4)
        assert a == b  # both route by the (16, 2) table key


# --------------------------------------------------------------------------
# Warm tables


class TestWarmTables:
    def test_warm_builds_every_table(self):
        from repro.fastpath.tables import warm_tables

        assert warm_tables([(4, 1), (8, 2)]) >= 6

    def test_bad_shape_raises_at_warm_time(self):
        from repro.fastpath.tables import warm_tables

        with pytest.raises(ValueError):
            warm_tables([(8, 3)])  # 8 % 3 != 0


# --------------------------------------------------------------------------
# Worker function (in-process: the failures-as-data boundary)


class TestServeWorker:
    def test_ok_report_matches_run_spec(self):
        from repro.obs.bench import run_spec

        result = serve_worker({"system": "cfm", "params": dict(CFM_PARAMS)})
        assert result["ok"] is True
        ref = run_spec({"system": "cfm", "params": dict(CFM_PARAMS)})
        assert _normalized(result["report"]) == _normalized(ref)
        assert result["wall_ms"] > 0

    def test_injected_dead_bank_is_a_typed_error(self):
        result = serve_worker({"system": "cfm", "params": dict(CFM_PARAMS),
                               "inject": dict(DEAD_BANK_INJECT, seed=0,
                                              rounds=2)})
        assert result["ok"] is False
        assert result["error"]["typed"] is True
        assert result["error"]["type"] == "DegradedModeError"

    def test_unknown_system_is_untyped_error_not_raise(self):
        result = serve_worker({"system": "no_such", "params": {}})
        assert result["ok"] is False
        assert result["error"]["typed"] is False
        assert "no_such" in result["error"]["message"]


# --------------------------------------------------------------------------
# Pool + service (shared pool: forked workers are the expensive part)


@pytest.fixture(scope="module")
def pool():
    with ShardedWorkerPool(n_shards=2) as p:
        yield p


def _run(pool, payload):
    """One payload as a batch of one on its own shard; blocks for it."""
    shard = pool.shard_of(payload["system"], payload["params"])
    return pool.submit([payload], shard).result()[0]


class TestShardedWorkerPool:
    def test_submit_bit_identical_to_serial(self, pool):
        from repro.obs.bench import run_spec

        spec = {"system": "cache", "params": {"n_procs": 4, "rounds": 2}}
        result = _run(pool, dict(spec))
        assert result["ok"] is True
        assert _normalized(result["report"]) == _normalized(run_spec(spec))

    def test_fault_does_not_kill_the_worker(self, pool):
        shard = pool.shard_of("cfm", CFM_PARAMS)
        faulted = _run(pool, {"system": "cfm", "params": dict(CFM_PARAMS),
                              "inject": dict(DEAD_BANK_INJECT)})
        assert faulted["ok"] is False and faulted["error"]["typed"]
        after = _run(pool, {"system": "cfm", "params": dict(CFM_PARAMS)})
        assert after["ok"] is True
        assert after["pid"] == faulted["pid"]  # same worker, still alive
        assert pool.shard_of("cfm", CFM_PARAMS) == shard

    def test_warm_shard_serves_from_hot_tables(self, pool):
        # Repeat of a warm shape: the second request must add no misses.
        spec = {"system": "cfm", "params": dict(CFM_PARAMS)}
        _run(pool, dict(spec))
        again = _run(pool, dict(spec))
        assert again["tables"]["misses"] == 0

    def test_dispatch_counters(self, pool):
        before = list(pool.dispatched)
        shard = pool.shard_of("cfm", CFM_PARAMS)
        _run(pool, {"system": "cfm", "params": dict(CFM_PARAMS)})
        assert pool.dispatched[shard] == before[shard] + 1


class TestSimulationService:
    def test_streaming_tcp_roundtrip_with_faults_and_metrics(self, pool):
        async def scenario():
            service = SimulationService(pool=pool, max_inflight=3)
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": f"r{i}", "tenant": f"t{i % 2}", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=150 + i)}
                for i in range(6)
            ]
            requests.append({"id": "bad", "system": "no_such"})
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
        assert all(responses[f"r{i}"]["ok"] for i in range(6))
        assert responses["bad"]["error"]["type"] == "RequestError"
        flt = responses["flt"]
        assert flt["ok"] is False and flt["error"]["typed"]
        assert flt["error"]["type"] == "DegradedModeError"
        # Backpressure: the reader never admitted more than max_inflight.
        assert service.peak_inflight <= 3
        snap = service.metrics_snapshot()
        assert snap["service"]["serve.requests"]["counts"]["total"] == 7
        assert snap["service"]["serve.requests"]["counts"]["rejected"] == 1
        assert {"t0", "t1"} <= set(snap["tenants"])
        t0 = snap["tenants"]["t0"]["requests"]["counts"]
        assert t0["total"] == t0["ok"] == 3

    def test_http_run_metrics_health_and_404(self, pool):
        async def scenario():
            service = SimulationService(pool=pool, max_inflight=4)
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            async def http(method, path, body=None):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                if body is not None:
                    head += f"Content-Length: {len(body)}\r\n"
                writer.write(head.encode() + b"\r\n" + (body or b""))
                await writer.drain()
                data = await reader.read()
                writer.close()
                status = int(data.split(b" ", 2)[1])
                return status, json.loads(data.partition(b"\r\n\r\n")[2])

            body = json.dumps({"id": "h", "system": "cache",
                               "params": {"n_procs": 4, "rounds": 2}}).encode()
            run = await http("POST", "/run", body)
            health = await http("GET", "/healthz")
            metrics = await http("GET", "/metrics")
            missing = await http("GET", "/nope")
            bad = await http("POST", "/run",
                             json.dumps({"id": "x", "system": "no_such"})
                             .encode())
            server.close()
            await server.wait_closed()
            return run, health, metrics, missing, bad

        run, health, metrics, missing, bad = asyncio.run(scenario())
        assert run[0] == 200 and run[1]["ok"] and run[1]["id"] == "h"
        assert health == (200, {"ok": True})
        assert metrics[0] == 200 and "service" in metrics[1]
        assert missing[0] == 404
        assert bad[0] == 422 and bad[1]["error"]["type"] == "RequestError"

    @pytest.mark.parametrize("bad, fragment", [
        # Each of these used to pass validation and come back from a
        # worker round trip as an untyped TypeError/ValueError.
        ({"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 1}},
         "missing required param.*cycles"),
        ({"system": "cfm", "params": dict(CFM_PARAMS, engine="turbo")},
         "unknown engine 'turbo'"),
        ({"system": "cache",
          "params": {"n_procs": 4, "rounds": 2, "engine": "stacked"}},
         "supported layers: cfm"),
        ({"system": "hierarchy",
          "params": {"n_clusters": 2, "procs_per_cluster": 2, "rounds": 2,
                     "engine": "stacked"}},
         "supported layers: cfm"),
    ], ids=["missing_arg", "unknown_engine", "stacked_cache",
            "stacked_hierarchy"])
    def test_unrunnable_params_rejected_before_dispatch(self, pool, bad,
                                                        fragment):
        assert serve_worker(dict(bad))["error"]["typed"] is False
        before = (list(pool.dispatched), list(pool.batches))
        resp = asyncio.run(SimulationService(pool=pool).process(
            dict(bad, id="bad")))
        assert resp["ok"] is False
        assert resp["error"]["type"] == "RequestError"
        assert re.search(fragment, resp["error"]["message"])
        assert (list(pool.dispatched), list(pool.batches)) == before

    def test_control_ops_and_bad_json(self, pool):
        async def scenario():
            service = SimulationService(pool=pool, max_inflight=2)
            ping = await service.process({"op": "ping", "id": "p"})
            bad_op = await service.process({"op": "frobnicate"})
            bad_json = await service.handle_line("{not json")
            return ping, bad_op, bad_json

        ping, bad_op, bad_json = asyncio.run(scenario())
        assert ping == {"id": "p", "ok": True, "op": "ping"}
        assert bad_op["ok"] is False and "unknown op" in (
            bad_op["error"]["message"])
        assert bad_json["ok"] is False
        assert "not valid JSON" in bad_json["error"]["message"]

    def test_malformed_inject_event_is_a_typed_response(self, pool):
        """A bad inject event is answered with a typed error and counted as
        rejected, never raised out of ``handle_line``."""
        line = json.dumps({"id": "bad-ev", "system": "cfm",
                           "params": dict(CFM_PARAMS),
                           "inject": {"events": [{"kind": "bank_stuck",
                                                  "target": "x"}]}})
        before = list(pool.dispatched)
        service = SimulationService(pool=pool)
        resp = asyncio.run(service.handle_line(line))
        assert resp["ok"] is False and resp["id"] == "bad-ev"
        assert resp["error"]["type"] == "RequestError"
        assert resp["error"]["typed"]
        counts = service.metrics_snapshot()["service"]["serve.requests"][
            "counts"]
        assert counts["rejected"] == 1
        assert list(pool.dispatched) == before


# --------------------------------------------------------------------------
# Worker death: a killed worker costs its batch a typed error, not its shard


class TestWorkerDeath:
    def test_sigkill_mid_batch_is_typed_and_the_shard_recovers(self):
        """SIGKILL shard k's worker while it runs a batch: every request of
        that batch gets the typed ``BrokenProcessPool`` error, the other
        shard keeps serving, the next request to shard k runs on a new
        worker, and the drain barrier still completes."""
        long_params = dict(CFM_PARAMS, cycles=500_000)  # seconds of work
        other_params = {"n_procs": 4, "bank_cycle": 2, "cycles": 200}

        def request(rid, params):
            return {"id": rid, "system": "cfm", "params": dict(params)}

        async def scenario(pool):
            service = SimulationService(pool=pool, max_inflight=16,
                                        max_batch=4, cache_size=0)
            assert (pool.shard_of("cfm", CFM_PARAMS)
                    != pool.shard_of("cfm", other_params))
            first = await service.process(request("first", CFM_PARAMS))
            victim_pid = first["worker"]["pid"]
            # A short lead batch occupies the worker while three long
            # requests queue behind it; they flush as one batch the moment
            # the lead completes.
            lead = asyncio.ensure_future(service.process(
                request("lead", dict(CFM_PARAMS, cycles=2000))))
            victims = [asyncio.ensure_future(service.process(request(
                f"v{i}", dict(long_params, cycles=500_000 + i))))
                for i in range(3)]
            assert (await lead)["ok"]
            others = [asyncio.ensure_future(service.process(request(
                f"o{i}", dict(other_params, cycles=200 + i))))
                for i in range(3)]
            await asyncio.sleep(0.5)  # the victims' batch is running
            os.kill(victim_pid, signal.SIGKILL)
            killed = await asyncio.wait_for(asyncio.gather(*victims), 10)
            survived = await asyncio.wait_for(asyncio.gather(*others), 30)
            after = await asyncio.wait_for(
                service.process(request("after", CFM_PARAMS)), 30)
            await asyncio.wait_for(service.drain(), 10)
            return victim_pid, killed, survived, after

        with ShardedWorkerPool(n_shards=2) as pool:
            victim_pid, killed, survived, after = asyncio.run(scenario(pool))
        for response in killed:
            assert response["ok"] is False, response
            assert response["error"]["type"] == "BrokenProcessPool"
            assert response["error"]["typed"] is True
            assert response["error"]["kind"] == "worker"
        assert all(r["ok"] for r in survived), survived
        assert after["ok"] is True, after
        assert after["worker"]["pid"] != victim_pid
        # The replacement worker was warmed before it served.
        assert after["worker"]["tables"]["misses"] == 0


# --------------------------------------------------------------------------
# Framing: long lines and broken HTTP requests get answers, not silence


async def _with_server(pool, client):
    """Run ``client(port)`` against a fresh service; returns its result and
    every context that reached the loop's exception handler."""
    loop = asyncio.get_running_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
    server = await SimulationService(pool=pool).start("127.0.0.1", 0)
    try:
        result = await client(server.sockets[0].getsockname()[1])
        await asyncio.sleep(0.05)  # let the connection handler finish
    finally:
        server.close()
        await server.wait_closed()
    return result, unhandled


class TestFraming:
    def test_long_line_within_limit_and_the_next_are_answered(self, pool):
        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            big = {"op": "ping", "id": "big", "pad": "x" * (100 << 10)}
            writer.write((json.dumps(big) + "\n").encode())
            writer.write(b'{"op": "ping", "id": "small"}\n')
            await writer.drain()
            lines = [await asyncio.wait_for(reader.readline(), 10)
                     for _ in range(2)]
            writer.close()
            return [json.loads(line) for line in lines]

        responses, unhandled = asyncio.run(_with_server(pool, client))
        assert sorted(r["id"] for r in responses) == ["big", "small"]
        assert all(r["ok"] for r in responses)
        assert unhandled == []

    def test_line_over_limit_gets_request_error(self, pool):
        from repro.serve.service import MAX_REQUEST_BYTES

        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            huge = {"op": "ping", "id": "huge",
                    "pad": "x" * (MAX_REQUEST_BYTES + 10)}
            writer.write((json.dumps(huge) + "\n").encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 10)
            eof = await asyncio.wait_for(reader.readline(), 10)
            writer.close()
            return json.loads(line), eof

        (response, eof), unhandled = asyncio.run(_with_server(pool, client))
        assert response["ok"] is False
        assert response["error"]["type"] == "RequestError"
        assert "exceeds" in response["error"]["message"]
        assert eof == b""  # answered, then closed
        assert unhandled == []

    @pytest.mark.parametrize("raw", [
        b"POST /run HTTP/1.1\r\nContent-Length: 500\r\n\r\n0123456789",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 21) + b"\r\n\r\n",
    ], ids=["truncated_body", "header_over_limit"])
    def test_broken_http_request_gets_400(self, pool, raw):
        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw)
            writer.write_eof()
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return data

        data, unhandled = asyncio.run(_with_server(pool, client))
        assert data.startswith(b"HTTP/1.1 400 "), data[:80]
        assert unhandled == []


# --------------------------------------------------------------------------
# CLI stdio mode (subprocess: the full `repro serve` surface)


class TestServeCli:
    def test_stdio_roundtrip(self, tmp_path):
        import os
        import subprocess
        import sys as _sys

        requests = "\n".join([
            json.dumps({"id": "a", "system": "cfm",
                        "params": dict(CFM_PARAMS)}),
            json.dumps({"id": "b", "system": "no_such"}),
        ]) + "\n"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "serve", "--stdio",
             "--shards", "1", "--warm", "4x1"],
            input=requests, capture_output=True, text=True, timeout=120,
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert proc.returncode == 0, proc.stderr
        responses = {json.loads(line)["id"]: json.loads(line)
                     for line in proc.stdout.splitlines()}
        assert responses["a"]["ok"] is True
        assert responses["b"]["error"]["type"] == "RequestError"
        assert "served 2 request(s)" in proc.stderr
