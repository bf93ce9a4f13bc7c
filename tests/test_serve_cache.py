"""Result-cache correctness: the content-addressed serving cache.

The serving cache's contract (``repro.serve.cache`` + service wiring):

1. **Hit ≡ fresh run** — a cache hit's report is bit-identical (post JSON
   round-trip) to :func:`repro.obs.bench.run_spec` run serially, across
   every engine the client can pin, and a hit's wire line is pinned byte
   for byte;
2. **Eviction is deterministic** — bounded LRU, least-recently-used out
   first, refreshed by hits;
3. **Fault-injected, failed, and malformed requests never populate it**;
4. **Accounting closes** — per-tenant cache hit+miss sums to the tenant's
   dispatched request count.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import (
    ResultCache,
    ShardedWorkerPool,
    SimulationService,
    cacheable,
    canonical_payload,
    payload_key,
)

CFM_PARAMS = {"n_procs": 4, "bank_cycle": 1, "cycles": 200}
DEAD_BANK_INJECT = {
    "events": [{"kind": "bank_dead", "start": 3, "duration": 1, "target": 1,
                "extra": 0}],
}


def _normalized(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.fixture(scope="module")
def pool():
    with ShardedWorkerPool(n_shards=2) as p:
        yield p


def _service(pool, **kwargs):
    kwargs.setdefault("max_inflight", 8)
    return SimulationService(pool=pool, **kwargs)


# --------------------------------------------------------------------------
# Content addressing


class TestContentAddressing:
    def test_canonical_is_field_order_independent(self):
        a = {"system": "cfm", "params": {"n_procs": 4, "cycles": 100}}
        b = {"params": {"cycles": 100, "n_procs": 4}, "system": "cfm"}
        assert canonical_payload(a) == canonical_payload(b)
        assert payload_key(a) == payload_key(b)

    def test_distinct_specs_distinct_keys(self):
        base = {"system": "cfm", "params": dict(CFM_PARAMS)}
        other = {"system": "cfm", "params": dict(CFM_PARAMS, cycles=201)}
        engine = {"system": "cfm",
                  "params": dict(CFM_PARAMS, engine="reference")}
        keys = {payload_key(base), payload_key(other), payload_key(engine)}
        assert len(keys) == 3  # params — engine included — select the entry

    def test_inject_is_never_cacheable(self):
        assert cacheable({"system": "cfm", "params": dict(CFM_PARAMS)})
        assert not cacheable({"system": "cfm", "params": dict(CFM_PARAMS),
                              "inject": dict(DEAD_BANK_INJECT)})


# --------------------------------------------------------------------------
# LRU mechanics (no pool needed)


class TestResultCacheLRU:
    """Entries are a report's wire text; the cache never parses them."""

    def test_hit_miss_counters_and_roundtrip(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k1") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k1", '{"value": [1, 2, 3]}')
        assert cache.get("k1") == '{"value": [1, 2, 3]}'
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_returns_the_stored_text_unchanged(self):
        cache = ResultCache(max_entries=4)
        text = '{"nested": {"list": [1, 2]}}'
        cache.put("k", text)
        # A str is immutable: no caller can change the entry in place.
        assert cache.get("k") is text
        assert cache.get("k") == '{"nested": {"list": [1, 2]}}'

    def test_eviction_is_deterministic_lru(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", '{"r": "a"}')
        cache.put("b", '{"r": "b"}')
        assert cache.put("c", '{"r": "c"}') == 1  # a (oldest) evicted
        assert cache.get("a") is None
        assert cache.get("b") == '{"r": "b"}'  # refreshes b over c
        assert cache.put("d", '{"r": "d"}') == 1  # c evicted, not b
        assert cache.get("c") is None
        assert cache.get("b") == '{"r": "b"}'
        assert cache.evictions == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", '{"r": 1}')
        cache.put("b", '{"r": 2}')
        cache.put("a", '{"r": 3}')  # rewrite refreshes a
        cache.put("c", '{"r": 4}')  # b is now LRU
        assert cache.get("b") is None
        assert cache.get("a") == '{"r": 3}'

    def test_zero_entries_disables_the_cache(self):
        cache = ResultCache(max_entries=0)
        assert cache.put("k", '{"r": 1}') == 0
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=-1)

    def test_stats_document(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", '{"r": 1}')
        cache.get("a")
        cache.get("zzz")
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "entries": 1, "max_entries": 2}


# --------------------------------------------------------------------------
# Service-level: hit ≡ fresh bit-identity, across engines


class TestCacheHitIdentity:
    @pytest.mark.parametrize("engine", [None, "reference", "batch",
                                        "vectorized"])
    def test_hit_bit_identical_to_fresh_run(self, pool, engine):
        from repro.obs.bench import run_spec

        params = dict(CFM_PARAMS)
        if engine is not None:
            params["engine"] = engine

        async def scenario():
            service = _service(pool, cache_size=16)
            request = {"id": "a", "system": "cfm", "params": dict(params)}
            fresh = await service.process(dict(request))
            hit = await service.process(dict(request, id="b"))
            return service, fresh, hit

        service, fresh, hit = asyncio.run(scenario())
        assert fresh["ok"] and "cached" not in fresh
        assert hit["ok"] and hit["cached"] is True
        serial = run_spec({"system": "cfm", "params": dict(params)})
        assert _normalized(hit["report"]) == _normalized(serial)
        assert _normalized(hit["report"]) == _normalized(fresh["report"])
        # Byte-identity on the wire: the serialized reports are equal.
        assert (json.dumps(hit["report"], sort_keys=True)
                == json.dumps(serial, sort_keys=True))
        assert service.cache.hits == 1

    def test_eviction_determinism_at_tiny_cache_size(self, pool):
        async def scenario():
            service = _service(pool, cache_size=1)
            a = {"id": "a", "system": "cfm", "params": dict(CFM_PARAMS)}
            b = {"id": "b", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=150)}
            await service.process(dict(a))       # cache: {a}
            await service.process(dict(b))       # evicts a; cache: {b}
            r_a = await service.process(dict(a))  # miss — was evicted
            r_b = await service.process(dict(b))  # miss — a's rerun evicted b
            return service, r_a, r_b

        service, r_a, r_b = asyncio.run(scenario())
        assert "cached" not in r_a and "cached" not in r_b
        assert service.cache.evictions == 3
        assert service.cache.hits == 0
        assert len(service.cache) == 1


# --------------------------------------------------------------------------
# What never enters the cache


class TestCachePopulationGates:
    def test_fault_injected_requests_never_populate(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            faulted = {"id": "f", "system": "cfm",
                       "params": dict(CFM_PARAMS),
                       "inject": dict(DEAD_BANK_INJECT)}
            first = await service.process(dict(faulted))
            second = await service.process(dict(faulted, id="g"))
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first["ok"] is False and first["error"]["typed"]
        assert second["ok"] is False and "cached" not in second
        assert len(service.cache) == 0
        assert service.cache.hits == service.cache.misses == 0

    def test_malformed_requests_never_populate(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            bad = await service.process({"id": "x", "system": "cfm",
                                         "params": {"frobnicate": 1}})
            worse = await service.handle_line("{not json")
            return service, bad, worse

        service, bad, worse = asyncio.run(scenario())
        assert bad["error"]["type"] == "RequestError"
        assert worse["error"]["type"] == "RequestError"
        assert len(service.cache) == 0

    def test_failed_results_never_populate(self, pool):
        """Any non-ok worker outcome — SimulationTimeout included — must
        not enter the cache; only completed reports do."""
        async def scenario():
            service = _service(pool, cache_size=16)

            async def timed_out(payload, shard=None):
                return {"ok": False, "error": {
                    "type": "SimulationTimeout", "message": "stuck",
                    "typed": True, "kind": None, "slot": 7,
                }, "wall_ms": 1.0}

            service.batcher.submit = timed_out
            response = await service.process(
                {"id": "t", "system": "cfm", "params": dict(CFM_PARAMS)})
            return service, response

        service, response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == "SimulationTimeout"
        assert len(service.cache) == 0


# --------------------------------------------------------------------------
# Accounting


class TestCacheAccounting:
    def test_tenant_hit_miss_sums_to_request_count(self, pool):
        async def scenario():
            service = _service(pool, cache_size=16)
            requests = []
            for i in range(9):  # 3 distinct specs, repeated 3x, 2 tenants
                requests.append({
                    "id": f"r{i}", "tenant": f"t{i % 2}", "system": "cfm",
                    "params": dict(CFM_PARAMS, cycles=100 + 50 * (i % 3)),
                })
            requests.append({"id": "f", "tenant": "t0", "system": "cfm",
                             "params": dict(CFM_PARAMS),
                             "inject": dict(DEAD_BANK_INJECT)})
            responses = []
            for request in requests:  # serial: repeats must hit
                responses.append(await service.process(dict(request)))
            return service, responses

        service, responses = asyncio.run(scenario())
        snap = service.metrics_snapshot()
        total_requests = 0
        total_cache_events = 0
        tenants = {name[:-len(".requests")] for name in snap["service"]
                   if name.startswith("tenant[")
                   and name.endswith(".requests")}
        assert tenants == {"tenant[t0]", "tenant[t1]"}
        for tenant in tenants:
            treq = snap["service"][f"{tenant}.requests"]["counts"]
            tcache = snap["service"][f"{tenant}.cache"]["counts"]
            assert (tcache.get("hit", 0) + tcache.get("miss", 0)
                    == treq["total"]), (tenant, tcache, treq)
            total_requests += treq["total"]
            total_cache_events += tcache.get("hit", 0) + tcache.get("miss", 0)
        assert total_requests == len(responses) == 10
        assert total_cache_events == 10
        svc_cache = snap["service"]["serve.cache"]["counts"]
        assert svc_cache["hits"] + svc_cache["misses"] == 10
        # Serial repeats of 3 distinct specs: 6 hits; inject is a miss.
        assert svc_cache["hits"] == 6
        assert sum(1 for r in responses if r.get("cached")) == 6

    def test_metrics_snapshot_carries_cache_and_batch_blocks(self, pool):
        async def scenario():
            service = _service(pool, cache_size=4, max_batch=3)
            await service.process({"id": "a", "system": "cfm",
                                   "params": dict(CFM_PARAMS)})
            await service.process({"id": "b", "system": "cfm",
                                   "params": dict(CFM_PARAMS)})
            return service.metrics_snapshot()

        snap = asyncio.run(scenario())
        assert snap["cache"] == {"hits": 1, "misses": 1, "evictions": 0,
                                 "entries": 1, "max_entries": 4}
        assert snap["batch"]["max_batch"] == 3
        assert snap["batch"]["pending"] == 0
        assert snap["service"]["serve.batch.size"]["n"] == 1
        assert snap["service"]["serve.cache"]["counts"]["hits"] == 1


# --------------------------------------------------------------------------
# The wire: each report is encoded once, and a hit splices that text


#: Specs whose cache-hit lines are pinned: cfm at every Table 3.3 shape (4,1)
#: .. (32,8), one engine-pinned cfm spec, and one spec per coherence layer.
GOLDEN_SPECS = {
    "cfm-4x1": {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 1, "cycles": 200}},
    "cfm-8x2": {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 2, "cycles": 200}},
    "cfm-16x4": {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 4, "cycles": 200}},
    "cfm-32x8": {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 8, "cycles": 200}},
    "cfm-8x2-reference": {"system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": 2, "cycles": 200, "engine": "reference"}},
    "cache": {"system": "cache", "params": {
        "n_procs": 4, "rounds": 2, "seed": 1}},
    "hierarchy": {"system": "hierarchy", "params": {
        "n_clusters": 2, "procs_per_cluster": 2, "rounds": 2, "seed": 1}},
}

#: sha256 of each spec's JSONL cache-hit line (request id ``<name>-hit``,
#: tenant ``golden``, two shards), recorded when a hit still decoded the
#: stored report and re-encoded the whole response.  A hit's line is
#: deterministic: ``wall_ms`` is 0.0 and it carries no ``worker`` field.
GOLDEN_HIT_SHA256 = {
    "cfm-4x1":
        "aef93b88e06237827ad9b4d7a8ec8408a4a4d82c335ba6786a21177028d79ffa",
    "cfm-8x2":
        "7e205184aac75fe0454d160ea24991196de6ed779609a31fb68afe712350f9e1",
    "cfm-16x4":
        "eacd981626070de11751d4d3059e43fa04969441ba6cada3ee8d967f9c0a32e1",
    "cfm-32x8":
        "2ba46a6144042f988b36dee281f59873b9e5aaacca097e99de0c259baf795902",
    "cfm-8x2-reference":
        "ecb40cbc67fc7768b419ff668eeeb31727ebe87e8a63379fe871903cc5c8bb88",
    "cache":
        "150b65745364e0fa053c006f9cd10109bf1222ff4552845105b4aca9e6ce31cb",
    "hierarchy":
        "da866a1cc30dd8ce06711a5557cbd558a4806f56596e3f22f87aa76574b005d3",
}


def _line(request):
    return (json.dumps(request) + "\n").encode()


def _canonical_line(line):
    """The bytes ``json.dumps(response, sort_keys=True)`` gives for the
    response a wire line decodes to: what every line must equal."""
    return (json.dumps(json.loads(line), sort_keys=True) + "\n").encode()


async def _jsonl(service, lines):
    """Send each line over one TCP connection, awaiting its response
    before the next (so a repeated spec is a hit); returns the raw
    response lines."""
    server = await service.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 24)
    responses = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            responses.append(await asyncio.wait_for(reader.readline(), 60))
    finally:
        writer.close()
        await asyncio.sleep(0.05)  # let the connection handler return
        server.close()
        await server.wait_closed()
    return responses


def _string_keys_only(doc):
    if isinstance(doc, dict):
        return all(isinstance(k, str) and _string_keys_only(v)
                   for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        return all(_string_keys_only(v) for v in doc)
    return True


class _CountingJson:
    """Stands in for a module's ``json``: records every call's argument."""

    def __init__(self):
        self.loads_args = []
        self.dumps_args = []

    def loads(self, text, **kw):
        self.loads_args.append(text)
        return json.loads(text, **kw)

    def dumps(self, obj, **kw):
        self.dumps_args.append(obj)
        return json.dumps(obj, **kw)


class TestWireEncoding:
    def test_hit_lines_match_the_pinned_bytes(self, pool):
        import hashlib

        lines = []
        for name, spec in GOLDEN_SPECS.items():
            lines.append(_line({"id": f"{name}-miss", "tenant": "golden",
                                **spec}))
            lines.append(_line({"id": f"{name}-hit", "tenant": "golden",
                                **spec}))
        service = _service(pool, cache_size=16)
        responses = asyncio.run(_jsonl(service, lines))
        hits = dict(zip(GOLDEN_SPECS, responses[1::2]))
        for name, line in hits.items():
            assert json.loads(line)["cached"] is True, name
            assert (hashlib.sha256(line).hexdigest()
                    == GOLDEN_HIT_SHA256[name]), (name, line[:200])

    @pytest.mark.parametrize("spec", [
        *GOLDEN_SPECS.values(),
        *({"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 2,
                                       "cycles": 120, "engine": engine}}
          for engine in ("batch", "vectorized", "stacked")),
        {"system": "cache", "params": {"n_procs": 4, "rounds": 2,
                                       "workload": "private"}},
        {"system": "hierarchy", "params": {
            "n_clusters": 2, "procs_per_cluster": 2, "rounds": 2,
            "workload": "global"}},
    ], ids=lambda spec: f"{spec['system']}-"
                        f"{spec['params'].get('engine') or ''}"
                        f"{spec['params'].get('workload') or ''}")
    def test_reports_have_string_keys_only(self, spec):
        """Encoding a report once with sorted keys equals decoding its
        compact encoding and encoding that again only when every key is
        a string (an int key would sort numerically before and as text
        after)."""
        from repro.obs.bench import run_spec

        report = run_spec(spec)
        assert _string_keys_only(report)
        once = json.dumps(report, sort_keys=True)
        compact = json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert once == json.dumps(json.loads(compact), sort_keys=True)

    def test_every_jsonl_line_is_its_sorted_encoding(self, pool):
        spec = {"system": "cfm", "params": dict(CFM_PARAMS)}
        lines = [
            _line({"id": "miss", **spec}),
            _line({"id": "hit", **spec}),
            _line({"id": "faulted", **spec, "inject": {"events": [
                {"kind": "bank_stuck", "start": 3, "duration": 2,
                 "target": 1, "extra": 0}]}}),
            _line({"id": "dead", **spec, "inject": dict(DEAD_BANK_INJECT)}),
            _line({"id": "bad", "system": "cfm",
                   "params": {"frobnicate": 1}}),
            b"{not json\n",
            _line({"op": "ping", "id": "p"}),
            _line({"op": "metrics", "id": "m"}),
            _line({"op": "nope", "id": "n"}),
        ]
        service = _service(pool, cache_size=16)
        responses = asyncio.run(_jsonl(service, lines))
        docs = [json.loads(line) for line in responses]
        assert "worker" in docs[0] and docs[1]["cached"] is True
        assert docs[2]["ok"] is True and "report" in docs[2]  # uncacheable
        assert [d["ok"] for d in docs[3:6]] == [False] * 3
        assert docs[6]["op"] == "ping" and docs[7]["op"] == "metrics"
        for line in responses:
            assert line == _canonical_line(line), line[:200]

    @pytest.mark.parametrize("exc", ["BrokenProcessPool", "RuntimeError"])
    def test_pool_error_lines_are_their_sorted_encoding(self, pool, exc):
        from concurrent.futures.process import BrokenProcessPool

        service = _service(pool, cache_size=16)
        error = {"BrokenProcessPool": BrokenProcessPool,
                 "RuntimeError": RuntimeError}[exc]

        async def failing(payload, shard=None):
            raise error("the batch is lost")

        service.batcher.submit = failing
        (line,) = asyncio.run(_jsonl(service, [_line(
            {"id": "x", "system": "cfm", "params": dict(CFM_PARAMS)})]))
        assert json.loads(line)["error"]["type"] == exc
        assert line == _canonical_line(line)

    def test_stdio_lines_are_their_sorted_encoding(self, pool):
        import io

        spec = {"system": "cfm", "params": dict(CFM_PARAMS)}

        async def scenario():
            service = _service(pool, cache_size=16)
            await service.process({"id": "warm", **spec})
            requests = [json.dumps(r) for r in (
                {"id": "hit", **spec},
                {"id": "miss", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=150)},
                {"id": "bad", "system": "no_such"},
                {"op": "ping", "id": "p"},
            )]
            out = io.StringIO()
            served = await service.serve_stdio(
                io.StringIO("\n".join(requests) + "\n"), out)
            return served, out.getvalue()

        served, text = asyncio.run(scenario())
        lines = [line.encode() for line in text.splitlines(keepends=True)]
        assert served == len(lines) == 4
        by_id = {json.loads(line)["id"]: json.loads(line) for line in lines}
        assert by_id["hit"]["cached"] is True
        assert "worker" in by_id["miss"]
        for line in lines:
            assert line == _canonical_line(line), line[:200]

    def test_http_bodies_are_their_sorted_encoding(self, pool):
        spec = {"system": "cfm", "params": dict(CFM_PARAMS)}

        async def http(port, method, path, body=b""):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"{method} {path} HTTP/1.1\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n".encode()
                         + body)
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), 60)
            writer.close()
            head, _, payload = data.partition(b"\r\n\r\n")
            return head.split(b" ")[1], payload

        async def scenario():
            service = _service(pool, cache_size=16)
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                out = [await http(port, "POST", "/run", json.dumps(
                    {"id": rid, **spec}).encode()) for rid in ("a", "b")]
                out.append(await http(port, "POST", "/run",
                                      b'{"id": "c", "system": "no_such"}'))
                out.append(await http(port, "GET", "/metrics"))
                out.append(await http(port, "GET", "/healthz"))
                out.append(await http(port, "GET", "/nowhere"))
                await asyncio.sleep(0.05)
            finally:
                server.close()
                await server.wait_closed()
            return out

        out = asyncio.run(scenario())
        assert [status for status, _ in out] == [
            b"200", b"200", b"422", b"200", b"200", b"404"]
        assert "worker" in json.loads(out[0][1])
        assert json.loads(out[1][1])["cached"] is True
        for _, body in out:
            assert body == _canonical_line(body), body[:200]

    def test_a_hit_does_no_json_work_on_its_report(self, pool, monkeypatch):
        import repro.serve.cache as cache_mod
        import repro.serve.service as service_mod

        spec = {"system": "cfm", "params": dict(CFM_PARAMS)}
        counters = {}
        for module in (service_mod, cache_mod):
            counters[module.__name__] = _CountingJson()
            monkeypatch.setattr(module, "json", counters[module.__name__])
        miss_line = _line({"id": "miss", **spec})
        hit_line = _line({"id": "hit", **spec})
        service = _service(pool, cache_size=16)
        miss, _ = asyncio.run(_jsonl(service, [miss_line, hit_line]))
        report = json.loads(miss)["report"]
        service_json = counters["repro.serve.service"]
        cache_json = counters["repro.serve.cache"]
        # Each line is decoded once; the one report encoding is the miss's.
        assert service_json.loads_args == [miss_line.decode().strip(),
                                           hit_line.decode().strip()]
        assert cache_json.loads_args == []
        encoded = [obj for obj in service_json.dumps_args + cache_json.dumps_args
                   if _normalized(obj) == report]
        assert len(encoded) == 1
        for obj in service_json.dumps_args + cache_json.dumps_args:
            if isinstance(obj, dict) and obj is not encoded[0]:
                assert obj.get("report") is None
                assert all(v != report for v in obj.values())
