"""End-to-end smoke for ``repro serve`` — the CI ``serve-smoke`` driver.

Starts the real CLI process (``python -m repro serve``), connects over
TCP, and drives a ~50-request mixed-shape stream down one JSONL
connection:

* requests round-robin the warm shapes plus shapeless systems, so the
  stream carries both mixed shapes *and* duplicate specs (each distinct
  spec repeats ~12x — exactly the traffic the micro-batcher and the
  content-addressed result cache exist for);
* one request carries a fault injection that must come back as a *typed
  error response* (``DegradedModeError``) — and the stream keeps flowing,
  proving the fault cost one response, not a worker;
* one request is malformed and must be rejected with ``RequestError``;
* every request gets exactly one response (streamed, out-of-order safe);
* the HTTP side answers ``GET /healthz`` and ``GET /metrics`` on the same
  port, and the metrics snapshot accounts for everything just served —
  including batch sizes (``serve.batch.size``), per-shard AT-space table
  cache stats (``serve.tables[k]``), and, in cached mode, at least one
  content-addressed hit whose per-tenant hit/miss accounting sums to the
  tenant's request count.

After the metrics check the drive kills a worker: it takes one shard's
worker pid from a response, puts a long spec in flight on that shard and
SIGKILLs the pid.  The victim must get the typed ``BrokenProcessPool``
error, requests on the other shard must complete, and the next request to
the killed shard must succeed from a new worker pid.

The drive ends with one more round of requests that pin
``engine="stacked"`` (the CFM-only alias of the batch driver): it reads
one response and SIGTERMs the server with the rest in flight; graceful
shutdown must still deliver every remaining response before it closes
the connection — with a worker killed earlier in the same server's life.

``--max-batch``/``--cache-size`` select the serving mode under test; CI
runs both PR 7's per-request mode (``--max-batch 1 --cache-size 0``) and
the batched+cached default.  Exits 0 on success, 1 with a diagnostic on
any violated expectation::

    PYTHONPATH=src python benchmarks/serve_smoke.py
    PYTHONPATH=src python benchmarks/serve_smoke.py --max-batch 1 --cache-size 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys

N_REQUESTS = 50  # ok requests; the faulted + invalid ones ride on top

SHAPED = [
    {"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 200}},
    {"system": "cfm", "params": {"n_procs": 4, "bank_cycle": 2, "cycles": 200}},
    {"system": "cache", "params": {"n_procs": 4, "rounds": 2}},
    {"system": "sync_omega", "params": {"n_ports": 8, "cycles": 100}},
]

FAULTED = {
    "id": "faulted", "system": "cfm",
    "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 200},
    "inject": {"events": [{"kind": "bank_dead", "target": 1, "start": 3,
                           "duration": 1}]},
}

INVALID = {"id": "invalid", "system": "cfm", "params": {"frobnicate": 1}}

N_DRAIN = 8  # engine="stacked" requests in flight across the SIGTERM

#: Worker time of the kill round's victim: long enough to still be running
#: when the SIGKILL lands.
VICTIM_CYCLES = 500_000


def _spawn_server(max_batch: int, cache_size: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--shards", "2", "--depth", "8",
         "--max-batch", str(max_batch), "--cache-size", str(cache_size)],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    announce = proc.stderr.readline()
    # "serving JSONL+HTTP on 127.0.0.1:PORT (shards=..., depth=..., ...)"
    if "serving JSONL+HTTP on " not in announce:
        proc.kill()
        raise RuntimeError(f"unexpected server announce: {announce!r}")
    hostport = announce.split("serving JSONL+HTTP on ", 1)[1].split()[0]
    host, _, port = hostport.rpartition(":")
    return proc, host, int(port)


async def _http_get(host: str, port: int, path: str):
    """GET ``path`` on the server's HTTP side; returns (status, json body)."""
    r, w = await asyncio.open_connection(host, port)
    w.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
    await w.drain()
    data = await asyncio.wait_for(r.read(), timeout=60)
    w.close()
    status = int(data.split(b" ", 2)[1])
    return status, json.loads(data.partition(b"\r\n\r\n")[2])


async def _read_n(reader, n: int) -> dict:
    """Read ``n`` JSONL responses, keyed by request id."""
    out = {}
    while len(out) < n:
        line = await asyncio.wait_for(reader.readline(), timeout=120)
        assert line, f"connection closed after {len(out)}/{n} responses"
        resp = json.loads(line)
        out[resp["id"]] = resp
    return out


def _cfm(rid: str, bank_cycle: int, cycles: int) -> dict:
    return {"id": rid, "system": "cfm",
            "params": {"n_procs": 4, "bank_cycle": bank_cycle,
                       "cycles": cycles}}


async def _kill_worker(host: str, port: int) -> None:
    """SIGKILL one shard's worker with a long request running on it: the
    victim gets the typed ``BrokenProcessPool`` error, the other shard
    keeps serving, and the killed shard serves again from a new worker."""
    reader, writer = await asyncio.open_connection(host, port)

    async def send(*requests) -> None:
        for req in requests:
            writer.write((json.dumps(req) + "\n").encode())
        await writer.drain()

    # Cycle counts unlike any other round's: no cache hits, no dedup.
    await send(_cfm("k-probe", 1, 4321))
    probe = (await _read_n(reader, 1))["k-probe"]
    assert probe["ok"] and "worker" in probe, probe
    pid, shard = probe["worker"]["pid"], probe["shard"]
    others = [_cfm(f"k-other{i}", 2, 4400 + i) for i in range(3)]
    await send(_cfm("k-victim", 1, VICTIM_CYCLES), *others)
    await asyncio.sleep(0.5)  # the victim is now running on that worker
    os.kill(pid, signal.SIGKILL)
    got = await _read_n(reader, 1 + len(others))
    victim = got["k-victim"]
    assert victim["ok"] is False, victim
    assert victim["error"]["type"] == "BrokenProcessPool", victim["error"]
    assert victim["error"]["typed"] is True, victim["error"]
    assert victim["error"]["kind"] == "worker", victim["error"]
    for req in others:
        resp = got[req["id"]]
        assert resp["ok"] and resp["shard"] != shard, resp
    await send(_cfm("k-after", 1, 4322))
    after = (await _read_n(reader, 1))["k-after"]
    assert after["ok"] and after["shard"] == shard, after
    assert after["worker"]["pid"] != pid, (after["worker"], pid)
    writer.close()
    print(f"worker kill OK: shard {shard} worker {pid} killed mid-request, "
          f"victim got a typed BrokenProcessPool error, {len(others)} "
          f"requests on the other shard completed, shard {shard} served "
          f"again from worker {after['worker']['pid']}")


async def _drain_on_sigterm(proc, host: str, port: int) -> None:
    """SIGTERM the server with ``engine="stacked"`` requests in flight and
    require the graceful shutdown to deliver every response before the
    connection closes."""
    # Distinct cycles: no in-batch dedup and no result-cache hits, so
    # every request is dispatched to a worker.
    requests = [
        {"id": f"d{i}", "tenant": f"team{i % 2}", "system": "cfm",
         "params": {"n_procs": 4, "bank_cycle": 1, "cycles": 1000 + 10 * i,
                    "engine": "stacked"}}
        for i in range(N_DRAIN)
    ]
    reader, writer = await asyncio.open_connection(host, port)
    for req in requests:
        writer.write((json.dumps(req) + "\n").encode())
    await writer.drain()
    first = json.loads(await asyncio.wait_for(reader.readline(), timeout=120))
    assert first["ok"], first
    proc.send_signal(signal.SIGTERM)
    late = await _read_n(reader, N_DRAIN - 1)
    late[first["id"]] = first
    assert len(late) == N_DRAIN, sorted(late)
    assert all(r["ok"] for r in late.values()), late
    assert all(r["report"]["params"]["engine"] == "stacked"
               for r in late.values()), late
    eof = await asyncio.wait_for(reader.readline(), timeout=60)
    assert eof == b"", eof  # server closed the stream only after draining
    writer.close()
    print(f"drain OK: {N_DRAIN - 1} engine=stacked responses delivered "
          "after SIGTERM")


async def _drive(proc, host: str, port: int, max_batch: int,
                 cache_size: int) -> None:
    requests = []
    for i in range(N_REQUESTS):
        spec = SHAPED[i % len(SHAPED)]
        requests.append({"id": f"r{i}", "tenant": f"team{i % 3}",
                         "system": spec["system"],
                         "params": dict(spec["params"])})
    requests.insert(20, dict(FAULTED))
    requests.insert(40, dict(INVALID))

    reader, writer = await asyncio.open_connection(host, port)
    for req in requests:
        writer.write((json.dumps(req) + "\n").encode())
    await writer.drain()
    writer.write_eof()
    responses = await _read_n(reader, len(requests))
    writer.close()

    ok = [r for r in responses.values() if r["ok"]]
    assert len(ok) == N_REQUESTS, f"expected {N_REQUESTS} ok, got {len(ok)}"
    faulted = responses["faulted"]
    assert faulted["ok"] is False, faulted
    assert faulted["error"]["typed"] is True, faulted["error"]
    assert faulted["error"]["type"] == "DegradedModeError", faulted["error"]
    assert "cached" not in faulted, faulted  # faults never come from cache
    invalid = responses["invalid"]
    assert invalid["ok"] is False, invalid
    assert invalid["error"]["type"] == "RequestError", invalid["error"]

    # The worker that served the faulted request stayed alive: later
    # requests of the same shape came back ok from the same shard.
    same_shape_after = [responses[f"r{i}"] for i in range(20, N_REQUESTS, 4)]
    assert same_shape_after and all(r["ok"] for r in same_shape_after)

    # HTTP on the same port: health + metrics account for the stream.
    status, health = await _http_get(host, port, "/healthz")
    assert (status, health) == (200, {"ok": True}), (status, health)
    status, metrics = await _http_get(host, port, "/metrics")
    assert status == 200, status
    counts = metrics["service"]["serve.requests"]["counts"]
    assert counts["total"] == N_REQUESTS + 1, counts  # faulted dispatched too
    assert counts["ok"] == N_REQUESTS, counts
    assert counts["error"] == 1, counts
    assert counts["rejected"] == 1, counts
    assert {"team0", "team1", "team2"} <= set(metrics["tenants"]), (
        sorted(metrics["tenants"]))
    assert metrics["inflight"]["peak"] <= metrics["inflight"]["max"], (
        metrics["inflight"])
    shapes = [k for k in metrics["service"] if k.startswith("serve.shape[")]
    assert len(shapes) >= 3, shapes

    # Batching accounting: every dispatched request rode in some batch, and
    # batch sizes are recorded.  (max_batch=1 is per-request mode — every
    # batch carries exactly one request.)
    batch_counts = metrics["service"]["serve.batch"]["counts"]
    batch_size = metrics["service"]["serve.batch.size"]
    assert batch_counts["batches"] >= 1, batch_counts
    assert batch_counts["requests"] == sum(
        metrics["pool"]["dispatched"]), (batch_counts, metrics["pool"])
    assert batch_size["n"] == batch_counts["batches"], (
        batch_size, batch_counts)
    assert batch_size["max"] <= max_batch, (batch_size, max_batch)

    # Per-shard AT-space table stats, surfaced from the workers' own
    # cache_info deltas: warm shards must show hits and (having served
    # only pre-warmed shapes) no misses.
    table_keys = [k for k in metrics["service"]
                  if k.startswith("serve.tables[")]
    assert table_keys, sorted(metrics["service"])
    table_hits = sum(metrics["service"][k]["counts"].get("hits", 0)
                     for k in table_keys)
    table_misses = sum(metrics["service"][k]["counts"].get("misses", 0)
                       for k in table_keys)
    assert table_hits > 0, (table_keys, table_hits)
    assert table_misses == 0, (table_keys, table_misses)

    # Result cache: the stream repeats each distinct spec ~12x, so cached
    # mode must see hits; per-tenant hit/miss always sums to the tenant's
    # dispatched request count.
    cache = metrics["cache"]
    assert cache["max_entries"] == cache_size, cache
    if cache_size > 0:
        assert cache["hits"] >= 1, cache
        cached_responses = [r for r in responses.values() if r.get("cached")]
        assert len(cached_responses) == cache["hits"], (
            len(cached_responses), cache)
    else:
        assert cache["hits"] == 0 and cache["entries"] == 0, cache
    for tenant, snap in metrics["tenants"].items():
        treq = snap["requests"]["counts"]
        tcache = snap["cache"]["counts"]
        assert (tcache.get("hit", 0) + tcache.get("miss", 0)
                == treq["total"]), (tenant, tcache, treq)

    mode = (f"max_batch={max_batch} cache={cache_size}"
            if cache_size else f"max_batch={max_batch} cache=off")
    print(f"serve smoke OK [{mode}]: {len(responses)} responses "
          f"({counts['ok']} ok, 1 typed fault, 1 rejected), "
          f"{len(shapes)} shapes, {batch_counts['batches']} batches "
          f"(mean size {batch_size['mean']:.1f}), "
          f"{cache['hits']} cache hits, "
          f"peak inflight {metrics['inflight']['peak']}"
          f"/{metrics['inflight']['max']}")
    await _kill_worker(host, port)
    await _drain_on_sigterm(proc, host, port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--cache-size", type=int, default=256)
    args = parser.parse_args(argv)
    proc, host, port = _spawn_server(args.max_batch, args.cache_size)
    try:
        asyncio.run(_drive(proc, host, port, args.max_batch,
                           args.cache_size))
    finally:
        # The drive already SIGTERMed mid-stream; the handler (an
        # Event.set) is idempotent, so signalling again on an error path
        # is harmless.
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            return 1
    stderr = proc.stderr.read()
    # Graceful shutdown: drained, flushed final metrics, closed pools —
    # no stack traces, clean exit.
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "final metrics: " in stderr, stderr
    assert "Traceback" not in stderr, stderr
    assert "BrokenProcessPool" not in stderr, stderr
    print("graceful shutdown OK (drained, final metrics flushed, exit 0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
