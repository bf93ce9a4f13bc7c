"""The asyncio serving front-end: JSONL over TCP/stdio plus minimal HTTP.

Architecture (one request's life)::

    client ──JSONL line──▶ front-end ──validate──▶ result cache ──miss──▶
        micro-batcher (shard k) ──1 pool task/batch──▶ warm worker
                                                      │
               response line ◀── result stream ◀──────┘

* **Content-addressed caching before any dispatch** — a request whose
  canonical spec hash (:mod:`repro.serve.cache`) already has a completed
  report is answered from the LRU result cache, byte-identical to a fresh
  run; fault-injected and failed runs never populate it.
* **Continuous micro-batching behind the cache** — misses coalesce per
  shard by ``(system, shape)`` (:mod:`repro.serve.batch`) and cross the
  process boundary as one pool task per batch, flushed by request count or
  queue drain, never by wall-clock timers.
* **Streaming responses** — every response is written the moment its
  batch finishes, under a per-connection writer lock; responses carry the
  request ``id`` because they may interleave out of order.
* **Bounded in-flight depth** — the connection reader acquires the service
  semaphore *before* reading on, so at ``max_inflight`` outstanding
  requests the front-end simply stops consuming bytes and TCP backpressure
  propagates to the client.  No unbounded task or queue growth anywhere.
* **Failures are responses** — validation problems
  (:class:`repro.serve.spec.RequestError`), typed faults from the fault
  layer, a killed worker (typed ``BrokenProcessPool``) and unexpected
  worker exceptions all come back as ``{"ok": false, "error": {...}}`` on
  the same stream; a faulted request never kills a worker or a connection.
* **Accounting from day one** — per-tenant (:class:`repro.obs.TenantMetrics`)
  and per-shape/per-shard counters, exposed as a JSON snapshot via the
  ``{"op": "metrics"}`` control request and the HTTP ``GET /metrics``
  endpoint.

The HTTP front-end is deliberately minimal (no dependency beyond asyncio):
``POST /run`` serves one request per connection, ``GET /metrics`` and
``GET /healthz`` observe.  Both protocols share one listening port — the
first line of a connection distinguishes an HTTP request line from JSONL.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Sequence, TextIO

from repro.obs.metrics import MetricsRegistry, TenantMetrics
from repro.obs.sla import SlaTracker
from repro.serve.batch import MicroBatcher
from repro.serve.cache import ResultCache, cacheable, payload_key
from repro.serve.pool import ShardedWorkerPool
from repro.serve.shard import DEFAULT_WARM_SHAPES, Shape, shape_of
from repro.serve.spec import RequestError, ServeRequest, validate_request

#: Longest accepted request line / HTTP body, in bytes (network input).
MAX_REQUEST_BYTES = 1 << 20

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ")


class SimulationService:
    """Validates, routes, dispatches, accounts — one instance per process."""

    def __init__(self, pool: Optional[ShardedWorkerPool] = None,
                 n_shards: int = 2, max_inflight: int = 32,
                 warm_shapes: Sequence[Shape] = DEFAULT_WARM_SHAPES,
                 max_batch: int = 8, cache_size: int = 1024):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.pool = pool if pool is not None else ShardedWorkerPool(
            n_shards=n_shards, warm_shapes=warm_shapes)
        self.max_inflight = max_inflight
        self._gate = asyncio.Semaphore(max_inflight)
        self.metrics = MetricsRegistry()
        self.tenants = TenantMetrics()
        #: Per-criticality-tier wall-latency tails and deadline accounting
        #: (``quantum=1000``: millisecond latencies kept to µs resolution).
        self.sla = SlaTracker(unit="ms", quantum=1000)
        self.batcher = MicroBatcher(self.pool, max_batch=max_batch,
                                    metrics=self.metrics)
        self.cache = ResultCache(max_entries=cache_size)
        self._ids = itertools.count(1)
        self._inflight = 0
        self.peak_inflight = 0
        #: Set at shutdown: connection readers stop consuming new lines so
        #: :meth:`drain` can run the in-flight work dry.
        self.closing = False
        #: Live connection handlers (task → writer).  Shutdown closes the
        #: writers so every handler *returns* instead of being cancelled at
        #: loop teardown — a cancelled ``start_server`` handler task makes
        #: asyncio log an "Exception in callback" traceback on exit.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- request handling ------------------------------------------------

    async def process(self, obj: object) -> Dict[str, object]:
        """One decoded request → one response dict, depth-gated."""
        async with self._gate:
            return await self._process_ungated(obj)

    async def _process_ungated(self, obj: object) -> Dict[str, object]:
        if isinstance(obj, dict) and obj.get("op") is not None:
            return self._control(obj)
        try:
            request = validate_request(obj, default_id=f"req-{next(self._ids)}")
        except RequestError as exc:
            self.metrics.counter("serve.requests").incr("rejected")
            rid = obj.get("id") if isinstance(obj, dict) else None
            return _error_response(rid, "RequestError", str(exc), typed=True)
        return await self._dispatch(request)

    async def _dispatch(self, request: ServeRequest) -> Dict[str, object]:
        shard = self.pool.shard_of(request.system, request.params)
        payload = request.payload
        # Content-addressed lookup first: a completed identical spec never
        # costs a second worker round-trip.  Fault-injected requests have
        # no key (never cached in either direction).
        key: Optional[str] = None
        if self.cache.max_entries > 0 and cacheable(payload):
            key = payload_key(payload)
        cache_counter = self.metrics.counter("serve.cache")
        if key is not None:
            report = self.cache.get(key)
            if report is not None:
                cache_counter.incr("hits")
                result = {"ok": True, "report": report, "wall_ms": 0.0}
                self._account(request, shard, result, cached=True)
                return {
                    "id": request.id,
                    "tenant": request.tenant,
                    "ok": True,
                    "shard": shard,
                    "wall_ms": 0.0,
                    "cached": True,
                    "report": report,
                }
        # Uncacheable requests "miss" too: per-tenant hit+miss always sums
        # to the tenant's dispatched request count.
        cache_counter.incr("misses")
        self._inflight += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            # Untagged requests call submit() exactly as the pre-QoS layer
            # did: the tag is an opt-in hint, not part of the dispatch
            # contract.
            if request.criticality is None:
                result = await self.batcher.submit(payload, shard=shard)
            else:
                result = await self.batcher.submit(
                    payload, shard=shard, criticality=request.criticality)
        except Exception as exc:  # pool failure: the batch is lost
            died = isinstance(exc, BrokenProcessPool)  # typed; shard rebuilt
            result = {"ok": False, "error": {
                "type": type(exc).__name__, "message": str(exc), "slot": None,
                "typed": died, "kind": "worker" if died else None,
            }, "wall_ms": 0.0}
        finally:
            self._inflight -= 1
        if (key is not None and result.get("ok")
                and result.get("report") is not None):
            evicted = self.cache.put(key, result["report"])
            if evicted:
                cache_counter.incr("evictions", evicted)
        self._account(request, shard, result, cached=False)
        response: Dict[str, object] = {
            "id": request.id,
            "tenant": request.tenant,
            "ok": bool(result.get("ok")),
            "shard": shard,
            "wall_ms": result.get("wall_ms"),
        }
        if result.get("ok"):
            response["report"] = result.get("report")
        else:
            response["error"] = result.get("error")
        worker: Dict[str, object] = {}
        for field in ("pid", "tables", "deduped"):
            if field in result:
                worker[field] = result[field]
        if worker:
            response["worker"] = worker
        return response

    def _account(self, request: ServeRequest, shard: int,
                 result: Dict[str, object], cached: bool = False) -> None:
        ok = bool(result.get("ok"))
        wall_ms = float(result.get("wall_ms") or 0.0)
        svc = self.metrics.counter("serve.requests")
        svc.incr("total")
        svc.incr("ok" if ok else "error")
        self.metrics.counter(f"serve.shard[{shard}]").incr(
            "cached" if cached else "dispatched")
        self.metrics.stats("serve.latency_ms").add(wall_ms)
        self.sla.record(request.criticality, wall_ms,
                        deadline=request.deadline_ms)
        tables = result.get("tables")
        if isinstance(tables, dict):
            shard_tables = self.metrics.counter(f"serve.tables[{shard}]")
            shard_tables.incr("hits", int(tables.get("hits") or 0))
            shard_tables.incr("misses", int(tables.get("misses") or 0))
        shape = shape_of(request.system, request.params)
        if shape is not None:
            self.metrics.counter(
                f"serve.shape[b={shape[0]},c={shape[1]}]").incr("requests")
        self.metrics.counter("serve.system").incr(request.system)
        tenant = self.tenants.registry(request.tenant)
        treq = tenant.counter("requests")
        treq.incr("total")
        treq.incr("ok" if ok else "error")
        tenant.counter("cache").incr("hit" if cached else "miss")
        tenant.stats("latency_ms").add(wall_ms)

    def _control(self, obj: Dict[str, object]) -> Dict[str, object]:
        op = obj.get("op")
        rid = obj.get("id")
        if op == "ping":
            return {"id": rid, "ok": True, "op": "ping"}
        if op == "metrics":
            return {"id": rid, "ok": True, "op": "metrics",
                    "metrics": self.metrics_snapshot()}
        return _error_response(rid, "RequestError",
                               f"unknown op {op!r} (valid: metrics ping)",
                               typed=True)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` document: service + tenants + pool state."""
        return {
            "service": self.metrics.snapshot(),
            "tenants": self.tenants.snapshot(),
            "sla": self.sla.snapshot(),
            "inflight": {
                "current": self._inflight,
                "peak": self.peak_inflight,
                "max": self.max_inflight,
            },
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "batch": self.batcher.stats(),
        }

    # -- shutdown ------------------------------------------------------------

    async def drain(self) -> None:
        """Run the in-flight work dry: stop admitting requests, then wait
        until every already-admitted one has been answered.

        Acquiring every gate permit is the drain barrier — a permit is
        only free once its request's response has been written, so holding
        all ``max_inflight`` of them means nothing is left in the batcher
        or the pools.  The permits are released afterwards so a drained
        service could in principle serve again (tests do)."""
        self.closing = True
        for _ in range(self.max_inflight):
            await self._gate.acquire()
        for _ in range(self.max_inflight):
            self._gate.release()

    # -- JSONL framing -----------------------------------------------------

    async def handle_line(self, line: str) -> Dict[str, object]:
        """One JSONL input line → one response dict (never raises)."""
        async with self._gate:
            return await self._process_line_ungated(line)

    # -- TCP server ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and return the TCP server (JSONL + HTTP on one port)."""
        return await asyncio.start_server(self._serve_connection, host, port,
                                          limit=MAX_REQUEST_BYTES)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            try:
                first = await _read_line(reader)
            except ConnectionError:
                return
            if first == b"":
                return
            if first and first.split(b" ", 1)[0] + b" " in _HTTP_METHODS:
                try:
                    await self._serve_http(first, reader, writer)
                except (ValueError, EOFError, ConnectionError) as exc:
                    # An over-long header line, a short body or a gone peer.
                    await _http_reply(writer, 400, {"ok": False,
                                                    "error": str(exc)})
                return
            await self._serve_jsonl(first, reader, writer)
        finally:
            if task is not None:
                self._connections.pop(task, None)
            try:
                # close() without wait_closed(): the transport finishes
                # closing on the loop, while awaiting it here would leave
                # this handler task pending into loop teardown, where
                # asyncio cancels it and logs an "Exception in callback"
                # traceback (the graceful-shutdown tests grep for that).
                writer.close()
            except RuntimeError:
                pass

    async def close_connections(self) -> None:
        """Close every live connection and wait for its handler to return.

        Called at shutdown after :meth:`drain`: closing the transports
        unparks handlers blocked in ``readline()``/``wait_closed()`` so
        they exit through their own ``finally`` blocks — never left to be
        cancelled by the event loop tearing down (which asyncio reports
        as an "Exception in callback" traceback)."""
        tasks = list(self._connections)
        for writer in self._connections.values():
            try:
                writer.close()
            except RuntimeError:
                pass
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_jsonl(self, first: Optional[bytes],
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        tasks = []
        line = first
        while line and not self.closing:
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                # Acquire BEFORE reading on: at max_inflight outstanding
                # requests this loop parks here, the socket buffer fills,
                # and the client feels backpressure instead of the service
                # growing an unbounded task list.
                await self._gate.acquire()
                tasks.append(asyncio.ensure_future(
                    self._respond_gated(text, writer, lock)))
            try:
                line = await _read_line(reader)
            except ConnectionError:
                break
        if line is None:  # an over-long line: answer it, then close
            await self._gate.acquire()
            tasks.append(asyncio.ensure_future(
                self._respond_gated(None, writer, lock)))
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _respond_gated(self, text: Optional[str],
                             writer: asyncio.StreamWriter,
                             lock: asyncio.Lock) -> None:
        try:
            if text is None:  # the line was over the limit (and skipped)
                response = _error_response(
                    None, "RequestError",
                    f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                    typed=True)
            else:
                response = await self._process_line_ungated(text)
        finally:
            self._gate.release()
        payload = (json.dumps(response, sort_keys=True) + "\n").encode()
        async with lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; the result is simply dropped

    async def _process_line_ungated(self, text: str) -> Dict[str, object]:
        try:
            obj = json.loads(text)
        except ValueError as exc:
            self.metrics.counter("serve.requests").incr("rejected")
            return _error_response(None, "RequestError",
                                   f"request is not valid JSON: {exc}",
                                   typed=True)
        return await self._process_ungated(obj)

    # -- HTTP --------------------------------------------------------------

    async def _serve_http(self, request_line: bytes,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            parts = request_line.decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            await _http_reply(writer, 400, {"ok": False,
                                            "error": "bad request line"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line is None:
                raise ValueError(
                    f"header line exceeds {MAX_REQUEST_BYTES} bytes")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET" and path == "/healthz":
            await _http_reply(writer, 200, {"ok": True})
            return
        if method == "GET" and path == "/metrics":
            await _http_reply(writer, 200, self.metrics_snapshot())
            return
        if method == "POST" and path == "/run":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 < length <= MAX_REQUEST_BYTES:
                await _http_reply(writer, 400, {
                    "ok": False,
                    "error": "POST /run needs a JSON body with "
                             f"content-length in (0, {MAX_REQUEST_BYTES}]",
                })
                return
            body = await reader.readexactly(length)
            response = await self.handle_line(body.decode(
                "utf-8", errors="replace"))
            status = 200 if response.get("ok") else 422
            await _http_reply(writer, status, response)
            return
        await _http_reply(writer, 404, {
            "ok": False,
            "error": f"no route {method} {path} "
                     "(have: POST /run, GET /metrics, GET /healthz)",
        })

    # -- stdio ---------------------------------------------------------------

    async def serve_stdio(self, in_stream: Optional[TextIO] = None,
                          out_stream: Optional[TextIO] = None) -> int:
        """JSONL over stdin/stdout until EOF; returns requests served."""
        in_stream = in_stream if in_stream is not None else sys.stdin
        out_stream = out_stream if out_stream is not None else sys.stdout
        loop = asyncio.get_running_loop()
        lock = asyncio.Lock()
        served = 0
        tasks = []

        async def respond(text: str) -> None:
            try:
                response = await self._process_line_ungated(text)
            finally:
                self._gate.release()
            async with lock:
                out_stream.write(json.dumps(response, sort_keys=True) + "\n")
                out_stream.flush()

        while True:
            line = await loop.run_in_executor(None, in_stream.readline)
            if not line:
                break
            if not line.strip():
                continue
            await self._gate.acquire()
            served += 1
            tasks.append(asyncio.ensure_future(respond(line.strip())))
        if tasks:
            await asyncio.gather(*tasks)
        return served


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line (``b""`` at end of stream), or ``None`` for a line over
    the reader's limit, consumed whole so no tail of it reads as a line."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            oversized = True
            await reader.readexactly(exc.consumed)  # already buffered
            continue
        return None if oversized else line


def _error_response(rid: object, type_: str, message: str,
                    typed: bool) -> Dict[str, object]:
    return {
        "id": rid if isinstance(rid, (str, int)) else None,
        "ok": False,
        "error": {"type": type_, "message": message, "typed": typed,
                  "kind": None, "slot": None},
    }


async def _http_reply(writer: asyncio.StreamWriter, status: int,
                      doc: Dict[str, object]) -> None:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               422: "Unprocessable Entity"}
    body = (json.dumps(doc, sort_keys=True) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
    except (ConnectionError, RuntimeError):
        pass
