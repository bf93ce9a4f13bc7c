"""The asyncio serving front-end: JSONL over TCP/stdio plus minimal HTTP.

Architecture (one request's life)::

    client ──JSONL line──▶ front-end ──validate──▶ result cache ──miss──▶
        micro-batcher (shard k) ──1 pool task/batch──▶ worker
                                                      │
               response line ◀── result stream ◀──────┘

* **Content-addressed caching before any dispatch** — a request whose
  canonical spec hash (:mod:`repro.serve.cache`) already has a completed
  report is answered from the LRU result cache, byte-identical to a fresh
  run; fault-injected and failed runs never populate it.
* **Each report encoded once** — a worker's report is JSON-encoded once,
  on its miss; that text is what the cache stores and what every response
  carrying the report splices into its line (:func:`encode_response`), so
  a hit does no JSON work on the report at all.  In-process callers
  (:meth:`SimulationService.process`, :meth:`~SimulationService.handle_line`)
  get the report decoded, equal to ``json.loads`` of the wire line.
* **Continuous micro-batching behind the cache** — misses coalesce per
  shard by ``(system, shape)`` (:mod:`repro.serve.batch`) and cross the
  process boundary as one pool task per batch, flushed by request count or
  queue drain, never by wall-clock timers.
* **Answers that need no worker are written inline** — one synchronous
  front half (decode, :func:`~repro.serve.spec.validate_request`, cache
  key, lookup, accounting, :func:`encode_response`) answers a cache hit, a
  :class:`~repro.serve.spec.RequestError` or a control op, and the JSONL
  reader writes that line straight to the transport: no task, permit or
  lock.  It awaits ``drain()`` only while the write buffer is over its
  high-water mark, and yields to the loop every ``max_inflight`` inline
  answers so one pipelining connection cannot starve the others.  Every
  framing — JSONL, HTTP ``POST /run``, stdio and the in-process
  :meth:`SimulationService.process` / :meth:`~SimulationService.handle_line`
  — runs this one front half; each line is decoded and validated once.
* **Streaming responses** — a miss's response is written the moment its
  batch finishes; responses carry the request ``id`` because they may
  interleave out of order.
* **Bounded in-flight depth** — only a dispatch holds a permit of the
  service semaphore, and the connection reader acquires it *before*
  reading on, so at ``max_inflight`` outstanding dispatches the front-end
  simply stops consuming bytes and TCP backpressure propagates to the
  client.  A connection keeps only its pending response tasks (a finished
  one drops out at once), so its memory stays flat over any number of
  requests.  No unbounded task or queue growth anywhere.
* **Failures are responses** — validation problems
  (:class:`repro.serve.spec.RequestError`), typed faults from the fault
  layer, a killed worker (typed ``BrokenProcessPool``) and unexpected
  worker exceptions all come back as ``{"ok": false, "error": {...}}`` on
  the same stream; a faulted request never kills a worker or a connection.
* **Accounting from day one** — one :class:`repro.obs.MetricsRegistry`
  holds every count: per shape and shard, per criticality tier
  (``serve.sla.latency_us[<tier>]`` histograms and the
  ``serve.sla.deadline`` counter) and per tenant
  (``tenant[<label>].requests|cache|latency_ms``, at most
  :data:`MAX_TENANTS` label sets).  Each kind of request (tenant, tier,
  system, shape, shard) resolves its instruments once.  The registry is
  exposed as a JSON snapshot via the ``{"op": "metrics"}`` control request
  and the HTTP ``GET /metrics`` endpoint, whose ``sla`` section
  :func:`repro.obs.metrics.sla_section` renders from the tier
  instruments.

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
from typing import Dict, List, NamedTuple, Optional, Set, TextIO, Union

from repro.obs.metrics import MetricsRegistry, sla_section
from repro.serve.batch import MicroBatcher
from repro.serve.cache import ResultCache, cacheable, payload_key
from repro.serve.pool import ShardedWorkerPool
from repro.serve.shard import Shape
from repro.serve.spec import RequestError, ServeRequest, validate_request
from repro.sim.criticality import NORMAL
from repro.sim.stats import TallyCounter

#: Longest accepted request line / HTTP body, in bytes (network input).
MAX_REQUEST_BYTES = 1 << 20

#: Seconds a closing connection may take to flush its answers at shutdown
#: before its transport is aborted (a client that never reads).
CLOSE_GRACE_S = 1.0

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ")

#: Most tenant label sets the service accounts, ``OVERFLOW_TENANT``
#: included.  Tenant labels are network input: past ``MAX_TENANTS - 1``
#: named tenants, every new label shares the overflow set instead of
#: growing the registry without limit.
MAX_TENANTS = 1024
OVERFLOW_TENANT = "<overflow>"

#: Most request kinds — (tenant, criticality, system, shape, shard) —
#: whose resolved instruments the service keeps (:meth:`_account`).
MAX_ACCOUNTS = 4096


class _Account:
    """The instruments one kind of request is accounted in — one
    (tenant, tier, system, shape, shard) — resolved from the registry
    once, so accounting a request costs a few increments and no name
    lookups."""

    __slots__ = ("_metrics", "cache", "_requests", "_shard", "_latency",
                 "_tier_latency", "_deadline", "_met", "_missed", "_shape",
                 "_systems", "_system", "_tenant_requests", "_tenant_cache",
                 "_tenant_latency")

    def __init__(self, metrics: MetricsRegistry, tenant: str, tier: str,
                 system: str, shape: Optional[Shape], shard: int) -> None:
        self._metrics = metrics
        #: ``serve.cache``: hits, misses and evictions.
        self.cache = metrics.counter("serve.cache")
        self._requests = metrics.counter("serve.requests")
        self._shard = metrics.counter(f"serve.shard[{shard}]")
        self._latency = metrics.stats("serve.latency_ms")
        self._tier_latency = metrics.histogram(
            f"serve.sla.latency_us[{tier}]")
        # Resolved by the first request that carries a deadline, so a
        # service that never judged one shows no deadline counter.
        self._deadline: Optional[TallyCounter] = None
        self._met, self._missed = f"{tier}.met", f"{tier}.missed"
        self._shape = None if shape is None else metrics.counter(
            f"serve.shape[b={shape[0]},c={shape[1]}]")
        self._systems = metrics.counter("serve.system")
        self._system = system
        self._tenant_requests = metrics.counter(tenant + ".requests")
        self._tenant_cache = metrics.counter(tenant + ".cache")
        self._tenant_latency = metrics.stats(tenant + ".latency_ms")

    def add(self, ok: bool, wall_ms: float, cached: bool,
            deadline_ms: Optional[float]) -> None:
        """Account one answered request."""
        outcome = "ok" if ok else "error"
        self._requests.incr("total")
        self._requests.incr(outcome)
        self._shard.incr("cached" if cached else "dispatched")
        self._latency.add(wall_ms)
        self._tier_latency.add(round(wall_ms * 1000))
        if deadline_ms is not None:
            if self._deadline is None:
                self._deadline = self._metrics.counter("serve.sla.deadline")
            self._deadline.incr(self._met if wall_ms <= deadline_ms
                                else self._missed)
        if self._shape is not None:
            self._shape.incr("requests")
        self._systems.incr(self._system)
        self._tenant_requests.incr("total")
        self._tenant_requests.incr(outcome)
        self._tenant_cache.incr("hit" if cached else "miss")
        self._tenant_latency.add(wall_ms)


class _Miss(NamedTuple):
    """A validated request the front half could not answer: what the back
    half needs to dispatch it."""

    request: ServeRequest
    key: Optional[str]  # its cache key; ``None`` when uncacheable
    shard: int
    account: _Account


class SimulationService:
    """Validates, routes, dispatches, accounts — one instance per process."""

    def __init__(self, pool: Optional[ShardedWorkerPool] = None,
                 n_shards: int = 2, max_inflight: int = 32,
                 max_batch: int = 8, cache_size: int = 1024):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.pool = pool if pool is not None else ShardedWorkerPool(
            n_shards=n_shards)
        self.max_inflight = max_inflight
        self._gate = asyncio.Semaphore(max_inflight)
        self.metrics = MetricsRegistry()
        #: Admitted tenant label → its instrument-name prefix.
        self._tenants: Dict[str, str] = {}
        #: (tenant, criticality, system, shape, shard) → its instruments.
        self._accounts: Dict[tuple, _Account] = {}
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
        """One decoded request → one response dict; only a dispatch holds
        a gate permit."""
        return _decoded(await self._answer(self._front(obj)))

    async def handle_line(self, line: str) -> Dict[str, object]:
        """One JSONL input line → one response dict (never raises)."""
        return _decoded(await self._answer(self._front_line(line)))

    async def _answer(self, front: Union[Dict[str, object], _Miss]
                      ) -> Dict[str, object]:
        """The front half's answer, or the back half's under a permit."""
        if not isinstance(front, _Miss):
            return front
        async with self._gate:
            return await self._dispatch(front)

    def _front_line(self, text: str) -> Union[Dict[str, object], _Miss]:
        """:meth:`_front` of one request line, decoded here."""
        try:
            obj = json.loads(text)
        except ValueError as exc:
            self.metrics.counter("serve.requests").incr("rejected")
            return _error_response(None, "RequestError",
                                   f"request is not valid JSON: {exc}",
                                   typed=True)
        return self._front(obj)

    def _front(self, obj: object) -> Union[Dict[str, object], _Miss]:
        """The synchronous front half: validate, key, look up, account.

        Answers whatever needs no worker — a control op, a
        :class:`RequestError`, a cache hit — with its response; any other
        request comes back as the :class:`_Miss` the back half
        (:meth:`_dispatch`) runs, so no line is decoded or validated
        twice."""
        if isinstance(obj, dict) and obj.get("op") is not None:
            return self._control(obj)
        try:
            request = validate_request(obj, default_id=f"req-{next(self._ids)}")
        except RequestError as exc:
            self.metrics.counter("serve.requests").incr("rejected")
            rid = obj.get("id") if isinstance(obj, dict) else None
            return _error_response(rid, "RequestError", str(exc), typed=True)
        shard = self.pool.shard_of(request.system, request.params,
                                   request.shape)
        account = self._account(request, shard)
        # Content-addressed lookup first: a completed identical spec never
        # costs a second worker round-trip.  Fault-injected requests have
        # no key (never cached in either direction).
        key: Optional[str] = None
        if self.cache.max_entries > 0 and cacheable(request.payload):
            key = payload_key(request.payload)
            report = self.cache.get(key)
            if report is not None:  # the stored wire text of the report
                account.cache.incr("hits")
                account.add(True, 0.0, True, request.deadline_ms)
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
        account.cache.incr("misses")
        return _Miss(request, key, shard, account)

    async def _dispatch(self, miss: _Miss) -> Dict[str, object]:
        """The back half: one missed request through the batcher."""
        request, key, shard, account = miss
        self._inflight += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            # Untagged requests call submit() exactly as the pre-QoS layer
            # did: the tag is an opt-in hint, not part of the dispatch
            # contract.
            if request.criticality is None:
                result = await self.batcher.submit(request.payload,
                                                   shard=shard)
            else:
                result = await self.batcher.submit(
                    request.payload, shard=shard,
                    criticality=request.criticality)
        except Exception as exc:  # pool failure: the batch is lost
            died = isinstance(exc, BrokenProcessPool)  # typed; shard rebuilt
            result = {"ok": False, "error": {
                "type": type(exc).__name__, "message": str(exc), "slot": None,
                "typed": died, "kind": "worker" if died else None,
            }, "wall_ms": 0.0}
        finally:
            self._inflight -= 1
        ok = bool(result.get("ok"))
        report = result.get("report") if ok else None
        if report is not None:
            # The one encoding of this report: the cache stores this text
            # and every response carrying the report splices it in.
            report = json.dumps(report, sort_keys=True)
            if key is not None:
                evicted = self.cache.put(key, report)
                if evicted:
                    account.cache.incr("evictions", evicted)
        account.add(ok, float(result.get("wall_ms") or 0.0), False,
                    request.deadline_ms)
        response: Dict[str, object] = {
            "id": request.id,
            "tenant": request.tenant,
            "ok": ok,
            "shard": shard,
            "wall_ms": result.get("wall_ms"),
        }
        if ok:
            response["report"] = report
        else:
            response["error"] = result.get("error")
        worker: Dict[str, object] = {}
        for field in ("pid", "deduped"):
            if field in result:
                worker[field] = result[field]
        if worker:
            response["worker"] = worker
        return response

    def _account(self, request: ServeRequest, shard: int) -> _Account:
        """The instruments ``request`` is accounted in, resolved at the
        first request of its kind.  At most :data:`MAX_ACCOUNTS` kinds
        are kept; past that the set starts over (the instruments stay in
        the registry, only their resolution is repeated)."""
        kind = (request.tenant, request.criticality, request.system,
                request.shape, shard)
        account = self._accounts.get(kind)
        if account is None:
            if len(self._accounts) >= MAX_ACCOUNTS:
                self._accounts.clear()
            # Untagged requests are judged as ``normal``: served tails
            # cover every client, tagged or not.
            account = self._accounts[kind] = _Account(
                self.metrics, self._tenant(request.tenant),
                request.criticality or NORMAL, request.system,
                request.shape, shard)
        return account

    def _tenant(self, label: str) -> str:
        """The instrument-name prefix ``tenant[<label>]`` of a tenant.

        A new named tenant is admitted only while one of the
        :data:`MAX_TENANTS` label sets would still be left for
        :data:`OVERFLOW_TENANT`, which every later label shares."""
        prefix = self._tenants.get(label)
        if prefix is None:
            named = len(self._tenants) - (OVERFLOW_TENANT in self._tenants)
            if label != OVERFLOW_TENANT and named >= MAX_TENANTS - 1:
                return self._tenant(OVERFLOW_TENANT)
            prefix = self._tenants[label] = f"tenant[{label}]"
        return prefix

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
        """The ``/metrics`` document: the service registry, its per-tier
        SLA section, and in-flight, pool, cache and batcher state."""
        return {
            "service": self.metrics.snapshot(),
            "sla": sla_section(self.metrics, "serve.sla.latency_us",
                               "serve.sla.deadline", "ms", quantum=1000),
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

        Acquiring every gate permit is the drain barrier — only a dispatch
        holds a permit, until its response is ready to write, so holding
        all ``max_inflight`` of them means nothing is left in the batcher
        or the pools.  Answers that need no worker are written inline by
        the connection readers, which stop at ``closing``.  The permits
        are released afterwards so a drained service could in principle
        serve again (tests do)."""
        self.closing = True
        for _ in range(self.max_inflight):
            await self._gate.acquire()
        for _ in range(self.max_inflight):
            self._gate.release()

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
        as an "Exception in callback" traceback).  A transport keeps its
        unsent answers until they flush, so a handler whose client has
        not read them within :data:`CLOSE_GRACE_S` has its transport
        aborted, which fails its ``drain()``."""
        tasks = list(self._connections)
        for writer in self._connections.values():
            try:
                writer.close()
            except RuntimeError:
                pass
        if not tasks:
            return
        _, stuck = await asyncio.wait(tasks, timeout=CLOSE_GRACE_S)
        for task in stuck:
            writer = self._connections.get(task)
            if writer is not None:
                writer.transport.abort()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_jsonl(self, first: Optional[bytes],
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Answer JSONL lines; misses stream back as their batches finish.

        An answer that needs no worker is written inline, without a task:
        the answers of one turn of the event loop go out as one write.
        The reader awaits ``drain()`` only while the transport's buffer is
        over its high-water mark — so a client that stops reading stops
        being read — and yields to the loop every ``max_inflight`` inline
        answers, so one pipelining connection cannot starve the others."""
        loop = asyncio.get_running_loop()
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        pending: Set[asyncio.Future] = set()
        answers: List[bytes] = []  # inline answers not yet written

        def flush() -> None:
            if answers:
                _write(writer, b"".join(answers))
                answers.clear()

        def answer(response: Dict[str, object]) -> None:
            if not answers:
                loop.call_soon(flush)
            answers.append(encode_response(response).encode())

        line = first
        while line and not self.closing:
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                front = self._front_line(text)
                if isinstance(front, _Miss):
                    await self._gate.acquire()
                    _start(pending, self._respond_gated(front, writer))
                else:
                    answer(front)
                    if len(answers) >= self.max_inflight:
                        await asyncio.sleep(0)  # runs flush()
            if transport.get_write_buffer_size() > high_water:
                try:
                    await writer.drain()
                except ConnectionError:
                    break
            await self._await_permit()
            try:
                line = await _read_line(reader)
            except ConnectionError:
                break
        if line is None:  # an over-long line: answer it, then close
            answer(_error_response(
                None, "RequestError",
                f"request line exceeds {MAX_REQUEST_BYTES} bytes", typed=True))
        flush()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def _await_permit(self) -> None:
        """Wait, before a reader reads on, until a dispatch permit is free.

        At ``max_inflight`` outstanding dispatches the reader parks here,
        the socket buffer fills, and the client feels backpressure instead
        of the service growing an unbounded task list; the next line is
        looked up only once the dispatches before it can have filled the
        cache."""
        if self._gate.locked():
            await self._gate.acquire()
            self._gate.release()

    async def _respond_gated(self, miss: _Miss,
                             writer: asyncio.StreamWriter) -> None:
        """Dispatch a miss under the gate permit its reader took, then
        write its response (the reader drains the buffer)."""
        try:
            response = await self._dispatch(miss)
        finally:
            self._gate.release()
        _write(writer, encode_response(response).encode())

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
            response = await self._answer(self._front_line(body.decode(
                "utf-8", errors="replace")))
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
        served = 0
        pending: Set[asyncio.Future] = set()

        def write(response: Dict[str, object]) -> None:
            out_stream.write(encode_response(response))
            out_stream.flush()

        async def respond(miss: _Miss) -> None:
            try:
                response = await self._dispatch(miss)
            finally:
                self._gate.release()
            write(response)

        while True:
            line = await loop.run_in_executor(None, in_stream.readline)
            if not line:
                break
            if not line.strip():
                continue
            served += 1
            front = self._front_line(line.strip())
            if isinstance(front, _Miss):
                await self._gate.acquire()
                _start(pending, respond(front))
            else:
                write(front)
            await self._await_permit()
        if pending:
            await asyncio.gather(*pending)
        return served


def _start(pending: Set[asyncio.Future], coro) -> None:
    """Run a response task, kept in ``pending`` until it finishes cleanly:
    a long-lived connection holds its in-flight responses (at most
    ``max_inflight``), never every one it has served.  A task that failed
    stays, so the connection's closing gather still surfaces its error."""
    task = asyncio.ensure_future(coro)
    pending.add(task)

    def forget(done: asyncio.Future) -> None:
        if not done.cancelled() and done.exception() is None:
            pending.discard(done)

    task.add_done_callback(forget)


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


def _write(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Put response lines on a connection's transport, unless the
    connection is closing (its client went away: they are dropped)."""
    if not writer.transport.is_closing():
        writer.write(data)


def _error_response(rid: object, type_: str, message: str,
                    typed: bool) -> Dict[str, object]:
    return {
        "id": rid if isinstance(rid, (str, int)) else None,
        "ok": False,
        "error": {"type": type_, "message": message, "typed": typed,
                  "kind": None, "slot": None},
    }


def encode_response(response: Dict[str, object]) -> str:
    """A response's wire line (JSONL, stdio, HTTP):
    ``json.dumps(response, sort_keys=True)`` and a newline.

    A report held as wire text (a ``str``, as the result cache stores it)
    is spliced in where the envelope, encoded with ``null`` in its place,
    has that ``null``.  The first ``"report": null`` is that placeholder:
    the keys sorting before it (``cached``, ``id``, ``ok``) hold scalars,
    and a JSON string cannot hold an unescaped quote."""
    report = response.get("report")
    if not isinstance(report, str):
        return json.dumps(response, sort_keys=True) + "\n"
    envelope = dict(response)
    envelope["report"] = None
    head, _, tail = json.dumps(envelope, sort_keys=True).partition(
        '"report": null')
    return head + '"report": ' + report + tail + "\n"


def _decoded(response: Dict[str, object]) -> Dict[str, object]:
    """An in-process caller's response: a report held as wire text is
    decoded, so the dict equals ``json.loads`` of the wire line."""
    report = response.get("report")
    if isinstance(report, str):
        response["report"] = json.loads(report)
    return response


async def _http_reply(writer: asyncio.StreamWriter, status: int,
                      doc: Dict[str, object]) -> None:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               422: "Unprocessable Entity"}
    body = encode_response(doc).encode()
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
