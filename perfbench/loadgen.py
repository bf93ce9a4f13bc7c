"""The load generator: one process, at most two JSONL connections.

Two loop shapes drive ``repro serve``:

* :meth:`Client.open_loop` sends on a fixed schedule whether or not
  earlier requests have been answered, and times each request from when
  it was *due*, so a stall in the server or in the generator is charged to
  every request it delays.  How late each send actually went out is kept
  too (:attr:`Sample.late_ms`).
* :meth:`Client.closed_loop` keeps a fixed window of requests outstanding
  on each connection and sends the next one only when a response arrives.

Every response is kept as a :class:`Sample`; reports are kept only where
the caller asks for them (for checking against serial runs).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from streams import Feed, Prepared

#: Responses can carry large reports and ledger dumps.
_READ_LIMIT = 1 << 26
#: A request unanswered this long after the phase ends counts as failed.
DRAIN_TIMEOUT_S = 60.0


@dataclass(slots=True)
class Sample:
    """One request's outcome as the client saw it."""

    key: str
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False
    answered: bool = False
    cached: bool = False
    deduped: bool = False
    wall_ms: float = 0.0
    cycles: int = 0
    report: Optional[Dict[str, object]] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class _Conn:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[str, Sample] = {}
        self.on_answer: Optional[Callable[["_Conn"], None]] = None


class Client:
    """Two load connections plus one control connection to a running
    server.

    ``keep_report(key)`` decides which responses keep their report."""

    def __init__(self, host: str, port: int,
                 keep_report: Callable[[str], bool] = lambda key: False
                 ) -> None:
        self.host = host
        self.port = port
        self.keep_report = keep_report
        self._conns: List[_Conn] = []
        self._readers: List[asyncio.Task] = []
        self._control: Optional[_Conn] = None

    async def __aenter__(self) -> "Client":
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=_READ_LIMIT)
            conn = _Conn(reader, writer)
            self._conns.append(conn)
            self._readers.append(asyncio.ensure_future(self._read(conn)))
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=_READ_LIMIT)
        self._control = _Conn(reader, writer)
        # The generator's own collector pauses would read as server
        # latency: collect once, then keep it off while connected.
        gc.collect()
        gc.disable()
        return self

    async def __aexit__(self, *exc_info) -> None:
        for conn in self._conns + [self._control]:
            if conn is not None:
                conn.writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for conn in self._conns + [self._control]:
            if conn is not None:
                try:
                    await conn.writer.wait_closed()
                except (ConnectionError, RuntimeError):
                    pass
        gc.enable()

    # -- plumbing ------------------------------------------------------------

    def _send(self, conn: _Conn, request: Prepared,
              due: Optional[float] = None) -> Sample:
        now = time.perf_counter()
        sample = Sample(key=request.key, due=now if due is None else due,
                        sent=now)
        conn.pending[request.rid] = sample
        conn.writer.write(request.line)
        return sample

    async def _read(self, conn: _Conn) -> None:
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            done = time.perf_counter()
            response = json.loads(line)
            sample = conn.pending.pop(str(response.get("id")), None)
            if sample is None:
                continue
            sample.done = done
            sample.answered = True
            sample.ok = bool(response.get("ok"))
            sample.cached = bool(response.get("cached"))
            sample.wall_ms = float(response.get("wall_ms") or 0.0)
            sample.deduped = bool((response.get("worker") or {})
                                  .get("deduped"))
            report = response.get("report")
            if isinstance(report, dict):
                sample.cycles = int(report.get("cycles") or 0)
                if self.keep_report(sample.key):
                    sample.report = report
            if conn.on_answer is not None:
                conn.on_answer(conn)

    async def _drain(self) -> None:
        """Wait until every load request sent so far is answered."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for conn in self._conns:
            await conn.writer.drain()
        while any(c.pending for c in self._conns):
            if time.perf_counter() > deadline:
                return  # unanswered samples stay answered=False: failed
            await asyncio.sleep(0.002)

    # -- loops ---------------------------------------------------------------

    async def open_loop(self, requests: Feed, rate: float,
                        seconds: float) -> List[Sample]:
        """Send ``rate * seconds`` requests on a fixed schedule."""
        n = max(1, int(rate * seconds))
        requests.prefill(n)
        samples: List[Sample] = []
        start = time.perf_counter() + 0.01
        for i in range(n):
            due = start + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            conn = self._conns[i % len(self._conns)]
            samples.append(self._send(conn, next(requests), due=due))
        await self._drain()
        return samples

    async def closed_loop(self, requests: Feed, window: int, seconds: float,
                          expected_rps: float) -> "tuple[List[Sample], float, float]":
        """Keep ``window`` requests outstanding per connection for
        ``seconds``; returns the samples and the phase's start and end.

        ``expected_rps`` sizes the requests encoded before the phase."""
        requests.prefill(int(expected_rps * seconds))
        samples: List[Sample] = []
        start = time.perf_counter()
        end = start + seconds

        def refill(conn: _Conn) -> None:
            if time.perf_counter() < end:
                samples.append(self._send(conn, next(requests)))

        for conn in self._conns:
            conn.on_answer = refill
            for _ in range(window):
                samples.append(self._send(conn, next(requests)))
        while time.perf_counter() < end:
            await asyncio.sleep(0.01)
        for conn in self._conns:
            conn.on_answer = None
        await self._drain()
        return samples, start, end

    async def send_all(self, requests: List[Prepared],
                       window: int) -> List[Sample]:
        """Closed loop over a fixed list (warm-up): all answered on return."""
        samples: List[Sample] = []
        it = iter(requests)

        def refill(conn: _Conn) -> None:
            request = next(it, None)
            if request is not None:
                samples.append(self._send(conn, request))

        for conn in self._conns:
            conn.on_answer = refill
            for _ in range(window):
                refill(conn)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while (len(samples) < len(requests)
               or any(c.pending for c in self._conns)):
            if time.perf_counter() > deadline:
                break  # unanswered samples stay answered=False: failed
            await asyncio.sleep(0.005)
        for conn in self._conns:
            conn.on_answer = None
        return samples

    async def control(self, request: Dict[str, object]) -> Dict[str, object]:
        """One control request (``op``) on the control connection."""
        conn = self._control
        if conn is None:
            raise RuntimeError("client is not connected")
        conn.writer.write((json.dumps(request) + "\n").encode())
        await conn.writer.drain()
        line = await asyncio.wait_for(conn.reader.readline(),
                                      timeout=DRAIN_TIMEOUT_S)
        return json.loads(line)
