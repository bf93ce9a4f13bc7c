"""Continuous micro-batching: many in-flight requests, one pool task.

PR 7's service dispatched one pool task per request, so a stream of
same-shape traffic paid per-request IPC and task pickling even when dozens
of requests were queued behind one busy worker.  This module coalesces
those requests the way production serving stacks do ("continuous
batching"): requests pending for a shard are grouped by their batch key —
``(system, (n_banks, bank_cycle))``, the same shape the shard's AT-space
tables are keyed by — and flushed to the worker as **one** pool task
running :func:`repro.serve.pool.serve_worker_batch`.

Flushing is request-count/drain-driven, never wall-clock:

* a batch is dispatched immediately while the shard's worker is free (an
  idle shard never waits for company — first request, batch of 1);
* while the shard's worker is busy, arrivals accumulate in the pending
  queue; the moment its batch completes, up to ``max_batch`` queued
  requests of the oldest pending key flush as the next batch.

No timers means no wall-clock nondeterminism in results: a request's
response depends only on its own spec (the worker runs each spec through
the same engine seam a serial run uses, and duplicate specs within a batch
are served by one engine run — bit-identical by the run-as-data purity the
result cache already relies on), never on which batch it happened to ride.

Typed per-request fault semantics are preserved end to end: the batch
worker returns one result dict per request (``ok``/``error`` exactly as the
single-request worker), and only a pool failure — such as the worker dying
mid-batch — rejects a batch's futures.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.criticality import rank_of
from repro.serve.shard import shape_of

BatchKey = Tuple[str, Optional[Tuple[int, int]]]


def batch_key(payload: Dict[str, object]) -> BatchKey:
    """The coalescing key: requests of one key share one worker batch.

    Keyed by ``(system, shape)`` — the granularity at which AT-space
    tables (and therefore warm-cache behavior) are shared."""
    system = str(payload.get("system"))
    params = dict(payload.get("params") or {})
    return (system, shape_of(system, params))


class _Entry:
    """One queued request: its key, its payload, and the future its
    response resolves."""

    __slots__ = ("key", "payload", "future", "rank", "seq")

    def __init__(self, key: BatchKey, payload: Dict[str, object],
                 future: "asyncio.Future[Dict[str, object]]",
                 rank: int, seq: int) -> None:
        self.key = key
        self.payload = payload
        self.future = future
        self.rank = rank
        self.seq = seq


class MicroBatcher:
    """Per-shard coalescing queues in front of a :class:`ShardedWorkerPool`.

    ``max_batch == 1`` degenerates to PR 7's per-request dispatch (every
    batch carries one request) — the baseline the serving bench compares
    against — through the identical code path.
    """

    def __init__(self, pool, max_batch: int = 8, metrics=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.max_batch = max_batch
        self.metrics = metrics
        self._pending: List[List[_Entry]] = [[] for _ in range(pool.n_shards)]
        #: Batches currently in flight per shard, at most one: a shard has
        #: one worker, and a batch queued inside the pool could no longer
        #: coalesce late arrivals.
        self._inflight: List[int] = [0] * pool.n_shards
        self._seq = itertools.count()

    # -- submission ----------------------------------------------------------

    async def submit(self, payload: Dict[str, object],
                     shard: Optional[int] = None,
                     criticality: Optional[str] = None) -> Dict[str, object]:
        """Queue one request; resolves with its per-request result dict.

        ``criticality`` (a :mod:`repro.sim.criticality` tier) only affects
        which pending key flushes first while the shard's worker is busy;
        it is never part of the payload, so batches, dedup, and
        cache entries are tier-blind."""
        if shard is None:
            shard = self.pool.shard_of(str(payload["system"]),
                                       dict(payload.get("params") or {}))
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, object]]" = loop.create_future()
        self._pending[shard].append(_Entry(batch_key(payload), payload, future,
                                           rank_of(criticality),
                                           next(self._seq)))
        self._flush(shard, loop)
        return await future

    # -- flushing ------------------------------------------------------------

    def _flush(self, shard: int, loop: asyncio.AbstractEventLoop) -> None:
        """Dispatch a batch if the shard's worker is free and work is pending.

        The lead entry is the best (criticality rank, arrival seq) pending
        request; its key flushes as one batch.  With no tags every rank is
        equal, so the lead is the *oldest* entry — a hot key arriving
        behind an older different-key request can never starve it, and the
        untagged path batches exactly as before."""
        if self._pending[shard] and not self._inflight[shard]:
            pending = self._pending[shard]
            lead = min(pending, key=lambda e: (e.rank, e.seq)).key
            take: List[_Entry] = []
            keep: List[_Entry] = []
            for entry in pending:
                if entry.key == lead and len(take) < self.max_batch:
                    take.append(entry)
                else:
                    keep.append(entry)
            self._pending[shard] = keep
            self._dispatch(shard, take, loop)

    def _dispatch(self, shard: int, entries: Sequence[_Entry],
                  loop: asyncio.AbstractEventLoop) -> None:
        self._inflight[shard] += 1
        if self.metrics is not None:
            self.metrics.stats("serve.batch.size").add(float(len(entries)))
            batches = self.metrics.counter("serve.batch")
            batches.incr("batches")
            batches.incr("requests", len(entries))

        future = asyncio.wrap_future(
            self.pool.submit([e.payload for e in entries], shard), loop=loop)
        future.add_done_callback(lambda f: self._complete(
            shard, entries, None if f.exception() else f.result(),
            f.exception()))

    def _complete(self, shard: int, entries: Sequence[_Entry],
                  results: Optional[List[Dict[str, object]]],
                  exc: Optional[BaseException]) -> None:
        self._inflight[shard] -= 1
        if exc is not None:
            # Pool failure: every request of the batch gets the exception
            # (the service turns it into an error response).
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        else:
            for entry, result in zip(entries, results or []):
                if not entry.future.done():
                    entry.future.set_result(result)
        self._flush(shard, asyncio.get_running_loop())

    # -- inspection ----------------------------------------------------------

    def pending(self) -> int:
        """Requests queued but not yet dispatched (in-flight excluded)."""
        return sum(len(p) for p in self._pending)

    def inflight_batches(self) -> int:
        return sum(self._inflight)

    def stats(self) -> Dict[str, object]:
        return {
            "max_batch": self.max_batch,
            "pending": self.pending(),
            "inflight_batches": self.inflight_batches(),
        }
