"""``repro.serve`` — the sharded async simulation service.

The ROADMAP's "heavy traffic" direction: instead of one CLI run, a
long-running front-end accepts streams of workload requests (JSONL over
TCP/stdio, plus a minimal HTTP endpoint), validates them into the same
picklable run specs the bench harness executes
(:func:`repro.obs.bench.run_spec`), and dispatches them to a persistent
multiprocess pool sharded by ``(b, c)`` machine shape, so same-shape
requests coalesce into one worker task.

Layers (one module each):

* :mod:`repro.serve.spec`    — request validation (``RequestError`` in,
  never a worker crash out);
* :mod:`repro.serve.shard`   — deterministic shape→shard routing on the
  sweep's crc32 seed derivation;
* :mod:`repro.serve.cache`   — content-addressed LRU result cache:
  canonical spec hash → completed report's wire text (encoded once, on
  the miss), hits spliced into their line byte-identical to a fresh run,
  fault-injected/failed runs never cached;
* :mod:`repro.serve.batch`   — continuous micro-batching: per-shard
  coalescing by ``(system, shape)``, count/drain-driven flushes (never
  wall-clock), one pool task per batch;
* :mod:`repro.serve.pool`    — one persistent single-worker process
  executor per shard, rebuilt if its worker dies; failures-as-data batch
  workers;
* :mod:`repro.serve.service` — the asyncio front-end: one synchronous
  front half that answers hits, rejections and control ops inline,
  streaming responses for dispatched misses, bounded in-flight depth
  (backpressure), per-tenant/per-shape metrics, graceful drain on
  shutdown.

Serving invariants (tested in ``tests/test_serve.py``,
``tests/test_serve_batch.py``, ``tests/test_serve_cache.py``, benched in
``benchmarks/bench_serve.py``, smoked in CI's ``serve-smoke`` job):

1. a served report is bit-identical to ``run_spec`` run serially —
   whether it came from a worker, a micro-batch, or the result cache;
2. a faulted request returns a typed error response and the worker that
   served it survives to serve the next request; faulted runs never
   populate the result cache; a killed worker costs only its batch;
3. in-flight depth never exceeds ``max_inflight`` (the reader parks);
4. persistent sharded throughput ≥ 2x a fresh-process-per-request
   baseline, and
   micro-batched dispatch ≥ 2x per-request dispatch under concurrent
   same-shape traffic.
"""

from repro.serve.batch import MicroBatcher, batch_key
from repro.serve.cache import (
    ResultCache,
    cacheable,
    canonical_payload,
    payload_key,
)
from repro.serve.pool import ShardedWorkerPool, serve_worker, serve_worker_batch
from repro.serve.service import SimulationService
from repro.serve.shard import shape_of, shard_for, shard_for_shape
from repro.serve.spec import (
    DEFAULT_TENANT,
    RequestError,
    ServeRequest,
    validate_request,
)

__all__ = [
    "DEFAULT_TENANT",
    "MicroBatcher",
    "RequestError",
    "ResultCache",
    "ServeRequest",
    "ShardedWorkerPool",
    "SimulationService",
    "batch_key",
    "cacheable",
    "canonical_payload",
    "payload_key",
    "serve_worker",
    "serve_worker_batch",
    "shape_of",
    "shard_for",
    "shard_for_shape",
    "validate_request",
]
