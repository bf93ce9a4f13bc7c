"""The persistent sharded worker pool behind the serving front-end.

One single-worker :class:`concurrent.futures.ProcessPoolExecutor` per
shard, each worker long-lived: it forks at the shard's first dispatch and
then serves every later request with its imports done, which is what the
throughput bench measures against a fresh-process-per-request baseline
(``benchmarks/bench_serve.py``).  Routing is by shape
(:mod:`repro.serve.shard`), so same-shape requests meet in one shard's
micro-batches.

Failure semantics follow the sweep's failures-as-data convention
(:mod:`repro.fastpath.parallel`): the worker function never raises.  A
typed fault (:class:`repro.faults.FaultError` subclass or
:class:`repro.sim.engine.SimulationTimeout`) comes back as
``{"ok": False, "error": {..., "typed": True}}`` — a per-request outcome,
not a worker death — and anything else as an untyped error dict.  The
worker that served a faulted request serves the next one.  A worker that
*dies* fails its running batch with ``BrokenProcessPool``, and the shard's
next dispatch replaces the executor.

:meth:`ShardedWorkerPool.submit` carries a whole micro-batch of requests
(:func:`serve_worker_batch`) through **one** executor task — one
pickle/IPC round trip instead of one per request — and runs duplicate
specs within the batch once (runs are pure functions of their spec, so
replicating the result is bit-identical to re-running it).  The
continuous batcher (:mod:`repro.serve.batch`) builds batches; this module
only executes them.

Workers belong to their server.  A forked worker inherits the server's
asyncio signal handling, under which SIGTERM did nothing and a signal was
forwarded to the server's loop; :func:`_init_worker` restores SIGTERM,
leaves Ctrl-C to the server (which drains) and exits the worker once its
server is gone, even if the server was SIGKILLed.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.serve.shard import Shape, shard_for

WorkerResult = Dict[str, object]

#: How often a worker checks that its server is still alive (seconds).
PARENT_POLL_S = 0.5


def _init_worker(server: int) -> None:
    """Executor initializer: make a forked worker obey SIGTERM, ignore
    SIGINT, stop writing signals into the server's wakeup fd, and exit
    when the server process ``server`` is gone."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == server:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="server-watch", daemon=True).start()


def _executor() -> ProcessPoolExecutor:
    """A one-worker executor whose worker runs :func:`_init_worker`."""
    return ProcessPoolExecutor(max_workers=1, initializer=_init_worker,
                               initargs=(os.getpid(),))


def _error_payload(exc: BaseException, typed: bool) -> Dict[str, object]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "typed": typed,
        "kind": getattr(exc, "kind", None),
        "slot": getattr(exc, "slot", None),
    }


def _run_injected(params: Dict[str, object],
                  inject: Dict[str, object]) -> Dict[str, object]:
    """A cfm spec under a seeded fault plan, via the chaos runner.

    Returns the chaos outcome dict — ``outcome["outcome"]`` is either
    ``"completed"`` or the typed error's class name (the chaos harness's
    complete-or-typed-error invariant guarantees nothing else)."""
    from repro.faults.chaos import chaos_cfm
    from repro.faults.plan import FaultEvent, FaultPlan

    if "events" in inject:
        plan = FaultPlan.of(
            [FaultEvent(kind=e["kind"], target=e["target"], start=e["start"],
                        duration=e["duration"], extra=e["extra"])
             for e in inject["events"]],
            seed=int(inject.get("seed", 0)),
        )
    else:
        n_procs = int(params.get("n_procs", 4))
        bank_cycle = int(params.get("bank_cycle", 1))
        plan = FaultPlan.generate(
            int(inject.get("seed", 0)),
            n_banks=n_procs * bank_cycle, n_procs=n_procs,
            horizon=int(inject.get("horizon", 256)),
            n_events=int(inject.get("n_events", 3)),
            kinds=tuple(inject["kinds"]),
        )
    return chaos_cfm(
        plan,
        n_procs=int(params.get("n_procs", 4)),
        bank_cycle=int(params.get("bank_cycle", 1)),
        rounds=int(inject.get("rounds", 2)),
    )


def serve_worker(payload: Dict[str, object]) -> WorkerResult:
    """Worker-side entry point: one request payload → one result dict.

    Never raises — every outcome, including typed faults, is data."""
    from repro.faults.errors import FaultError
    from repro.obs.bench import run_spec
    from repro.sim.engine import SimulationTimeout

    t0 = time.perf_counter()
    base: Dict[str, object] = {"pid": os.getpid()}
    try:
        inject = payload.get("inject")
        if inject is not None:
            outcome = _run_injected(dict(payload.get("params") or {}),
                                    dict(inject))
            if outcome["outcome"] == "completed":
                base.update(ok=True, report=outcome)
            else:
                # The chaos runner already converted the typed error to
                # data; forward it as the per-request error payload.
                base.update(ok=False, error={
                    "type": str(outcome["outcome"]),
                    "message": str(outcome.get("error") or outcome["outcome"]),
                    "typed": bool(outcome.get("typed")),
                    "kind": "fault",
                    "slot": None,
                })
        else:
            report = run_spec({"system": payload["system"],
                               "params": payload.get("params") or {}})
            base.update(ok=True, report=report)
    except (FaultError, SimulationTimeout) as exc:
        base.update(ok=False, error=_error_payload(exc, typed=True))
    except Exception as exc:  # noqa: BLE001 — failures-as-data boundary
        base.update(ok=False, error=_error_payload(exc, typed=False))
    base["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return base


def serve_worker_batch(payloads: Sequence[Dict[str, object]]
                       ) -> List[WorkerResult]:
    """Worker-side batch entry point: N payloads → N result dicts, one IPC.

    Per-request semantics are exactly :func:`serve_worker`'s (typed faults
    as data, never raises, each run timed on its own); duplicate specs are
    served by one engine run.  Fault-injected payloads are never
    deduplicated — each one exercises the fault path it asked for."""
    from repro.serve.cache import canonical_payload

    results: List[Optional[WorkerResult]] = [None] * len(payloads)
    seen: Dict[str, int] = {}
    for i, payload in enumerate(payloads):
        if payload.get("inject") is None:
            key = canonical_payload(payload)
            first = seen.get(key)
            if first is not None:
                dup = dict(results[first])  # type: ignore[arg-type]
                dup["deduped"] = True
                results[i] = dup
                continue
            seen[key] = i
        results[i] = serve_worker(payload)
    return results  # type: ignore[return-value]


class ShardedWorkerPool:
    """``n_shards`` persistent single-worker executors.

    Workers fork with the platform's default start method at their
    shard's first dispatch, so they inherit whatever the parent patched
    before that dispatch.
    """

    def __init__(self, n_shards: int = 2):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.dispatched: List[int] = [0] * n_shards
        self.batches: List[int] = [0] * n_shards
        self._executors = [_executor() for _ in range(n_shards)]

    # -- routing -------------------------------------------------------------

    def shard_of(self, system: str, params: Dict[str, object],
                 shape: Optional[Shape] = None) -> int:
        return shard_for(system, params, self.n_shards, shape)

    # -- dispatch ------------------------------------------------------------

    def submit(self, payloads: Sequence[Dict[str, object]],
               shard: int) -> "Future[List[WorkerResult]]":
        """Dispatch a micro-batch to ``shard`` as one executor task.

        A dead worker's executor refuses the task, which then goes to a
        fresh replacement.  :func:`serve_worker_batch` is looked up per
        call, so a replacement installed before the workers fork runs."""
        self.dispatched[shard] += len(payloads)
        self.batches[shard] += 1
        batch = list(payloads)
        try:
            return self._executors[shard].submit(serve_worker_batch, batch)
        except BrokenProcessPool:
            self._executors[shard].shutdown(wait=False)
            self._executors[shard] = _executor()
            return self._executors[shard].submit(serve_worker_batch, batch)

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "dispatched": list(self.dispatched),
            "batches": list(self.batches),
        }

    def close(self) -> None:
        """Finish the submitted work, then stop every worker."""
        for executor in self._executors:
            executor.shutdown(wait=True)

    def terminate(self) -> None:
        """Stop every worker now, abandoning any batch still running.

        Executors have no public way to kill their workers, so this is the
        one place that reads their private process table."""
        for executor in self._executors:
            for process in list((executor._processes or {}).values()):
                process.kill()
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()
