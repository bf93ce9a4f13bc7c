"""The per-layer cost ledger: timing wrappers around each layer's calls.

Nothing under ``src/`` is edited.  :func:`install_serve` replaces, in the
already-imported ``repro`` modules of one process, the functions each
serving layer calls into the next with timed copies that record into a
:class:`Ledger`; :func:`install_sim` does the same for the simulator entry
points.  The traced server (``traced_server.py``) installs both before the
worker pools fork, so the workers inherit the simulator wrappers and ship
their timings back inside the batch results they already return.

Samples are kept in memory per phase (the client names the phase with a
control request) and handed out whole by the ``dump`` control request.
The ledger keeps timings only: counts the server already publishes (cache
hits, evictions, batch sizes, stack widths, table misses, in-flight depth,
dedup) are read from ``GET /metrics`` and the response fields instead.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Control op the traced server answers: ``{"op": CONTROL_OP,
#: "action": "phase", "name": ...}`` starts a phase, ``"dump"`` returns
#: every phase's samples.
CONTROL_OP = "perfbench_ledger"

#: Key under which a traced worker attaches its timings to the first
#: result of a batch (removed again before the service sees the result).
WORKER_KEY = "_perfbench"


class Ledger:
    """Timing samples (lists of seconds), grouped by phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.phases: Dict[str, Dict[str, List[float]]] = {}

    def add(self, name: str, value: float) -> None:
        phase = self.phases.setdefault(self.phase, {})
        phase.setdefault(name, []).append(value)

    def start_phase(self, name: str) -> None:
        self.phase = name
        self.phases.setdefault(name, {})


def classify(spec: Dict[str, object]) -> Optional[str]:
    """The layer path a run spec exercises, as a per-layer metric prefix."""
    params = spec.get("params") or {}
    system = spec.get("system")
    if system == "cfm":
        return f"cfm.{params.get('engine') or 'observed'}"
    if system == "cache":
        return f"cache_sys.{params.get('workload', 'mix')}"
    if system == "hierarchy":
        return f"hierarchy.{params.get('workload', 'local')}"
    return None


def _rename(wrapper: Callable, original: Callable) -> Callable:
    """Give a wrapper the original's import path, so a pickled reference
    to it (a worker task) resolves to the wrapper in a forked worker."""
    wrapper.__module__ = original.__module__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def install_sim(record: Callable[[str, float], None]) -> None:
    """Time every :func:`run_spec` and stacked call of this process.

    Records ``run_spec.<system>`` (seconds per call) and, per layer path,
    ``<class>.s`` and ``<class>.slots`` so slots per second can be summed."""
    import repro.fastpath.stack as stack_mod
    import repro.obs.bench as bench_mod

    run_spec = bench_mod.run_spec
    run_specs_stacked = stack_mod.run_specs_stacked

    def timed_run_spec(spec):
        t0 = time.perf_counter()
        report = run_spec(spec)
        dt = time.perf_counter() - t0
        record(f"run_spec.{spec.get('system')}", dt)
        cls = classify(spec)
        if cls is not None:
            record(f"{cls}.s", dt)
            record(f"{cls}.slots", float(report.get("cycles") or 0))
        return report

    def timed_stacked(specs):
        t0 = time.perf_counter()
        reports = run_specs_stacked(specs)
        dt = time.perf_counter() - t0
        record("cfm.stacked.s", dt)
        record("cfm.stacked.slots",
               float(sum(r.get("cycles") or 0 for r in reports)))
        return reports

    bench_mod.run_spec = _rename(timed_run_spec, run_spec)
    stack_mod.run_specs_stacked = _rename(timed_stacked, run_specs_stacked)


def install_serve(ledger: Ledger) -> None:
    """Wrap the serving layers' calls; must run before the pools fork."""
    import json

    import repro.serve.batch as batch_mod
    import repro.serve.cache as cache_mod
    import repro.serve.pool as pool_mod
    import repro.serve.service as service_mod

    clock = time.perf_counter
    add = ledger.add

    # Worker side: runs inherit these through fork.
    worker_runs: List[List[object]] = []
    install_sim(lambda name, value: worker_runs.append([name, value]))
    serve_worker_batch = pool_mod.serve_worker_batch

    def timed_batch(payloads):
        worker_runs.clear()
        t0 = clock()
        results = serve_worker_batch(payloads)
        batch_s = clock() - t0
        if results:
            results[0] = dict(results[0])
            results[0][WORKER_KEY] = {"batch_s": batch_s,
                                      "runs": list(worker_runs)}
        return results

    pool_mod.serve_worker_batch = _rename(timed_batch, serve_worker_batch)

    # repro.serve.service: framing (JSON decode/encode).
    class TimedJson:
        @staticmethod
        def loads(text, **kw):
            t0 = clock()
            obj = json.loads(text, **kw)
            add("service.decode", clock() - t0)
            return obj

        @staticmethod
        def dumps(obj, **kw):
            t0 = clock()
            text = json.dumps(obj, **kw)
            add("service.encode", clock() - t0)
            return text

    service_mod.json = TimedJson

    def timed(name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kw):
            t0 = clock()
            out = fn(*args, **kw)
            add(name, clock() - t0)
            return out
        return wrapper

    # repro.serve.spec and repro.serve.cache, as the service calls them.
    service_mod.validate_request = timed("spec.validate",
                                         service_mod.validate_request)
    service_mod.payload_key = timed("cache.key", service_mod.payload_key)
    get, put = cache_mod.ResultCache.get, cache_mod.ResultCache.put
    cache_mod.ResultCache.get = timed("cache.get", get)
    cache_mod.ResultCache.put = timed("cache.put", put)

    control = service_mod.SimulationService._control

    def traced_control(self, obj):
        if obj.get("op") == CONTROL_OP:
            return _control(ledger, obj)
        return control(self, obj)

    service_mod.SimulationService._control = traced_control

    # repro.serve.batch: queue wait; repro.serve.pool: the batch's round
    # trip through the pool, and the worker's own timings.
    entry_cls = batch_mod._Entry

    class StampedEntry(entry_cls):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.t_enqueued = clock()

    batch_mod._Entry = StampedEntry
    dispatch = batch_mod.MicroBatcher._dispatch
    complete = batch_mod.MicroBatcher._complete
    dispatched_at: Dict[int, float] = {}

    def traced_dispatch(self, shard, entries, loop):
        now = clock()
        for entry in entries:
            add("batch.wait", now - entry.t_enqueued)
        dispatched_at[id(entries)] = now
        return dispatch(self, shard, entries, loop)

    def traced_complete(self, shard, entries, results, exc):
        t0 = dispatched_at.pop(id(entries), None)
        if results:
            extra = results[0].pop(WORKER_KEY, None)
            if t0 is not None:
                roundtrip = clock() - t0
                worker_ms = sum(float(r.get("wall_ms") or 0.0)
                                for r in results if not r.get("deduped"))
                add("pool.roundtrip", roundtrip)
                add("pool.ipc", roundtrip - worker_ms / 1e3)
            if extra is not None:
                add(f"pool.busy.shard{shard}", extra["batch_s"])
                for name, value in extra["runs"]:
                    add(name, value)
        return complete(self, shard, entries, results, exc)

    batch_mod.MicroBatcher._dispatch = traced_dispatch
    batch_mod.MicroBatcher._complete = traced_complete


def _control(ledger: Ledger, obj: Dict[str, object]) -> Dict[str, object]:
    action = obj.get("action")
    if action == "phase":
        ledger.start_phase(str(obj.get("name")))
        return {"id": obj.get("id"), "ok": True}
    if action == "dump":
        return {"id": obj.get("id"), "ok": True, "phases": ledger.phases}
    return {"id": obj.get("id"), "ok": False,
            "error": f"unknown ledger action {action!r}"}
