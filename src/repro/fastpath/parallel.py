"""Parallel sweep runner: fan run specs across worker processes.

A benchmark sweep is embarrassingly parallel — every run spec
(:func:`repro.obs.bench.run_spec`) is a pure function of its parameters,
with all randomness derived from an explicit seed inside the spec.  This
module maps specs across a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges the reports into one ``repro-bench/1`` document, bit-identical
to a serial run of the same specs (asserted for jobs ∈ {1, 2}).

Worker functions are module-level so they pickle under any start
method; per-spec wall times ride back alongside
the report and are merged into the document's ``timing`` section, never
into ``runs``.  Every spec is its own task: runs share no work, so
there is nothing to gain from grouping them (same-shape CFM specs can
still be run as a batch through :func:`repro.fastpath.stack.run_specs_stacked`).

A spec that raises inside a worker does not surface as a raw worker
traceback killing the whole sweep: the worker catches the
exception and sends it back as data, the surviving runs are preserved in
the document, and failures are listed in its ``failures`` section (the CLI
prints them to stderr and exits 1).
"""

from __future__ import annotations

import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import SCHEMA, ops_per_sec, run_spec

RunReport = Dict[str, object]
#: (report or None, wall seconds, error string or None) per spec.
SpecResult = Tuple[Optional[RunReport], float, Optional[str]]
#: Streaming callback: ``on_result(index, spec, result)`` as each lands.
ResultCallback = Callable[[int, Dict[str, object], SpecResult], None]


def derive_seed(base: int, *keys: object) -> int:
    """A deterministic per-config seed: fold ``keys`` into ``base``.

    Same derivation idiom as :func:`repro.sim.rng.derive_rng` (crc32 of the
    key tuple) so sweep points get independent, reproducible streams no
    matter which worker runs them or in what order."""
    digest = zlib.crc32(repr(keys).encode("utf-8"))
    return (int(base) * 0x9E3779B1 + digest) % (2**31 - 1)


def _timed_run_spec(spec: Dict[str, object]) -> SpecResult:
    """Worker task: one spec -> (report, wall seconds, error).  Module-level
    so it pickles; exceptions come back as strings, not tracebacks that
    abort the sweep."""
    t0 = time.perf_counter()
    try:
        report = run_spec(spec)
    except Exception as exc:
        tb = traceback.format_exc(limit=8)
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}\n{tb}"
    return report, time.perf_counter() - t0, None


def map_specs(
    specs: Sequence[Dict[str, object]], jobs: int = 1,
    on_result: Optional[ResultCallback] = None,
) -> List[SpecResult]:
    """Run every spec, ``jobs`` at a time; results in spec order.

    ``jobs <= 1`` runs inline (no pool, no pickling) — the degenerate case
    the equivalence tests compare the pooled path against.

    Pooled execution streams through ``ProcessPoolExecutor.map``: results
    surface one at a time, in spec order, as workers finish them.
    ``on_result(index, spec, result)`` — when given — fires per completed
    spec on both paths, so a caller can report progress (or a first
    failure) while later specs are still running."""
    def collect(stream) -> List[SpecResult]:
        results = []
        for i, result in enumerate(stream):
            if on_result is not None:
                on_result(i, specs[i], result)
            results.append(result)
        return results

    if jobs <= 1 or len(specs) <= 1:
        return collect(map(_timed_run_spec, specs))
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        return collect(pool.map(_timed_run_spec, specs))


def sweep(
    specs: Sequence[Dict[str, object]],
    jobs: int = 1,
    name: str = "sweep",
    quick: bool = False,
    timing: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Run a spec list (optionally in parallel) into one bench document.

    ``runs`` holds the deterministic reports in spec order, as in
    :func:`repro.obs.bench.run_benchmark` output; wall-clock data goes to
    the ``timing`` section only (``benchmarks/sweep.py`` prints it).
    ``repro bench`` runs every benchmark here with ``timing=False``, so
    its documents are the same at any ``jobs``.  Specs that raised are
    dropped from ``runs``/``timing`` and reported — spec and error string —
    in a ``failures`` section, so one bad spec costs its own report, not
    the sweep's.

    ``progress`` — when given — receives one event dict per completed spec
    *as it completes* (``{"index", "total", "system", "wall_time_s",
    "error"}``), streamed off :func:`map_specs`: a failure in spec 2 of 40
    surfaces on event 2, not after the whole pool drains.
    The document itself is unaffected (progress is observational only)."""
    t0 = time.perf_counter()
    on_result: Optional[ResultCallback] = None
    if progress is not None:
        total = len(specs)

        def on_result(i: int, spec: Dict[str, object],
                      result: SpecResult) -> None:
            _report, elapsed, err = result
            progress({
                "index": i,
                "total": total,
                "system": spec.get("system"),
                "wall_time_s": elapsed,
                "error": None if err is None else str(err).splitlines()[0],
            })

    results = map_specs(specs, jobs=jobs, on_result=on_result)
    wall = time.perf_counter() - t0
    doc: Dict[str, object] = {
        "bench": name,
        "schema": SCHEMA,
        "quick": bool(quick),
        "runs": [report for report, _, err in results if err is None],
    }
    failures = [
        {"spec": dict(spec), "error": err}
        for spec, (_, _, err) in zip(specs, results)
        if err is not None
    ]
    if failures:
        doc["failures"] = failures
    if timing:
        doc["timing"] = {
            "wall_time_s": wall,
            "jobs": int(jobs),
            "runs": [
                {
                    "system": report["system"],
                    "wall_time_s": elapsed,
                    "ops_per_sec": ops_per_sec(report, elapsed),
                }
                for report, elapsed, err in results
                if err is None
            ],
        }
    return doc
