#!/usr/bin/env python
"""Parallel configuration sweep driver.

Builds a grid of run specs — the registered benchmark suites and/or an
explicit CFM shape × cycles grid — fans them across worker processes with
:func:`repro.fastpath.parallel.sweep`, and writes ONE merged
``BENCH_sweep.json`` (schema ``repro-bench/1``).  Per-config seeds are
derived deterministically from the base seed and the config key
(:func:`repro.fastpath.parallel.derive_seed`), so the merged document is
identical no matter how many jobs ran it or how the pool interleaved them.

Usage::

    PYTHONPATH=src python benchmarks/sweep.py --jobs 4
    PYTHONPATH=src python benchmarks/sweep.py --jobs 8 --bench cfm partial
    PYTHONPATH=src python benchmarks/sweep.py --rates 0.02 0.04 --seeds 3
    PYTHONPATH=src python benchmarks/sweep.py --engine stacked
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List


def build_specs(args) -> List[Dict[str, object]]:
    from repro.fastpath.parallel import derive_seed
    from repro.obs.bench import benchmark_specs

    specs: List[Dict[str, object]] = []
    for name in args.bench:
        specs.extend(benchmark_specs(name, quick=args.quick))
    # Rate × seed grid over the retry simulators (the Fig 3.13/3.14 axes).
    cycles = 5_000 if args.quick else 30_000
    for rate in args.rates:
        for rep in range(args.seeds):
            seed = derive_seed(args.seed, "sweep", rate, rep)
            specs.append({
                "system": "interleaved",
                "params": {"n_procs": 8, "n_modules": 8, "rate": rate,
                           "beta": 17, "cycles": cycles, "seed": seed},
            })
            specs.append({
                "system": "partial",
                "params": {"n_procs": 64, "n_modules": 8, "bank_cycle": 1,
                           "rate": rate, "locality": 0.9, "cycles": cycles,
                           "seed": seed},
            })
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fan a benchmark sweep across worker processes, "
        "writing one merged BENCH_sweep.json.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--bench", nargs="*", default=["quick"],
                        metavar="NAME",
                        help="registered benchmark suites to include "
                        "(default: quick)")
    parser.add_argument("--rates", nargs="*", type=float, default=[],
                        metavar="R",
                        help="access rates for the retry-simulator grid")
    parser.add_argument("--seeds", type=int, default=1, metavar="K",
                        help="seed replicates per grid point (default: 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed the per-config seeds derive from")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down runs")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: cwd)")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit the wall-time section (machine-portable "
                        "documents)")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per completed spec to stderr "
                        "as it streams off the pool (failures surface "
                        "immediately, not after the sweep drains)")
    parser.add_argument("--engine", default=None, metavar="ENGINE",
                        help="pin an engine on every spec whose system "
                        "supports it (e.g. --engine stacked)")
    args = parser.parse_args(argv)

    from repro.fastpath.parallel import sweep
    from repro.obs.bench import BENCH_SPECS, pin_specs, write_document

    unknown = [n for n in args.bench if n not in BENCH_SPECS]
    if unknown:
        print(f"error: unknown bench id {unknown[0]!r} "
              f"(valid: {' '.join(sorted(BENCH_SPECS))})", file=sys.stderr)
        return 2
    if args.engine is not None:
        from repro.fastpath.engine import ENGINES

        if args.engine not in ENGINES:
            print(f"error: unknown engine {args.engine!r} "
                  f"(valid: {' '.join(ENGINES)})", file=sys.stderr)
            return 2
    specs = pin_specs(build_specs(args), engine=args.engine)
    progress = None
    if args.progress:
        def progress(event):
            mark = "FAIL" if event["error"] else "ok"
            line = (f"[{event['index'] + 1}/{event['total']}] "
                    f"{event['system']} {mark} ({event['wall_time_s']:.2f}s)")
            if event["error"]:
                line += f": {event['error']}"
            print(line, file=sys.stderr, flush=True)
    doc = sweep(specs, jobs=args.jobs, name="sweep", quick=args.quick,
                timing=not args.no_timing, progress=progress)
    path = write_document(doc, "sweep", out_dir=args.out)
    timing = doc.get("timing") or {}
    wall = timing.get("wall_time_s")
    suffix = f" in {wall:.2f}s" if wall is not None else ""
    print(f"wrote {path}: {len(specs)} runs, jobs={args.jobs}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
