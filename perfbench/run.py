"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, every
metric as ``{"value", "unit"}``.  The line before it records the run's
environment (seed, host, versions, commit, offered rate and latency
limit).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_hot", "serve_fresh", "sim_sweep")


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment(workload: str, seed: int) -> Dict[str, object]:
    import numpy

    from streams import OPEN_LOOP, SIM_CALL_LIMIT_MS

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env: Dict[str, object] = {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit,
    }
    if workload in OPEN_LOOP:
        env["offered_rate_rps"] = OPEN_LOOP[workload]["rate_rps"]
        env["latency_limit_ms"] = OPEN_LOOP[workload]["limit_ms"]
    else:
        env["call_limit_ms"] = SIM_CALL_LIMIT_MS
    return env


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run: ``(metrics, attempted, failed, info)``."""
    if workload == "sim_sweep":
        import sim_sweep

        fn = sim_sweep.traced_run if trace else sim_sweep.timed_run
        return fn(seed, seconds, ROOT)
    import serve_workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as tmp_dir:
        fn = serve_workloads.traced_run if trace else serve_workloads.timed_run
        return asyncio.run(fn(workload, seed, seconds, ROOT, Path(tmp_dir)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    metrics, attempted, failed, info = run(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}; "
                           f"not measured: {missing}")
    # A per-layer metric whose layer does no work in this workload reads 0.
    metrics = {name: metrics.get(name, 0.0) for name in units}
    print(json.dumps({"environment": environment(args.workload, args.seed),
                      "info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
