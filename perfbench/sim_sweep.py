"""The ``sim_sweep`` workload: the simulator's entry points, in process.

One pass calls every entry of :func:`streams.sim_calls` once, in an order
drawn from the seed; passes repeat until ``seconds`` are used up.  Only the
call itself is timed; the host's speed is calibrated between passes, and
the rate metrics are given at the reference speed (:mod:`hostspeed`).  After timing, each call's simulated statistics
(``completed``, ``cycles``, ``latency``, ``conflicts``; per lane for the
stacked call) are hashed and compared with ``sim_digest.json``: the
simulated statistics are deterministic, so any difference is a failed
call, and a change meant only to speed the simulator up cannot move them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import hostspeed
from stats import median, percentile
from streams import SIM_CALL_LIMIT_MS, canonical, sim_calls, sim_order

DIGEST_PATH = Path(__file__).with_name("sim_digest.json")
SETUP_LAUNCHES = 3

#: Imports plus the first call of the list, in a fresh interpreter.
_SETUP_CODE = """
import json, sys
from repro.obs.bench import run_spec
run_spec(json.loads(sys.argv[1]))
"""


def simulated_stats(result) -> List[Dict[str, object]]:
    reports = result if isinstance(result, list) else [result]
    return [{k: r.get(k) for k in ("completed", "cycles", "latency",
                                   "conflicts")} for r in reports]


def digest(result) -> str:
    return hashlib.sha256(
        canonical({"stats": simulated_stats(result)}).encode()).hexdigest()


def _call(spec):
    """One entry of the list through the public entry points."""
    from repro.fastpath.stack import run_specs_stacked
    from repro.obs.bench import run_spec

    if isinstance(spec, list):
        return run_specs_stacked(spec)
    return run_spec(spec)


def record_digests() -> Dict[str, str]:
    """Recompute the expected digests (after a deliberate model change)."""
    digests = {cls: digest(_call(spec)) for cls, spec in sim_calls()}
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    return digests


def _setup_times(root: Path) -> List[float]:
    first = json.dumps(sim_calls()[0][1])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, first], cwd=root,
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Call:
    """One timed call of the list."""

    __slots__ = ("cls", "seconds", "slots", "ok")

    def __init__(self, cls: str, seconds: float, slots: int, ok: bool):
        self.cls, self.seconds, self.slots, self.ok = cls, seconds, slots, ok


def _passes(seed: int, seconds: float
            ) -> Tuple[List[Call], List[float], List[float]]:
    """Run passes until ``seconds`` are used (at least one pass); returns
    every call, and each pass's slots/s and calls/s at the reference host
    speed."""
    calls = sim_calls()
    expected = json.loads(DIGEST_PATH.read_text())
    done: List[Call] = []
    pass_slots: List[float] = []
    pass_calls: List[float] = []
    end = time.perf_counter() + seconds
    before = hostspeed.speed()
    for order in sim_order(seed, 1 << 30):
        busy = slots = 0.0
        for index in order:
            cls, spec = calls[index]
            t0 = time.perf_counter()
            result = _call(spec)
            dt = time.perf_counter() - t0
            n = sum(r["cycles"] for r in
                    (result if isinstance(result, list) else [result]))
            done.append(Call(cls, dt, n, digest(result) == expected.get(cls)))
            busy += dt
            slots += n
        after = hostspeed.speed()
        speeds = (before, after)
        pass_slots.append(hostspeed.at_reference(slots / busy, speeds))
        pass_calls.append(hostspeed.at_reference(len(order) / busy, speeds))
        before = after
        if time.perf_counter() >= end:
            break
    return done, pass_slots, pass_calls


def _failed(calls: List[Call]) -> int:
    return sum(1 for c in calls if not c.ok)


def timed_run(seed: int, seconds: float, root: Path
              ) -> Tuple[Dict[str, float], int, int, dict]:
    """The end-to-end metrics of one ``sim_sweep`` run."""
    from server import self_peak_rss_mb

    setups = _setup_times(root)
    warm, _, _ = _passes(seed, 0.0)  # one untimed pass
    timed, pass_slots, pass_calls = _passes(seed, seconds)
    latencies = [c.seconds * 1e3 for c in timed]
    met = sum(1 for c in timed if c.ok and c.seconds * 1e3 <= SIM_CALL_LIMIT_MS)
    metrics = {
        "setup_s": median(setups),
        "deadline_met_frac": met / len(timed),
        "throughput_rps": median(pass_calls),
        "sim_slots_per_s": median(pass_slots),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    info = {"passes": len(pass_slots), "calls": len(timed),
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": percentile(latencies, 0.99)}
    every = warm + timed
    return metrics, len(every), _failed(every), info


def hotpath_counts() -> Tuple[List[Call], float]:
    """Untimed ``profile=True`` calls of the list's cache and hierarchy
    specs: the calls (statistics checked) and the share of their hot-path
    slot visits that took a batched or skipped epoch.

    ``profile=True`` detaches the metrics registry and so runs another
    code path than the timed calls; it is kept out of every timing."""
    from repro.obs.bench import run_spec

    expected = json.loads(DIGEST_PATH.read_text())
    calls: List[Call] = []
    batched = total = 0.0
    for cls, spec in sim_calls():
        if isinstance(spec, list) or spec["system"] not in ("cache",
                                                            "hierarchy"):
            continue
        report = run_spec({"system": spec["system"],
                           "params": {**spec["params"], "profile": True}})
        calls.append(Call(cls, 0.0, report["cycles"],
                          digest(report) == expected.get(cls)))
        for layer in report["hotpath"]["occupancy"].values():
            batched += layer["batched"] + layer["skipped"]
            total += layer["batched"] + layer["skipped"] + layer["ticked"]
    return calls, (batched / total if total else 0.0)


def traced_run(seed: int, seconds: float, root: Path
               ) -> Tuple[Dict[str, float], int, int, dict]:
    """The per-layer metrics of one ``sim_sweep`` run.

    Half of ``seconds`` runs the list untraced, half with the ledger's
    timing wrappers installed; both time the same specs and code paths."""
    from ledger import install_sim
    from serve_workloads import sim_layer_metrics

    warm, _, _ = _passes(seed, 0.0)  # one untimed pass
    profiled, batched_frac = hotpath_counts()
    plain, plain_slots, _ = _passes(seed, seconds / 2)
    samples: Dict[str, List[float]] = {}
    install_sim(lambda name, value: samples.setdefault(name, [])
                .append(value))
    traced, traced_slots, _ = _passes(seed, seconds / 2)
    metrics = sim_layer_metrics(samples)
    metrics["hotpath.batched_frac"] = batched_frac
    metrics["trace.overhead_frac"] = (median(plain_slots)
                                      / median(traced_slots) - 1.0)
    info = {"untraced_slots_per_s": median(plain_slots),
            "traced_slots_per_s": median(traced_slots)}
    every = warm + profiled + plain + traced
    return metrics, len(every), _failed(every), info
