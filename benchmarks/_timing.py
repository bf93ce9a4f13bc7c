"""One timing methodology for the in-repo speed gates.

Every timed gate in ``bench_fastpath.py`` and ``bench_serve.py`` measures
through :func:`best_of`: an untimed warm-up call (first imports, table
caches, a pool's warm-up task), then ``repeats`` samples of at least
:data:`MIN_WALL_S` of timed work each, taken in turn with the timings it
is compared with, and the best sample, the least-noise estimate of the
true cost.  A gate on the ratio of two paths' costs uses
:func:`median_ratio` instead: the median of many back-to-back pairs, so
a burst of host noise on one side moves it less than it moves the
ratio of two separate minima.  A gate compares timings taken in the same
run, or one timing against the host's speed (:func:`host_speed`), so its
verdict does not depend on which machine ran it.
:func:`emit_gate_table` prints a gate's table with the environment it ran
in (:func:`fingerprint`).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Tuple, TypeVar

from benchmarks._report import emit_table

ROOT = Path(__file__).resolve().parent.parent
#: Timed seconds one sample accumulates before it counts: a call shorter
#: than this is repeated and the sample is the mean per call, so timer
#: resolution and scheduler jitter stay small beside the work.
MIN_WALL_S = 0.1

T = TypeVar("T")


def best_of(*runs: Callable[[], Tuple[float, T]],
            repeats: int = 3) -> List[Tuple[float, T]]:
    """Best per-call seconds of each of ``runs`` over ``repeats`` samples,
    with the result of its warm-up call.

    ``run()`` does the work once and returns ``(seconds, result)``, where
    ``seconds`` covers only the region under test, so set-up stays off the
    clock.  The runs take their samples in turn, so a drift in the host's
    speed reaches all of them alike and cancels out of their ratios.
    Every timed call's result must equal its warm-up call's."""
    firsts = [run()[1] for run in runs]
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            total, calls = 0.0, 0
            while calls == 0 or total < MIN_WALL_S:
                seconds, result = run()
                assert result == firsts[i], (
                    "a timed call diverged from its warm-up call")
                total += seconds
                calls += 1
            best[i] = min(best[i], total / calls)
    return list(zip(best, firsts))


def median_ratio(top: Callable[[], Tuple[float, T]],
                 bottom: Callable[[], Tuple[float, T]],
                 pairs: int = 15) -> Tuple[float, T, T]:
    """Median over ``pairs`` back-to-back calls of ``top``'s seconds over
    ``bottom``'s, with each one's warm-up result.

    Each pair is timed within a few tens of milliseconds, so a drift in
    the host's speed reaches both sides of a ratio alike, and the median
    drops the pairs a burst of noise hit on one side only.  Every timed
    call's result must equal its warm-up call's."""
    first_top, first_bottom = top()[1], bottom()[1]
    ratios = []
    for i in range(pairs):
        # Alternate which side goes first, so neither always runs on the
        # caches the other left behind.
        if i % 2:
            (t_bottom, r_bottom), (t_top, r_top) = bottom(), top()
        else:
            (t_top, r_top), (t_bottom, r_bottom) = top(), bottom()
        assert r_top == first_top and r_bottom == first_bottom, (
            "a timed call diverged from its warm-up call")
        ratios.append(t_top / t_bottom)
    ratios.sort()
    return ratios[pairs // 2], first_top, first_bottom


def host_speed() -> float:
    """Calibration loops per second of this host right now
    (``perfbench/hostspeed.py``)."""
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import hostspeed

    return hostspeed.speed()


def fingerprint() -> str:
    """One line naming the environment a timing came from."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (f"env: cpu={cpu} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"commit={commit}")


def emit_gate_table(title, headers, rows) -> None:
    """A gate's timing table followed by :func:`fingerprint`."""
    emit_table(title, headers, rows)
    print(fingerprint())
