"""Host speed: how fast the host runs a fixed piece of pure-Python work
right now.

On a shared virtual machine the speed of a CPU drifts by a fifth or more
within tens of seconds as the neighbours' load comes and goes, and the
simulator's host time drifts with it.  So ``sim_sweep`` calibrates the
speed between its passes and gives each pass's rate at
:data:`REFERENCE_LOOPS_PER_S`: scaled by the reference speed over the mean
speed calibrated around the pass.  A change to the simulator moves the
scaled rate as it moves the raw one; the host's drift cancels out of it.

The serve workloads do not use it: their rates spread more across runs
once scaled, not less (README.md, "Host speed").
"""

from __future__ import annotations

import time
from typing import Sequence

from stats import mean, median

#: Calibration loops per second of one CPU of the 2-vCPU host the README's
#: figures come from (Intel Xeon, Python 3.11.7), rounded.  Only a scale:
#: it turns a rate at reference speed back into slots or calls per second
#: of that host.
REFERENCE_LOOPS_PER_S = 100.0
#: Iterations of one calibration loop (about 10 ms on that host).
_ITERATIONS = 40_000
_REPEATS = 3


def _loop() -> float:
    """Dictionary updates and float arithmetic, as interpreted code does."""
    table = {}
    total = 0.0
    for i in range(_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 0.5) % 7.0
    return total


def speed() -> float:
    """Calibration loops per second on the calling thread's CPU: the
    median of a few timings."""
    rates = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _loop()
        rates.append(1.0 / (time.perf_counter() - t0))
    return median(rates)


def at_reference(rate: float, speeds: Sequence[float]) -> float:
    """``rate``, measured while the host ran at the mean of ``speeds``,
    given at the reference speed."""
    return rate * REFERENCE_LOOPS_PER_S / mean(speeds)
