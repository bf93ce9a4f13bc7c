"""Degraded AT-space schedules: remap a dead bank onto ``b - 1`` survivors.

When a bank dies, the module can keep serving whole blocks by walking the
``b - 1`` surviving banks on a reduced AT schedule and letting a designated
*shadow bank* serve the dead bank's word during its own visit — the
redundancy/remapping story of the single-port-memory coding work (Jain et
al.), executed at AT-schedule granularity: block width stays ``b``, one
physical port does double duty, and an access completes after ``b - 1``
bank visits plus the usual ``c - 1`` drain.

The degraded schedule is the healthy formula over the survivors:
processor ``p`` addresses ``surviving[(t + c·p) mod (b - 1)]`` at slot
``t``.  :func:`repro.fastpath.tables.at_schedule` builds it with
``dead_bank`` set and re-proves it conflict-free with the same O(n)
row-0 check as the healthy schedule.  Shapes that cannot satisfy it
(``c = 1``: ``n = b`` processors cannot share ``b - 1`` banks
conflict-free) raise a typed :class:`repro.faults.errors.DegradedModeError`
instead of degrading into a schedule that would conflict.
"""

from __future__ import annotations

from repro.faults.errors import DegradedModeError


def shadow_bank_for(n_banks: int, dead_bank: int) -> int:
    """The surviving bank that serves the dead bank's word in passing.

    Deterministic: the dead bank's successor in the wrap-around order, so
    the remap needs no extra configuration state."""
    if not 0 <= dead_bank < n_banks:
        raise ValueError(f"dead bank {dead_bank} out of range [0, {n_banks})")
    if n_banks < 2:
        raise DegradedModeError("a 1-bank module cannot lose its only bank")
    return (dead_bank + 1) % n_banks
