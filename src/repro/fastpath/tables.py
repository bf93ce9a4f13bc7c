"""The AT-space schedule as a formula.

The AT-space mapping is a closed form: at slot *t* processor *p*
addresses bank ``(t + c·p) mod b`` of its module (§3.1, Table 3.1).  Every
slot's row is row 0 shifted by *t*, so the schedule needs no table — only
the data of :class:`Schedule`:

* ``ring`` — the banks the schedule cycles through, laid out twice, so
  ``ring[phase + offset]`` never wraps;
* ``period`` — the length of one lap of the ring: *b*, or *b − 1* once a
  bank is dead (:mod:`repro.faults.degrade`);
* ``offsets`` — processor *p*'s distance ``c·p`` along the ring.

Processor *p* addresses ``ring[t % period + offsets[p]]`` at slot *t*.
:func:`bank_orders` is the healthy ring; its slice ``ring[first:first +
k]`` is also the next *k* banks a block access visits from bank
``first`` ("wrapping around all b banks", §3.1.1), which is how the batch
engine runs an access forward without per-slot re-derivation.

:func:`at_schedule` proves the schedule conflict-free once, in O(n): row
0 is injective.  The first ``period`` ring entries are distinct banks
and every offset is below ``period``, so row *t* is row 0 with each
ring position moved *t* steps around the same lap — injective too.
That static proof is what lets the batch engine drop the per-visit
conflict dictionary the slot-by-slot reference keeps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class Schedule(NamedTuple):
    """Processor ``p`` addresses ``ring[t % period + offsets[p]]`` at slot
    ``t`` (see the module docstring)."""

    ring: Tuple[int, ...]
    period: int
    offsets: Tuple[int, ...]


def bank_orders(n_banks: int) -> Tuple[int, ...]:
    """The bank ring ``0, 1, …, b−1`` laid out twice."""
    if n_banks <= 0:
        raise ValueError(f"n_banks must be positive, got {n_banks}")
    return tuple(range(n_banks)) * 2


def at_schedule(n_banks: int, bank_cycle: int,
                dead_bank: Optional[int] = None) -> Schedule:
    """The ``(b, c)`` AT-space schedule, healthy or with ``dead_bank``
    remapped out onto the ``b − 1`` survivors, proven conflict-free.

    Raises ``ValueError`` for a shape that is not a module (``c`` must
    divide ``b``) and :class:`repro.faults.errors.DegradedModeError` when
    no degraded schedule exists: with ``c = 1`` the module serves
    ``n = b`` processors, more than the survivors.
    """
    if n_banks <= 0:
        raise ValueError(f"n_banks must be positive, got {n_banks}")
    if bank_cycle <= 0:
        raise ValueError(f"bank_cycle must be positive, got {bank_cycle}")
    if n_banks % bank_cycle != 0:
        raise ValueError(
            f"{n_banks} banks do not divide into cycle-{bank_cycle} slots"
        )
    offsets = tuple(range(0, n_banks, bank_cycle))
    if dead_bank is None:
        ring = bank_orders(n_banks)
        period = n_banks
    else:
        from repro.faults.errors import DegradedModeError

        if not 0 <= dead_bank < n_banks:
            raise ValueError(
                f"dead bank {dead_bank} out of range [0, {n_banks})")
        period = n_banks - 1
        if len(offsets) > period:
            raise DegradedModeError(
                f"cannot degrade (b={n_banks}, c={bank_cycle}): "
                f"{len(offsets)} processors cannot share {period} "
                f"surviving banks conflict-free — no row-injective b-1 "
                f"schedule exists"
            )
        ring = tuple(k for k in range(n_banks) if k != dead_bank) * 2
    row0 = [ring[offset] for offset in offsets]
    if offsets[-1] >= period or len(set(row0)) != len(row0):
        raise ValueError(
            f"AT-space schedule for (b={n_banks}, c={bank_cycle}, "
            f"dead={dead_bank}) is not conflict-free: row 0 is {row0}"
        )
    return Schedule(ring, period, offsets)
