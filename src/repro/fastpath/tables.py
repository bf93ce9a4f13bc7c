"""Precomputed AT-space permutation tables.

The AT-space mapping is periodic with period *b* (the module's bank
count): the bank visited by processor *p* at slot *t* depends only on
``t mod b``.  One time period therefore fully describes the schedule, and
the whole period fits in a ``b × (b/c)`` tuple-of-tuples that is computed
once per machine shape and shared process-wide (``lru_cache``, bounded at
:data:`TABLE_CACHE_SIZE` shapes so a long sweep over many shapes — or the
degraded re-proofs of :mod:`repro.faults.degrade` — cannot grow table
memory forever; engines hold direct references to their tables, so an
eviction only ever costs a rebuild, never correctness).

Three tables cover every consumer:

* :func:`slot_bank_table` — ``table[t mod b][p]`` is the bank processor
  *p* addresses at slot *t* (the generalized Table 3.1);
* :func:`bank_orders` — the ring of ``2b`` banks whose slice
  ``ring[first:first + b]`` is the wrap-around bank sequence ``first,
  first+1, …, first−1`` a block access visits, used by the batch engine
  to run an access forward without per-slot re-derivation;
* :func:`shift_permutations` — ``perms[t mod N][i] = (t + i) mod N``, the
  uniform-shift permutation the synchronous omega network realizes each
  slot (Lawrie's conflict-free set).

:func:`assert_conflict_free` re-proves, per shape, the property the
slot-by-slot engine checks per visit: within any slot row the mapping is
injective, so no two processors ever share a bank.  Because the table *is*
the schedule, checking each row once is equivalent to checking every slot
of every run — which is what lets the batch engine drop the per-visit
conflict dictionary without weakening the guarantee.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

#: Bound on each table cache: comfortably above any one sweep's working
#: set of machine shapes, finite so unbounded shape exploration cannot
#: leak memory.  Shared by :mod:`repro.faults.degrade` for its derived
#: tables.
TABLE_CACHE_SIZE = 128


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def slot_bank_table(n_banks: int, bank_cycle: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-phase bank permutations: ``table[t % b][p] == (t + c·p) % b``.

    Validated conflict-free on construction; cached per ``(b, c)``.
    """
    if n_banks <= 0:
        raise ValueError(f"n_banks must be positive, got {n_banks}")
    if bank_cycle <= 0:
        raise ValueError(f"bank_cycle must be positive, got {bank_cycle}")
    if n_banks % bank_cycle != 0:
        raise ValueError(
            f"{n_banks} banks do not divide into cycle-{bank_cycle} slots"
        )
    n_procs = n_banks // bank_cycle
    table = tuple(
        tuple((phase + bank_cycle * proc) % n_banks for proc in range(n_procs))
        for phase in range(n_banks)
    )
    _check_injective(table, n_banks, bank_cycle)
    return table


def _check_injective(table, n_banks: int, bank_cycle: int) -> None:
    for phase, row in enumerate(table):
        if len(set(row)) != len(row):
            raise ValueError(
                f"AT-space table for (b={n_banks}, c={bank_cycle}) is not "
                f"conflict-free at phase {phase}: {row}"
            )


def assert_conflict_free(n_banks: int, bank_cycle: int) -> None:
    """Prove the (b, c) schedule conflict-free by exhausting one period.

    A no-op for every legal shape (the mapping ``p → (t + c·p) mod b`` is
    injective whenever ``c·(b/c) ≤ b``); kept as an explicit, cached check
    so the batch engine's skipped per-visit conflict test is backed by an
    equivalent static one.
    """
    slot_bank_table(n_banks, bank_cycle)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def bank_orders(n_banks: int) -> Tuple[int, ...]:
    """The bank ring ``0, 1, …, b−1`` laid out twice.

    A block access that performs its first word at bank ``first`` visits
    ``ring[first], ring[first + 1], …`` on consecutive slots ("wrapping
    around all b banks", §3.1.1), so ``ring[first:first + k]`` is its
    next k banks — one O(b) table serves every starting bank.
    """
    if n_banks <= 0:
        raise ValueError(f"n_banks must be positive, got {n_banks}")
    return tuple(range(n_banks)) * 2


def warm_tables(shapes) -> int:
    """Pre-build every cached table for the given ``(n_banks, bank_cycle)``
    shapes; returns the number of tables touched.

    This is the serving layer's cache warmer: a worker process that owns a
    set of shapes (:func:`repro.serve.shard.shard_for_shape`) runs this as
    its first task so the first request it serves already finds
    ``slot_bank_table``/``bank_orders``/``shift_permutations`` hot.
    Invalid shapes raise the same ``ValueError`` the tables would, so a
    misconfigured shard fails at pool construction, not mid-request.
    """
    touched = 0
    for n_banks, bank_cycle in shapes:
        slot_bank_table(n_banks, bank_cycle)
        bank_orders(n_banks)
        # The omega data path of an (n, c) module moves n = b/c ports.
        shift_permutations(n_banks // bank_cycle)
        touched += 3
    return touched


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def shift_permutations(n_ports: int) -> Tuple[Tuple[int, ...], ...]:
    """``perms[t % N][i] = (t + i) mod N`` — the slot permutations of the
    synchronous omega network (§3.2.1), one period's worth."""
    if n_ports <= 0:
        raise ValueError(f"n_ports must be positive, got {n_ports}")
    return tuple(
        tuple((phase + i) % n_ports for i in range(n_ports))
        for phase in range(n_ports)
    )
