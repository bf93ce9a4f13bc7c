"""Shard routing: requests of one machine shape land on one worker.

The point of sharding by shape is coalescing, not load spreading: the
micro-batcher (:mod:`repro.serve.batch`) joins queued requests of one
``(system, shape)`` into one worker task, so every request of a shape
must queue at the same shard.  :func:`shard_for` maps a spec's
``(n_banks, bank_cycle)`` shape through the same crc32 derivation the
parallel sweep uses for seeds (:func:`repro.fastpath.parallel.derive_seed`
— deterministic across processes, orderings, and runs, pinned by golden
tests).

Systems without an AT-space shape (the retry simulators) have nothing to
coalesce by shape; they route by ``(system, seed)`` instead, which
spreads replicated seed grids across the pool.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.fastpath.parallel import derive_seed

Shape = Tuple[int, int]


#: The params a shaped system's machine is read from: (processors per AT
#: space, bank cycle), the bank cycle fixed at 1 where it is ``None``.
#: Request validation checks each one present is an int >= 1.
SHAPE_PARAMS: Dict[str, Tuple[str, Optional[str]]] = {
    "cfm": ("n_procs", "bank_cycle"),
    "cache": ("n_procs", "bank_cycle"),
    "hierarchy": ("procs_per_cluster", "bank_cycle"),
    "sync_omega": ("n_ports", None),
}


def shape_of(system: str, params: Dict[str, object]) -> Optional[Shape]:
    """The ``(n_banks, bank_cycle)`` machine shape a spec runs on.

    ``None`` for systems without an AT-space schedule, and for a spec
    that names no processor count."""
    names = SHAPE_PARAMS.get(system)
    if names is None:
        return None
    procs, cycle = names
    n_procs = int(params.get(procs, 0) or 0)
    if not n_procs:
        return None
    bank_cycle = int(params.get(cycle, 1) or 1) if cycle else 1
    return (n_procs * bank_cycle, bank_cycle)


@lru_cache(maxsize=4096)
def shard_for_shape(shape: Shape, n_shards: int) -> int:
    """The shard that owns a machine shape — pure function of the shape,
    memoized (a served machine has at most ``MAX_BANKS`` banks, so the
    shapes a service routes are few)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return derive_seed(0, "serve.shard", int(shape[0]), int(shape[1])) % n_shards


def shard_for(system: str, params: Dict[str, object], n_shards: int,
              shape: Optional[Shape] = None) -> int:
    """Route one spec: by shape when it has one, by (system, seed) else.

    ``shape`` is the spec's :func:`shape_of` when the caller already has
    it (a validated request carries it); left ``None`` it is derived."""
    if shape is None:
        shape = shape_of(system, params)
    if shape is not None:
        return shard_for_shape(shape, n_shards)
    seed = int(params.get("seed", 0) or 0)
    return derive_seed(seed, "serve.shard", system) % n_shards
