"""Engine-strategy registry: one seam for every slot-advancing layer.

Every layer behind the seam (:class:`repro.core.cfm.CFMemory`,
:class:`repro.cache.protocol.CacheSystem`,
:class:`repro.hierarchy.slot_accurate.SlotAccurateHierarchy`) accepts
every engine name below, bit-identical on every observable result:

``reference``
    The per-slot tick loop — the paper's semantics, one slot at a time.
    Always correct, the differential oracle.
``batch`` (also ``vectorized``, ``stacked``)
    On :class:`CFMemory`, the epoch batcher: prove a span
    interaction-free, replay it in one pass along the bank ring, and
    tick per slot the moment a hazard (same-offset write interleaving,
    an active fault plan, a degraded bank, a probe) breaks the static
    proof.  ``vectorized`` and ``stacked`` are wire-level aliases kept
    so existing requests and reports stay valid; ``stacked`` is
    CFM-only, and the other layers reject it with a typed error (below).

Only :class:`CFMemory` has a choice to make: it takes an ``engine=``
constructor argument, and :meth:`CFMemory.run_engine` is the one
dispatcher.  The coherence layers have one driver each, ``run_ops``,
which ticks per slot and spans the stretches it proves quiet; their
bench runners (``repro.obs.bench._run_cache``/``_run_hierarchy``) only
validate the name and record it in ``params.engine``.
``repro bench --engine=`` threads the choice through the bench harness.
Not every engine name supports every layer: :func:`resolve_engine` takes
the resolving layer's name and raises a typed ``ValueError`` naming
exactly which layers do support the engine — at construction, request
validation or dispatch, never deep inside an engine loop.  This module
is deliberately dependency-free (no ``repro.*`` imports) so the registry
can be consulted from any layer without import cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

ENGINE_REFERENCE = "reference"
ENGINE_BATCH = "batch"
ENGINE_VECTORIZED = "vectorized"
ENGINE_STACKED = "stacked"

#: Every selectable engine name.  Only ``reference`` and the epoch batcher
#: are distinct strategies; ``vectorized`` and ``stacked`` alias the batcher.
ENGINES: Tuple[str, ...] = (
    ENGINE_REFERENCE, ENGINE_BATCH, ENGINE_VECTORIZED, ENGINE_STACKED,
)

#: The engine layers use when none is configured — the epoch batcher on
#: :class:`CFMemory`.
DEFAULT_ENGINE = ENGINE_BATCH

#: Layer names of the engine seam.
ENGINE_LAYERS: Tuple[str, ...] = ("cfm", "cache", "hierarchy")

#: Which layers each engine supports.  Engines absent from this map run
#: on every seam layer; ``stacked`` is the name CFM run specs batched by
#: :func:`repro.fastpath.stack.run_specs_stacked` carry, which has no
#: cache/hierarchy counterpart.
ENGINE_LAYER_SUPPORT = {
    ENGINE_STACKED: ("cfm",),
}


def supported_layers(name: str) -> Tuple[str, ...]:
    """The seam layers engine ``name`` can drive."""
    return ENGINE_LAYER_SUPPORT.get(name, ENGINE_LAYERS)


def engine_available(name: str, layer: str) -> bool:
    """May ``layer`` dispatch through engine ``name``?"""
    return name in ENGINES and layer in supported_layers(name)


def resolve_engine(name: Optional[str],
                   default: str = DEFAULT_ENGINE,
                   layer: Optional[str] = None) -> str:
    """Validate an engine name; ``None`` resolves to ``default``.

    Raises ``ValueError`` for unknown names and — when ``layer`` is given
    — for engines that layer cannot drive, naming the layers that can.
    The name is returned as given, so reports record the caller's pin.
    """
    if name is None:
        name = default
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r} (valid: {' '.join(ENGINES)})"
        )
    if layer is not None and layer not in supported_layers(name):
        layers = supported_layers(name)
        raise ValueError(
            f"engine {name!r} does not support layer {layer!r} "
            f"(supported layers: {' '.join(layers)})"
        )
    return name
