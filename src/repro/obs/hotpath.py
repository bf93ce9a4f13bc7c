"""Cross-layer hot-path profiler for the fastpath.

The batch drivers (``CFMemory.run_batch``, ``CacheSystem.run_ops_batch``,
``SlotAccurateHierarchy.run_ops_batch``) — every engine name but
``reference`` — constantly choose between three ways of advancing time:

* **batch** — leap a whole span of slots in one classified pass,
* **tick** — fall back to the per-slot reference path for one slot,
* **skip** — jump over provably idle slots.

:class:`HotpathProfiler` counts those choices per layer so a bench run can
report *which* layer re-entered the slow path and *why* — without touching
results: the profiler is pure integer counters, attached via a dedicated
``hotpath`` slot that (unlike probes and metrics) does **not** disable
batch eligibility.  Attaching one never changes any simulated outcome,
only records how it was computed; the differential tests pin this.

Counter naming convention, within a layer:

``batched_slots`` / ``skipped_slots``
    Slots advanced via a batch span / idle leap.
``tick.<reason>``
    Expected per-slot work: ``tick.cpu`` (a processor-side event — issue,
    local hit, write-back queue — is due this slot), ``tick.nc`` (a
    hierarchy network controller is mid-transaction), ``tick.observed``
    (a probe or metrics registry pins the per-slot path), ``tick.sync``
    (generic per-slot step).
``fallback.<reason>``
    Slow-path *fallbacks* — slots the classifier wanted to batch but
    could not prove safe: ``fallback.hazard`` (cross-op coherence overlap:
    shared offsets, live foreign ATT entries, remote directory copies),
    ``fallback.global`` (inter-cluster traffic in flight), ``fallback.
    stall`` (nothing can ever happen; the timeout guard's territory).
    A conflict-free workload must keep every ``fallback.*`` counter at
    zero — CI's bench-profile job asserts exactly that.
"""

from __future__ import annotations

from typing import Dict, Optional


class HotpathProfiler:
    """Deterministic per-layer counters of batch/tick/fallback decisions.

    **Exclusive counting.**  One profiler may be shared down a layer stack
    (hierarchy → clusters → their CFMemory engines): each batch driver
    claims the profiler for the duration of its run (:meth:`claim` /
    :meth:`release`), and while claimed, :meth:`count` drops events from
    every *other* layer.  A slot is therefore attributed to exactly one
    layer — the one actually driving time — and per-layer counter sums
    equal the slots that layer advanced, never more (the invariant
    ``tests/test_fastpath_stage2.py`` asserts).  :meth:`note` bypasses the
    claim for auxiliary, non-slot counters (e.g. fault-injection tallies).
    """

    __slots__ = ("_counts", "_owner")

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[str, int]] = {}
        self._owner: Optional[str] = None

    def claim(self, layer: str) -> Optional[str]:
        """Make ``layer`` the driving layer; returns a release token.

        Returns ``None`` (a no-op token) when another layer already holds
        the claim — the outer driver keeps ownership and the inner layer's
        slot counters are suppressed for the duration."""
        if self._owner is None:
            self._owner = layer
            return layer
        return None

    def release(self, token: Optional[str]) -> None:
        """Release a claim made with :meth:`claim` (``None`` is a no-op)."""
        if token is not None and self._owner == token:
            self._owner = None

    def count(self, layer: str, event: str, n: int = 1) -> None:
        """Add ``n`` to ``layer``'s ``event`` counter.

        Dropped when another layer holds the driving claim: each advanced
        slot is counted by exactly one layer."""
        if self._owner is not None and layer != self._owner:
            return
        layer_counts = self._counts.get(layer)
        if layer_counts is None:
            layer_counts = self._counts[layer] = {}
        layer_counts[event] = layer_counts.get(event, 0) + n

    def note(self, layer: str, event: str, n: int = 1) -> None:
        """Add to a counter regardless of the driving claim.

        For auxiliary tallies that are not slot-advancement decisions
        (fault-injection events, recovery retries): these may legitimately
        occur inside another layer's driving span."""
        layer_counts = self._counts.get(layer)
        if layer_counts is None:
            layer_counts = self._counts[layer] = {}
        layer_counts[event] = layer_counts.get(event, 0) + n

    def get(self, layer: str, event: str) -> int:
        return self._counts.get(layer, {}).get(event, 0)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Sorted copy of all counters — stable for JSON export."""
        return {
            layer: dict(sorted(events.items()))
            for layer, events in sorted(self._counts.items())
        }

    def fallbacks(self, layer: Optional[str] = None) -> Dict[str, int]:
        """Total ``fallback.*`` count per layer (or just one layer's)."""
        layers = [layer] if layer is not None else sorted(self._counts)
        return {
            name: sum(
                n for event, n in self._counts.get(name, {}).items()
                if event.startswith("fallback.")
            )
            for name in layers
        }

    def occupancy(self) -> Dict[str, Dict[str, float]]:
        """Per-layer slot occupancy: how each layer's slots were advanced.

        ``ticked`` pools every ``tick.*`` and ``fallback.*`` slot (each of
        those is exactly one reference-path slot); ``batched`` counts batch
        spans; ``batched_frac`` is the share of all advanced slots covered
        by batch spans and idle skips.
        """
        out: Dict[str, Dict[str, float]] = {}
        for layer, events in sorted(self._counts.items()):
            batched = events.get("batched_slots", 0)
            skipped = events.get("skipped_slots", 0)
            ticked = sum(
                n for event, n in events.items()
                if event.startswith("tick.") or event.startswith("fallback.")
            )
            total = batched + skipped + ticked
            out[layer] = {
                "batched": batched,
                "skipped": skipped,
                "ticked": ticked,
                "batched_frac": (batched + skipped) / total if total else 0.0,
            }
        return out

    def clear(self) -> None:
        self._counts.clear()

    def __bool__(self) -> bool:  # "if hotpath:" must mean "attached", even when empty
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layers = ", ".join(
            f"{layer}:{sum(ev.values())}" for layer, ev in sorted(self._counts.items())
        )
        return f"HotpathProfiler({layers})"
