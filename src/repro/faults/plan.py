"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a frozen schedule of :class:`FaultEvent` windows —
*which* component misbehaves, *how*, and *when* — fixed before the run
starts.  All randomness lives in :meth:`FaultPlan.generate` (driven by
:func:`repro.sim.rng.derive_stream`, the repo-wide substream idiom), so the
same seed always produces the same plan and the same injected run: fault
campaigns are bitwise reproducible and shrinkable.

The zero plan (:meth:`FaultPlan.zero`) is the differential anchor: a run
with a zero plan attached must be bit-identical to a run with no fault
machinery at all, on both the reference and fastpath engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Every fault kind a plan may schedule.  ``target``/``extra`` semantics:
#:
#: ==================  =======================  ==========================
#: kind                target                   extra
#: ==================  =======================  ==========================
#: bank_stuck          bank index               —
#: bank_slow           bank index               added drain slots
#: bank_dead           bank index (permanent)   —
#: switch_drop         switch within stage      stage index
#: link_drop           input port               —
#: module_drop         memory-module index      —
#: nc_stall            cluster index            —
#: completion_delay    processor index          delivery delay (slots)
#: completion_lost     processor index          —
#: ==================  =======================  ==========================
FAULT_KINDS: Tuple[str, ...] = (
    "bank_stuck",
    "bank_slow",
    "bank_dead",
    "switch_drop",
    "link_drop",
    "module_drop",
    "nc_stall",
    "completion_delay",
    "completion_lost",
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: ``kind`` on ``target`` during [start, start+duration)."""

    kind: str
    start: int
    duration: int
    target: int = 0
    extra: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (valid: {' '.join(FAULT_KINDS)})"
            )
        if self.start < 0 or self.duration < 1:
            raise ValueError(
                f"fault window must have start >= 0 and duration >= 1, "
                f"got start={self.start} duration={self.duration}"
            )

    def active(self, slot: int) -> bool:
        """Is this fault in effect at ``slot``?  (``bank_dead`` is permanent.)"""
        if self.kind == "bank_dead":
            return slot >= self.start
        return self.start <= slot < self.start + self.duration

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule: seed provenance + event windows."""

    seed: int
    events: Tuple[FaultEvent, ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.events

    def by_kind(self, kind: str) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({e.kind for e in self.events}))

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (for bench documents and test output)."""
        return {
            "seed": self.seed,
            "n_events": len(self.events),
            "kinds": list(self.kinds()),
            "events": [
                {"kind": e.kind, "target": e.target, "start": e.start,
                 "duration": e.duration, "extra": e.extra}
                for e in self.events
            ],
        }

    @classmethod
    def zero(cls, seed: int = 0) -> "FaultPlan":
        """The empty plan — attached, it must change nothing at all."""
        return cls(seed=seed, events=())

    @classmethod
    def of(cls, events: Iterable[FaultEvent], seed: int = 0) -> "FaultPlan":
        """A hand-written plan (tests and targeted scenarios)."""
        evs = tuple(sorted(events, key=lambda e: (e.start, e.kind, e.target)))
        return cls(seed=seed, events=evs)

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        n_banks: int,
        n_procs: Optional[int] = None,
        n_clusters: int = 2,
        horizon: int = 1024,
        n_events: int = 3,
        kinds: Optional[Sequence[str]] = None,
        max_duration: int = 32,
    ) -> "FaultPlan":
        """Draw a reproducible plan for a machine shape.

        Transient kinds only by default — ``bank_dead`` (permanent, leads
        to degraded mode) is opt-in via ``kinds`` because it changes the
        machine for the rest of the run.
        """
        from repro.sim.rng import derive_stream

        pool = tuple(kinds) if kinds is not None else (
            "bank_stuck", "bank_slow", "switch_drop", "link_drop",
            "nc_stall", "completion_delay", "completion_lost",
        )
        for k in pool:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        procs = n_procs if n_procs is not None else n_banks
        rng = derive_stream(seed, "fault-plan", n_banks, procs, n_clusters,
                            horizon, n_events, tuple(pool))
        events = []
        for _ in range(n_events):
            kind = pool[rng.integers(0, len(pool))]
            start = rng.integers(0, max(1, horizon))
            duration = rng.integers(1, max_duration + 1)
            extra = 0
            if kind in ("bank_stuck", "bank_slow", "bank_dead"):
                target = rng.integers(0, n_banks)
                if kind == "bank_slow":
                    extra = rng.integers(1, 5)
            elif kind == "switch_drop":
                # stage × switch of an omega net over n_banks ports.
                stages = max(1, (n_banks - 1).bit_length())
                extra = rng.integers(0, stages)
                target = rng.integers(0, max(1, n_banks // 2))
            elif kind in ("link_drop",):
                target = rng.integers(0, n_banks)
            elif kind == "module_drop":
                target = rng.integers(0, max(1, n_clusters))
            elif kind == "nc_stall":
                target = rng.integers(0, n_clusters)
            else:  # completion_delay / completion_lost target a processor
                target = rng.integers(0, procs)
                if kind == "completion_delay":
                    extra = rng.integers(1, 9)
            events.append(FaultEvent(kind=kind, start=start,
                                     duration=duration, target=target,
                                     extra=extra))
        return cls.of(events, seed=seed)
