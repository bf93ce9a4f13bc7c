"""Hierarchically-named metric aggregation.

:class:`MetricsRegistry` collects the measurement primitives of
:mod:`repro.sim.stats` (:class:`TallyCounter`, :class:`RunningStats`,
:class:`Histogram`, :class:`Utilization`) under dotted hierarchical names
such as ``cfm.bank[3].util`` or ``net.omega.stage[2].switch[1].busy`` and
turns the whole tree into one JSON-able snapshot.

Instruments are get-or-create: ``registry.utilization("cfm.bank[0].util")``
returns the same object on every call, so a component can resolve its
instruments once at attach time and update them at O(1) inside the cycle
loop.  Components treat an absent registry (``metrics is None``) as
"observability off" and skip all accounting.

Labelled families are plain names: a per-tier latency histogram is
``cfm.latency[latency_critical]``, a tenant's request counter
``tenant[alice].requests``.  :func:`sla_section` renders a registry's
per-tier histograms and deadline counter as one SLA summary.
"""

from __future__ import annotations

import json
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.sim.criticality import TIERS, parse_tier
from repro.sim.stats import Histogram, RunningStats, TallyCounter, Utilization

Instrument = Union[TallyCounter, RunningStats, Histogram, Utilization]


class MetricsRegistry:
    """A flat name → instrument map with hierarchical snapshot export."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        # Sorted names, kept until an instrument is added (the registry
        # only grows), so one report's snapshot and fractions share a sort.
        self._sorted: Optional[List[str]] = None
        self._settlers: List[weakref.WeakMethod] = []

    def on_read(self, settle: Callable[[], None]) -> None:
        """Call the bound method ``settle`` before every read (``get``,
        ``snapshot``, ``fractions``).

        For writers that account lazily: a component that would otherwise
        update its instruments every cycle keeps cheaper accumulators and
        brings the instruments up to date only when someone looks.  The
        registry holds ``settle`` weakly, so it keeps no writer alive and
        forms no reference cycle with one; a writer settles itself one
        last time when it is freed."""
        self._settlers.append(weakref.WeakMethod(settle))

    def _settle(self) -> None:
        for ref in list(self._settlers):
            settle = ref()
            if settle is None:
                self._settlers.remove(ref)
            else:
                settle()

    # -- get-or-create accessors -------------------------------------------

    def _resolve(self, name: str, cls) -> Instrument:
        if not name:
            raise ValueError("metric name must be non-empty")
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls()
            self._instruments[name] = inst
            self._sorted = None
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> TallyCounter:
        return self._resolve(name, TallyCounter)  # type: ignore[return-value]

    def stats(self, name: str) -> RunningStats:
        return self._resolve(name, RunningStats)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._resolve(name, Histogram)  # type: ignore[return-value]

    def utilization(self, name: str) -> Utilization:
        return self._resolve(name, Utilization)  # type: ignore[return-value]

    # -- inspection ---------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        self._settle()
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return list(self._names())

    def _names(self) -> List[str]:
        if self._sorted is None:
            self._sorted = sorted(self._instruments)
        return self._sorted

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    # -- export -------------------------------------------------------------

    @staticmethod
    def _summarize(inst: Instrument) -> Dict[str, object]:
        # Utilization first: one per bank, the bulk of a CFM registry.
        if isinstance(inst, Utilization):
            return {"type": "utilization", "busy": inst.busy,
                    "total": inst.total, "fraction": inst.fraction}
        if isinstance(inst, TallyCounter):
            return {"type": "counter", "counts": inst.as_dict(),
                    "total": inst.total()}
        if isinstance(inst, RunningStats):
            if inst.n == 0:
                return {"type": "stats", "n": 0}
            return {
                "type": "stats", "n": inst.n, "mean": inst.mean,
                "stddev": inst.stddev, "min": inst.minimum,
                "max": inst.maximum,
            }
        if isinstance(inst, Histogram):
            n = inst.total()
            if n == 0:
                return {"type": "histogram", "n": 0}
            return {
                "type": "histogram", "n": n, "mean": inst.mean(),
                "p50": inst.percentile(0.5), "p99": inst.percentile(0.99),
                "min": inst.percentile(0.0), "max": inst.percentile(1.0),
            }
        raise TypeError(f"unknown instrument type {type(inst).__name__}")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Flat ``{name: summary}`` dict, names sorted, JSON-serializable."""
        self._settle()
        instruments, summarize = self._instruments, self._summarize
        return {name: summarize(instruments[name]) for name in self._names()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def fractions(self, prefix: str) -> Dict[str, float]:
        """Utilization fractions of every instrument under ``prefix``."""
        self._settle()
        out: Dict[str, float] = {}
        instruments = self._instruments
        for name in self._names():
            if name.startswith(prefix):
                inst = instruments[name]
                if isinstance(inst, Utilization):
                    out[name] = inst.fraction
        return out


def sla_section(metrics: MetricsRegistry, latency: str, deadline: str,
                unit: str, quantum: int = 1) -> Dict[str, object]:
    """The per-criticality-tier SLA summary of ``metrics``::

        {"unit": unit, "tiers": {tier: {"n", "mean", "min", "max",
                                        "p50", "p99", "p999",
                                        "deadline": {"met", "missed"}}}}

    Reads the histograms ``<latency>[<tier>]``, whose integer samples
    count ``quantum`` steps per ``unit`` (the service keeps milliseconds
    as whole microseconds), and the counter ``deadline``, which counts
    ``<tier>.met`` and ``<tier>.missed``.  Figures are reported in
    ``unit``; tiers appear in canonical order, and ``deadline`` only for
    a tier with a judged deadline.  A histogram under ``<latency>[``
    that names no tier raises ``ValueError`` naming the valid tiers.
    """
    head = latency + "["
    hists: Dict[str, Histogram] = {}
    for name in metrics.names():
        if name.startswith(head):
            hists[parse_tier(name[len(head):-1])] = metrics.get(name)
    counts = metrics.get(deadline)
    tiers: Dict[str, object] = {}
    for tier in TIERS:
        hist = hists.get(tier)
        if hist is None or not hist.total():
            continue
        entry: Dict[str, object] = {
            "n": hist.total(),
            "mean": hist.mean() / quantum,
            "min": hist.percentile(0.0) / quantum,
            "max": hist.percentile(1.0) / quantum,
        }
        for key, q in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999)):
            entry[key] = hist.percentile(q) / quantum
        if counts is not None:
            met = counts.get(f"{tier}.met")
            missed = counts.get(f"{tier}.missed")
            if met or missed:
                entry["deadline"] = {"met": met, "missed": missed}
        tiers[tier] = entry
    return {"unit": unit, "tiers": tiers}
