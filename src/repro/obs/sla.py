"""Per-tier deadline/SLA accounting for QoS-aware layers.

:class:`SlaTracker` aggregates completed-work latencies into one
:class:`repro.sim.stats.Histogram` per criticality tier and counts
deadline hits/misses, then snapshots the lot — mean, p50, p99, p99.9,
min/max, and the miss counters — as one JSON-able dict.  It is not a
:class:`repro.obs.MetricsRegistry` instrument: SLA accounting happens at
completion time and is fed by ``on_finish`` callbacks, so the QoS bench
reports exact tail percentiles from engine-pinned, unobserved
simulations.

Latencies arrive in whatever unit the layer measures (slots for the
simulators, milliseconds for the serving layer); non-integer units are
quantized at ``quantum`` steps per unit (the serving layer uses 1000,
i.e. microsecond buckets) and percentiles are reported back in the
original unit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.sim.criticality import TIERS, parse_tier
from repro.sim.stats import Histogram

#: The percentile surface every SLA snapshot carries.
SLA_PERCENTILES = (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))


class SlaTracker:
    """Per-tier latency histograms plus deadline-miss counters."""

    def __init__(self, unit: str = "slots", quantum: int = 1,
                 deadlines: Optional[Mapping[str, float]] = None) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.unit = unit
        self.quantum = quantum
        #: Default per-tier deadline (in ``unit``) applied when a record
        #: carries none of its own; absent tiers have no default.
        self.deadlines: Dict[str, float] = {}
        for tier, limit in (deadlines or {}).items():
            self.deadlines[parse_tier(tier) or tier] = limit
        self._hists: Dict[str, Histogram] = {}
        self._met: Dict[str, int] = {}
        self._missed: Dict[str, int] = {}

    def record(self, tier: Optional[str], latency: float,
               deadline: Optional[float] = None) -> None:
        """Account one completion: ``latency`` in this tracker's unit.

        ``deadline`` (same unit) overrides the tier default; with neither,
        the completion counts toward the histogram only.
        """
        tier = parse_tier(tier) or "normal"
        hist = self._hists.get(tier)
        if hist is None:
            hist = self._hists[tier] = Histogram()
            self._met[tier] = 0
            self._missed[tier] = 0
        hist.add(int(round(latency * self.quantum)))
        if deadline is None:
            deadline = self.deadlines.get(tier)
        if deadline is not None:
            if latency <= deadline:
                self._met[tier] += 1
            else:
                self._missed[tier] += 1

    def extend(self, tier: Optional[str], latencies: Iterable[float],
               deadline: Optional[float] = None) -> None:
        for latency in latencies:
            self.record(tier, latency, deadline)

    def total(self) -> int:
        return sum(h.total() for h in self._hists.values())

    def missed(self, tier: str) -> int:
        return self._missed.get(tier, 0)

    def percentile(self, tier: str, q: float) -> float:
        """Tail percentile of ``tier`` in the tracker's unit."""
        hist = self._hists.get(tier)
        if hist is None or hist.total() == 0:
            raise ValueError(f"no samples recorded for tier {tier!r}")
        return hist.percentile(q) / self.quantum

    def snapshot(self) -> Dict[str, object]:
        """JSON-able per-tier summary, tiers in canonical order."""
        tiers: Dict[str, object] = {}
        for tier in TIERS:
            hist = self._hists.get(tier)
            if hist is None:
                continue
            n = hist.total()
            entry: Dict[str, object] = {
                "n": n,
                "mean": hist.mean() / self.quantum,
                "min": hist.percentile(0.0) / self.quantum,
                "max": hist.percentile(1.0) / self.quantum,
            }
            for name, q in SLA_PERCENTILES:
                entry[name] = hist.percentile(q) / self.quantum
            met, missed = self._met[tier], self._missed[tier]
            if met or missed:
                entry["deadline"] = {"met": met, "missed": missed}
            tiers[tier] = entry
        return {"unit": self.unit, "tiers": tiers}
