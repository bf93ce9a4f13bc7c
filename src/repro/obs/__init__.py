"""Observability: metrics aggregation, event-trace probes, bench harness.

Three modules, all off by default and zero-cost when disabled:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, hierarchical names
  over the :mod:`repro.sim.stats` primitives with JSON snapshot export,
  and :func:`sla_section`, the per-criticality-tier latency tails
  (p50/p99/p99.9) and deadline counts of a registry's labelled
  ``<name>[<tier>]`` histograms.  Every counter store is a registry:
  the serving layer's per-tier SLA and per-tenant counts are labelled
  instruments of its one registry.
* :mod:`repro.obs.probe` — the :class:`Probe` event-sink interface and its
  JSONL/recording/fan-out implementations.  Instrumented components guard
  every emission with ``if self.probe is not None``.
* :mod:`repro.obs.bench` — the unified benchmark registry behind
  ``python -m repro bench``, writing ``BENCH_<name>.json`` trajectories.
  (Imported lazily: ``from repro.obs import bench``.)

:mod:`repro.obs.artifacts` additionally mirrors every table/series the
reporting layer prints into structured records (see ``REPRO_BENCH_JSONL``).
"""

from repro.obs.artifacts import artifacts, drain_artifacts, record_artifact
from repro.obs.metrics import MetricsRegistry, sla_section
from repro.obs.probe import (
    CountingProbe,
    JsonlProbe,
    MultiProbe,
    Probe,
    ProbeEvent,
    RecordingProbe,
    load_probe_events,
)

__all__ = [
    "MetricsRegistry",
    "sla_section",
    "Probe",
    "ProbeEvent",
    "RecordingProbe",
    "CountingProbe",
    "JsonlProbe",
    "MultiProbe",
    "load_probe_events",
    "record_artifact",
    "artifacts",
    "drain_artifacts",
]
