"""Structured event-trace probes.

Instrumented components (:class:`repro.core.cfm.CFMemory`, the
interleaved simulator, the interconnect models, the cache protocol) hold
an optional ``probe`` reference and emit structured events into it:

    if self.probe is not None:
        self.probe.emit("cfm", "complete", slot, proc=0, latency=17)

The guard is the whole hot-path cost when tracing is off — probes are
observational only, so enabling one can never change a simulation result
(the determinism tests assert exactly that).

The on-disk format follows :mod:`repro.sim.trace`'s conventions: JSON
lines with a one-line header, so probe traces diff cleanly and survive
hand editing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

PROBE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ProbeEvent:
    """One emitted event: where, what, when, and free-form detail fields."""

    source: str
    event: str
    t: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"t": self.t, "src": self.source, "ev": self.event}
        d.update(self.fields)
        return d


class Probe:
    """Event sink interface: subclasses override :meth:`emit`."""

    def emit(self, source: str, event: str, t: int, **fields: Any) -> None:
        raise NotImplementedError


class RecordingProbe(Probe):
    """Collects events in memory — the test/debug sink."""

    def __init__(self) -> None:
        self.events: List[ProbeEvent] = []

    def emit(self, source: str, event: str, t: int, **fields: Any) -> None:
        self.events.append(ProbeEvent(source, event, t, fields))

    def __len__(self) -> int:
        return len(self.events)

    def select(self, source: Optional[str] = None,
               event: Optional[str] = None) -> List[ProbeEvent]:
        """Events filtered by source and/or event name."""
        return [
            ev for ev in self.events
            if (source is None or ev.source == source)
            and (event is None or ev.event == event)
        ]

    def clear(self) -> None:
        self.events.clear()


class CountingProbe(Probe):
    """Counts emissions without storing them (overhead measurements)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, source: str, event: str, t: int, **fields: Any) -> None:
        self.count += 1


class JsonlProbe(Probe):
    """Streams events as JSON lines after a one-line header.

    Usable as a context manager when constructed from a path::

        with JsonlProbe.open("run.probe.jsonl", description="quick bench") as p:
            mem.probe = p
            ...
    """

    def __init__(self, fp: TextIO, description: str = "") -> None:
        self._fp = fp
        self._owns_fp = False
        self._fp.write(json.dumps({
            "format": "repro-probe",
            "version": PROBE_FORMAT_VERSION,
            "description": description,
        }) + "\n")

    @classmethod
    def open(cls, path: Union[str, Path], description: str = "") -> "JsonlProbe":
        probe = cls(open(path, "w", encoding="utf-8"), description=description)
        probe._owns_fp = True
        return probe

    def emit(self, source: str, event: str, t: int, **fields: Any) -> None:
        self._fp.write(
            json.dumps(ProbeEvent(source, event, t, fields).as_dict()) + "\n"
        )

    def close(self) -> None:
        if self._owns_fp:
            self._fp.close()

    def __enter__(self) -> "JsonlProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MultiProbe(Probe):
    """Fans every event out to several sinks."""

    def __init__(self, probes: Sequence[Probe]) -> None:
        self.probes = list(probes)

    def emit(self, source: str, event: str, t: int, **fields: Any) -> None:
        for p in self.probes:
            p.emit(source, event, t, **fields)


def load_probe_events(path: Union[str, Path]) -> List[ProbeEvent]:
    """Read back a :class:`JsonlProbe` file (header validated)."""
    with open(path, "r", encoding="utf-8") as fp:
        header_line = fp.readline()
        if not header_line.strip():
            raise ValueError("empty probe trace")
        header = json.loads(header_line)
        if header.get("format") != "repro-probe":
            raise ValueError(f"not a probe trace: {header!r}")
        if header.get("version") != PROBE_FORMAT_VERSION:
            raise ValueError(f"unsupported probe version {header.get('version')}")
        events = []
        for line in fp:
            if not line.strip():
                continue
            raw = json.loads(line)
            events.append(ProbeEvent(
                source=raw.pop("src"), event=raw.pop("ev"), t=raw.pop("t"),
                fields=raw,
            ))
        return events
