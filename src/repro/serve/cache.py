"""Content-addressed result caching for the serving layer.

Every serveable run is a pure function of its validated spec (seeds live in
the params — the run-as-data convention of :func:`repro.obs.bench.run_spec`),
so two requests with the same canonical spec *must* produce bit-identical
reports.  :class:`ResultCache` turns that invariant into throughput: the
completed report of a spec is stored under the spec's content hash, and a
later identical request is answered from the cache without a worker
round-trip.

Canonical addressing: :func:`canonical_payload` serializes the validated
worker payload with sorted keys and no whitespace — the same bytes for the
same spec regardless of request field order — and :func:`payload_key` hashes
that with sha256.  The cache stores each report's *wire text* — the one
``json.dumps(report, sort_keys=True)`` the service makes when the report
arrives from a worker, the same text that miss's response carries.  A hit
hands that text back and the service splices it into the response line
(:func:`repro.serve.service.encode_response`): no JSON decode or encode of
the report, a hit byte-identical on the wire to the miss that filled the
entry, and no caller able to mutate a cached entry in place (a ``str`` is
immutable).

What is never cached (:func:`cacheable`):

* fault-injected requests (``inject`` present) — they exist to exercise the
  fault path, and their typed-error outcomes are not reports;
* failed results of any kind, including :class:`SimulationTimeout` — only
  ``ok`` results with a report enter the cache (enforced by the service at
  ``put`` time, since outcomes are only known post-run).

The cache is a bounded LRU: reads refresh recency, inserts past
``max_entries`` evict the least-recently-used entry, and hit/miss/eviction
counts are kept both here (for direct inspection) and in the service's
metrics registry under ``serve.cache`` (for ``GET /metrics``).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, Optional


def canonical_payload(payload: Dict[str, object]) -> str:
    """The stable serialization of a validated worker payload.

    Sorted keys + compact separators: the same spec always canonicalizes to
    the same bytes, independent of the order the client sent its fields
    (``params`` arriving as ``{"cycles":.., "n_procs":..}`` or the reverse
    address the same entry).  The payload includes everything that selects
    the computation — system, every param (``engine`` included when the
    client pinned one), and the fault plan when present."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_key(payload: Dict[str, object]) -> str:
    """Content address of a payload: sha256 of its canonical serialization."""
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


def cacheable(payload: Dict[str, object]) -> bool:
    """Whether a payload's result is *eligible* for caching.

    Fault-injected runs are excluded up front; failed/timed-out outcomes
    are excluded later, at ``put`` time, because they are only knowable
    after the run."""
    return payload.get("inject") is None


class ResultCache:
    """Bounded LRU: canonical spec hash → a completed report's wire text.

    ``max_entries == 0`` disables the cache (every ``get`` misses, ``put``
    is a no-op) so one code path serves both configurations.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[str]:
        """The stored wire text of ``key``'s report, or ``None``.

        A hit refreshes the entry's recency; every call counts as exactly
        one hit or one miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, text: str) -> int:
        """Store a report's wire text under ``key``; returns how many
        entries were evicted to make room (0 or 1 — also 0 when the cache
        is disabled)."""
        if self.max_entries == 0:
            return 0
        self._entries[key] = text
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy, JSON-able (the ``/metrics`` cache block)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }
