"""A service on an instant pool, for tests of what the service accounts.

:class:`InstantPool` stands in for the sharded worker pool: one shard
whose worker answers every request at once, taking ``cycles`` / 1000 ms
of wall time, so a test picks each request's latency.
:func:`serve_serially` runs requests through
:meth:`SimulationService.process` on one and returns the ``/metrics``
document; :func:`tenant_labels` lists the tenants accounted in it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Dict, List, Set

from repro.serve import SimulationService

CFM_PARAMS = {"n_procs": 4, "bank_cycle": 1, "cycles": 200}


class InstantPool:
    """One shard; each request is answered at once in ``cycles`` / 1000 ms."""

    n_shards = 1

    def __init__(self) -> None:
        self.dispatched = 0

    def shard_of(self, system, params, shape=None) -> int:
        return 0

    def submit(self, payloads, shard) -> concurrent.futures.Future:
        self.dispatched += len(payloads)
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_result([{"ok": True, "report": {},
                            "wall_ms": p["params"]["cycles"] / 1000}
                           for p in payloads])
        return future

    def stats(self) -> Dict[str, object]:
        return {}


def serve_serially(requests: List[Dict[str, object]],
                   **kwargs) -> Dict[str, object]:
    """Serve cfm ``requests`` one by one; the final ``/metrics`` document.

    Each request is a set of fields over a default cfm spec whose
    ``cycles`` differ per request (so none hits the result cache unless
    its fields say so)."""
    async def scenario():
        service = SimulationService(pool=InstantPool(), **kwargs)
        for i, fields in enumerate(requests):
            response = await service.process(dict(
                {"id": f"q{i}", "system": "cfm",
                 "params": dict(CFM_PARAMS, cycles=100 + i)}, **fields))
            assert response["ok"], response
        return service.metrics_snapshot()

    return asyncio.run(scenario())


def tenant_labels(snap: Dict[str, object]) -> Set[str]:
    """The tenant labels with instruments in a ``/metrics`` document."""
    return {name[len("tenant["):-len("].requests")]
            for name in snap["service"]  # type: ignore[union-attr]
            if name.startswith("tenant[") and name.endswith("].requests")}
