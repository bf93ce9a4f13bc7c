"""Seeded inputs of the three workloads.

Everything a run sends or calls is a pure function of the workload seed:
the same seed gives a byte-identical request stream, a different seed a
different one.  The server only ever sees the JSONL lines produced here.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Tuple

TIERS = ("latency_critical", "normal", "bulk")

#: Per serve workload: the fixed open-loop offered rate (requests/s) and
#: latency limit (ms), and how many requests per second to encode ahead of
#: a closed-loop phase (above the saturated rate, or encoding joins the
#: loop).  On a 2-core host (README.md) the rates are about a fifth
#: (``serve_hot``) and a third (``serve_fresh``) of the closed-loop
#: throughput, and each limit is a multiple of the open-loop median (about
#: 4 and 3.4 times), so ``deadline_met_frac`` reads below 1 (about 0.99
#: and 0.87) and falls beyond its bound when latency grows fourfold
#: (``serve_hot``) or doubles (``serve_fresh``).  ``serve_hot``'s limit
#: sits near a quiet run's p99: at 3 ms host stalls moved its fraction
#: between 0.64 and 0.99 over ten seeds.
OPEN_LOOP = {
    "serve_hot": {"rate_rps": 800.0, "limit_ms": 5.0,
                  "prefill_rps": 9000.0},
    "serve_fresh": {"rate_rps": 50.0, "limit_ms": 50.0,
                    "prefill_rps": 400.0},
}

#: Per-call host-time limit (ms) of a ``sim_sweep`` call: about 1.6 times
#: the median of the slowest call of the list (cache ``mix``, ~63 ms on a
#: 2-core host), so a call class that slows down by more than that drops
#: ``deadline_met_frac`` by a ninth.
SIM_CALL_LIMIT_MS = 100.0

#: Shapes the server pre-warms by default, as cfm ``(n_procs, bank_cycle)``
#: params: (4,1), (8,2), (16,4) and (32,8) in ``(n_banks, bank_cycle)``.
_WARM_CFM = ((4, 1), (4, 2), (4, 4), (4, 8))
#: One cfm shape outside the default warm set: (12,3).
_COLD_CFM = (4, 3)

#: ``serve_hot`` request sizes, from the repository's own serving drivers:
#: the cfm cycle counts of ``benchmarks/bench_serve.py``'s batching run
#: (``BATCH_CYCLE_CHOICES``) and the 2-round cache spec of
#: ``benchmarks/serve_smoke.py``.
_HOT_CYCLES = (100, 150, 200, 250)
_HOT_ROUNDS = 2

#: ``serve_fresh`` request sizes, from the ``repro bench --quick``
#: trajectory (``repro.obs.bench.specs_quick``): cfm runs of 2000 cycles
#: (drawn from 1000..3000 so that specs stay distinct), cache and
#: hierarchy runs of 4 rounds.
_FRESH_CYCLES = (1000, 3000)
_FRESH_ROUNDS = 4


def canonical(payload: Dict[str, object]) -> str:
    """The server's cache-key serialization of a payload
    (:func:`repro.serve.cache.canonical_payload`), re-stated here so the
    stream generator needs no import of the program."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode(request: Dict[str, object]) -> bytes:
    """One request as the JSONL line the server receives."""
    return (json.dumps(request, sort_keys=True) + "\n").encode()


def payload_of(request: Dict[str, object]) -> Dict[str, object]:
    """The run spec a request asks for (what the server caches on)."""
    return {"system": request["system"], "params": dict(request["params"])}


@dataclass(frozen=True)
class Prepared:
    """A request encoded ahead of time: its id, cache key and wire line."""

    rid: str
    key: str
    line: bytes

    @classmethod
    def of(cls, request: Dict[str, object]) -> "Prepared":
        return cls(str(request["id"]), canonical(payload_of(request)),
                   encode(request))


class Feed:
    """A request stream encoded in advance, so a measured phase spends no
    client time generating or encoding requests."""

    def __init__(self, stream: Iterator[Dict[str, object]]) -> None:
        self._stream = stream
        self._ready: Deque[Prepared] = deque()

    def prefill(self, n: int) -> None:
        while len(self._ready) < n:
            self._ready.append(Prepared.of(next(self._stream)))

    def __iter__(self) -> "Feed":
        return self

    def __next__(self) -> Prepared:
        if self._ready:
            return self._ready.popleft()
        return Prepared.of(next(self._stream))


# -- serve_hot ----------------------------------------------------------------


def hot_specs() -> List[Dict[str, object]]:
    """The 32 distinct small specs ``serve_hot`` draws from, most popular
    first.

    The order repeats ``benchmarks/serve_smoke.py``'s round-robin of two
    cfm specs, one cache spec and one shapeless spec (here the hierarchy),
    so every popularity band mixes the three systems in the same 2:1:1
    proportion; the cfm specs cycle through the warm shapes."""
    specs: List[Dict[str, object]] = []
    for i in range(8):
        cycles = _HOT_CYCLES[i // 2]
        for shape in (2 * i % 4, 2 * i % 4 + 1):
            n_procs, bank_cycle = _WARM_CFM[shape]
            specs.append({"system": "cfm", "params": {
                "n_procs": n_procs, "bank_cycle": bank_cycle,
                "cycles": cycles}})
        specs.append({"system": "cache", "params": {
            "n_procs": 4, "rounds": _HOT_ROUNDS, "seed": i}})
        specs.append({"system": "hierarchy", "params": {
            "n_clusters": 2, "procs_per_cluster": 2,
            "rounds": _HOT_ROUNDS, "seed": i}})
    return specs


def hot_stream(seed: int) -> Iterator[Dict[str, object]]:
    """Endless requests over :func:`hot_specs` with Zipf's law (the
    spec of popularity rank ``k`` is drawn with weight ``1/k``).

    The ranks are fixed; the seed draws each request's spec, tenant and
    criticality tier."""
    rng = random.Random(f"perfbench.serve_hot.{seed}")
    specs = hot_specs()
    weights = [1.0 / k for k in range(1, len(specs) + 1)]
    i = 0
    while True:
        spec = rng.choices(specs, weights)[0]
        i += 1
        yield {"id": f"h{i}", "tenant": f"t{rng.randrange(4)}",
               "criticality": rng.choice(TIERS), **_copy(spec)}


# -- serve_fresh --------------------------------------------------------------


def _fresh_payload(rng: random.Random) -> Dict[str, object]:
    """One ``serve_fresh`` spec.

    Systems come 2:1:1 (cfm : cache : hierarchy), the proportion of both
    ``serve_smoke.py``'s stream and ``specs_quick``.  Each cfm spec takes
    one of the four warm shapes or the unwarmed one, and no engine, the
    ``vectorized`` or the ``stacked`` engine, with equal chances: no
    record of real traffic weights them."""
    kind = rng.randrange(4)
    if kind < 2:
        n_procs, bank_cycle = rng.choice(_WARM_CFM + (_COLD_CFM,))
        params: Dict[str, object] = {
            "n_procs": n_procs, "bank_cycle": bank_cycle,
            "cycles": rng.randint(*_FRESH_CYCLES)}
        engine = rng.choice((None, "vectorized", "stacked"))
        if engine is not None:
            params["engine"] = engine
        return {"system": "cfm", "params": params}
    if kind == 2:
        return {"system": "cache", "params": {
            "n_procs": 4, "rounds": _FRESH_ROUNDS,
            "seed": rng.randrange(1 << 30), "workload": "mix"}}
    return {"system": "hierarchy", "params": {
        "n_clusters": 2, "procs_per_cluster": 2, "rounds": _FRESH_ROUNDS,
        "seed": rng.randrange(1 << 30), "workload": "global"}}


def fresh_stream(seed: int) -> Iterator[Dict[str, object]]:
    """Endless requests, each a spec never sent before in the stream.

    A payload that repeats an earlier one is drawn again, so the server's
    result cache only ever misses and writes."""
    rng = random.Random(f"perfbench.serve_fresh.{seed}")
    seen = set()
    i = 0
    while True:
        for _ in range(1000):
            payload = _fresh_payload(rng)
            key = canonical(payload)
            if key not in seen:
                break
        else:  # pragma: no cover - cache and hierarchy seeds never run out
            raise RuntimeError("serve_fresh spec space exhausted")
        seen.add(key)
        i += 1
        yield {"id": f"f{i}", "tenant": f"t{rng.randrange(4)}",
               "criticality": rng.choice(TIERS), **payload}


def request_stream(workload: str, seed: int) -> Iterator[Dict[str, object]]:
    if workload == "serve_hot":
        return hot_stream(seed)
    if workload == "serve_fresh":
        return fresh_stream(seed)
    raise ValueError(f"no request stream for workload {workload!r}")


def probe_requests() -> List[Dict[str, object]]:
    """The set-up probe: one small cfm request per default shard.

    Its specs sit outside both workloads' spec spaces (16 cycles), so they
    never turn a later workload request into a cache hit."""
    return [{"id": f"probe{k}", "system": "cfm", "params": {
        "n_procs": 4, "bank_cycle": c, "cycles": 16}}
        for k, c in enumerate((1, 2))]


# -- sim_sweep ----------------------------------------------------------------

#: Lanes of the stacked call: 16 (64,16) specs.
STACK_LANES = 16


def sim_calls() -> List[Tuple[str, object]]:
    """The fixed ``sim_sweep`` list as ``(class, spec or spec list)``.

    A class names the layer path a call exercises; the ``cfm.stacked``
    entry is one :func:`repro.fastpath.stack.run_specs_stacked` call."""
    big = {"n_procs": 4, "bank_cycle": 16}
    calls: List[Tuple[str, object]] = [
        ("cfm.observed", {"system": "cfm", "params": {
            "n_procs": 4, "bank_cycle": 4, "cycles": 3000}}),
        ("cfm.reference", {"system": "cfm", "params": {
            **big, "cycles": 3000, "engine": "reference"}}),
        ("cfm.batch", {"system": "cfm", "params": {
            **big, "cycles": 20000, "engine": "batch"}}),
        ("cfm.vectorized", {"system": "cfm", "params": {
            **big, "cycles": 20000, "engine": "vectorized"}}),
        ("cfm.stacked", [{"system": "cfm", "params": {
            **big, "cycles": 4000 + 64 * k, "engine": "stacked"}}
            for k in range(STACK_LANES)]),
        ("cache_sys.mix", {"system": "cache", "params": {
            "n_procs": 4, "rounds": 80, "seed": 7, "workload": "mix"}}),
        ("cache_sys.private", {"system": "cache", "params": {
            "n_procs": 4, "rounds": 150, "seed": 7, "workload": "private"}}),
        ("hierarchy.local", {"system": "hierarchy", "params": {
            "n_clusters": 2, "procs_per_cluster": 2, "rounds": 100,
            "seed": 7, "workload": "local"}}),
        ("hierarchy.global", {"system": "hierarchy", "params": {
            "n_clusters": 2, "procs_per_cluster": 2, "rounds": 40,
            "seed": 7, "workload": "global"}}),
    ]
    return calls


def sim_order(seed: int, n_passes: int) -> Iterator[List[int]]:
    """Seeded call order of each pass over :func:`sim_calls`."""
    rng = random.Random(f"perfbench.sim_sweep.{seed}")
    n = len(sim_calls())
    for _ in range(n_passes):
        order = list(range(n))
        rng.shuffle(order)
        yield order


def _copy(spec: Dict[str, object]) -> Dict[str, object]:
    return {"system": spec["system"], "params": dict(spec["params"])}
