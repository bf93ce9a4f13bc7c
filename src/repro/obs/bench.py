"""Unified benchmark harness behind ``python -m repro bench``.

Every registered benchmark produces a list of *runs* sharing one schema,
and the harness writes them as ``BENCH_<name>.json`` — the machine-readable
perf trajectory the ROADMAP's "as fast as the hardware allows" claim is
tracked against.

JSON schema (``repro-bench/1``)::

    {
      "bench": "<name>",
      "schema": "repro-bench/1",
      "quick": false,
      "runs": [
        {
          "system": "cfm" | "interleaved" | "partial" | ...,
          "params": {...},                   # machine shape + workload knobs
          "cycles": int, "completed": int,
          "retries": int, "conflicts": int,
          "throughput": float,               # completed accesses / cycle
          "latency": {"mean": float, "p50": int, "p99": int},
          "utilization": {"<metric name>": fraction, ..., "mean": float},
          "metrics": {...}                   # full MetricsRegistry snapshot
        }, ...
      ]
    }

Each run builds its own :class:`MetricsRegistry`; pass a
:class:`repro.obs.probe.Probe` to any ``_run_*`` helper to additionally
stream structured events.  Probes and metrics are observational only —
the determinism tests assert a probed run produces identical numbers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, sla_section
from repro.obs.probe import Probe

SCHEMA = "repro-bench/1"


def ops_per_sec(report: Dict[str, object],
                elapsed: float) -> Optional[float]:
    """Completed ops per wall second — ``None`` when there is no data.

    A report that never counted completions (no ``"completed"`` key) or a
    zero/negative wall time is *missing data*, not zero throughput: emitting
    ``0.0`` would make "no work recorded" indistinguishable from "infinitely
    slow" on a dashboard.  ``null`` in the JSON says which one it was."""
    if "completed" not in report or elapsed <= 0:
        return None
    return int(report["completed"]) / elapsed  # type: ignore[arg-type]


# --------------------------------------------------------------------------
# Run-report assembly


def _run_report(system: str, params: Dict[str, object], summary,
                metrics: MetricsRegistry,
                util_prefix: str) -> Dict[str, object]:
    report: Dict[str, object] = {"system": system, "params": params}
    report.update(summary.as_dict())
    # One read of the registry (one settle, one pass) serves both the
    # snapshot and the utilization fractions under ``util_prefix``.
    snapshot = metrics.snapshot()
    block: Dict[str, float] = {
        name: entry["fraction"] for name, entry in snapshot.items()
        if entry["type"] == "utilization" and name.startswith(util_prefix)
    }
    if block:
        block["mean"] = sum(block.values()) / len(block)
    report["utilization"] = block
    report["metrics"] = snapshot
    return report


# --------------------------------------------------------------------------
# Individual runs


def _run_cfm(n_procs: int, bank_cycle: int, cycles: int,
             probe: Optional[Probe] = None,
             engine: Optional[str] = None) -> Dict[str, object]:
    """Slot-accurate CFM under full load: every processor always has an
    outstanding block read.  Conflict checking stays on — a ConflictError
    here would falsify the paper's theorem, so it is allowed to propagate.

    Unpinned, the run is observed (a metrics registry, which rides the
    batch driver) and advances one epoch per :meth:`CFMemory.run_batch`
    call: idle processors issue at the slot after their previous access
    finished, then the module runs through the earliest completion.  With
    ``engine`` set the run dispatches through :meth:`CFMemory.run_engine`
    instead, unobserved; reissues are callback-driven, so the workload is
    identical across engines.
    """
    from repro.core.cfm import AccessKind, AccessState, CFMemory
    from repro.core.config import CFMConfig
    from repro.fastpath.engine import resolve_engine
    from repro.sim.stats import RunSummary

    if engine is not None:
        resolve_engine(engine, layer="cfm")  # fail fast, typed
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    params: Dict[str, object] = {
        "n_procs": n_procs, "bank_cycle": bank_cycle,
        "n_banks": cfg.n_banks, "beta": cfg.block_access_time,
        "workload": "full_load_reads",
    }
    summary = RunSummary()
    if engine is not None:
        mem = CFMemory(cfg, probe=probe)

        def finished_e(acc) -> None:
            if acc.state is AccessState.COMPLETED:
                summary.completed += 1
                summary.latencies.add(acc.latency)
            else:
                summary.retries += acc.restarts or 1
            # Keep the processor saturated: completion slots are engine-
            # invariant, so every engine sees the identical issue stream.
            mem.issue(acc.proc, AccessKind.READ, offset=acc.proc % 4,
                      on_finish=finished_e)

        for p in range(n_procs):
            mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=finished_e)
        mem.run_engine(cycles, engine=engine)
        summary.cycles = cycles
        params["engine"] = engine
        return _run_report("cfm", params, summary, MetricsRegistry(),
                           "cfm.bank")
    metrics = MetricsRegistry()
    mem = CFMemory(cfg, probe=probe, metrics=metrics)
    # Processors whose access finished, in processor order (finishes of
    # one slot fire in that order, and every epoch ends at one).
    idle = list(range(n_procs))

    def finished(acc) -> None:
        idle.append(acc.proc)
        if acc.state is AccessState.COMPLETED:
            summary.completed += 1
            summary.latencies.add(acc.latency)
        else:
            summary.retries += acc.restarts or 1

    n_banks = cfg.n_banks
    active = mem.active
    while mem.slot < cycles:
        for p in idle:
            mem.issue(p, AccessKind.READ, offset=p % 4, on_finish=finished)
        idle.clear()
        # No processor frees up before the earliest completion, so the
        # next issue is due the slot after it.
        done = max(acc.words_done for acc in active)
        mem.run_batch(min(n_banks - done, cycles - mem.slot))
    summary.cycles = cycles
    return _run_report("cfm", params, summary, metrics, "cfm.bank")


def _run_interleaved(n_procs: int, n_modules: int, rate: float, beta: int,
                     cycles: int, seed: int = 0,
                     probe: Optional[Probe] = None) -> Dict[str, object]:
    """Conventional interleaved baseline: per-module contention + retries."""
    from repro.memory.interleaved import ConventionalMemorySimulator

    metrics = MetricsRegistry()
    sim = ConventionalMemorySimulator(
        n_procs, n_modules, rate=rate, beta=beta, seed=seed,
        probe=probe, metrics=metrics,
    )
    summary = sim.run(cycles)
    return _run_report(
        "interleaved",
        {"n_procs": n_procs, "n_modules": n_modules, "rate": rate,
         "beta": beta, "seed": seed, "workload": "uniform"},
        summary, metrics, "mem.module",
    )


def _run_partial(n_procs: int, n_modules: int, bank_cycle: int, rate: float,
                 locality: float, cycles: int, seed: int = 0,
                 probe: Optional[Probe] = None) -> Dict[str, object]:
    """Partially conflict-free system with the locality-λ workload."""
    from repro.memory.interleaved import PartialCFMemorySimulator
    from repro.network.partial import PartialCFSystem

    system = PartialCFSystem(n_procs, n_modules, bank_cycle=bank_cycle)
    metrics = MetricsRegistry()
    sim = PartialCFMemorySimulator(
        system, rate=rate, locality=locality, seed=seed,
        probe=probe, metrics=metrics,
    )
    summary = sim.run(cycles)
    return _run_report(
        "partial",
        {"n_procs": n_procs, "n_modules": n_modules,
         "bank_cycle": bank_cycle, "rate": rate, "locality": locality,
         "beta": system.beta, "seed": seed, "workload": "locality"},
        summary, metrics, "mem.module",
    )


def _run_circuit(n_ports: int, hold_cycles: int, rate: float, cycles: int,
                 seed: int = 0,
                 probe: Optional[Probe] = None) -> Dict[str, object]:
    """Circuit-switched omega with abort-and-retry (the BBN discipline)."""
    from repro.network.crossbar import CircuitSwitchRetryModel
    from repro.sim.rng import derive_stream
    from repro.sim.stats import RunSummary

    metrics = MetricsRegistry()
    model = CircuitSwitchRetryModel(
        n_ports, hold_cycles, seed=seed, probe=probe, metrics=metrics,
    )
    rng = derive_stream(seed, "bench.circuit", n_ports, rate)
    summary = RunSummary()
    issued_at = [-1] * n_ports  # -1: idle
    next_try = [0] * n_ports
    dsts = [0] * n_ports
    busy_until = [-1] * n_ports
    for now in range(cycles):
        model.now = now
        for src in range(n_ports):
            if busy_until[src] >= now:
                continue
            if issued_at[src] < 0:
                if rng.random() >= rate:
                    continue
                issued_at[src] = now
                next_try[src] = now
                dsts[src] = rng.integers(0, n_ports)
            if next_try[src] != now:
                continue
            done = model.try_request(src, dsts[src])
            if done is None:
                summary.conflicts += 1
                summary.retries += 1
                next_try[src] = now + model.backoff()
            else:
                summary.completed += 1
                summary.latencies.add(done - issued_at[src])
                busy_until[src] = done - 1
                issued_at[src] = -1
    summary.cycles = cycles
    return _run_report(
        "circuit_omega",
        {"n_ports": n_ports, "hold_cycles": hold_cycles, "rate": rate,
         "seed": seed, "workload": "uniform"},
        summary, metrics, "net.circuit",
    )


def _run_sync_omega(n_ports: int, cycles: int,
                    probe: Optional[Probe] = None) -> Dict[str, object]:
    """Clock-driven omega moving a full permutation every slot — the CFM's
    data path at saturation: zero conflicts, zero retries, one-slot transit."""
    from repro.network.synchronous import SynchronousOmegaNetwork
    from repro.sim.stats import RunSummary

    metrics = MetricsRegistry()
    net = SynchronousOmegaNetwork(n_ports, probe=probe, metrics=metrics)
    summary = RunSummary()
    payloads = {i: i for i in range(n_ports)}
    for slot in range(cycles):
        out = net.route(payloads, slot)
        summary.completed += len(out)
        for _ in out:
            summary.latencies.add(1)
    summary.cycles = cycles
    return _run_report(
        "sync_omega",
        {"n_ports": n_ports, "workload": "full_permutation"},
        summary, metrics, "net.omega",
    )


def _run_cache(n_procs: int, rounds: int, seed: int = 0,
               workload: str = "mix", profile: bool = False,
               probe: Optional[Probe] = None,
               engine: Optional[str] = None) -> Dict[str, object]:
    """Coherent-cache op stream through the protocol's one driver.

    ``workload="mix"`` is the original loads+stores over a small shared
    set; ``"private"`` gives every processor its own offsets.  The run is
    observed (a metrics registry; bank utilization is settled when the
    report reads it).  Every engine name runs the same driver, so
    ``engine`` is only validated and recorded in ``params.engine``, and a
    pinned report equals the unpinned one apart from that name.
    ``profile=True`` adds an empty ``"hotpath"`` section, kept for callers
    that still send it.
    """
    from repro.cache.protocol import CacheSystem
    from repro.fastpath.engine import resolve_engine
    from repro.sim.rng import derive_stream
    from repro.sim.stats import RunSummary

    if workload not in ("mix", "private"):
        raise ValueError(f"unknown cache workload {workload!r}")
    if engine is not None:
        resolve_engine(engine, layer="cache")  # fail fast, typed
    metrics = MetricsRegistry()
    sys_ = CacheSystem(n_procs, probe=probe, metrics=metrics)
    rng = derive_stream(seed, "bench.cache", n_procs, rounds)
    summary = RunSummary()
    ops = []
    for _ in range(rounds):
        for p in range(n_procs):
            if workload == "private":
                offset = p * 4 + rng.integers(0, 4)
            else:
                offset = rng.integers(0, 4)
            if rng.random() < 0.3:
                ops.append(sys_.store(p, offset, {0: p + 1}))
            else:
                ops.append(sys_.load(p, offset))
    start = sys_.slot
    sys_.run_ops(ops)
    summary.cycles = sys_.slot - start
    summary.completed = len(ops)
    for op in ops:
        summary.latencies.add(op.latency)
    params: Dict[str, object] = {
        "n_procs": n_procs, "rounds": rounds, "seed": seed,
        "workload": "load_store_mix" if workload == "mix"
        else "private_stream",
        "local_hits": sys_.stats_local_hits,
        "memory_ops": sys_.stats_memory_ops,
    }
    if engine is not None:
        params["engine"] = engine
    report = _run_report("cache", params, summary, metrics, "cfm.bank")
    if profile:
        report["hotpath"] = {"counters": {}, "occupancy": {}}
    return report


def _run_hierarchy(n_clusters: int, procs_per_cluster: int, rounds: int,
                   seed: int = 0, bank_cycle: int = 1,
                   workload: str = "local", profile: bool = False,
                   probe: Optional[Probe] = None,
                   engine: Optional[str] = None) -> Dict[str, object]:
    """Two-level hierarchy op stream through its one driver.

    ``workload="local"`` seeds every processor's private offsets DIRTY in
    its cluster's L2, so all traffic stays intra-cluster; ``"global"``
    shares unseeded offsets across clusters, exercising the NC
    fetch/write-back chains.  ``probe`` is accepted for signature parity
    but unused — the hierarchy's clusters are internal.  ``engine`` is
    validated and recorded, as for the cache; ``profile=True`` adds an
    empty ``"hotpath"`` section, as for the cache.
    """
    from repro.cache.state import CacheLineState
    from repro.core.block import Block
    from repro.fastpath.engine import resolve_engine
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
    from repro.sim.rng import derive_stream
    from repro.sim.stats import RunSummary

    if workload not in ("local", "global"):
        raise ValueError(f"unknown hierarchy workload {workload!r}")
    if engine is not None:
        resolve_engine(engine, layer="hierarchy")  # fail fast, typed
    hier = SlotAccurateHierarchy(n_clusters, procs_per_cluster,
                                 bank_cycle=bank_cycle)
    if workload == "local":
        width = hier._cluster_width()
        for c in range(n_clusters):
            for p in range(procs_per_cluster):
                base = (c * procs_per_cluster + p) * 4
                for off in range(base, base + 4):
                    hier.clusters[c].mem.poke_block(
                        off, Block.of_values([off + i for i in range(width)],
                                             "seed"))
                    hier.l2[c][off] = CacheLineState.DIRTY
    rng = derive_stream(seed, "bench.hierarchy", n_clusters,
                        procs_per_cluster, rounds)
    summary = RunSummary()
    ops = []
    for _ in range(rounds):
        round_ops = []
        for g in range(hier.n_procs):
            if workload == "local":
                offset = g * 4 + rng.integers(0, 4)
            else:
                offset = rng.integers(0, 6)
            if rng.random() < 0.5:
                round_ops.append(hier.store(
                    g, offset, {rng.integers(0, procs_per_cluster): g + 1}))
            else:
                round_ops.append(hier.load(g, offset))
        hier.run_ops(round_ops)
        ops.extend(round_ops)
    summary.cycles = hier.slot
    summary.completed = len(ops)
    for op in ops:
        summary.latencies.add(op.latency)
    metrics = MetricsRegistry()  # the hierarchy carries no registry (yet)
    params: Dict[str, object] = {
        "n_clusters": n_clusters, "procs_per_cluster": procs_per_cluster,
        "bank_cycle": bank_cycle, "rounds": rounds, "seed": seed,
        "workload": f"{workload}_stream",
        "nc_invalidations": hier.global_controller.invalidations_sent,
        "nc_l2_writebacks": hier.global_controller.triggered_l2_writebacks,
    }
    if engine is not None:
        params["engine"] = engine
    report = _run_report("hierarchy", params, summary, metrics, "cfm.bank")
    # A block access occupies every bank of its cluster CFM for exactly
    # one slot, so memory-op counts ARE per-bank busy slots — utilization
    # without attaching a registry.
    util: Dict[str, float] = {}
    if hier.slot:
        for c, cs in enumerate(hier.clusters):
            util[f"cluster[{c}].bank"] = cs.stats_memory_ops / hier.slot
    if util:
        util["mean"] = sum(util.values()) / len(util)
    report["utilization"] = util
    if profile:
        report["hotpath"] = {"counters": {}, "occupancy": {}}
    return report


def _run_qos(n_procs: int, bank_cycle: int, cycles: int, seed: int = 0,
             rate: float = 0.05, bulk_rate: float = 0.05,
             critical_procs: Optional[int] = None,
             arbitration: str = "priority",
             deadline_factor: int = 4,
             degraded_bank: Optional[int] = None,
             probe: Optional[Probe] = None,
             engine: Optional[str] = None) -> Dict[str, object]:
    """Mixed-criticality CFM run: QoS arbitration vs the FIFO baseline.

    A :class:`repro.sim.workload.MixedCriticalityWorkload` drives an
    open-loop submission stream — latency-critical foreground plus bulk
    background — into :meth:`CFMemory.submit`, so ops queue for AT-space
    entry whenever their processor's partition is occupied and the
    ``arbitration`` policy picks contended winners.  Grant decisions
    happen at the ``_finish`` seam every engine drives at identical
    slots, making reports engine-invariant pre-timing.

    The report gains a ``"qos"`` section: arbitration policy, entry-queue
    counters, and the per-tier :func:`repro.obs.metrics.sla_section` of
    the module's own ``cfm.latency[<tier>]`` histograms and
    ``cfm.deadline`` counter (p50/p99/p99.9 + deadline met/missed at
    ``deadline_factor``·β for latency-critical, ``2·deadline_factor``·β
    for normal).  That registry is private to the section, so the
    report's ``metrics`` block stays empty.  With
    ``degraded_bank`` set the module switches to the degraded b−1
    schedule before traffic starts — tier separation must survive a dead
    bank.
    """
    from repro.core.block import Block
    from repro.core.cfm import CFMemory
    from repro.core.cfm import AccessKind as AK
    from repro.core.config import CFMConfig
    from repro.fastpath.engine import resolve_engine
    from repro.sim.criticality import LATENCY_CRITICAL, NORMAL
    from repro.sim.stats import RunSummary
    from repro.sim.workload import MixedCriticalityWorkload

    if engine is not None:
        resolve_engine(engine, layer="cfm")  # fail fast, typed
    cfg = CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle)
    sla = MetricsRegistry()
    mem = CFMemory(cfg, probe=probe, metrics=sla, arbitration=arbitration)
    if degraded_bank is not None:
        mem.degrade_bank(degraded_bank)
    beta = cfg.block_access_time
    deadlines = {LATENCY_CRITICAL: deadline_factor * beta,
                 NORMAL: 2 * deadline_factor * beta}
    summary = RunSummary()

    def finished(acc) -> None:
        summary.completed += 1
        summary.latencies.add(acc.qos_latency)

    wl = MixedCriticalityWorkload(
        n_procs, 1, rate, critical_procs=critical_procs,
        bulk_rate=bulk_rate, seed=seed,
    )
    n_banks = cfg.n_banks
    for ev in wl.iter_events(cycles):
        if ev.cycle > mem.slot:
            mem.run_engine(ev.cycle - mem.slot, engine=engine)
        data = (Block.of_values([ev.offset + k for k in range(n_banks)],
                                f"qos{ev.cycle}")
                if ev.is_write else None)
        mem.submit(ev.proc, AK.WRITE if ev.is_write else AK.READ,
                   offset=ev.offset, data=data, on_finish=finished,
                   criticality=ev.criticality,
                   deadline=deadlines.get(ev.criticality))
    # Drain the backlog: no new arrivals, so every queued op completes.
    while mem.active:
        mem.run_engine(4 * beta, engine=engine)
    summary.cycles = mem.slot
    params: Dict[str, object] = {
        "n_procs": n_procs, "bank_cycle": bank_cycle,
        "n_banks": n_banks, "beta": beta, "cycles": cycles, "seed": seed,
        "rate": rate, "bulk_rate": bulk_rate,
        "critical_procs": wl.critical_procs,
        "arbitration": arbitration, "deadline_factor": deadline_factor,
        "workload": "mixed_criticality",
    }
    if degraded_bank is not None:
        params["degraded_bank"] = degraded_bank
    if engine is not None:
        params["engine"] = engine
    report = _run_report("qos", params, summary, MetricsRegistry(),
                         "cfm.bank")
    report["qos"] = {
        "arbitration": arbitration,
        "entry_queue": dict(mem.qos_counts),
        "sla": sla_section(sla, "cfm.latency", "cfm.deadline", "slots"),
    }
    return report


def _run_faults(trials: int = 3, seed: int = 0, quick: bool = False,
                probe: Optional[Probe] = None) -> Dict[str, object]:
    """Chaos differential sweep: seeded fault plans across every layer.

    Two gates ride in the report: ``zero_fault_identical`` (a zero plan is
    bit-identical to no fault machinery, reference and batch) and the
    per-run outcomes, each of which must be ``completed`` or a typed
    error name (``fault_outcomes`` aggregates them; CI's fault-smoke job
    asserts both).  ``probe`` accepted for signature parity, unused.
    """
    from repro.faults.chaos import chaos_sweep, differential_zero_fault
    from repro.sim.stats import RunSummary

    metrics = MetricsRegistry()
    identical = differential_zero_fault(seed)
    runs = chaos_sweep(seed, trials=trials, quick=quick)
    summary = RunSummary()
    counters: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    for r in runs:
        summary.cycles += int(r["slots"])  # total simulated slots
        outcomes[str(r["outcome"])] = outcomes.get(str(r["outcome"]), 0) + 1
        if r["outcome"] == "completed":
            summary.completed += 1
        else:
            summary.retries += 1  # typed-error outcomes, in schema terms
        for k, v in r["counters"].items():  # type: ignore[union-attr]
            counters[k] = counters.get(k, 0) + int(v)
    report = _run_report(
        "faults_chaos",
        {"trials": trials, "seed": seed, "quick": bool(quick),
         "workload": "chaos_sweep", "n_runs": len(runs)},
        summary, metrics, "cfm.bank",
    )
    report["zero_fault_identical"] = identical
    report["fault_outcomes"] = dict(sorted(outcomes.items()))
    report["fault_counters"] = dict(sorted(counters.items()))
    report["fault_runs"] = [
        {"layer": r["layer"], "shape": r["shape"], "outcome": r["outcome"],
         "typed": r["typed"], "slots": r["slots"],
         "counters": r["counters"], "plan_seed": r["plan"]["seed"],
         "plan_kinds": r["plan"]["kinds"]}
        for r in runs
    ]
    return report


# --------------------------------------------------------------------------
# Specs: a run as data
#
# A *spec* is ``{"system": <SYSTEMS key>, "params": {<kwargs>}}`` — a plain
# picklable description of one run, so a benchmark can be fanned out across
# worker processes (:mod:`repro.fastpath.parallel`) as easily as run inline.
# Results are a pure function of the spec (seeds live in the params), so
# serial and parallel execution produce identical documents.


SYSTEMS: Dict[str, Callable[..., Dict[str, object]]] = {
    "cfm": _run_cfm,
    "interleaved": _run_interleaved,
    "partial": _run_partial,
    "circuit_omega": _run_circuit,
    "sync_omega": _run_sync_omega,
    "cache": _run_cache,
    "hierarchy": _run_hierarchy,
    "qos": _run_qos,
    "faults_chaos": _run_faults,
}

#: Systems whose runners accept ``engine=`` (``repro bench --engine``):
#: the three layers behind the engine-strategy seam, plus the
#: QoS runner (which drives a CFM underneath).
ENGINE_SYSTEMS = frozenset({"cfm", "cache", "hierarchy", "qos"})

#: Seam layer each engine-aware system resolves engines against (systems
#: absent here are their own layer).  ``qos`` runs a CFM, so the stacked
#: engine — CFM-only — is valid for it.
SYSTEM_ENGINE_LAYER = {"qos": "cfm"}


def pin_specs(specs: List[Dict[str, object]],
              engine: Optional[str] = None) -> List[Dict[str, object]]:
    """Apply ``repro bench``'s ``--engine`` pin in place.

    ``engine`` pins every run of :data:`ENGINE_SYSTEMS` whose seam layer
    (:data:`SYSTEM_ENGINE_LAYER`) the engine can drive, so ``stacked``
    reaches ``cfm`` and ``qos`` and leaves the other seam systems on their
    default engine.  The one pinning rule of :func:`run_benchmark` and the
    sweep runners; returns ``specs``."""
    from repro.fastpath.engine import engine_available

    for spec in specs:
        system = str(spec["system"])
        params = spec["params"]
        if (engine is not None and system in ENGINE_SYSTEMS
                and engine_available(
                    engine, SYSTEM_ENGINE_LAYER.get(system, system))):
            params["engine"] = engine  # type: ignore[index]
    return specs


def run_spec(spec: Dict[str, object]) -> Dict[str, object]:
    """Execute one run spec and return its run report."""
    system = spec.get("system")
    if system not in SYSTEMS:
        raise KeyError(
            f"unknown system {system!r} (valid: {' '.join(sorted(SYSTEMS))})"
        )
    params = spec.get("params") or {}
    return SYSTEMS[system](**params)


def _spec(system: str, **params: object) -> Dict[str, object]:
    return {"system": system, "params": params}


# --------------------------------------------------------------------------
# Benchmark registry (spec builders)


def specs_quick(quick: bool = True) -> List[Dict[str, object]]:
    """The smoke trajectory: CFM + interleaved baseline + one run through
    each coherence layer (cache protocol, two-level hierarchy), plus an
    ``engine="stacked"`` CFM run."""
    cycles = 2_000 if quick else 20_000
    rounds = 4 if quick else 20
    return [
        _spec("cfm", n_procs=8, bank_cycle=2, cycles=cycles),
        _spec("cfm", n_procs=8, bank_cycle=2, cycles=cycles,
              engine="stacked"),
        _spec("interleaved", n_procs=8, n_modules=8, rate=0.04, beta=17,
              cycles=cycles * 5),
        _spec("cache", n_procs=4, rounds=rounds),
        _spec("hierarchy", n_clusters=2, procs_per_cluster=2, rounds=rounds),
    ]


def specs_cfm(quick: bool = False) -> List[Dict[str, object]]:
    """Full-load CFM across the Table 3.3 shapes."""
    shapes = [(4, 1), (8, 2), (16, 4)] if quick else [(4, 1), (8, 2), (16, 4), (32, 8)]
    cycles = 1_000 if quick else 10_000
    return [_spec("cfm", n_procs=n, bank_cycle=c, cycles=cycles)
            for n, c in shapes]


def specs_interleaved(quick: bool = False) -> List[Dict[str, object]]:
    """Conventional-baseline rate sweep (the Fig 3.13 regime)."""
    rates = (0.01, 0.04) if quick else (0.01, 0.02, 0.04, 0.06)
    cycles = 5_000 if quick else 30_000
    return [_spec("interleaved", n_procs=8, n_modules=8, rate=r, beta=17,
                  cycles=cycles) for r in rates]


def specs_partial(quick: bool = False) -> List[Dict[str, object]]:
    """Partially conflict-free sweep over locality λ (the Fig 3.14 regime)."""
    locs = (0.0, 0.9) if quick else (0.0, 0.5, 0.9, 1.0)
    cycles = 5_000 if quick else 30_000
    return [_spec("partial", n_procs=64, n_modules=8, bank_cycle=1,
                  rate=0.02, locality=lam, cycles=cycles) for lam in locs]


def specs_network(quick: bool = False) -> List[Dict[str, object]]:
    """Interconnect head-to-head: abort/retry circuit vs clock-driven omega."""
    cycles = 2_000 if quick else 10_000
    return [
        _spec("circuit_omega", n_ports=8, hold_cycles=17, rate=0.05,
              cycles=cycles),
        _spec("sync_omega", n_ports=8, cycles=min(cycles, 2_000)),
    ]


def specs_cache(quick: bool = False) -> List[Dict[str, object]]:
    """Coherence protocol op latency + the bank utilization underneath."""
    rounds = 5 if quick else 25
    return [_spec("cache", n_procs=4, rounds=rounds),
            _spec("cache", n_procs=8, rounds=rounds)]


def specs_hierarchy(quick: bool = False) -> List[Dict[str, object]]:
    """Two-level hierarchy: all-local streaming vs cross-cluster sharing."""
    rounds = 6 if quick else 30
    return [
        _spec("hierarchy", n_clusters=2, procs_per_cluster=4, rounds=rounds,
              workload="local"),
        _spec("hierarchy", n_clusters=2, procs_per_cluster=2, rounds=rounds,
              workload="global"),
    ]


def specs_qos(quick: bool = False) -> List[Dict[str, object]]:
    """Mixed-criticality matrix: priority arbitration vs the FIFO
    baseline on each shape, plus a degraded-mode pair — the bench_qos
    gate asserts latency-critical p99 strictly below bulk p99 under
    priority, and below the FIFO baseline's critical p99."""
    shapes = [(8, 2), (16, 4)] if quick else [(8, 2), (16, 4), (32, 8)]
    cycles = 1_500 if quick else 4_000
    out: List[Dict[str, object]] = []
    for n, c in shapes:
        # ~1.6x the per-processor service capacity (one op per b slots):
        # enough overload that entry queues actually contend.
        r = round(0.8 / (n * c), 6)
        for arb in ("priority", "fifo"):
            out.append(_spec("qos", n_procs=n, bank_cycle=c, cycles=cycles,
                             rate=r, bulk_rate=r, arbitration=arb))
    n, c = shapes[0]
    r = round(0.8 / (n * c), 6)
    for arb in ("priority", "fifo"):
        # Dead bank 1: tier separation must survive the degraded b-1
        # schedule (which pins the per-slot reference path).
        out.append(_spec("qos", n_procs=n, bank_cycle=c, cycles=cycles,
                         rate=r, bulk_rate=r, arbitration=arb,
                         degraded_bank=1))
    return out


def specs_faults(quick: bool = False) -> List[Dict[str, object]]:
    """Chaos differential sweep: zero-fault bit-identity + seeded fault
    plans that must complete or raise typed errors (CI's fault-smoke gate)."""
    trials = 2 if quick else 4
    return [_spec("faults_chaos", trials=trials, seed=0, quick=quick)]


BENCH_SPECS: Dict[str, Callable[[bool], List[Dict[str, object]]]] = {
    "quick": specs_quick,
    "cfm": specs_cfm,
    "interleaved": specs_interleaved,
    "partial": specs_partial,
    "network": specs_network,
    "cache": specs_cache,
    "hierarchy": specs_hierarchy,
    "qos": specs_qos,
    "faults": specs_faults,
}


def benchmark_specs(name: str, quick: bool = False) -> List[Dict[str, object]]:
    """The run specs of one registered benchmark."""
    if name not in BENCH_SPECS:
        raise KeyError(
            f"unknown benchmark {name!r} (valid: {' '.join(sorted(BENCH_SPECS))})"
        )
    return BENCH_SPECS[name](quick or name == "quick")


def _bench_runner(name: str) -> Callable[[bool], List[Dict[str, object]]]:
    def run(quick: bool = False) -> List[Dict[str, object]]:
        return [run_spec(s) for s in benchmark_specs(name, quick=quick)]
    run.__name__ = f"bench_{name}"
    run.__doc__ = BENCH_SPECS[name].__doc__
    return run


# Back-compat callable registry: name -> (quick) -> [run reports].
BENCHMARKS: Dict[str, Callable[[bool], List[Dict[str, object]]]] = {
    name: _bench_runner(name) for name in BENCH_SPECS
}


def run_benchmark(name: str, quick: bool = False,
                  engine: Optional[str] = None) -> Dict[str, object]:
    """Run one registered benchmark and return its JSON document.

    The document is deterministic: two runs of the same benchmark compare
    equal.  With ``engine`` set, every run whose system sits behind the
    engine-strategy seam (:data:`ENGINE_SYSTEMS`) *and supports the
    engine* is pinned to it; results are bit-identical across engines
    (invariants 10–11), so such documents differ from the default only
    in ``params.engine`` and observer-dependent sections.  Engines with a
    restricted layer set (``stacked`` is CFM-only) leave the other seam
    systems on their default engine rather than failing the document."""
    from repro.fastpath.engine import resolve_engine

    if engine is not None:
        engine = resolve_engine(engine)  # fail fast on unknown names
    specs = pin_specs(benchmark_specs(name, quick=quick), engine=engine)
    return {
        "bench": name, "schema": SCHEMA,
        "quick": bool(quick or name == "quick"),
        "runs": [run_spec(s) for s in specs],
    }


def write_benchmark(name: str, out_dir: Union[str, Path] = ".",
                    quick: bool = False,
                    engine: Optional[str] = None) -> Path:
    """Run a benchmark and write ``BENCH_<name>.json``; returns the path."""
    doc = run_benchmark(name, quick=quick, engine=engine)
    return write_document(doc, name, out_dir=out_dir)


def write_document(doc: Dict[str, object], name: str,
                   out_dir: Union[str, Path] = ".") -> Path:
    """Write an already-built bench document as ``BENCH_<name>.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path
