"""Chaos differential harness: the fault layer's two load-bearing invariants.

1. **Zero-fault bit-identity** (:func:`differential_zero_fault`): attaching
   a :class:`FaultInjector` with a zero plan changes *nothing* — the run's
   full state fingerprint (completions, bank contents, directories, slot
   counters) is identical to a run with no fault machinery, on both the
   per-slot reference engines and the batched fastpath engines.

2. **Complete-or-typed-error** (:func:`chaos_cfm` & friends,
   :func:`chaos_sweep`): a run under any seeded fault plan either completes
   or raises a typed :class:`repro.faults.errors.FaultError` subclass /
   :class:`repro.sim.engine.SimulationTimeout` — never hangs past its slot
   budget, never silently corrupts.  Every runner returns an outcome dict
   (outcome, error string, fault counters, slots) instead of letting any
   non-typed exception escape.

The sweep (:func:`chaos_sweep`) is what ``repro bench faults`` and the CI
``fault-smoke`` job run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.block import Block
from repro.core.cfm import AccessKind, AccessState, BlockAccess, CFMemory
from repro.core.config import CFMConfig
from repro.faults.errors import FaultError, NetworkFaultError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveringOp, RetryPolicy, run_with_recovery
from repro.sim.engine import SimulationTimeout

#: Exactly the exceptions a seeded-fault run may surface.
TYPED_ERRORS = (FaultError, SimulationTimeout)

#: (n_procs, bank_cycle) machine shapes the sweep walks.
SWEEP_SHAPES_QUICK: Tuple[Tuple[int, int], ...] = ((4, 1), (8, 2))
SWEEP_SHAPES_FULL: Tuple[Tuple[int, int], ...] = ((4, 1), (8, 2), (16, 4))


# --------------------------------------------------------------------------
# State fingerprints (exhaustive, order-stable, hashable)


def fingerprint_cfm(mem: CFMemory, results: List[object],
                    completed: List[Tuple]) -> Tuple:
    """Everything observable about a CFM run: completions, banks, clock.

    ``completed`` is the driver's own record of every completion in
    finish order (the engine keeps no history); see :func:`_drive_cfm`."""
    return (
        mem.slot,
        tuple(results),
        tuple(completed),
        tuple(
            tuple(sorted((off, w.value, w.version) for off, w in bank.items()))
            for bank in mem.banks
        ),
    )


def fingerprint_cache(sys_, ops) -> Tuple:
    """Cache-layer fingerprint: op stream + directories + banks + stats."""
    dirs = tuple(
        tuple(
            (line.tag, line.state.value,
             tuple(w.value for w in line.data.words) if line.data else None)
            for line in d.lines
        )
        for d in sys_.dirs
    )
    return (
        sys_.slot,
        sys_.stats_local_hits,
        sys_.stats_memory_ops,
        tuple(
            (op.kind.value, op.proc, op.offset, op.done_slot, op.retries,
             tuple(w.value for w in op.result.words) if op.result else None)
            for op in ops
        ),
        dirs,
        tuple(
            tuple(sorted((off, w.value, w.version) for off, w in bank.items()))
            for bank in sys_.mem.banks
        ),
    )


def fingerprint_hier(hier, ops) -> Tuple:
    """Hierarchy fingerprint: op stream + L2 states + global data + clusters."""
    return (
        hier.slot,
        tuple(
            (op.kind.value, op.gproc, op.offset, op.done_slot,
             tuple(w.value for w in op.result.words) if op.result else None)
            for op in ops
        ),
        tuple(tuple(sorted((off, s.value) for off, s in l2.items()))
              for l2 in hier.l2),
        tuple(sorted(
            (off, tuple(w.value for w in blk.words))
            for off, blk in hier.global_data.items()
        )),
        tuple(fingerprint_cache(cs, ()) for cs in hier.clusters),
    )


# --------------------------------------------------------------------------
# Fixed differential workloads (one per layer)


def _drive_cfm(mem: CFMemory, engine: str) -> Tuple:
    """A fixed write-then-read workload; returns the fingerprint.

    Every access records its own completion, writes included, so the
    fingerprint holds each one in finish order."""
    n = mem.cfg.n_procs
    b = mem.n_banks
    results: List[object] = []
    completed: List[Tuple] = []
    span = b + mem.cfg.bank_cycle + 2

    def record(a: BlockAccess) -> None:
        if a.state is AccessState.COMPLETED:
            completed.append((a.access_id, a.proc, a.kind.value, a.offset,
                              a.issue_slot, a.complete_slot, a.restarts))

    def read_done(a: BlockAccess) -> None:
        record(a)
        results.append((a.proc, tuple(w.value for w in a.result.words)))

    for p in range(n):
        mem.issue(p, AccessKind.WRITE, p % 3,
                  data=Block.of_values([p * 100 + k for k in range(b)], f"v{p}"),
                  on_finish=record)
    mem.run_engine(span, engine=engine)
    for p in range(n):
        mem.issue(p, AccessKind.READ, (p + 1) % 3, on_finish=read_done)
    mem.run_engine(span, engine=engine)
    return fingerprint_cfm(mem, results, completed)


def _cfm_fingerprint(n_procs: int, bank_cycle: int, engine: str,
                     attach_zero: bool) -> Tuple:
    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    if attach_zero:
        mem.faults = FaultInjector(FaultPlan.zero())
    return _drive_cfm(mem, engine)


def _build_cache_ops(sys_, n_procs: int, rounds: int, seed: int):
    from repro.sim.rng import derive_rng

    rng = derive_rng(seed, "chaos.cache", n_procs, rounds)
    ops = []
    for _ in range(rounds):
        for p in range(n_procs):
            offset = int(rng.integers(0, 4))
            if rng.random() < 0.3:
                ops.append(sys_.store(p, offset, {0: p + 1}))
            else:
                ops.append(sys_.load(p, offset))
    return ops


def _cache_fingerprint(n_procs: int, rounds: int, seed: int,
                       attach_zero: bool) -> Tuple:
    from repro.cache.protocol import CacheSystem

    inj = FaultInjector(FaultPlan.zero()) if attach_zero else None
    sys_ = CacheSystem(n_procs, faults=inj)
    ops = _build_cache_ops(sys_, n_procs, rounds, seed)
    sys_.run_ops(ops)
    return fingerprint_cache(sys_, ops)


def _build_hier_ops(hier, rounds: int, seed: int):
    from repro.sim.rng import derive_rng

    rng = derive_rng(seed, "chaos.hier", hier.n_clusters, hier.per, rounds)
    ops = []
    for _ in range(rounds):
        for g in range(hier.n_procs):
            offset = int(rng.integers(0, 6))
            if rng.random() < 0.5:
                ops.append(hier.store(g, offset, {0: g + 1}))
            else:
                ops.append(hier.load(g, offset))
    return ops


def _hier_fingerprint(n_clusters: int, per: int, rounds: int, seed: int,
                      attach_zero: bool) -> Tuple:
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    inj = FaultInjector(FaultPlan.zero()) if attach_zero else None
    hier = SlotAccurateHierarchy(n_clusters, per, faults=inj)
    ops = _build_hier_ops(hier, rounds, seed)
    hier.run_ops(ops)
    return fingerprint_hier(hier, ops)


def _engines() -> Tuple[str, ...]:
    """Every engine name runnable on the CFM layer."""
    from repro.fastpath.engine import ENGINES, engine_available

    return tuple(e for e in ENGINES if engine_available(e, "cfm"))


def differential_zero_fault(seed: int = 0) -> Dict[str, bool]:
    """Assert zero-plan bit-identity on every layer.

    On the CFM, every engine name × (bare / zero-plan injector attached)
    must produce the identical full state fingerprint.  The cache and the
    hierarchy have one driver each, so each runs once bare and once with
    a zero plan attached.  Returns ``{"cfm": True, "cache": True,
    "hierarchy": True}`` on success; raises ``AssertionError`` naming the
    diverging layer otherwise.
    """
    out: Dict[str, bool] = {}
    cfm = [
        _cfm_fingerprint(8, 2, engine, zero)
        for engine in _engines() for zero in (False, True)
    ]
    assert all(f == cfm[0] for f in cfm), "cfm zero-fault differential diverged"
    out["cfm"] = True
    assert _cache_fingerprint(4, 3, seed, False) \
        == _cache_fingerprint(4, 3, seed, True), \
        "cache zero-fault differential diverged"
    out["cache"] = True
    assert _hier_fingerprint(2, 2, 2, seed, False) \
        == _hier_fingerprint(2, 2, 2, seed, True), \
        "hierarchy zero-fault differential diverged"
    out["hierarchy"] = True
    return out


# --------------------------------------------------------------------------
# Chaos runners: one seeded-fault run each, complete-or-typed-error


def _outcome(injector: FaultInjector, plan: FaultPlan, slots: int,
             error: Optional[BaseException] = None,
             **extra) -> Dict[str, object]:
    out: Dict[str, object] = {
        "outcome": "completed" if error is None else type(error).__name__,
        "error": None if error is None else str(error),
        "typed": error is None or isinstance(error, TYPED_ERRORS),
        "counters": injector.snapshot(),
        "slots": slots,
        "plan": plan.describe(),
    }
    out.update(extra)
    return out


def chaos_cfm(plan: FaultPlan, n_procs: int = 4, bank_cycle: int = 1,
              rounds: int = 2, max_slots: int = 4_000) -> Dict[str, object]:
    """Recovering read/write rounds on a fault-injected CFM module."""
    from repro.tracking.atomic import CFMDriver

    mem = CFMemory(CFMConfig(n_procs=n_procs, bank_cycle=bank_cycle))
    inj = FaultInjector(plan)
    mem.faults = inj
    driver = CFMDriver(mem)
    b = mem.n_banks
    policy = RetryPolicy(max_retries=10, backoff_slots=2)
    error: Optional[BaseException] = None
    try:
        for r in range(rounds):
            writes = [
                RecoveringOp(driver, p, p % 3, AccessKind.WRITE,
                             values=[r * 1000 + p * 10 + k for k in range(b)],
                             version=f"r{r}p{p}", policy=policy)
                for p in range(n_procs)
            ]
            run_with_recovery(driver, writes, max_slots=max_slots)
            reads = [
                RecoveringOp(driver, p, (p + 1) % 3, policy=policy)
                for p in range(n_procs)
            ]
            run_with_recovery(driver, reads, max_slots=max_slots)
    except TYPED_ERRORS as exc:
        error = exc
    return _outcome(inj, plan, mem.slot, error, degraded=mem.degraded)


def chaos_cache(plan: FaultPlan, n_procs: int = 4, rounds: int = 3,
                seed: int = 0, max_slots: int = 4_000) -> Dict[str, object]:
    """The mix workload on a fault-injected coherent-cache system."""
    from repro.cache.protocol import CacheSystem

    inj = FaultInjector(plan)
    sys_ = CacheSystem(n_procs, faults=inj)
    error: Optional[BaseException] = None
    try:
        ops = _build_cache_ops(sys_, n_procs, rounds, seed)
        sys_.run_ops(ops, max_slots=max_slots)
    except TYPED_ERRORS as exc:
        error = exc
    return _outcome(inj, plan, sys_.slot, error)


def chaos_hierarchy(plan: FaultPlan, n_clusters: int = 2, per: int = 2,
                    rounds: int = 2, seed: int = 0,
                    max_slots: int = 6_000) -> Dict[str, object]:
    """Cross-cluster load/store rounds with NC stalls injected."""
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    inj = FaultInjector(plan)
    hier = SlotAccurateHierarchy(n_clusters, per, faults=inj)
    error: Optional[BaseException] = None
    try:
        ops = _build_hier_ops(hier, rounds, seed)
        hier.run_ops(ops, max_slots=max_slots)
    except TYPED_ERRORS as exc:
        error = exc
    return _outcome(inj, plan, hier.slot, error)


def chaos_network(plan: FaultPlan, n_ports: int = 8,
                  max_slots: int = 512) -> Dict[str, object]:
    """Deliver a full permutation through a faulty synchronous omega.

    Undelivered payloads retry every slot; if a payload outlives the slot
    budget (a drop window longer than the budget), the harness raises the
    typed :class:`NetworkFaultError` — reported, like every chaos outcome,
    as data.
    """
    from repro.network.synchronous import SynchronousOmegaNetwork

    inj = FaultInjector(plan)
    net = SynchronousOmegaNetwork(n_ports, faults=inj)
    pending = set(range(n_ports))
    slot = 0
    error: Optional[BaseException] = None
    try:
        while pending:
            if slot >= max_slots:
                raise NetworkFaultError(
                    f"payloads from inputs {sorted(pending)} undelivered "
                    f"after {max_slots} slots",
                    slot=slot,
                )
            delivered = net.route({i: i for i in sorted(pending)}, slot)
            for payload in delivered.values():
                pending.discard(payload)  # payload == origin input
            slot += 1
    except TYPED_ERRORS as exc:
        error = exc
    return _outcome(inj, plan, slot, error)


# --------------------------------------------------------------------------
# The sweep


def chaos_sweep(seed: int = 0, trials: int = 3,
                quick: bool = False) -> List[Dict[str, object]]:
    """Seeded fault plans × machine shapes × layers; one outcome dict each.

    Besides the transient-fault trials, every shape gets one permanent
    ``bank_dead`` scenario: graceful degradation for ``c >= 2``, the typed
    :class:`DegradedModeError` for ``c = 1`` (where no ``b-1`` schedule
    exists) — both legitimate, both checked.
    """
    shapes = SWEEP_SHAPES_QUICK if quick else SWEEP_SHAPES_FULL
    runs: List[Dict[str, object]] = []

    def record(layer: str, shape: Tuple[int, int],
               outcome: Dict[str, object]) -> None:
        outcome["layer"] = layer
        outcome["shape"] = list(shape)
        runs.append(outcome)

    for n, c in shapes:
        n_banks = n * c
        for t in range(trials):
            plan = FaultPlan.generate(
                seed + t, n_banks=n_banks, n_procs=n, horizon=256,
                n_events=3, kinds=("bank_stuck", "bank_slow"),
            )
            record("cfm", (n, c), chaos_cfm(plan, n_procs=n, bank_cycle=c))
        # Permanent bank death: degradation (c >= 2) or the typed error (c = 1).
        dead_plan = FaultPlan.of(
            [FaultEvent(kind="bank_dead", start=5 + n, duration=1,
                        target=n_banks // 2)],
            seed=seed,
        )
        record("cfm", (n, c), chaos_cfm(dead_plan, n_procs=n, bank_cycle=c))
    for t in range(trials):
        plan = FaultPlan.generate(
            seed + 100 + t, n_banks=4, n_procs=4, horizon=256, n_events=3,
            kinds=("bank_stuck", "bank_slow", "completion_delay",
                   "completion_lost"),
        )
        record("cache", (4, 1), chaos_cache(plan, n_procs=4))
    for t in range(trials):
        plan = FaultPlan.generate(
            seed + 200 + t, n_banks=2, n_procs=2, n_clusters=2, horizon=256,
            n_events=2, kinds=("nc_stall",),
        )
        record("hierarchy", (2, 1), chaos_hierarchy(plan))
    for t in range(trials):
        plan = FaultPlan.generate(
            seed + 300 + t, n_banks=8, n_procs=8, horizon=64, n_events=2,
            kinds=("link_drop", "switch_drop"), max_duration=16,
        )
        record("network", (8, 1), chaos_network(plan))
    return runs
