"""Spec-level stacking: run a batch of same-shape CFM run specs together.

The workloads the ROADMAP cares about — parameter sweeps, the serving
layer's micro-batches, chaos matrices — are fleets of independent
same-shape CFM runs.  :func:`run_specs_stacked` is their one entry point:
it validates the batch (:func:`stackable_spec`, one :func:`stack_shape`),
builds every lane through the bench harness's own workload wiring, and
advances each lane on :meth:`repro.core.cfm.CFMemory.run_batch` via
:meth:`~repro.core.cfm.CFMemory.run_engine`.  A lane whose static proof
breaks (observer, fault plan, degraded bank, same-offset write
interleaving) ticks per slot inside that driver exactly as it would
standalone, so typed fault semantics pass through untouched.

Bit-identity to per-spec serial :func:`repro.obs.bench.run_spec` is the
invariant (invariant 11, ``tests/test_fastpath_stage4.py``): a stacked
report is assembled from exactly the state a serial run would produce.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.fastpath.engine import ENGINE_STACKED, ENGINES


def stackable_spec(spec: Dict[str, object]) -> bool:
    """May this run spec join a stacked execution?

    Stackable: a ``cfm`` spec with no fault injection, no observer, and
    an explicit ``engine`` pin — i.e. the engine-driven bench runner,
    whose report depends only on the params and the engine-invariant
    completion stream (invariants 10–11).  The engineless cfm runner is
    the *observed* per-slot path (metrics in the report) and cannot be
    stacked bit-identically; it never qualifies."""
    if spec.get("system") != "cfm":
        return False
    if spec.get("inject") is not None:
        return False
    params = spec.get("params")
    if not isinstance(params, dict):
        return False
    if params.get("probe") is not None:
        return False
    engine = params.get("engine")
    if engine not in ENGINES:
        return False
    cycles = params.get("cycles")
    if not isinstance(cycles, int) or isinstance(cycles, bool) or cycles < 0:
        return False
    try:
        return int(params.get("n_procs", 0)) > 0 and \
            int(params.get("bank_cycle", 1)) > 0
    except (TypeError, ValueError):
        return False


def stack_shape(spec: Dict[str, object]):
    """The ``(n_banks, bank_cycle)`` shape a stackable spec runs on."""
    params = spec.get("params") or {}
    n_procs = int(params.get("n_procs"))  # type: ignore[arg-type]
    bank_cycle = int(params.get("bank_cycle", 1) or 1)
    return (n_procs * bank_cycle, bank_cycle)


def run_specs_stacked(specs: Sequence[Dict[str, object]]
                      ) -> List[Dict[str, object]]:
    """Run same-shape stackable specs as one stacked execution.

    Returns one run report per spec, in spec order, each bit-identical to
    ``run_spec(spec)`` run alone (the invariant-11 contract the stage-4
    differential sweep enforces).  Duplicate specs get their own lanes —
    runs are pure, so lanes never observe each other.  Raises
    ``ValueError`` for non-stackable specs or mixed shapes; callers that
    may hold mixed batches (the sweep, the serve worker) group or eject
    *before* calling."""
    from repro.obs.bench import _cfm_engine_report, _cfm_engine_setup

    specs = list(specs)
    if not specs:
        return []
    shapes = set()
    for spec in specs:
        if not stackable_spec(spec):
            raise ValueError(f"spec is not stackable: {spec!r}")
        shapes.add(stack_shape(spec))
    if len(shapes) > 1:
        raise ValueError(
            f"stacked specs must share one (n_banks, bank_cycle) shape, "
            f"got {sorted(shapes)}"
        )
    reports = []
    for spec in specs:
        params = spec["params"]
        report_params, summary, mem = _cfm_engine_setup(
            int(params["n_procs"]), int(params.get("bank_cycle", 1)))
        cycles = params["cycles"]
        # Reports are engine-invariant, so every lane takes the fast
        # driver whatever its pin; the report still names the pin.
        mem.run_engine(cycles, engine=ENGINE_STACKED)
        reports.append(_cfm_engine_report(report_params, summary, cycles,
                                          str(params["engine"])))
    return reports
