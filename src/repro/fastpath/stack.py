"""Spec-level batches: run a list of same-shape CFM run specs.

Since the CFM schedule is fixed by the shape (processor *p* touches bank
``(t + c·p) mod b`` at slot *t*, §3.1), every run is a pure function of
its spec and runs share no work.  :func:`run_specs_stacked` is therefore
a validating loop: it checks the batch (:func:`stackable_spec`, one
:func:`stack_shape`) and runs each lane through the bench harness's own
CFM runner, so each report is the one per-spec serial
:func:`repro.obs.bench.run_spec` returns (invariant 11,
``tests/test_fastpath_stage4.py``).  ``stacked`` stays a CFM-only engine
name, an alias of the ``batch`` driver; sweeps and the serving layer run
``engine="stacked"`` specs one by one like every other spec.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.fastpath.engine import ENGINES


def stackable_spec(spec: Dict[str, object]) -> bool:
    """May this run spec go into :func:`run_specs_stacked`?

    Stackable: a ``cfm`` spec with no fault injection, no observer, and
    an explicit ``engine`` pin — i.e. the engine-driven bench runner,
    whose report depends only on the params and the engine-invariant
    completion stream (invariants 10–11).  The engineless cfm runner is
    the *observed* per-slot path (metrics in the report); it never
    qualifies."""
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
    """Run same-shape stackable specs; one report per spec, in spec order.

    Each report is bit-identical to ``run_spec(spec)`` run alone (the
    invariant-11 contract the stage-4 differential sweep enforces).
    Raises ``ValueError`` for non-stackable specs or mixed shapes.  Lanes
    call the CFM runner directly rather than the name ``run_spec``, so a
    wrapper installed over ``run_spec`` does not see each lane again."""
    from repro.obs.bench import _run_cfm

    specs = list(specs)
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
    return [_run_cfm(**spec["params"]) for spec in specs]
