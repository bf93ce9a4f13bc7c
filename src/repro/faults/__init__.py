"""Fault injection, recovery, and chaos testing for the CFM stack.

Deterministic seeded :class:`FaultPlan` schedules are injected through
hook points in every engine layer (module banks, omega networks, cache
protocol, slot-accurate hierarchy); a recovery layer (typed errors,
bounded retry, degraded ``b-1`` AT schedules) absorbs what it can; and the
chaos harness (:mod:`repro.faults.chaos`) enforces the two invariants that
make the whole layer safe to ship:

* **zero-fault bit-identity** — an attached zero plan changes nothing, on
  both reference and fastpath engines;
* **complete-or-typed-error** — every seeded-fault run either completes
  or raises a :class:`FaultError` subclass /
  :class:`repro.sim.engine.SimulationTimeout`; never a hang, never silent
  corruption.
"""

from repro.faults.errors import (
    BankFaultError,
    CompletionFaultError,
    DegradedModeError,
    FaultError,
    NCStallError,
    NetworkFaultError,
    RetryExhaustedError,
)
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.faults.inject import FaultInjector
from repro.faults.degrade import shadow_bank_for
from repro.faults.recovery import RecoveringOp, RetryPolicy, run_with_recovery

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultError",
    "BankFaultError",
    "DegradedModeError",
    "NetworkFaultError",
    "NCStallError",
    "CompletionFaultError",
    "RetryExhaustedError",
    "RetryPolicy",
    "RecoveringOp",
    "run_with_recovery",
    "shadow_bank_for",
]
