"""The one way to advance a simulation: tick until done, strict timeout.

The paper reasons about the CFM at the granularity of *time slots* ("a time
slot is usually the length of a CPU cycle", §3.1.1), and everything in it
is clock-driven: "all the switches are synchronous" (§3.2.1).  So every
simulator here is a ``tick()`` that advances one slot, and every bounded
driver loop is :func:`run_until`: tick until ``done()``, and raise
:class:`SimulationTimeout` the moment ``max_slots`` slots have elapsed —
strict semantics, the loop ticks slots ``start .. start + max_slots - 1``
and the timeout fires at slot ``start + max_slots``.

The two span loops (``CacheSystem.run_ops``,
``SlotAccurateHierarchy.run_ops``) advance by spans clipped below the same
boundary and raise through :func:`raise_timeout`, so this module owns the
timeout policy of every driver.
"""

from __future__ import annotations

from typing import Callable, List, NoReturn, Optional, Sequence, TypeVar

T = TypeVar("T")


class SimulationTimeout(RuntimeError):
    """A bounded run exceeded its ``max_slots`` budget without finishing.

    Subclasses :class:`RuntimeError` so existing ``except RuntimeError``
    callers keep working; carries enough structure (``slot``, ``max_slots``,
    ``stuck``) for a driver to report *what* is wedged, not just that
    something is.
    """

    def __init__(self, message: str, *, slot: int, max_slots: int,
                 stuck: Optional[List[str]] = None) -> None:
        super().__init__(message)
        self.slot = slot
        self.max_slots = max_slots
        self.stuck = list(stuck or [])


def raise_timeout(what: str, slot: int, max_slots: int,
                  stuck: List[str]) -> NoReturn:
    """Raise the :class:`SimulationTimeout` of a run of ``what`` that is
    still unfinished at ``slot``; ``stuck`` names what is wedged."""
    detail = "; ".join(stuck) if stuck else "nothing in flight"
    raise SimulationTimeout(
        f"{what} did not finish within {max_slots} slots "
        f"(slot {slot}); stuck: {detail}",
        slot=slot, max_slots=max_slots, stuck=stuck,
    )


def run_until(tick: Callable[[], None], done: Callable[[], bool],
              clock: Callable[[], int], max_slots: int, what: str,
              stuck: Callable[[], List[str]]) -> int:
    """Call ``tick()`` until ``done()``; returns the slots elapsed.

    ``clock()`` reads the current slot.  A ``tick`` may advance it by more
    than one slot (an idle leap); the check still runs before every tick.
    The moment ``max_slots`` slots have elapsed with ``done()`` false,
    :func:`raise_timeout` reports ``what`` with the forensics ``stuck()``
    returns.
    """
    start = clock()
    while not done():
        slot = clock()
        if slot - start >= max_slots:
            raise_timeout(what, slot, max_slots, stuck())
        tick()
    return clock() - start


def all_settled(ops: Sequence[T],
                settled: Callable[[T], bool] = lambda op: op.done
                ) -> Callable[[], bool]:
    """A driver's ``done()`` test for ``ops``, O(1) amortised per call.

    Settling is one-way (an op never becomes unsettled again), so the
    test keeps a pointer to the first unsettled op and never looks behind
    it: over a whole run it inspects each op once, plus once per call.
    """
    first = 0

    def done() -> bool:
        nonlocal first
        while first < len(ops) and settled(ops[first]):
            first += 1
        return first == len(ops)

    return done
