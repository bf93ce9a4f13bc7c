"""Discrete-event engine and slot clock.

The paper reasons about the CFM at the granularity of *time slots* ("a time
slot is usually the length of a CPU cycle", §3.1.1).  Two complementary
drivers are provided:

* :class:`SlotClock` — a bare counter advanced one slot at a time; components
  register ``tick`` callbacks that fire every slot in registration order.
  This is what the cycle-level memory simulators use: everything in the CFM
  is clock-driven, so a synchronous tick model is the faithful one.

* :class:`Engine` — a classic event-heap discrete-event simulator for the
  baselines that are *not* synchronous (buffered MINs with queueing,
  circuit-switching retries), where events land at irregular times.

Both are fully deterministic: ties in the event heap break on insertion
order, and tick callbacks run in registration order.

Fast paths
----------
Both drivers additionally expose result-identical fast paths (see
:mod:`repro.fastpath`): :meth:`Engine.run_batch` dispatches with the heap
bound to locals and live events counted in O(1); :meth:`SlotClock.
advance_until` leaps over slots every subscriber declares uninteresting.
The differential tests in ``tests/test_fastpath.py`` hold them to the
slot-by-slot reference behaviour.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, TypeVar

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


class Event:
    """A scheduled callback.

    Ordering is ``(time, seq)`` so that simultaneous events fire in the
    order they were scheduled — determinism matters more than realism here.
    ``__slots__`` keeps the per-event footprint flat: these are the single
    hottest allocation of the event-heap simulators.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "_engine")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 engine: Optional["Engine"] = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._engine = engine

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, seq={self.seq}{state})"

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped.

        Idempotent: cancelling twice releases the engine's live-event
        count exactly once, so double-cancel can never skew
        :meth:`Engine.pending`.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._live -= 1


class Engine:
    """Deterministic discrete-event simulation engine.

    >>> eng = Engine()
    >>> out = []
    >>> _ = eng.schedule(5, lambda: out.append("a"))
    >>> _ = eng.schedule(3, lambda: out.append("b"))
    >>> eng.run()
    >>> out
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._live = 0  # live (uncancelled, undispatched) events — O(1) pending()
        self.now: int = 0
        self._running = False
        #: Optional :class:`repro.obs.Probe`; when set, every dispatched
        #: event is emitted as ``("engine", "dispatch", time, seq=...)``.
        self.probe = None

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        ev = Event(time, next(self._seq), fn, engine=self)
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the heap is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns False when nothing is left."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._live -= 1
            self.now = ev.time
            if self.probe is not None:
                self.probe.emit("engine", "dispatch", ev.time, seq=ev.seq)
            ev.fn()
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the heap drains or ``now`` would pass ``until``.

        Both drain paths leave ``now == until`` (when given): a heap that
        holds only cancelled events is treated exactly like an empty one.
        """
        self.run_batch(until=until)

    def run_batch(self, until: Optional[int] = None,
                  max_events: Optional[int] = None) -> int:
        """The dispatch loop with heap access bound to locals.

        Identical semantics to repeated :meth:`step` (it *is* the loop
        :meth:`run` executes), but the heap, its pop, and the bound check
        are hoisted out of the per-event iteration.  Returns the number of
        events dispatched; ``max_events`` caps it (``None`` = unbounded).
        """
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        self._running = True
        try:
            while max_events is None or dispatched < max_events:
                # Drop dead events without dispatch accounting: their
                # live count was released at cancel() time.
                while heap and heap[0].cancelled:
                    pop(heap)
                if not heap:
                    if until is not None:
                        self.now = max(self.now, until)
                    break
                ev = heap[0]
                if until is not None and ev.time > until:
                    self.now = max(self.now, until)
                    break
                pop(heap)
                self._live -= 1
                self.now = ev.time
                if self.probe is not None:
                    self.probe.emit("engine", "dispatch", ev.time, seq=ev.seq)
                ev.fn()
                dispatched += 1
        finally:
            self._running = False
        return dispatched

    def pending(self) -> int:
        """Number of live events still scheduled (O(1): counter-tracked)."""
        return self._live


class SlotClock:
    """Synchronous slot counter with ordered tick callbacks.

    The CFM hardware is driven entirely by the system clock (§3.2.1: "all
    the switches are synchronous, correct connection states for all switches
    can be set simultaneously for each time slot").  Components subscribe a
    ``tick(slot)`` callable; every :meth:`advance` fires them in registration
    order at the *new* slot value.

    A subscriber may additionally provide a ``next_interesting`` hint — a
    callable mapping the current slot to the next slot at which its tick is
    *not* a no-op (or ``None`` when nothing is upcoming).  When every
    subscriber provides one, :meth:`advance_until` leaps over the provably
    uneventful slots instead of ticking through them.
    """

    def __init__(self, period: Optional[int] = None) -> None:
        if period is not None and period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.slot: int = 0
        self._subscribers: List[Callable[[int], None]] = []
        self._hints: List[Optional[Callable[[int], Optional[int]]]] = []
        #: Optional :class:`repro.obs.Probe`; when set, every advanced slot
        #: is emitted as ``("clock", "tick", slot, phase=...)``.
        self.probe = None

    @property
    def phase(self) -> int:
        """Slot number within the current time period (``slot mod period``)."""
        if self.period is None:
            return self.slot
        return self.slot % self.period

    def subscribe(
        self,
        fn: Callable[[int], None],
        next_interesting: Optional[Callable[[int], Optional[int]]] = None,
    ) -> None:
        """Register a tick callback fired on every :meth:`advance`.

        ``next_interesting(slot)`` — optional — must return the earliest
        slot ``> slot`` at which ``fn`` would do observable work, or
        ``None`` if no such slot is currently scheduled.  Providing it is a
        contract: ``fn`` must be a strict no-op (no state change, no
        emission) for every slot before the hinted one.
        """
        self._subscribers.append(fn)
        self._hints.append(next_interesting)

    def advance(self, slots: int = 1) -> int:
        """Advance the clock ``slots`` slots, firing subscribers each slot."""
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        # Hot loop: subscribers, probe, and period are bound once per call;
        # the phase is only derived on the probed branch (the unprobed one
        # never needs it).
        subs = self._subscribers
        probe = self.probe
        period = self.period
        if probe is None:
            for _ in range(slots):
                self.slot += 1
                slot = self.slot
                for fn in subs:
                    fn(slot)
        else:
            for _ in range(slots):
                self.slot += 1
                slot = self.slot
                probe.emit("clock", "tick", slot,
                           phase=slot if period is None else slot % period)
                for fn in subs:
                    fn(slot)
        return self.slot

    def advance_until(self, slot: int) -> int:
        """Advance to absolute ``slot``, skipping provably idle stretches.

        Result-identical to ``advance(slot - self.slot)``: a slot is only
        skipped when *every* subscriber has declared (via its
        ``next_interesting`` hint) that its tick would be a no-op there.
        With a probe attached, or with any hint-less subscriber, this
        degrades to the per-slot path — per-slot ``tick`` probe events are
        part of the observable stream and must not be elided.
        """
        if slot < self.slot:
            raise ValueError(
                f"cannot rewind the clock ({slot} < {self.slot})"
            )
        hints = self._hints
        while self.slot < slot:
            if self.probe is not None or any(h is None for h in hints):
                self.advance(slot - self.slot)
                break
            upcoming = [h(self.slot) for h in hints]
            live = [u for u in upcoming if u is not None]
            nxt = min(live) if live else None
            if nxt is None or nxt > slot:
                # Nothing observable before the target: leap silently.
                self.slot = slot
                break
            if nxt > self.slot + 1:
                self.slot = nxt - 1  # skip the declared-no-op slots
            self.advance(1)  # fire everyone at the interesting slot
        return self.slot

    def reset(self) -> None:
        """Rewind to slot 0 (subscribers are kept)."""
        self.slot = 0
