"""Cooperative generator-based processes with a deterministic scheduler.

The resource-binding runtime (Chapter 6) and the lock/synchronization
simulations need *concurrent processes* with blocking operations, but real
threads would make runs nondeterministic.  Instead a process is a Python
generator that ``yield``\\ s syscalls; the :class:`Scheduler` resumes ready
processes round-robin in pid order, one step per cycle.

Built-in syscalls:

* :class:`Delay` — sleep N cycles.
* :class:`Halt` — finish immediately.

Domain subsystems (the binding manager, lock managers, message routers)
register handlers for their own syscall types via :meth:`Scheduler.handle`;
a handler either returns a value (the process resumes next cycle with that
value) or calls :meth:`Scheduler.block` and later :meth:`Scheduler.unblock`.

If every live process is blocked and no wakeup is pending the scheduler
raises :class:`SchedulerDeadlock` — this is the hook the deadlock-detection
experiments use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Type

from repro.sim.engine import raise_timeout


class Syscall:
    """Base class for everything a process may yield."""


@dataclass
class Delay(Syscall):
    """Sleep for ``cycles`` cycles (0 = yield the rest of this cycle)."""

    cycles: int = 1


class Halt(Syscall):
    """Terminate the yielding process."""


class SchedulerDeadlock(RuntimeError):
    """All live processes are blocked with no pending wakeup."""

    def __init__(self, blocked: List["Process"]):
        names = ", ".join(p.name for p in blocked)
        super().__init__(f"deadlock: all live processes blocked ({names})")
        self.blocked = blocked


class Process:
    """A cooperative process wrapping a generator."""

    def __init__(self, pid: int, gen: Generator[Syscall, Any, Any], name: str = ""):
        self.pid = pid
        self.gen = gen
        self.name = name or f"proc{pid}"
        self.ready_at: Optional[int] = 0  # None while blocked
        self.inbox: Any = None  # value delivered on next resume
        self.finished = False
        self.result: Any = None
        self.blocked_on: Any = None  # opaque tag set by the blocking subsystem

    @property
    def blocked(self) -> bool:
        return self.ready_at is None and not self.finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else ("blocked" if self.blocked else "ready")
        return f"<Process {self.name} pid={self.pid} {state}>"


class Scheduler:
    """Deterministic round-robin scheduler for cooperative processes.

    One scheduler cycle resumes every process whose ``ready_at`` has come,
    in pid order, exactly once.  A resumed process runs until its next
    ``yield`` — so each cycle is one "step" per ready process, which mirrors
    a lock-step multiprocessor issuing one operation per processor per cycle.
    """

    def __init__(self, max_cycles: int = 1_000_000) -> None:
        self.processes: List[Process] = []
        self.cycle = 0
        self.max_cycles = max_cycles
        self._pid = itertools.count()
        self._handlers: Dict[Type[Syscall], Callable[["Scheduler", Process, Syscall], Any]] = {}
        self._BLOCKED = object()

    # -- construction -----------------------------------------------------

    def spawn(self, gen: Generator[Syscall, Any, Any], name: str = "") -> Process:
        """Register a generator as a new process, ready this cycle."""
        proc = Process(next(self._pid), gen, name)
        proc.ready_at = self.cycle
        self.processes.append(proc)
        return proc

    def handle(
        self,
        syscall_type: Type[Syscall],
        handler: Callable[["Scheduler", Process, Syscall], Any],
    ) -> None:
        """Register a handler for a domain-specific syscall type.

        The handler's return value is delivered to the process on its next
        resume, unless the handler blocked the process.
        """
        self._handlers[syscall_type] = handler

    # -- blocking ----------------------------------------------------------

    def block(self, proc: Process, on: Any = None) -> object:
        """Mark ``proc`` blocked; returns the sentinel the handler must return."""
        proc.ready_at = None
        proc.blocked_on = on
        return self._BLOCKED

    def unblock(self, proc: Process, value: Any = None, delay: int = 1) -> None:
        """Wake a blocked process ``delay`` cycles from now with ``value``."""
        if proc.finished:
            raise ValueError(f"cannot unblock finished process {proc.name}")
        proc.ready_at = self.cycle + delay
        proc.inbox = value
        proc.blocked_on = None

    # -- execution ---------------------------------------------------------

    def _dispatch(self, proc: Process, call: Syscall) -> None:
        if isinstance(call, Delay):
            if call.cycles < 0:
                raise ValueError("Delay cycles must be >= 0")
            proc.ready_at = self.cycle + max(1, call.cycles)
            proc.inbox = None
            return
        if isinstance(call, Halt):
            proc.finished = True
            proc.gen.close()
            return
        handler = self._handlers.get(type(call))
        if handler is None:
            raise TypeError(f"no handler registered for syscall {type(call).__name__}")
        result = handler(self, proc, call)
        if result is self._BLOCKED:
            return
        proc.ready_at = self.cycle + 1
        proc.inbox = result

    def _resume(self, proc: Process) -> None:
        value, proc.inbox = proc.inbox, None
        try:
            call = proc.gen.send(value)
        except StopIteration as stop:
            proc.finished = True
            proc.result = stop.value
            return
        if not isinstance(call, Syscall):
            raise TypeError(
                f"process {proc.name} yielded {call!r}; processes must yield Syscall objects"
            )
        self._dispatch(proc, call)

    def live(self) -> List[Process]:
        return [p for p in self.processes if not p.finished]

    def stuck(self) -> List[str]:
        """Each live process and what it waits on (timeout forensics)."""
        return [f"{p.name}: blocked on {p.blocked_on!r}" if p.blocked
                else f"{p.name}: ready at cycle {p.ready_at}"
                for p in self.live()]

    def step(self) -> None:
        """Run one scheduler cycle."""
        ready = [
            p
            for p in self.processes
            if not p.finished and p.ready_at is not None and p.ready_at <= self.cycle
        ]
        for proc in ready:
            if proc.finished or proc.ready_at is None or proc.ready_at > self.cycle:
                continue  # state changed by an earlier process this cycle
            self._resume(proc)
        self.cycle += 1

    def run(self, until_idle: bool = True, max_cycles: Optional[int] = None) -> int:
        """Run until all processes finish.  Returns the final cycle count.

        Raises :class:`SchedulerDeadlock` when every live process is blocked
        and nothing is scheduled to wake, and
        :class:`~repro.sim.engine.SimulationTimeout` at exactly
        ``start + max_cycles``, naming each live process (:meth:`stuck`).
        """
        limit = max_cycles if max_cycles is not None else self.max_cycles
        start = self.cycle
        while True:
            live = self.live()
            if not live:
                return self.cycle
            if all(p.ready_at is None for p in live):
                raise SchedulerDeadlock([p for p in live if p.blocked])
            if self.cycle - start >= limit:
                raise_timeout("scheduler", self.cycle, limit, self.stuck())
            self.step()
