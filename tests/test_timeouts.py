"""Every bounded driver times out the same way.

Each driver that takes ``max_slots`` runs through
:func:`repro.sim.engine.run_until` (or, for the two ``run_ops`` span
loops and the two cooperative-process loops that take ``max_cycles``,
raises through :func:`repro.sim.engine.raise_timeout`).  Given a
budget too small to finish, each must raise :class:`SimulationTimeout` at
exactly ``start + max_slots``, naming what is wedged.  Every system idles
a few slots first, so a boundary counted from slot 0 would show.
"""

from __future__ import annotations

import pytest

from repro.binding.cfm_backend import BindStep, CFMBindingSystem
from repro.binding.distributed import DistributedBindingRuntime, RemoteBind
from repro.binding.region import AccessType, Region
from repro.cache.locks import CacheLockSystem, MultiLockSystem
from repro.cache.protocol import CacheSystem
from repro.core.cfm import AccessKind, CFMemory
from repro.core.clusters import ClusterSystem
from repro.core.config import CFMConfig
from repro.core.multimodule import MultiModuleCFM
from repro.hierarchy.slot_accurate import SlotAccurateHierarchy
from repro.network.partial import PartialCFSystem
from repro.sim.engine import SimulationTimeout, all_settled
from repro.sim.procs import Delay, Scheduler
from repro.tracking.atomic import CFMDriver, ReadOperation
from repro.tracking.locks import SpinLockSystem

#: Idle slots every system runs before the bounded call.
WARM = 3
#: A budget no case below can finish in.
BUDGET = 3


def _cfm():
    mem = CFMemory(CFMConfig(n_procs=4, bank_cycle=1))
    mem.run(WARM)
    mem.issue(0, AccessKind.READ, offset=0)
    return lambda: mem.run_until_idle(max_slots=BUDGET), lambda: mem.slot


def _cache(run_ops):
    sys_ = CacheSystem(4)
    sys_.run(WARM)
    op = sys_.load(0, 0)
    if run_ops:
        return (lambda: sys_.run_ops([op], max_slots=BUDGET),
                lambda: sys_.slot)
    return (lambda: sys_.run_until(all_settled([op]), max_slots=BUDGET),
            lambda: sys_.slot)


def _hierarchy(run_ops):
    hier = SlotAccurateHierarchy(2, 2)
    for _ in range(WARM):
        hier.tick()
    op = hier.load(0, 0)
    if run_ops:
        return (lambda: hier.run_ops([op], max_slots=BUDGET),
                lambda: hier.slot)
    return (lambda: hier.run_until(lambda: op.done, max_slots=BUDGET),
            lambda: hier.slot)


def _cfm_driver(parked):
    driver = CFMDriver(CFMemory(CFMConfig(n_procs=4, bank_cycle=1)))
    driver.run(WARM)
    op = ReadOperation(driver, 2, 1)
    if parked:
        # Nothing in flight: the driver leaps idle slots toward the
        # re-issue, but never past the boundary.
        driver.defer(100, op.start)
    else:
        op.start()
    return (lambda: driver.run_until(lambda: False, max_slots=BUDGET),
            lambda: driver.slot)


def _spin_lock():
    sys_ = SpinLockSystem(4, cs_cycles=5)
    sys_.driver.run(WARM)
    return lambda: sys_.run(max_slots=BUDGET), lambda: sys_.driver.slot


def _cache_lock():
    sys_ = CacheLockSystem(4, cs_cycles=5)
    sys_.cache.run(WARM)
    return lambda: sys_.run(max_slots=BUDGET), lambda: sys_.cache.slot


def _multi_lock():
    sys_ = MultiLockSystem(4, {0: [1, 1, 0, 0], 1: [0, 1, 1, 0]},
                           cs_cycles=5)
    sys_.cache.run(WARM)
    return lambda: sys_.run(max_slots=BUDGET), lambda: sys_.cache.slot


def _binding():
    sys_ = CFMBindingSystem(4)
    sys_.add_program(0, [BindStep((1, 1, 0, 0), work_cycles=3)])
    sys_.cache.run(WARM)
    return lambda: sys_.run(max_slots=BUDGET), lambda: sys_.cache.slot


def _clusters():
    cfgs = [CFMConfig(n_procs=4, bank_cycle=1) for _ in range(2)]
    sys_ = ClusterSystem(cfgs, local_procs=[3, 3])
    sys_.run(WARM)
    sys_.remote_access(0, 0, 1, AccessKind.READ, 7)
    return (lambda: sys_.run_until_done(1, max_slots=BUDGET),
            lambda: sys_.slot)


def _multimodule():
    mm = MultiModuleCFM(PartialCFSystem(16, 4, 1))
    for _ in range(WARM):
        mm.tick()
    assert mm.try_issue(0, AccessKind.READ, 0, offset=5) is not None
    return lambda: mm.run_until_idle(max_slots=BUDGET), lambda: mm.slot


def _scheduler():
    sched = Scheduler()
    for _ in range(WARM):
        sched.step()

    def sleeper():
        yield Delay(100)

    sched.spawn(sleeper(), "sleeper")
    return lambda: sched.run(max_cycles=BUDGET), lambda: sched.cycle


def _distributed():
    runtime = DistributedBindingRuntime(2, hop_latency=4)
    for _ in range(WARM):
        runtime.sched.step()

    def binder():
        # The grant takes 2 hops (8 cycles): still in flight at the budget.
        yield RemoteBind(Region("x")[0:4], AccessType.RW)

    runtime.spawn(binder(), "binder")
    return lambda: runtime.run(max_cycles=BUDGET), lambda: runtime.sched.cycle


CASES = {
    "CFMemory.run_until_idle": _cfm,
    "CacheSystem.run_until": lambda: _cache(run_ops=False),
    "CacheSystem.run_ops": lambda: _cache(run_ops=True),
    "SlotAccurateHierarchy.run_until": lambda: _hierarchy(run_ops=False),
    "SlotAccurateHierarchy.run_ops": lambda: _hierarchy(run_ops=True),
    "CFMDriver.run_until": lambda: _cfm_driver(parked=False),
    "CFMDriver.run_until.parked": lambda: _cfm_driver(parked=True),
    "SpinLockSystem.run": _spin_lock,
    "CacheLockSystem.run": _cache_lock,
    "MultiLockSystem.run": _multi_lock,
    "CFMBindingSystem.run": _binding,
    "ClusterSystem.run_until_done": _clusters,
    "MultiModuleCFM.run_until_idle": _multimodule,
    "Scheduler.run": _scheduler,
    "DistributedBindingRuntime.run": _distributed,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_wedged_driver_raises_simulation_timeout(case):
    run, clock = CASES[case]()
    start = clock()
    assert start == WARM
    with pytest.raises(SimulationTimeout) as exc:
        run()
    err = exc.value
    assert err.max_slots == BUDGET
    assert err.slot == clock() == start + BUDGET
    assert err.stuck, "the timeout must name what is wedged"
    for entry in err.stuck:
        assert entry in str(err)
