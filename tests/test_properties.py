"""Property-based tests (hypothesis) for the DESIGN.md invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binding.region import AccessType, DimRange, Region, regions_conflict
from repro.core.atspace import ATSpace, verify_busy_intervals
from repro.core.block import Block
from repro.core.cfm import AccessKind, AccessState, CFMemory
from repro.core.config import CFMConfig
from repro.network.omega import OmegaNetwork
from repro.network.synchronous import SynchronousOmegaNetwork
from repro.tracking.access_control import AddressTrackingController, PriorityMode
from repro.tracking.atomic import CFMDriver, OpStatus, ReadOperation, WriteOperation
from tests.history import record_finishes


# -- strategy helpers --------------------------------------------------------

banks_and_cycle = st.sampled_from(
    [(4, 1), (8, 1), (16, 1), (8, 2), (12, 3), (16, 4)]
)
pow2 = st.sampled_from([2, 4, 8, 16, 32])


# -- Invariant 1: AT-space partitions ----------------------------------------


@given(banks_and_cycle)
def test_atspace_partitions_mutually_exclusive(bc):
    banks, cycle = bc
    assert ATSpace(banks, cycle).partitions_are_exclusive()


@given(banks_and_cycle, st.integers(min_value=0, max_value=200))
def test_atspace_slot_mapping_injective(bc, slot):
    banks, cycle = bc
    space = ATSpace(banks, cycle)
    mapping = space.slot_mapping(slot)
    assert len(set(mapping.values())) == len(mapping)


@given(banks_and_cycle)
def test_atspace_busy_intervals_never_overlap(bc):
    banks, cycle = bc
    assert verify_busy_intervals(ATSpace(banks, cycle), slots=3 * banks)


# -- Invariant 2: block accesses ----------------------------------------------


@given(
    banks_and_cycle,
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=63),
)
def test_block_access_beta_and_full_coverage(bc, start_delay, offset):
    banks, cycle = bc
    cfg = CFMConfig(n_procs=banks // cycle, bank_cycle=cycle)
    mem = CFMemory(cfg)
    mem.run(start_delay)
    acc = mem.issue(0, AccessKind.READ, offset)
    mem.drain()
    assert acc.state is AccessState.COMPLETED
    assert acc.latency == cfg.block_access_time
    assert sorted(acc.result_words.keys()) == list(range(banks))


@given(
    st.sampled_from([4, 8, 16]),
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8),
)
def test_concurrent_block_accesses_conflict_free(n, stagger_pattern):
    """No two accesses ever address the same bank in a slot, whatever the
    issue phases — the engine's ConflictError never fires."""
    cfg = CFMConfig(n_procs=n)
    mem = CFMemory(cfg)
    finished = record_finishes(mem)
    for p, delay in enumerate(stagger_pattern[:n]):
        mem.run(delay % 3)
        mem.issue(p, AccessKind.READ, p)
    mem.drain()
    assert len(finished.completed) == min(len(stagger_pattern), n)


# -- Invariant 3: synchronous omega networks ----------------------------------


@given(pow2, st.integers(min_value=0, max_value=100))
def test_synchronous_omega_realizes_shift(n, slot):
    net = SynchronousOmegaNetwork(n)
    assert net.permutation(slot) == [(slot + i) % n for i in range(n)]
    # Realizable conflict-free (raises otherwise).
    net.switch_states(slot)


@given(pow2)
def test_omega_uniform_shifts_route(n):
    net = OmegaNetwork(n)
    for t in range(n):
        assert net.is_conflict_free([(i, (i + t) % n) for i in range(n)])


# -- Invariant 4: address tracking consistency ---------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),  # writer proc
    st.integers(min_value=0, max_value=7),  # reader proc
    st.integers(min_value=0, max_value=12),  # stagger
)
def test_reads_single_version_under_any_write_phase(wp, rp, stagger):
    if wp == rp:
        rp = (rp + 1) % 8
    cfg = CFMConfig(n_procs=8)
    ctl = AddressTrackingController(8, PriorityMode.LATEST_WINS)
    mem = CFMemory(cfg, controller=ctl)
    d = CFMDriver(mem)
    mem.poke_block(0, Block.of_values([0] * 8, "old"))
    w = WriteOperation(d, wp, 0, [1] * 8, version="new").start()
    d.run(stagger)
    r = ReadOperation(d, rp, 0).start()
    d.run_until(lambda: w.done and r.done)
    assert r.result is not None
    assert r.result.is_single_version()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=2,
        max_size=4,
        unique_by=lambda t: t[0],
    )
)
def test_competing_writes_leave_single_version(writers):
    """However many writers at whatever phases, the final block is whole
    and belongs to a completed write."""
    cfg = CFMConfig(n_procs=8)
    ctl = AddressTrackingController(8, PriorityMode.LATEST_WINS)
    mem = CFMemory(cfg, controller=ctl)
    d = CFMDriver(mem)
    ops = []
    for proc, delay in writers:
        d.run(delay)
        ops.append(
            WriteOperation(d, proc, 0, [proc] * 8, version=f"v{proc}").start()
        )
    d.run_until(lambda: all(o.done for o in ops))
    blk = mem.peek_block(0)
    assert blk.is_single_version()
    done_versions = {o.version for o in ops if o.status is OpStatus.DONE}
    assert blk.versions[0] in done_versions


# -- Invariant 5: cache protocol single-dirty ----------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # proc
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=2),  # offset
        ),
        min_size=2,
        max_size=10,
    )
)
def test_cache_protocol_single_dirty_owner(ops_spec):
    from repro.cache.protocol import CacheSystem

    sys_ = CacheSystem(6)
    ops = []
    for proc, is_write, offset in ops_spec:
        if any(
            o.proc == proc and not o.done for o in ops
        ):  # one op per proc at a time in this random driver
            sys_.run_ops([o for o in ops if o.proc == proc])
        if is_write:
            ops.append(sys_.store(proc, offset, {0: proc}))
        else:
            ops.append(sys_.load(proc, offset))
    sys_.run_ops(ops)
    sys_.check_coherence_invariant()


# -- Invariant 6/7: binding conflicts -------------------------------------------


region_strategy = st.builds(
    lambda s, w, step: Region("x")[slice(s, s + w, step)],
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
)


@given(region_strategy, region_strategy)
def test_region_overlap_matches_enumeration(a, b):
    """The gcd/CRT intersection is exactly set intersection."""
    ra, rb = a.selectors[0], b.selectors[0]
    explicit = bool(
        set(range(ra.start, ra.stop, ra.step))
        & set(range(rb.start, rb.stop, rb.step))
    )
    assert ra.intersects(rb) == explicit
    assert a.overlaps(b) == explicit


@given(region_strategy, region_strategy)
def test_conflict_symmetry(a, b):
    for acc_a in (AccessType.RO, AccessType.RW):
        for acc_b in (AccessType.RO, AccessType.RW):
            assert regions_conflict(a, acc_a, b, acc_b) == regions_conflict(
                b, acc_b, a, acc_a
            )


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=1, max_value=8),
            st.sampled_from([AccessType.RO, AccessType.RW]),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=30, deadline=None)
def test_granted_bindings_never_conflict(specs):
    """Runtime invariant 6: the active binding list is conflict-free at
    every instant."""
    from repro.binding.manager import Bind, BindingRuntime, Unbind
    from repro.sim.procs import Delay

    rt = BindingRuntime(detect_deadlock=False)
    snapshots = []

    def user(start, width, access, hold):
        def gen():
            d = yield Bind(Region("x")[start : start + width], access)
            snapshots.append(
                [
                    (ab.desc.target, ab.desc.access, ab.desc.owner_pid)
                    for ab in rt.active.values()
                ]
            )
            yield Delay(hold)
            yield Unbind(d)

        return gen()

    for start, width, access, hold in specs:
        rt.spawn(user(start, width, access, hold))
    try:
        rt.run(max_cycles=10_000)
    except Exception:
        pass  # deadlocks possible with random programs; invariant still holds
    for snap in snapshots:
        for i, (ta, aa, pa) in enumerate(snap):
            for tb, ab_, pb in snap[i + 1 :]:
                if pa != pb:
                    assert not regions_conflict(ta, aa, tb, ab_)


# -- Closed-form model sanity ----------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=0.05),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_partial_efficiency_bounded(rate, lam):
    from repro.analysis.efficiency import partial_cf_efficiency

    e = partial_cf_efficiency(rate, lam, 8, 17)
    assert 0.0 <= e <= 1.0
    assert not math.isnan(e)


# -- Slot-accurate hierarchy: Table 5.3 under random storms ---------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),  # global proc (4x4)
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=2),  # offset
        ),
        min_size=2,
        max_size=12,
    )
)
def test_hierarchy_invariants_under_random_storm(ops_spec):
    from repro.hierarchy.slot_accurate import SlotAccurateHierarchy

    h = SlotAccurateHierarchy(4, 4)
    ops = []
    for gproc, is_write, offset in ops_spec:
        pending = [o for o in ops if o.gproc == gproc and not o.done]
        if pending:
            h.run_ops(pending)
        if is_write:
            ops.append(h.store(gproc, offset, {0: gproc}))
        else:
            ops.append(h.load(gproc, offset))
    h.run_ops(ops)
    h.check_invariants()
