import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import CountingTransport, of_class
from parfem.comm import (
    CollectiveMismatch,
    ConsistencyLevel,
    DeadlockError,
    Relation,
    Schedule,
    Transport,
    build_rank_context,
    merge_schedules,
    spmd_run,
)
from parfem.dlinalg import DistVector
from parfem.mesh import build_rect_mesh
from parfem.partition import DofClass, decompose

L0, L1, L2, L3 = ConsistencyLevel


def run_contexts(mesh, n_ranks, elem="q1", body=None, ownership=None, **kw):
    ownership = decompose(mesh, n_ranks) if ownership is None else ownership

    def wrapped(rank, transport):
        ctx = build_rank_context(mesh, ownership, elem, transport, rank)
        return body(ctx)

    return spmd_run(n_ranks, wrapped, **kw)


def test_single_rank_mapper_is_empty():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    out = run_contexts(m, 1, body=lambda ctx: ctx.mapper)
    for rel in Relation:
        s = out[0].schedules[rel]
        assert len(s.sends) == len(s.recvs) == 1
        assert s.sends[0].size == 0 and s.recvs[0].size == 0
        assert s.rcvd_dof.size == 0


def test_2x2_ims_recv_counts():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ownership = np.array([0, 0, 1, 1])

    def body(ctx):
        s = ctx.mapper.schedules[Relation.IMS]
        n_slaves = len(of_class(ctx.classification, DofClass.INTERFACE_SLAVE))
        return ctx.rank, sum(len(r) for r in s.recvs), n_slaves

    out = run_contexts(m, 2, body=body, ownership=ownership)
    assert out[0] == (0, 0, 0)  # rank 0 masters the whole interface
    assert out[1] == (1, 3, 3)


def test_three_rank_strip_schedules():
    m = build_rect_mesh(0, 6, 0, 1, 6, 1)
    ownership = np.array([0, 0, 1, 1, 2, 2])

    def body(ctx):
        out = {}
        for rel in Relation:
            s = ctx.mapper.schedules[rel]
            assert len(s.sends) == len(s.recvs) == 3
            assert np.array_equal(s.rcvd_dof, np.concatenate(s.recvs))
            slaves = of_class(
                ctx.classification,
                {
                    Relation.IMS: DofClass.INTERFACE_SLAVE,
                    Relation.DH_ALPHA: DofClass.HALO_ALPHA,
                    Relation.DH_BETA: DofClass.HALO_BETA,
                }[rel],
            )
            assert len(s.rcvd_dof) == len(slaves)
            out[rel] = ([len(d) for d in s.sends], [len(d) for d in s.recvs])
        return out

    out = run_contexts(m, 3, body=body, ownership=ownership)
    # the middle rank masters its right interface and serves both neighbours
    mid_ims_sends = out[1][Relation.IMS][0]
    assert mid_ims_sends[2] > 0  # right neighbour gets interface values
    assert out[0][Relation.IMS][0][1] > 0  # rank 0 serves the middle rank
    # every value sent to a rank is received there, from the sender
    for rel in Relation:
        for p in range(3):
            for q in range(3):
                assert out[p][rel][0][q] == out[q][rel][1][p]
    total_sent = sum(sum(o[Relation.IMS][0]) for o in out)
    total_recv = sum(sum(o[Relation.IMS][1]) for o in out)
    assert total_sent == total_recv > 0


def test_merge_schedules_keeps_part_order():
    def lists(*per_rank):
        return [np.array(d, dtype=np.int64) for d in per_rank]

    a = Schedule(lists([0, 1], [], [2]), lists([10], [11, 12], []))
    b = Schedule(lists([3], [4, 5], [6]), lists([20], [21], [22, 23]))
    m = merge_schedules([a, b])
    # each destination gets a's chunk, then b's; each source fills a's
    # slots, then b's; arrivals come by ascending source rank
    assert [d.tolist() for d in m.sends] == [[0, 1, 3], [4, 5], [2, 6]]
    assert [d.tolist() for d in m.recvs] == [[10, 20], [11, 12, 21], [22, 23]]
    assert m.rcvd_dof.tolist() == [10, 20, 11, 12, 21, 22, 23]


def test_update_all_ones_unchanged():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(ctx):
        v = DistVector(ctx, np.ones(ctx.n_local), L0)
        for rel in Relation:
            ctx.comm.update(v.values, rel)
        return np.array_equal(v.values, np.ones(ctx.n_local))

    assert all(run_contexts(m, 2, body=body))


def test_update_propagates_master_rank():
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)

    def body(ctx):
        v = DistVector(ctx, np.full(ctx.n_local, float(ctx.rank)), L0)
        v.restore(L3)
        # every interface slave now holds its master's rank id: the lowest
        # owner of the known cells that contain it
        dm = ctx.dof_map
        ok = True
        for g in of_class(ctx.classification, DofClass.INTERFACE_SLAVE):
            cells = dm.cells[(dm.table == g).any(axis=1)]
            ok = ok and v.values[g] == float(ctx.ownership[cells].min())
        return ok

    assert all(run_contexts(m, 4, body=body))


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_restore_l3_matches_sequential_bitwise(n_ranks, rng):
    m = build_rect_mesh(0, 2, 0, 1, 4, 2)
    seq_values = {}

    def reference(key):
        if key not in seq_values:
            seq_values[key] = rng.normal()
        return seq_values[key]

    # precompute values for all possible keys deterministically
    for gid in range(m.n_cells):
        for li in range(9):
            reference(gid * 64 + li)

    def body(ctx):
        seq = np.array([seq_values[int(k)] for k in ctx.true_keys])
        vals = seq.copy()
        vals[~ctx.master_mask] = 1e300  # garbage on every slave
        v = DistVector(ctx, vals, L0)
        v.restore(L3)
        return np.array_equal(v.values, seq)

    assert all(run_contexts(m, n_ranks, elem="q2", body=body))


def test_restore_l1_sends_only_ims_traffic():
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)

    def body(ctx):
        ctx.transport.clear_trace()
        v = DistVector(ctx, np.zeros(ctx.n_local), L0)
        v.restore(L1)
        labels = {t[0] for t in ctx.transport.trace}
        return labels

    labels = set().union(*run_contexts(m, 4, body=body))
    assert Relation.IMS.value in labels
    assert Relation.DH_ALPHA.value not in labels
    assert Relation.DH_BETA.value not in labels


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_restore_l0_to_l3_is_one_all_to_all(n_ranks):
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)
    transport = CountingTransport(n_ranks)

    def body(ctx):
        seq = np.cos(0.37 * (ctx.true_keys % 1009))
        v = DistVector(ctx, np.where(ctx.master_mask, seq, np.nan), L0)
        before = transport.all_to_alls[ctx.rank]
        v.restore(L3)
        sent = transport.all_to_alls[ctx.rank] - before
        return sent, v.level == L3 and np.array_equal(v.values, seq)

    out = run_contexts(m, n_ranks, elem="q2", body=body, transport=transport)
    assert out == [(1, True)] * n_ranks


def test_restore_l2_leaves_halo_beta_untouched():
    m = build_rect_mesh(0, 4, 0, 1, 4, 1)
    ownership = np.array([0, 0, 1, 1])

    def body(ctx):
        sentinel = -123.456
        v = DistVector(ctx, np.full(ctx.n_local, sentinel), L0)
        v.values[ctx.master_mask] = 1.0
        v.restore(L2)
        beta = of_class(ctx.classification, DofClass.HALO_BETA)
        untouched = all(v.values[g] == sentinel for g in beta)
        alpha = of_class(
            ctx.classification, DofClass.HALO_ALPHA, DofClass.INTERFACE_SLAVE
        )
        refreshed = all(v.values[g] == 1.0 for g in alpha)
        return untouched and refreshed and v.level == L2

    assert all(run_contexts(m, 2, body=body, ownership=ownership))


def test_restore_from_l3_sends_nothing():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(ctx):
        v = DistVector(ctx, np.ones(ctx.n_local), L3)
        ctx.transport.clear_trace()
        v.restore(L1)
        return len([t for t in ctx.transport.trace if t[0] != "reduce"])

    assert all(n == 0 for n in run_contexts(m, 2, body=body))


def test_update_idempotent(rng):
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)
    vals = rng.normal(size=4096)

    def body(ctx):
        v = DistVector(ctx, vals[: ctx.n_local].copy(), L0)
        ctx.comm.update(v.values, Relation.IMS)
        once = v.values.copy()
        ctx.comm.update(v.values, Relation.IMS)
        return np.array_equal(v.values, once)

    assert all(run_contexts(m, 3, body=body))


def test_message_economy_in_strip():
    m = build_rect_mesh(0, 4, 0, 1, 8, 2)

    def body(ctx):
        sizes = {}
        for rel in Relation:
            sizes[rel.value] = sum(len(d) for d in ctx.mapper.schedules[rel].sends)
        return sizes

    out = run_contexts(m, 4, body=body)
    ims = sum(o["IMS"] for o in out)
    dh = sum(o["DHalpha"] + o["DHbeta"] for o in out)
    assert 0 < ims <= dh


def test_deadlock_watchdog():
    def body(rank, transport):
        if rank == 0:
            return "bailed"  # rank 0 never enters the collective
        transport.all_to_all(rank, [None, None], label="lonely")

    with pytest.raises(DeadlockError):
        spmd_run(2, body, timeout=0.5)


def test_collective_label_mismatch():
    def body(rank, transport):
        transport.all_to_all(rank, [None, None], label=f"label{rank}")

    with pytest.raises(CollectiveMismatch):
        spmd_run(2, body, timeout=5.0)


def test_allreduce_fixed_order():
    def body(rank, transport):
        return transport.allreduce_sum(rank, 0.1 * (rank + 1))

    out = spmd_run(3, body)
    assert out[0] == out[1] == out[2]
    assert abs(out[0] - 0.6) < 1e-15


def _collective(transport, rank, kind, label="first"):
    if kind == "a2a":
        return transport.all_to_all(rank, [rank] * transport.n_ranks, label=label)
    return transport.allreduce_sum(rank, float(rank))


@pytest.mark.parametrize("first", ["a2a", "reduce"])
def test_second_collective_label_mismatch(first):
    def body(rank, transport):
        _collective(transport, rank, first)
        if rank == 1:
            transport.allreduce_sum(rank, 1.0)
        else:
            transport.all_to_all(rank, [None] * 3, label="second")

    with pytest.raises(CollectiveMismatch):
        spmd_run(3, body, timeout=5.0)


@pytest.mark.parametrize("first", ["a2a", "reduce"])
def test_second_collective_timeout(first):
    def body(rank, transport):
        _collective(transport, rank, first)
        if rank == 0:
            return "bailed"  # rank 0 never enters the second collective
        _collective(transport, rank, "a2a", label="second")

    with pytest.raises(DeadlockError):
        spmd_run(3, body, timeout=0.5)


@pytest.mark.parametrize("first", ["a2a", "reduce"])
def test_second_collective_failing_rank_reraised(first):
    def body(rank, transport):
        _collective(transport, rank, first)
        if rank == 2:
            raise ZeroDivisionError("rank 2 failed between collectives")
        _collective(transport, rank, "reduce")

    with pytest.raises(ZeroDivisionError, match="rank 2 failed"):
        spmd_run(3, body, timeout=5.0)


def test_alternating_collectives_stress():
    n_steps = 300  # 600 collectives, alternating between the slot sets

    def body(rank, transport):
        for step in range(n_steps):
            chunks = [(rank, dst, step) for dst in range(3)]
            got = transport.all_to_all(rank, chunks, label=f"step{step}")
            assert got == [(src, rank, step) for src in range(3)]
            total = transport.allreduce_sum(rank, np.array([step, 10.0 ** rank]))
            assert np.array_equal(total, [3 * step, 111.0])
        return n_steps

    assert spmd_run(3, body, timeout=30.0) == [n_steps] * 3


def test_abort_releases_a_waiting_rank_and_breaks_later_collectives():
    transport = Transport(2, timeout=30.0)
    raised = []

    def rank0():
        t0 = time.perf_counter()
        try:
            transport.allreduce_sum(0, 1.0)  # rank 1 never enters
        except DeadlockError:
            raised.append(time.perf_counter() - t0)

    waiter = threading.Thread(target=rank0, daemon=True)
    waiter.start()
    time.sleep(0.05)
    transport.abort()
    waiter.join(timeout=5.0)
    assert not waiter.is_alive() and len(raised) == 1 and raised[0] < 5.0
    # a rank that enters after the break raises at once, in either collective
    for collective in (
        lambda: transport.allreduce_sum(1, 1.0),
        lambda: transport.all_to_all(0, [None, None], label="late"),
    ):
        t0 = time.perf_counter()
        with pytest.raises(DeadlockError):
            collective()
        assert time.perf_counter() - t0 < 1.0


def test_timeout_breaks_the_barrier_for_every_rank():
    transport = Transport(3, timeout=0.3)

    def body(rank):
        try:
            transport.allreduce_sum(rank, 1.0)
        except DeadlockError:
            return "broken"

    # ranks 0 and 1 wait for a rank 2 that enters only after the timeout
    out = [None] * 3
    threads = [
        threading.Thread(target=lambda r=r: out.__setitem__(r, body(r)), daemon=True)
        for r in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    out[2] = body(2)
    assert out == ["broken"] * 3


def test_four_rank_stress_with_uneven_delays():
    # 200 collectives with thread switches forced often; every rank is late
    # at some of them, so each rank is sometimes the last to arrive
    n_steps = 100

    def body(rank, transport):
        for step in range(n_steps):
            if step % (rank + 2) == 0:
                time.sleep(0.0005 * (rank + 1))
            chunks = [(rank, dst, step) for dst in range(4)]
            got = transport.all_to_all(rank, chunks, label=f"step{step}")
            assert got == [(src, rank, step) for src in range(4)]
            if step % 3 == rank % 3:
                time.sleep(0.0005)
            total = transport.allreduce_sum(rank, np.array([step, 10.0 ** rank]))
            assert np.array_equal(total, [4 * step, 1111.0])
        return n_steps

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert spmd_run(4, body, timeout=30.0) == [n_steps] * 4
    finally:
        sys.setswitchinterval(interval)


def test_allreduce_array_bitwise_rank_order(rng):
    parts = rng.normal(size=(3, 64)) * 10.0 ** rng.integers(-8, 9, size=(3, 64))
    parts[:, 0] = [1e16, 1.0, -1e16]  # the sum depends on the order
    expected = (parts[0] + parts[1]) + parts[2]
    inputs = parts.copy()

    def body(rank, transport):
        return transport.allreduce_sum(rank, inputs[rank])

    out = spmd_run(3, body)
    assert expected[0] == 0.0
    assert all(np.array_equal(o, expected) for o in out)
    assert np.array_equal(inputs, parts)  # inputs are not summed into


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
)


def _sum_and_mask(rank, transport):
    """One rank-ordered reduction, then the CPUs this rank thread may run on."""
    total = transport.allreduce_sum(rank, 0.1 * (rank + 1))
    return total, os.sched_getaffinity(0)


@needs_affinity
def test_spmd_run_puts_every_rank_on_the_callers_lowest_cpu():
    before = os.sched_getaffinity(0)
    out = spmd_run(3, _sum_and_mask)
    assert [mask for _, mask in out] == [{min(before)}] * 3
    assert os.sched_getaffinity(0) == before  # only the rank threads moved


@needs_affinity
def test_spmd_run_leaves_a_single_rank_unpinned():
    before = os.sched_getaffinity(0)
    assert spmd_run(1, _sum_and_mask) == [(0.1, before)]
    assert os.sched_getaffinity(0) == before


@needs_affinity
@pytest.mark.parametrize("broken", ["raises", "missing"])
def test_spmd_run_runs_unpinned_where_affinity_cannot_be_set(monkeypatch, broken):
    before = os.sched_getaffinity(0)
    pinned = spmd_run(3, _sum_and_mask)
    if broken == "raises":
        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    unpinned = spmd_run(3, _sum_and_mask)
    assert [total for total, _ in unpinned] == [total for total, _ in pinned]
    assert [mask for _, mask in unpinned] == [before] * 3


def test_spmd_run_rejects_a_transport_of_another_size():
    entered = []

    def body(rank, transport):
        entered.append(rank)

    with pytest.raises(ValueError, match="transport has 3 ranks, not 2"):
        spmd_run(2, body, transport=Transport(3, timeout=2.0), timeout=0.1)
    assert entered == []  # no rank thread was started


def tag_views_consistent(per_rank_views):
    """Check that no rank's tag overstates its true state.

    Every d.o.f. class a tag covers must hold the master's value bitwise.
    """
    masters = {}
    for keys, values, classes, is_master, level in per_rank_views:
        for k, v, m in zip(keys, values, is_master):
            if m:
                masters[int(k)] = v
    covered_by = {
        L1: {int(DofClass.INTERFACE_SLAVE)},
        L2: {int(DofClass.INTERFACE_SLAVE), int(DofClass.HALO_ALPHA)},
        L3: {
            int(DofClass.INTERFACE_SLAVE),
            int(DofClass.HALO_ALPHA),
            int(DofClass.HALO_BETA),
        },
    }
    for keys, values, classes, is_master, level in per_rank_views:
        for lvl, classes_needed in covered_by.items():
            if level < lvl:
                continue
            for k, v, c, m in zip(keys, values, classes, is_master):
                if not m and int(c) in classes_needed:
                    if v != masters[int(k)]:
                        return False
    return True


@pytest.mark.parametrize("target", [L1, L2, L3])
def test_tag_never_overstates_state(target, rng):
    m = build_rect_mesh(0, 3, 0, 1, 6, 1)
    seq_vals = {}
    for gid in range(m.n_cells):
        for li in range(4):
            seq_vals[gid * 64 + li] = float(rng.normal())

    def body(rank, transport):
        ownership = np.array([0, 0, 1, 1, 2, 2])
        ctx = build_rank_context(m, ownership, "q1", transport, rank)
        vals = np.array([seq_vals[int(k)] for k in ctx.true_keys])
        vals[~ctx.master_mask] = -1e9
        v = DistVector(ctx, vals, L0)
        v.restore(target)
        return (
            ctx.true_keys,
            v.values.copy(),
            ctx.classification.classes.copy(),
            ctx.master_mask.copy(),
            v.level,
        )

    assert tag_views_consistent(spmd_run(3, body))


def test_trace_bounded_keeps_newest_collectives():
    transport = Transport(1)
    n = Transport.TRACE_LENGTH + 100
    for i in range(n):
        transport.all_to_all(0, [np.zeros(i % 3)], label=f"op{i}")
    assert len(transport.trace) == Transport.TRACE_LENGTH
    assert transport.trace[0] == ("op100", 0)
    assert transport.trace[-1] == (f"op{n - 1}", 0)
    transport.clear_trace()
    assert len(transport.trace) == 0


def test_unmatched_slave_detected():
    from parfem.comm import build_fe_mapper
    from parfem.dof_manager import build_dof_map
    from parfem.partition import build_rank_cells, classify_dofs

    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ownership = np.array([0, 0, 1, 1])

    def body(rank, transport):
        rc = build_rank_cells(m, ownership, rank)
        dm = build_dof_map(m, rc.known, "q1")
        cls = classify_dofs(rc, dm, ownership)
        if rank == 0:
            # demote one interface master: its slaves will find no owner
            g = of_class(cls, DofClass.INTERFACE_MASTER)[0]
            cls.classes[g] = DofClass.INTERFACE_SLAVE
            cls.__post_init__()
        build_fe_mapper(cls, dm, transport, rank)

    with pytest.raises(RuntimeError, match="matched 0 masters"):
        spmd_run(2, body, timeout=5.0)

    strip = build_rect_mesh(0, 3, 0, 1, 3, 1)
    strip_ownership = np.array([0, 1, 2])

    def promote(rank, transport):
        rc = build_rank_cells(strip, strip_ownership, rank)
        dm = build_dof_map(strip, rc.known, "q1")
        cls = classify_dofs(rc, dm, strip_ownership)
        if rank == 1:
            # promote the slaves of rank 0's interface: rank 2 sees them as
            # halo(beta) d.o.f.s, and both rank 0 and rank 1 answer as master
            cls.classes[of_class(cls, DofClass.INTERFACE_SLAVE)] = (
                DofClass.INTERFACE_MASTER
            )
            cls.__post_init__()
        build_fe_mapper(cls, dm, transport, rank)

    with pytest.raises(RuntimeError, match="matched 2 masters"):
        spmd_run(3, promote, timeout=5.0)
