"""Collective algorithms: correctness against numpy references, for many
communicator sizes (including non-powers-of-two), plus property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vmpi import (
    MAX,
    MIN,
    SUM,
    PayloadStub,
    UniformNetwork,
    ZeroCostNetwork,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    ordered_reduce,
    reduce,
    run_spmd,
    scatter,
    serial_bcast,
)

SIZES = [1, 2, 3, 4, 5, 7, 8, 12, 16, 33]


@pytest.mark.parametrize("size", SIZES)
def test_bcast_delivers_root_value(size):
    def prog(ctx):
        v = {"data": np.arange(5.0)} if ctx.rank == 0 else None
        out = yield from bcast(ctx, v, root=0)
        assert np.array_equal(out["data"], np.arange(5.0))
        return True

    res = run_spmd(size, prog, network=ZeroCostNetwork())
    assert all(res.values)


@pytest.mark.parametrize("size", [2, 5, 8])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_nonzero_root(size, root):
    def prog(ctx):
        v = "payload" if ctx.rank == root else None
        out = yield from bcast(ctx, v, root=root)
        return out

    res = run_spmd(size, prog)
    assert res.values == ["payload"] * size


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_matches_numpy(size):
    def prog(ctx):
        v = np.full(3, float(ctx.rank + 1))
        out = yield from allreduce(ctx, v, SUM)
        return out

    res = run_spmd(size, prog)
    expected = sum(range(1, size + 1))
    for v in res.values:
        assert np.allclose(v, expected)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("op,expected_fn", [(MAX, max), (MIN, min)])
def test_allreduce_minmax(size, op, expected_fn):
    def prog(ctx):
        out = yield from allreduce(ctx, float(ctx.rank * 7 % 5), op)
        return out

    res = run_spmd(size, prog)
    expected = expected_fn(float(r * 7 % 5) for r in range(size))
    assert res.values == [expected] * size


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sums_to_root(size):
    def prog(ctx):
        out = yield from reduce(ctx, float(ctx.rank), SUM, root=0)
        return out

    res = run_spmd(size, prog)
    assert res.values[0] == sum(range(size))
    assert all(v is None for v in res.values[1:])


@pytest.mark.parametrize("size", SIZES)
def test_gather_rank_order(size):
    def prog(ctx):
        out = yield from gather(ctx, f"r{ctx.rank}", root=0)
        return out

    res = run_spmd(size, prog)
    assert res.values[0] == [f"r{r}" for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, 1])
def test_scatter_distributes(size, root):
    root = root % size

    def prog(ctx):
        values = [r * 10 for r in range(size)] if ctx.rank == root else None
        out = yield from scatter(ctx, values, root=root)
        return out

    res = run_spmd(size, prog)
    assert res.values == [r * 10 for r in range(size)]


def test_scatter_wrong_length_raises():
    def prog(ctx):
        out = yield from scatter(ctx, [1], root=0)
        return out

    with pytest.raises(ValueError, match="exactly"):
        run_spmd(3, prog)


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    def prog(ctx):
        out = yield from allgather(ctx, ctx.rank**2)
        return out

    res = run_spmd(size, prog)
    expected = [r**2 for r in range(size)]
    assert res.values == [expected] * size


@pytest.mark.parametrize("size", [1, 2, 5, 9])
def test_barrier_synchronizes(size):
    def prog(ctx):
        yield from ctx.compute(0.1 * (ctx.rank + 1), "work")
        yield from barrier(ctx)
        return ctx.now

    res = run_spmd(size, prog, network=ZeroCostNetwork())
    # after a barrier every rank's clock is at least the slowest worker's
    assert all(t >= 0.1 * size for t in res.values)


def test_ordered_reduce_is_rank_ordered_fold():
    # floats chosen so (a+b)+c != a+(b+c) detectably
    vals = [1e16, 1.0, -1e16, 1.0, 2.5]

    def prog(ctx):
        out = yield from ordered_reduce(ctx, vals[ctx.rank], SUM, root=0)
        return out

    res = run_spmd(5, prog)
    expected = vals[0]
    for v in vals[1:]:
        expected += v
    assert res.values[0] == expected


def test_serial_bcast_matches_tree_bcast_semantics():
    def prog(ctx):
        a = yield from serial_bcast(ctx, ctx.rank if ctx.rank == 2 else None, root=2)
        b = yield from bcast(ctx, ctx.rank if ctx.rank == 2 else None, root=2)
        return (a, b)

    res = run_spmd(6, prog)
    assert all(v == (2, 2) for v in res.values)


def test_serial_bcast_costs_more_than_tree_at_scale():
    """The Section V-B upgrade: O(P) at the root vs O(log P)."""
    payload = PayloadStub(1 << 20)

    def make(kind):
        def prog(ctx):
            fn = serial_bcast if kind == "serial" else bcast
            yield from fn(ctx, payload if ctx.rank == 0 else None, root=0)
            return ctx.now

        return prog

    net = UniformNetwork(latency=1e-6, bandwidth=1e9)
    t_serial = run_spmd(32, make("serial"), network=net).time
    t_tree = run_spmd(32, make("tree"), network=net).time
    assert t_serial > 2.0 * t_tree


def test_segmented_bcast_faster_than_unsegmented_for_large_payload():
    payload = PayloadStub(64 << 20)

    def make(seg):
        def prog(ctx):
            yield from bcast(
                ctx, payload if ctx.rank == 0 else None, root=0, segment_bytes=seg
            )
            return ctx.now

        return prog

    # DMA-offloaded injection (as on BG/Q's messaging unit) is what lets
    # segments stream down the tree concurrently.
    net = UniformNetwork(latency=1e-6, bandwidth=1e9, injection_bandwidth=2e10)
    t_plain = run_spmd(16, make(None), network=net).time
    t_seg = run_spmd(16, make(1 << 20), network=net).time
    assert t_seg < t_plain
    # pipelined cost should approach ~2x single-transfer, not depth x
    single = (64 << 20) / 1e9
    assert t_seg < 3.0 * single


def test_segmented_reduce_preserves_size():
    payload = PayloadStub(8 << 20)

    def prog(ctx):
        out = yield from reduce(ctx, payload, SUM, root=0, segment_bytes=1 << 20)
        return out

    res = run_spmd(8, prog)
    assert res.values[0].nbytes == 8 << 20
    assert all(v is None for v in res.values[1:])


def test_mismatched_collective_participation_deadlocks():
    from repro.sim import DeadlockError

    def prog(ctx):
        if ctx.rank == 0:
            # deliberate schedule divergence: this test *wants* the deadlock
            yield from bcast(ctx, "x", root=0)  # repro: noqa(VMPI002)
        else:
            yield from bcast(ctx, None, root=0)
            # rank 1 joins a second collective that rank 0 never starts
            yield from bcast(ctx, None, root=0)
        return True

    with pytest.raises(DeadlockError):
        run_spmd(2, prog)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=12),
    data=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=4),
)
def test_property_allreduce_equals_sum(size, data):
    arrs = [np.array(data) * (r + 1) for r in range(size)]

    def prog(ctx):
        out = yield from allreduce(ctx, arrs[ctx.rank].copy(), SUM)
        return out

    res = run_spmd(size, prog)
    expected = np.sum(arrs, axis=0)
    for v in res.values:
        assert np.allclose(v, expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(min_value=1, max_value=14), root=st.integers(min_value=0, max_value=13))
def test_property_gather_scatter_roundtrip(size, root):
    root = root % size

    def prog(ctx):
        gathered = yield from gather(ctx, ctx.rank * 3 + 1, root=root)
        out = yield from scatter(ctx, gathered, root=root)
        return out

    res = run_spmd(size, prog)
    assert res.values == [r * 3 + 1 for r in range(size)]


def test_stub_reduction_preserves_bytes_and_rejects_mismatch():
    assert SUM(PayloadStub(10), PayloadStub(10)).nbytes == 10
    with pytest.raises(ValueError):
        SUM(PayloadStub(10), PayloadStub(20))


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=1, max_value=200))
def test_property_binomial_levels_are_the_executed_tree(size):
    """At any size — off a power of two the top levels are short — the
    level schedule is exactly the (src, dst) pairs an executed root-0
    ``reduce`` sends on, and the reversed pairs of an executed ``bcast``."""
    from repro.obs import MetricsRegistry
    from repro.vmpi import VComm
    from repro.vmpi.collectives import binomial_levels

    levels = binomial_levels(size)
    assert [m for m, _l, _p in levels] == [1 << i for i in range(len(levels))]
    up = {(int(l), int(p)) for _m, lv, pr in levels for l, p in zip(lv, pr)}
    assert len(up) == size - 1

    def pairs(program):
        comm = VComm(size, network=ZeroCostNetwork(), obs=MetricsRegistry())
        comm.run(program)
        return {(r["src"], r["dst"]) for r in comm.comm_stats.pair_report()}

    def reducer(ctx):
        yield from reduce(ctx, 1.0)

    def caster(ctx):
        yield from bcast(ctx, 1.0 if ctx.rank == 0 else None)

    assert pairs(reducer) == up
    assert pairs(caster) == {(p, l) for l, p in up}
