"""Collective algorithms: correctness against numpy references, for many
communicator sizes (including non-powers-of-two), plus property tests."""

import math
import os
from collections import Counter, defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.vmpi import (
    MAX,
    MIN,
    SUM,
    PayloadStub,
    UniformNetwork,
    VComm,
    ZeroCostNetwork,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    ordered_reduce,
    reduce,
    reduce_scatter,
    run_spmd,
    scatter,
    serial_bcast,
    torus_allreduce,
    torus_bcast,
)
from repro.vmpi.collectives import (
    _COLL_TAG_STRIDE,
    _chunk_sizes,
    _grid_line,
    _rabenseifner_steps,
    _recursive_doubling_steps,
    _ring_steps,
    _torus_steps,
    _tree_steps,
    binomial_levels,
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


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: bcast(ctx, "x", root=9),
        lambda ctx: serial_bcast(ctx, "x", root=9),
        lambda ctx: reduce(ctx, 1.0, SUM, root=9),
        lambda ctx: ordered_reduce(ctx, 1.0, SUM, root=9),
        lambda ctx: gather(ctx, 1.0, root=9),
        lambda ctx: scatter(ctx, [0, 1, 2, 3], root=9),
        lambda ctx: torus_bcast(ctx, "x", root=9, grid=(2, 2)),
        lambda ctx: bcast(ctx, "x", root=-1),
    ],
    ids=[
        "bcast",
        "serial_bcast",
        "reduce",
        "ordered_reduce",
        "gather",
        "scatter",
        "torus_bcast",
        "negative",
    ],
)
def test_root_outside_communicator_rejected_before_traffic(call):
    """A root is a rank, not a rank modulo the size: ``root=9`` on 4
    ranks used to run with rank 1 as root and return the wrong value."""
    comm = VComm(4, network=ZeroCostNetwork())

    def prog(ctx):
        yield from call(ctx)

    with pytest.raises(ValueError, match=r"root (9|-1) out of range for size 4"):
        comm.run(prog)
    assert comm.total_sends == 0


# ------------------------------------------------------- schedules as data
SCHEDULE_MAX_SIZE = 200 if os.environ.get("CI") else 64
"""Largest communicator the schedule properties draw; ``CI=1`` runs them
at depth, as ``test_sim_differential.py`` scales its examples."""


def _executed_pairs(size, program, **comm_kwargs):
    """``{(src, dst): (messages, bytes)}`` of an executed rank program."""
    comm = VComm(size, network=ZeroCostNetwork(), obs=MetricsRegistry(), **comm_kwargs)
    comm.run(program)
    return {
        (r["src"], r["dst"]): (r["messages"], r["bytes"])
        for r in comm.comm_stats.pair_report()
    }


def _tree_pairs(line, root_pos, direction):
    """``Counter`` of the (src, dst) edges one sweep of ``_tree_steps``
    sends over ``line``, after checking every send has its receive."""
    s = len(line)
    steps = _tree_steps(s)[direction]
    sends, recvs = Counter(), Counter()
    for rel, (recv_from, send_to) in enumerate(steps):
        me = line[(rel + root_pos) % s]
        sends.update((me, line[(peer + root_pos) % s]) for peer in send_to)
        recvs.update((line[(peer + root_pos) % s], me) for peer in recv_from)
    assert sends == recvs and all(n == 1 for n in sends.values())
    return sends


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=1, max_value=200), root=st.integers(min_value=0))
def test_property_binomial_levels_are_the_executed_tree(size, root):
    """At any size — off a power of two the top levels are short — and
    any root, the level schedule is exactly the (src, dst) pairs an
    executed ``reduce``/``gather`` sends on, and the reversed pairs of an
    executed ``bcast``; ``_tree_steps`` is the same edge set by rank."""
    root %= size
    levels = binomial_levels(size)
    assert [m for m, _l, _p in levels] == [1 << i for i in range(len(levels))]
    up = {
        ((int(l) + root) % size, (int(p) + root) % size)
        for _m, lv, pr in levels
        for l, p in zip(lv, pr)
    }
    assert len(up) == size - 1
    assert set(_tree_pairs(range(size), root, 1)) == up
    assert set(_tree_pairs(range(size), root, 0)) == {(p, l) for l, p in up}

    def reducer(ctx):
        yield from reduce(ctx, 1.0, root=root)

    def gatherer(ctx):
        yield from gather(ctx, 1.0, root=root)

    def caster(ctx):
        yield from bcast(ctx, 1.0 if ctx.rank == root else None, root=root)

    assert set(_executed_pairs(size, reducer)) == up
    assert set(_executed_pairs(size, gatherer)) == up
    assert set(_executed_pairs(size, caster)) == {(p, l) for l, p in up}


def _interpret(schedules, total):
    """Run every rank's exchange steps as data — no engine, no payloads.

    Rank r's buffer is a ``(size, total)`` count matrix: entry ``[q, i]``
    is how often rank q's element i has been folded into r's element i.
    Returns the final buffers and the ``{(src, dst): (messages, length)}``
    traffic; asserts that every send meets exactly one receive with the
    same tag offset and part length, in FIFO order per pair.
    """
    size = len(schedules)
    bufs = [np.zeros((size, total), dtype=np.int64) for _ in range(size)]
    for r in range(size):
        bufs[r][r, :] = 1

    def span(part):
        return slice(0, total) if part is None else slice(*part)

    wires = defaultdict(deque)
    traffic = defaultdict(lambda: [0, 0])
    cursor = [0] * size
    sent = [False] * size
    progressed = True
    while progressed:
        progressed = False
        for r, steps in enumerate(schedules):
            while cursor[r] < len(steps):
                offset, dst, send_part, src, recv_part, mode = steps[cursor[r]]
                if dst is not None and not sent[r]:
                    piece = bufs[r][:, span(send_part)].copy()
                    wires[(r, dst, offset)].append(piece)
                    traffic[(r, dst)][0] += 1
                    traffic[(r, dst)][1] += piece.shape[1]
                    sent[r] = True
                if src is not None:
                    if not wires[(src, r, offset)]:
                        break
                    piece = wires[(src, r, offset)].popleft()
                    mine = bufs[r][:, span(recv_part)]
                    assert piece.shape == mine.shape, (r, steps[cursor[r]])
                    mine[...] = piece if mode.__name__ == "_copy" else mine + piece
                cursor[r] += 1
                sent[r] = False
                progressed = True
    assert cursor == [len(steps) for steps in schedules], "schedule deadlocks"
    assert not any(wires.values()), "a send no receive step takes"
    return bufs, {pair: tuple(v) for pair, v in traffic.items()}


def _ring_parts_follow_chunk_sizes(steps, total, ring):
    """Every part a ring stage names is a ``_chunk_sizes`` chunk, and one
    rank's parts together tile ``[0, total)``."""
    bounds = np.cumsum([0] + _chunk_sizes(total, ring)).tolist()
    chunks = set(zip(bounds, bounds[1:]))
    parts = {p for step in steps for p in (step[2], step[4])}
    assert parts == chunks


ALLREDUCE_SCHEDULES = {
    "recursive_doubling": lambda rank, size, total: _recursive_doubling_steps(rank, size),
    "ring": lambda rank, size, total: _ring_steps(range(size), rank, total),
    "rabenseifner": _rabenseifner_steps,
}


@settings(max_examples=30, deadline=None)
@given(
    algo=st.sampled_from(sorted(ALLREDUCE_SCHEDULES)),
    size=st.integers(min_value=1, max_value=SCHEDULE_MAX_SIZE),
    total=st.integers(min_value=1, max_value=300),
)
def test_property_allreduce_schedules_are_the_executed_exchange(algo, size, total):
    """As data, each allreduce schedule pairs every send with a receive,
    leaves every rank holding every contribution exactly once, and names
    exactly the (src, dst, messages, bytes) the executed collective moves."""
    schedules = [ALLREDUCE_SCHEDULES[algo](r, size, total) for r in range(size)]
    bufs, traffic = _interpret(schedules, total)
    assert all((b == 1).all() for b in bufs)
    if algo == "ring" and size > 1:
        for steps in schedules:
            _ring_parts_follow_chunk_sizes(steps, total, size)

    def prog(ctx):
        yield from allreduce(ctx, PayloadStub(total, "g"), SUM, algo=algo)

    assert _executed_pairs(size, prog) == traffic


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=SCHEDULE_MAX_SIZE),
    total=st.integers(min_value=1, max_value=300),
)
def test_property_reduce_scatter_schedule_is_the_executed_exchange(size, total):
    schedules = [
        _ring_steps(range(size), r, total, allgather=False) for r in range(size)
    ]
    bufs, traffic = _interpret(schedules, total)
    bounds = np.cumsum([0] + _chunk_sizes(total, size)).tolist()
    for r, b in enumerate(bufs):
        # rank r ends with chunk r fully reduced
        assert (b[:, bounds[r] : bounds[r + 1]] == 1).all()
        if size > 1:
            _ring_parts_follow_chunk_sizes(schedules[r], total, size)

    def prog(ctx):
        out = yield from reduce_scatter(ctx, PayloadStub(total, "g"), SUM)
        return out.nbytes

    assert _executed_pairs(size, prog) == traffic
    assert run_spmd(size, prog).values == _chunk_sizes(total, size)


torus_grids = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4).filter(
    lambda dims: math.prod(dims) <= SCHEDULE_MAX_SIZE
)


@settings(max_examples=30, deadline=None)
@given(grid=torus_grids, total=st.integers(min_value=1, max_value=300), root=st.integers(min_value=0))
def test_property_torus_schedules_are_the_executed_stages(grid, total, root):
    """Torus grids, dimensions of 1 included: the allreduce schedule is a
    ring stage per dimension longer than 1 (each in its own tag block),
    and the broadcast is a tree sweep per participating grid line."""
    grid = tuple(grid)
    size = math.prod(grid)
    root %= size
    schedules = [_torus_steps(r, grid, total) for r in range(size)]
    bufs, traffic = _interpret(schedules, total)
    assert all((b == 1).all() for b in bufs)
    blocks = sorted({step[0] // _COLL_TAG_STRIDE for steps in schedules for step in steps})
    assert blocks == list(range(sum(d > 1 for d in grid)))

    def reducer(ctx):
        yield from torus_allreduce(ctx, PayloadStub(total, "g"), SUM, grid=grid)
        # the stages left the tag sequence aligned on every rank
        yield from barrier(ctx)

    def barrier_only(ctx):
        yield from barrier(ctx)

    after = Counter({p: n for p, (n, _b) in _executed_pairs(size, reducer).items()})
    after.subtract({p: n for p, (n, _b) in _executed_pairs(size, barrier_only).items()})
    assert +after == Counter({p: n for p, (n, _b) in traffic.items()})

    expected = Counter()
    for d in range(len(grid)):
        for rank in range(size):
            line, pos, stride = _grid_line(rank, d, grid)
            if grid[d] > 1 and pos == 0 and rank % stride == root % stride:
                expected += _tree_pairs(line, root // stride % grid[d], 0)

    def caster(ctx):
        out = yield from torus_bcast(ctx, "w" if ctx.rank == root else None, root, grid)
        assert out == "w"

    assert {p: n for p, (n, _b) in _executed_pairs(size, caster).items()} == expected
