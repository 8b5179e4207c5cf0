"""Real-thread communicator: blocking p2p/collectives, failure paths."""

import numpy as np
import pytest

from repro.vmpi import (
    SUM,
    WorkerFailure,
    ordered_reduce,
    reduce,
    run_spmd,
    run_threaded,
)


def test_p2p_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(3), tag=4)
            return comm.recv(source=1, tag=5).payload
        env = comm.recv(source=0, tag=4)
        comm.send(0, env.payload * 2, tag=5)
        return None

    results = run_threaded(2, prog, timeout=20)
    assert np.array_equal(results[0], np.arange(3) * 2)


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_collectives(size):
    def prog(comm):
        b = comm.bcast("root-data" if comm.rank == 0 else None, root=0)
        assert b == "root-data"
        g = comm.gather(comm.rank, root=0)
        if comm.rank == 0:
            assert g == list(range(size))
        total = comm.allreduce(float(comm.rank), SUM)
        assert total == sum(range(size))
        s = comm.scatter([i * 2 for i in range(size)] if comm.rank == 0 else None)
        assert s == comm.rank * 2
        return True

    assert all(run_threaded(size, prog, timeout=30))


def test_reduce_is_rank_ordered():
    """``ordered_reduce`` folds in rank order on both backends; the
    tree ``reduce`` does not (see the next test)."""
    vals = [1e16, 1.0, -1e16, 1.0]
    expected = ((vals[0] + vals[1]) + vals[2]) + vals[3]

    def des(ctx):
        out = yield from ordered_reduce(ctx, vals[ctx.rank], SUM, root=0)
        return out

    def threads(comm):
        return comm.collective(ordered_reduce, vals[comm.rank], SUM, 0)

    assert run_spmd(4, des).values[0] == expected
    assert run_threaded(4, threads, timeout=20)[0] == expected


def test_thread_reduce_is_the_des_reduce():
    """Same tree, same fold order: bitwise the same float, which is not
    the rank-ordered one on this input."""
    vals = [1e16, 1.0, -1e16, 1.0]

    def des(ctx):
        out = yield from reduce(ctx, vals[ctx.rank], SUM, root=0)
        return out

    tree = run_spmd(4, des).values[0]
    got = run_threaded(4, lambda comm: comm.reduce(vals[comm.rank], SUM, root=0), timeout=20)
    assert got[0].hex() == tree.hex()
    assert tree != ((vals[0] + vals[1]) + vals[2]) + vals[3]


def test_worker_failure_propagates():
    """Rank 0 only fails because rank 1 did: the report names rank 1."""

    def prog(comm):
        if comm.rank == 1:
            raise RuntimeError("worker died")
        # rank 0 blocks on a message that will never come
        comm.recv(source=1, tag=0)

    with pytest.raises(WorkerFailure) as info:
        run_threaded(2, prog, timeout=20)
    assert info.value.rank == 1
    assert type(info.value.cause) is RuntimeError
    assert str(info.value.cause) == "worker died"


def test_send_rejects_negative_tag():
    """-1 is ANY_TAG; a message carrying it would match every receive."""

    def prog(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError, match="tag must be >= 0"):
                comm.send(1, "x", tag=-1)
        return True

    assert all(run_threaded(2, prog, timeout=5))


def test_recv_rejects_out_of_range_source():
    def prog(comm):
        with pytest.raises(ValueError, match="invalid rank 7"):
            comm.recv(source=7)
        return True

    assert all(run_threaded(3, prog, timeout=5))


def test_out_of_range_root_is_a_value_error_on_every_rank():
    def prog(comm):
        with pytest.raises(ValueError, match="root 5 out of range"):
            comm.bcast("x", root=5)
        return True

    assert all(run_threaded(3, prog, timeout=5))


def test_short_scatter_list_is_a_value_error_at_the_root():
    def prog(comm):
        return comm.scatter([1, 2] if comm.rank == 0 else None)

    with pytest.raises(WorkerFailure) as info:
        run_threaded(3, prog, timeout=5)
    assert info.value.rank == 0
    assert isinstance(info.value.cause, ValueError)


def test_recv_timeout():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)
        # rank 1 exits immediately without sending

    with pytest.raises((TimeoutError, WorkerFailure)):
        run_threaded(2, prog, timeout=0.5)


def test_program_count_mismatch():
    with pytest.raises(ValueError):
        run_threaded(3, [lambda c: None] * 2)


def test_parallel_speedup_structure():
    """Workers genuinely overlap: total wall time is far below the sum of
    per-worker compute (numpy releases the GIL in dot)."""
    import time

    n = 600

    def prog(comm):
        a = np.random.default_rng(comm.rank).standard_normal((n, n))
        t0 = time.perf_counter()
        for _ in range(3):
            a = a @ a / n
        return time.perf_counter() - t0

    t0 = time.perf_counter()
    per_worker = run_threaded(2, prog, timeout=60)
    wall = time.perf_counter() - t0
    assert wall < sum(per_worker) * 1.2  # overlap happened (loose bound)
