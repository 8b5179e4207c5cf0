"""Point-to-point semantics: tag/source matching, ordering, costs."""

import numpy as np
import pytest

from repro.sim import DeadlockError
from repro.vmpi import (
    ANY_SOURCE,
    ANY_TAG,
    UniformNetwork,
    VComm,
    ZeroCostNetwork,
    nbytes_of,
    PayloadStub,
    run_spmd,
)


def test_send_recv_basic():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.arange(4), tag=9)
            return None
        msg = yield from ctx.recv(source=0, tag=9)
        return msg.payload

    res = run_spmd(2, prog)
    assert np.array_equal(res.values[1], np.arange(4))


def test_tag_matching_out_of_order():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, "first", tag=1)
            yield from ctx.send(1, "second", tag=2)
            return None
        m2 = yield from ctx.recv(source=0, tag=2)
        m1 = yield from ctx.recv(source=0, tag=1)
        return (m1.payload, m2.payload)

    res = run_spmd(2, prog, network=ZeroCostNetwork())
    assert res.values[1] == ("first", "second")


def test_same_tag_fifo_per_pair():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                yield from ctx.send(1, i, tag=7)
            return None
        out = []
        for _ in range(5):
            msg = yield from ctx.recv(source=0, tag=7)
            out.append(msg.payload)
        return out

    res = run_spmd(2, prog, network=ZeroCostNetwork())
    assert res.values[1] == [0, 1, 2, 3, 4]


def test_any_source_any_tag():
    def prog(ctx):
        if ctx.rank == 0:
            seen = set()
            for _ in range(2):
                msg = yield from ctx.recv(source=ANY_SOURCE, tag=ANY_TAG)
                seen.add(msg.src)
            return seen
        yield from ctx.send(0, "hi", tag=ctx.rank)
        return None

    res = run_spmd(3, prog)
    assert res.values[0] == {1, 2}


def test_recv_without_send_deadlocks():
    def prog(ctx):
        if ctx.rank == 1:
            yield from ctx.recv(source=0, tag=5)
        else:
            yield from ctx.compute(1.0)
        return None

    with pytest.raises(DeadlockError):
        run_spmd(2, prog)


def test_transfer_time_charged_to_receiver():
    net = UniformNetwork(latency=1e-3, bandwidth=1e6)

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.zeros(1000), tag=0)  # 8 kB
            return ctx.now
        yield from ctx.recv(source=0, tag=0)
        return ctx.now

    res = run_spmd(2, prog, network=net)
    # receiver waits latency + bytes/bw; sender only pays injection
    assert res.values[1] >= 1e-3 + 8000 / 1e6
    assert res.values[0] < res.values[1]


def test_send_to_invalid_rank_raises():
    def prog(ctx):
        yield from ctx.send(99, "x")

    with pytest.raises(ValueError, match="invalid rank"):
        run_spmd(2, prog)


@pytest.mark.parametrize(
    "dest,tag,match",
    [(-1, 3, "invalid rank"), (4, 3, "invalid rank"), (1, -1, "tag")],
)
def test_sendrecv_validates_like_send(dest, tag, match):
    """``sendrecv`` injects through ``post``, so a bad destination or tag
    is the same ValueError ``send`` raises — ``dest=-1`` used to index
    ``_inboxes`` from the end and deliver to the last rank."""

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.sendrecv(dest, "x", source=1, tag=tag)
        return None

    with pytest.raises(ValueError, match=match):
        run_spmd(4, prog, network=ZeroCostNetwork())


def test_negative_tag_rejected():
    def prog(ctx):
        yield from ctx.send(0, "x", tag=-1)

    with pytest.raises(ValueError, match="tag"):
        run_spmd(1, prog)


def test_sendrecv_exchange():
    def prog(ctx):
        partner = 1 - ctx.rank
        msg = yield from ctx.sendrecv(partner, f"from{ctx.rank}", source=partner, tag=3)
        return msg.payload

    res = run_spmd(2, prog)
    assert res.values == ["from1", "from0"]


def test_comm_counters():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.zeros(100), tag=0)
        else:
            yield from ctx.recv()
        return None

    res = run_spmd(2, prog)
    assert res.comm.total_sends == 1
    assert res.comm.total_bytes == 800


def test_vcomm_validates_size_and_programs():
    with pytest.raises(ValueError):
        VComm(0)
    comm = VComm(3)
    with pytest.raises(ValueError, match="programs"):
        comm.run([lambda ctx: iter(())] * 2)


class TestNbytesOf:
    def test_array(self):
        assert nbytes_of(np.zeros((3, 4))) == 96

    def test_stub(self):
        assert nbytes_of(PayloadStub(123)) == 123

    def test_scalars_and_none(self):
        assert nbytes_of(None) == 0
        assert nbytes_of(1.5) == 8
        assert nbytes_of(7) == 8

    def test_containers(self):
        assert nbytes_of([np.zeros(2), np.zeros(3)]) == 40
        assert nbytes_of({"a": np.zeros(1)}) == 1 + 8  # key str + value

    def test_string_bytes(self):
        assert nbytes_of("abc") == 3
        assert nbytes_of(b"abcd") == 4

    def test_negative_stub_rejected(self):
        with pytest.raises(ValueError):
            PayloadStub(-1)
