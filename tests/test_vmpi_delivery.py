"""The delivery rule, ``repro.vmpi.costmodel.delivery``.

Every executor prices a message's landing through this one function:
the DES send path with the builtin ``max`` on floats, the vector tree
levels with a ``maximum`` that writes into its first argument, the
vector chains with ``np.maximum``.  The forms must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.vectorized import _into_first
from repro.vmpi import PayloadStub, UniformNetwork, run_spmd
from repro.vmpi.costmodel import delivery

# a coarse grid (exact ties, zeros) or any finite non-negative time
_times = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)
_rows = st.lists(st.tuples(_times, _times, _times, _times, _times), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_rows)
def test_scalar_and_array_forms_are_bitwise_equal(rows):
    now, transfer, wire, wire_free, inj = (np.array(col) for col in zip(*rows))
    scalar = [delivery(*row) for row in rows]
    want_delay = np.array([d for d, _ in scalar])
    want_end = np.array([e for _, e in scalar])

    busy = wire_free.copy()
    delay, end = delivery(now, transfer, wire, busy, inj, _into_first)
    assert delay.tobytes() == want_delay.tobytes()
    assert end.tobytes() == want_end.tobytes()
    assert end is busy  # the wire-busy buffer became the wire end in place

    delay, end = delivery(now, transfer, wire, wire_free, inj, np.maximum)
    assert delay.tobytes() == want_delay.tobytes()
    assert end.tobytes() == want_end.tobytes()


def test_transfer_binds():
    # wire free, wire end 1.25 < now + transfer 1.5, injection 0.125 short
    assert delivery(1.0, 0.5, 0.25, 0.0, 0.125) == (0.5, 1.25)


def test_wire_busy_binds():
    # the pair's previous message holds the wire until 2.0
    assert delivery(1.0, 0.5, 0.25, 2.0, 0.125) == (1.25, 2.25)


def test_injection_binds():
    # the message is on the wire before the sender has finished injecting
    assert delivery(1.0, 0.25, 0.125, 0.0, 0.5) == (0.5, 1.125)


def test_back_to_back_messages_land_where_the_rule_says():
    net = UniformNetwork(latency=0.5, bandwidth=1.0, injection_bandwidth=64.0)
    stub = PayloadStub(4)
    sent, landed = [], []

    def prog(ctx):
        if ctx.rank == 0:
            for _ in range(2):
                sent.append(ctx.now)
                yield from ctx.send(1, stub)
        else:
            for _ in range(2):
                yield from ctx.recv(source=0)
                landed.append(ctx.now)

    run_spmd(2, prog, network=net)
    transfer, wire, inj = net.p2p_time(0, 1, 4), net.wire_time(0, 1, 4), net.injection_time(4)
    d1, end = delivery(sent[0], transfer, wire, 0.0, inj)
    d2, _ = delivery(sent[1], transfer, wire, end, inj)
    assert sent == [0.0, inj]
    assert landed == [sent[0] + d1, sent[1] + d2]
    assert landed == [4.5, 8.0]  # the second waits for the wire, not the latency
