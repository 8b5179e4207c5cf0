"""Differential oracle for the vector path's edge pricing.

``_edge_costs`` evaluates each network model's own on-node/off-node cost
formulas over whole edge arrays; the reference below calls the model's
scalar ``p2p_time``/``wire_time`` on *every* edge.  The two must agree
bit for bit on any edge list the eligible models can see — distinct
ranks, same-node pairs included — and a vector run must need no scalar
pricing call at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import RunShape, TorusShape, torus_shape_for_nodes
from repro.bgq.network import TorusNetworkModel
from repro.cluster.ethernet import EthernetNetworkModel
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.dist.vectorized import _edge_costs, _edge_keys, _torus_hops
from repro.harness.scaling import default_workload
from repro.vmpi.costmodel import UniformNetwork

NETWORKS = [
    (TorusNetworkModel(nodes=32, ranks_per_node=1), 32),
    (TorusNetworkModel(nodes=60, ranks_per_node=2), 120),  # non-standard shape
    (TorusNetworkModel(nodes=128, ranks_per_node=16), 2048),
    (TorusNetworkModel(nodes=1024, ranks_per_node=4), 4096),
    (EthernetNetworkModel(nodes=64, ranks_per_node=12), 768),
    (UniformNetwork(), 4096),
]

MAX_BYTES = 1 << 40


def _edge_costs_reference(network, src, dst, nbytes):
    sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), src.shape)
    edges = list(zip(src.tolist(), dst.tolist(), sizes.tolist()))
    transfer = np.array([network.p2p_time(s, d, b) for s, d, b in edges])
    wire = np.array([network.wire_time(s, d, b) for s, d, b in edges])
    return transfer, wire


def _assert_prices_like_the_scalar_calls(network, src, dst, nbytes):
    got = _edge_costs(network, _edge_keys(network, src, dst), nbytes)
    want = _edge_costs_reference(network, src, dst, nbytes)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@st.composite
def _edge_lists(draw):
    network, size = draw(st.sampled_from(NETWORKS))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(0, size, n)
    # distinct endpoints; small offsets make same-node pairs common
    reach = draw(st.sampled_from([2, 8, size]))
    dst = (src + rng.integers(1, reach, n)) % size
    top = draw(st.sampled_from([1 << 20, MAX_BYTES]))
    kind = draw(st.sampled_from(["scalar", "repeats", "distinct"]))
    if kind == "scalar":
        nbytes = int(rng.integers(0, top, endpoint=True))
    elif kind == "repeats":
        nbytes = rng.choice(rng.integers(0, top, 3, endpoint=True), n)
    else:
        nbytes = rng.permutation(n) * 8 + 4
    return network, src, dst, nbytes


@settings(max_examples=60, deadline=None)
@given(_edge_lists())
def test_edge_costs_match_per_edge_pricing(case):
    _assert_prices_like_the_scalar_calls(*case)


@pytest.mark.parametrize("per_edge", [False, True], ids=["scalar", "per_edge"])
@pytest.mark.parametrize(
    "network,size",
    [pytest.param(n, size, id=f"{type(n).__name__}-{size}") for n, size in NETWORKS],
)
def test_every_model_prices_arrays_like_its_scalar_calls(network, size, per_edge):
    """Each eligible model, byte counts from 0 to 2**40, scalar or one
    per edge: the array formulas equal the scalar calls bit for bit on
    the edges from rank 0 to every other rank — its node mates (with
    several ranks per node) and every torus hop count from a corner."""
    src = np.zeros(size - 1, dtype=np.int64)
    dst = np.arange(1, size)
    sizes = [0, 1, 4, 16, 4097, (1 << 31) + 3, MAX_BYTES - 1, MAX_BYTES]
    if per_edge:
        cases = [np.random.default_rng(size).choice(sizes, len(src))]
    else:
        cases = sizes
    for nbytes in cases:
        _assert_prices_like_the_scalar_calls(network, src, dst, nbytes)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([32, 60, 512, 2048, 16384]),
    st.integers(0, 2**32 - 1),
)
def test_torus_hops_match_the_scalar_route_length(nodes, seed):
    shape: TorusShape = torus_shape_for_nodes(nodes)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, nodes, (2, 64))
    want = [shape.hops(int(x), int(y)) for x, y in zip(a, b)]
    assert _torus_hops(shape.dims, a, b).tolist() == want


@pytest.mark.parametrize("bcast", ["binomial", "serial"])
def test_a_vector_run_makes_no_scalar_pricing_call(monkeypatch, bcast):
    """A whole 1024-rank vector run prices every tree, load and
    broadcast edge from the array formulas: the model's scalar
    ``p2p_time``/``wire_time``/``pair_time`` are never called."""
    calls = []
    for name in ("p2p_time", "wire_time", "pair_time"):
        inner = getattr(TorusNetworkModel, name)

        def counting(self, *args, _inner=inner, _name=name, **kw):
            calls.append(_name)
            return _inner(self, *args, **kw)

        monkeypatch.setattr(TorusNetworkModel, name, counting)
    cfg = SimJobConfig(
        shape=RunShape.parse("1024-4-16"),
        workload=default_workload(50.0),
        script=IterationScript((2,), (2,), represented_iterations=30),
        seed=7,
        bcast_algorithm=bcast,
    )
    result = simulate_training(cfg)
    assert result.execution_path == "vector"
    assert calls == []
