"""Differential oracle for the vector path's edge-cost classifier.

``_edge_costs`` prices one representative edge per ``(hop key, nbytes)``
class and gathers the result over the edge arrays; the reference below
calls the network model's own ``p2p_time``/``wire_time`` on *every*
edge.  The two must agree bit for bit on any edge list the eligible
models can see — distinct ranks, same-node pairs included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import RunShape, TorusShape, torus_shape_for_nodes
from repro.bgq.network import TorusNetworkModel
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.dist.vectorized import _edge_costs, _edge_keys, _torus_hops
from repro.harness.scaling import default_workload
from repro.vmpi.costmodel import UniformNetwork

NETWORKS = [
    (TorusNetworkModel(nodes=32, ranks_per_node=1), 32),
    (TorusNetworkModel(nodes=60, ranks_per_node=2), 120),  # non-standard shape
    (TorusNetworkModel(nodes=128, ranks_per_node=16), 2048),
    (TorusNetworkModel(nodes=1024, ranks_per_node=4), 4096),
    (UniformNetwork(), 4096),
]


def _edge_costs_reference(network, src, dst, nbytes):
    sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), src.shape)
    edges = list(zip(src.tolist(), dst.tolist(), sizes.tolist()))
    transfer = np.array([network.p2p_time(s, d, b) for s, d, b in edges])
    wire = np.array([network.wire_time(s, d, b) for s, d, b in edges])
    return transfer, wire


@st.composite
def _edge_lists(draw):
    network, size = draw(st.sampled_from(NETWORKS))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(0, size, n)
    # distinct endpoints; small offsets make same-node pairs common
    reach = draw(st.sampled_from([2, 8, size]))
    dst = (src + rng.integers(1, reach, n)) % size
    kind = draw(st.sampled_from(["scalar", "repeats", "distinct"]))
    if kind == "scalar":
        nbytes = int(rng.integers(0, 1 << 20))
    elif kind == "repeats":
        nbytes = rng.choice(rng.integers(0, 1 << 20, 3), n)
    else:
        nbytes = rng.permutation(n) * 8 + 4
    return network, src, dst, nbytes


@settings(max_examples=60, deadline=None)
@given(_edge_lists())
def test_edge_costs_match_per_edge_pricing(case):
    network, src, dst, nbytes = case
    got = _edge_costs(network, src, dst, nbytes, _edge_keys(network, src, dst), {})
    want = _edge_costs_reference(network, src, dst, nbytes)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_edge_costs_reuse_the_run_table():
    """A class priced on one call is not priced again on the next."""
    network = TorusNetworkModel(nodes=128, ranks_per_node=4)
    src = np.arange(0, 512, 2)
    dst = src + 1
    table = {}
    first = _edge_costs(network, src, dst, 16, _edge_keys(network, src, dst), table)
    assert set(table) == {(-1, 16)}
    table[-1, 16] = (1.0, 2.0)  # a sentinel only the table can supply
    again = _edge_costs(network, src, dst, 16, _edge_keys(network, src, dst), table)
    assert set(again[0]) == {1.0} and set(again[1]) == {2.0}
    assert set(first[0]) == {network.p2p_time(0, 1, 16)}


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


def test_each_cost_class_is_priced_once_per_run(monkeypatch):
    """Over a whole 1024-rank vector run, no ``(hop key, nbytes)`` class
    reaches the model's ``p2p_time``/``wire_time`` twice."""
    priced = {"p2p_time": [], "wire_time": []}
    for name, log in priced.items():
        inner = getattr(TorusNetworkModel, name)

        def counting(self, src, dst, nbytes, *args, _inner=inner, _log=log, **kw):
            a, b = self.node_of(src), self.node_of(dst)
            _log.append((-1 if a == b else self.torus.hops(a, b), nbytes))
            return _inner(self, src, dst, nbytes, *args, **kw)

        monkeypatch.setattr(TorusNetworkModel, name, counting)
    cfg = SimJobConfig(
        shape=RunShape.parse("1024-4-16"),
        workload=default_workload(50.0),
        script=IterationScript((2,), (2,), represented_iterations=30),
        seed=7,
    )
    result = simulate_training(cfg)
    assert result.execution_path == "vector"
    for name, log in priced.items():
        assert len(log) == len(set(log)), name
        # the ten tree levels share three hop classes at each stub size
        for stub in (4, 16):
            assert {k for k, b in log if b == stub} == {-1, 1, 2}
    assert sorted(priced["p2p_time"]) == sorted(priced["wire_time"])
