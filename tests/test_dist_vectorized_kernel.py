"""Oracle for the vector path's tree-level kernel.

``repro.dist.vectorized._level`` replays one binomial tree level in
place over strided views of the clock and wire-busy vectors.  The
reference below is the indexed kernel it replaced, kept verbatim: it
gathers the level's senders, receivers and edges through index arrays
and scatters the results back.  Every executor's sweep — the
single-process up/down sweeps, a shard worker's block-local levels and
the speculative root-space fold — must leave bit-identical state, on
any communicator size, including exact ties and wire-busy times ahead
of the sender's clock.
"""

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.vectorized import _VectorRun
from repro.sim.shard import _local_sweep, _root_sweep
from repro.vmpi.collectives import binomial_levels


def _level_indexed(cur, busy, senders, receivers, edge_key, transfer, wire, inj):
    """One tree level, replicating the scalar send path float-for-float:
    ``_delivery_delay``'s wire-busy fold, arrival as
    ``t_send + max(delay, injection)``, sender charged the injection,
    receiver resumed at ``max(clock, arrival)``."""
    t_send = cur[senders]
    start = np.maximum(busy[edge_key], t_send)
    end_wire = start + wire
    busy[edge_key] = end_wire
    delay = np.maximum(t_send + transfer, end_wire) - t_send
    arrival = t_send + np.maximum(delay, inj)
    cur[senders] = t_send + inj
    cur[receivers] = np.maximum(cur[receivers], arrival)


def _values(rng, n, ties):
    """Times on a coarse grid (many exact ties) or continuous ones."""
    if ties:
        return rng.integers(0, 4, n) * 0.5
    return rng.random(n) * 1e-3


@st.composite
def _trees(draw, power_of_two=False):
    """A communicator size and random sweep inputs: clocks, up/down
    wire-busy vectors, per-level ``(transfer, wire)`` arrays (some
    levels a broadcast scalar, as a topology-blind model prices them)
    and an injection time."""
    powers = st.integers(1, 11).map(lambda k: 1 << k)
    p = draw(powers if power_of_two else st.one_of(st.integers(2, 2049), powers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())
    costs = []
    for _m, leaves, _parents in binomial_levels(p):
        if draw(st.booleans()):
            pair = _values(rng, 2, ties)
            costs.append(tuple(np.broadcast_to(x, leaves.shape) for x in pair))
        else:
            n = len(leaves)
            costs.append((_values(rng, n, ties), _values(rng, n, ties)))
    return types.SimpleNamespace(
        p=p,
        cur=_values(rng, p, ties),
        busy_up=_values(rng, p, ties),
        busy_dn=_values(rng, p, ties),
        cost_sets=[costs],
        inj_sets=[float(_values(rng, 1, ties)[0])],
    )


def _copy(run):
    state = {k: getattr(run, k).copy() for k in ("cur", "busy_up", "busy_dn")}
    return types.SimpleNamespace(**{**vars(run), **state})


def _assert_same_state(got, want):
    for name in ("cur", "busy_up", "busy_dn"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@settings(max_examples=150, deadline=None)
@given(_trees(), st.data())
def test_up_and_down_sweeps_match_the_indexed_kernel(run, data):
    ref = _copy(run)
    levels = binomial_levels(run.p)
    costs, inj = ref.cost_sets[0], ref.inj_sets[0]
    lo = data.draw(st.integers(0, len(levels)))  # a coordinator's cross levels

    _VectorRun.sweep(run, 0, True, lo)
    for (_m, lv, pr), (t, w) in zip(levels[lo:], costs[lo:]):
        _level_indexed(ref.cur, ref.busy_up, lv, pr, lv, t, w, inj)
    _assert_same_state(run, ref)

    _VectorRun.sweep(run, 0, False, lo)
    for (_m, lv, pr), (t, w) in zip(reversed(levels[lo:]), reversed(costs[lo:])):
        _level_indexed(ref.cur, ref.busy_dn, pr, lv, lv, t, w, inj)
    _assert_same_state(run, ref)


def _local_sweep_indexed(run, b0, b1, up):
    """A shard worker's block-local levels through the levels' index
    arrays: mask ``m`` strides leaves ``2m`` apart, so the block's
    leaves occupy indices ``[b0 // 2m, b1 // 2m)`` of the level."""
    levels = binomial_levels(run.p)
    costs, inj = run.cost_sets[0], run.inj_sets[0]
    busy = run.busy_up if up else run.busy_dn
    n_local = (b1 - b0).bit_length() - 1
    for i in range(n_local) if up else range(n_local - 1, -1, -1):
        _m, leaves, parents = levels[i]
        transfer, wire = costs[i]
        j0, j1 = b0 // (2 << i), b1 // (2 << i)
        lv, pr = leaves[j0:j1], parents[j0:j1]
        t, w = transfer[j0:j1], wire[j0:j1]
        if up:
            _level_indexed(run.cur, busy, lv, pr, lv, t, w, inj)
        else:
            _level_indexed(run.cur, busy, pr, lv, lv, t, w, inj)


@settings(max_examples=150, deadline=None)
@given(_trees(power_of_two=True), st.sampled_from([2, 4, 8]))
def test_block_local_sweeps_match_the_indexed_kernel(run, shards):
    shards = min(shards, run.p)
    block = run.p // shards
    ref = _copy(run)
    for up in (True, False):
        for b0 in range(0, run.p, block):
            _local_sweep(run, 0, b0, b0 + block, up)
            _local_sweep_indexed(ref, b0, b0 + block, up)
        _assert_same_state(run, ref)


@settings(max_examples=150, deadline=None)
@given(_trees(power_of_two=True), st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1))
def test_root_space_fold_matches_the_indexed_kernel(run, shards, seed):
    """The cross-shard levels over one entry per block root: level
    ``m >= S`` of the full tree is level ``m // S`` of the roots, its
    edges the full level's index arrays divided by ``S``."""
    shards = min(shards, run.p)
    block = run.p // shards
    n_local = block.bit_length() - 1
    rng = np.random.default_rng(seed)
    g_cur, g_bup, g_bdn = (_values(rng, shards, seed % 2) for _ in range(3))
    ref = [g_cur.copy(), g_bup.copy(), g_bdn.copy()]
    costs, inj = run.cost_sets[0], run.inj_sets[0]
    levels = binomial_levels(run.p)[n_local:]
    cross = [
        (lv // block, pr // block, t, w)
        for (_m, lv, pr), (t, w) in zip(levels, costs[n_local:])
    ]

    _root_sweep(run, 0, n_local, g_cur, g_bup, up=True)
    for lv, pr, t, w in cross:
        _level_indexed(ref[0], ref[1], lv, pr, lv, t, w, inj)
    _root_sweep(run, 0, n_local, g_cur, g_bdn, up=False)
    for lv, pr, t, w in reversed(cross):
        _level_indexed(ref[0], ref[2], pr, lv, lv, t, w, inj)

    for got, want in zip((g_cur, g_bup, g_bdn), ref):
        assert got.tobytes() == want.tobytes()
