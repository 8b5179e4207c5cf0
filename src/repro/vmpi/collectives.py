"""Collective algorithms over virtual-MPI point-to-point.

These are the textbook algorithms BG/Q's optimized MPI library (on PAMI)
uses for medium-size messages: binomial-tree broadcast and reduce,
recursive-doubling allreduce (with the MPICH fold-in for non-power-of-two
communicators), tree gather/scatter.  Because they execute as real
message exchanges on the DES, their cost *emerges* from the network model
— log(P) depth, link contention on the torus, and so on — and the paper's
"sockets -> MPI_Bcast" upgrade (Section V-B) can be ablated by swapping
:func:`bcast` for :func:`serial_bcast`.

All collectives must be invoked by *every* rank of the communicator in
the same order (SPMD discipline).  A per-rank collective sequence number
is baked into the message tags, so a rank that skips a collective causes
a clean :class:`~repro.sim.engine.DeadlockError` instead of silent payload
cross-talk.

Each algorithm is stated once, as *schedule data* a pure function builds
for one rank, and executed by one of two drivers: :func:`_tree_sweep`
(bcast, the torus line broadcast, reduce, gather) and :func:`_exchange`
(recursive doubling, ring, Rabenseifner, the torus allreduce).  The
schedules can be inspected without running anything, which is how the
tests check them against the executed traffic.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.sim.engine import Timeout
from repro.vmpi.comm import RankCtx
from repro.vmpi.costmodel import PayloadStub
from repro.vmpi.ops import SUM, ReduceOp

__all__ = [
    "bcast",
    "binomial_levels",
    "serial_bcast",
    "reduce",
    "allreduce",
    "ring_allreduce",
    "rabenseifner_allreduce",
    "reduce_scatter",
    "torus_bcast",
    "torus_allreduce",
    "ordered_reduce",
    "gather",
    "scatter",
    "allgather",
    "barrier",
]

_COLL_TAG_BASE = 1_000_000  # repro: noqa(VMPI004) the band this rule reserves
_COLL_TAG_STRIDE = 8


def _next_tag(ctx: RankCtx, blocks: int = 1) -> int:
    """Reserve ``blocks`` consecutive tag blocks; returns the first tag."""
    seq = ctx._coll_seq
    ctx._coll_seq = seq + blocks
    return _COLL_TAG_BASE + seq * _COLL_TAG_STRIDE


def _coll_begin(ctx: RankCtx) -> tuple[Any, float]:
    """``(stats, t0)`` for per-collective duration accounting.

    ``stats`` is the communicator's
    :class:`~repro.obs.hooks.CollectiveStats` (or None when no registry
    is attached); the engine clock is only read when someone is
    listening, so un-instrumented runs pay one attribute check per
    collective and nothing else."""
    stats = ctx.comm.coll_stats
    return stats, (ctx.comm.engine._now if stats is not None else 0.0)


def _coll_end(ctx: RankCtx, stats: Any, op: str, algo: str, t0: float) -> None:
    """Append ``(op, algo, simulated duration)`` to the stats log.

    Append-only on the hot path — folding into counters/histograms
    happens lazily at scrape time, and nothing here touches the engine,
    so attaching observability cannot perturb virtual results."""
    if stats is not None:
        stats.log.append((op, algo, ctx.comm.engine._now - t0))


def _record(ctx: RankCtx, operation: str, root: int = 0) -> None:
    """Entry hook of every public collective: reject a ``root`` outside
    the communicator (any value would otherwise run modulo the size, with
    the wrong rank as root), then note in the ledger that this rank
    entered ``operation``.

    Recording happens *before* any message traffic, so a schedule
    divergence (rank 0 in ``bcast`` while rank 1 is in ``barrier``) is
    caught by the communicator's
    :class:`~repro.analysis.runtime.CollectiveOrderChecker` the moment
    the second rank arrives — long before the mismatch could drain the
    event queue into an opaque deadlock.  Nested collectives (``barrier``
    -> ``allreduce``) record on every rank identically, so composition
    stays divergence-free.
    """
    if not 0 <= root < ctx.size:
        raise ValueError(f"root {root} out of range for size {ctx.size}")
    checker = ctx.comm.collective_checker
    if checker is not None:
        checker.record(ctx.rank, operation)


@lru_cache(maxsize=None)
def binomial_levels(size: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Edge schedule of the root-0 binomial tree over ``size`` ranks.

    Returns ``[(mask, leaves, parents), ...]`` in ascending ``mask``
    order, where at level ``mask`` the edges connect ``leaves[i]``
    (ranks whose lowest set bit is ``mask``) with ``parents[i] =
    leaves[i] - mask``.  Ascending order is exactly the up-sweep of
    :func:`reduce` (each rank sends at the level of its lowest set bit);
    the reversed list is the down-sweep of :func:`bcast` (each parent
    sends to its children in descending-mask order).  This is the single
    statement of the tree: :func:`_tree_steps` regroups these edges by
    rank for the executed collectives, and the vectorized SPMD executor
    (`repro.dist.vectorized`) replays whole levels as array operations
    against the same schedule instead of stepping ``size`` generators.

    Any ``size >= 1`` works.  Off a power of two the upper levels are
    simply shorter: ``arange(mask, size, 2 * mask)`` stops at the last
    rank that exists, so a rank's missing children are just absent from
    its steps — the remainder case needs no branch of its own.
    """
    if size < 1:
        raise ValueError(f"binomial_levels needs size >= 1, got {size}")
    levels = []
    mask = 1
    while mask < size:
        leaves = np.arange(mask, size, 2 * mask, dtype=np.int64)
        levels.append((mask, leaves, leaves - mask))
        mask <<= 1
    return levels


_TreeSteps = list[tuple[tuple[int, ...], tuple[int, ...]]]
_Fold = Callable[[Any, Any], Any]


@lru_cache(maxsize=None)
def _tree_steps(size: int) -> tuple[_TreeSteps, _TreeSteps]:
    """:func:`binomial_levels` regrouped by rank: ``(down, up)``, each
    indexed by root-relative rank and holding that rank's ``(receive
    from, send to)`` relative ranks in execution order.

    Down (broadcast) a rank receives from its parent, then sends to its
    children in descending-mask order; up (reduce) it receives from its
    children in ascending-mask order, then sends to its parent.  The root
    (relative rank 0) has no parent.
    """
    parent: list[tuple[int, ...]] = [()] * size
    children: list[list[int]] = [[] for _ in range(size)]
    for _mask, leaves, parents in binomial_levels(size):
        for leaf, par in zip(leaves.tolist(), parents.tolist()):
            parent[leaf] = (par,)
            children[par].append(leaf)
    down = [(parent[r], tuple(reversed(children[r]))) for r in range(size)]
    up = [(tuple(children[r]), parent[r]) for r in range(size)]
    return down, up


def _fast_p2p(ctx: RankCtx) -> bool:
    """True when the frame-skipping :meth:`RankCtx.post` /
    :meth:`RankCtx.recv_cmd` helpers are observationally identical to
    :meth:`RankCtx.send` / :meth:`RankCtx.recv`: no default recv timeout
    to wrap and no p2p trace spans to record.  The collectives move one
    message per rank per step, so the saved generator frames are the bulk
    of their simulation cost.  Each driver asks once per collective."""
    comm = ctx.comm
    return comm.recv_timeout is None and not (
        comm.trace_p2p and comm.tracer is not None
    )


def _tree_sweep(
    ctx: RankCtx,
    value: Any,
    tag: int,
    line: Sequence[int],
    pos: int,
    root_pos: int,
    fold: _Fold | None = None,
) -> Generator:
    """Tree driver: one binomial sweep over ``line`` (absolute ranks by
    position; this rank sits at ``line[pos]``, the root at
    ``line[root_pos]``), executing this rank's :func:`_tree_steps`.

    ``fold=None`` sweeps down — every rank returns the root's ``value``.
    Otherwise the sweep runs up, combining ``fold(acc, incoming)`` at
    each parent; the root returns the result and every other rank
    ``None``.  A single-rank line has no steps and sends nothing.
    """
    s = len(line)
    rel = (pos - root_pos) % s
    recv_from, send_to = _tree_steps(s)[fold is not None][rel]
    fast = _fast_p2p(ctx)
    for peer in recv_from:
        src = line[(peer + root_pos) % s]
        if fast:
            msg = yield ctx.recv_cmd(src, tag)
        else:
            msg = yield from ctx.recv(source=src, tag=tag)
        value = msg.payload if fold is None else fold(value, msg.payload)
    for peer in send_to:
        dst = line[(peer + root_pos) % s]
        if fast:
            inj = ctx.post(dst, value, tag=tag)
            if inj > 0:
                yield inj
        else:
            yield from ctx.send(dst, value, tag=tag)
    return None if fold is not None and rel else value


def _sweep(ctx: RankCtx, value: Any, root: int, fold: _Fold | None = None) -> Generator:
    """A :func:`_tree_sweep` over the whole communicator in a tag block
    of its own (reserved now, when the caller enters the sweep)."""
    line = range(ctx.size)
    return _tree_sweep(ctx, value, _next_tag(ctx), line, ctx.rank, root, fold)


def bcast(
    ctx: RankCtx,
    value: Any = None,
    root: int = 0,
    segment_bytes: int | None = None,
    algo: Any = None,
) -> Generator:
    """Broadcast; returns the root's value on every rank.

    ``algo`` selects the schedule: ``None``/``"binomial"`` (the default
    binomial tree, unchanged semantics), ``"serial"`` (root sends to each
    rank in turn), ``"torus"`` (dimension-pipelined over the partition
    grid), or ``"auto"`` (the communicator's
    :class:`~repro.vmpi.algoselect.CollectivePolicy` picks per message
    size — a tiny header broadcast first ships the root's payload size so
    every rank makes the same choice).

    ``segment_bytes`` enables large-message pipelining for
    :class:`~repro.vmpi.costmodel.PayloadStub` payloads on the binomial
    path: the stub is split into segments broadcast back-to-back, and
    because senders block only for injection the segments stream down the
    tree concurrently — the DES analogue of MPI's pipelined/van-de-Geijn
    broadcast, without which tree depth would over-charge multi-megabyte
    weight syncs.
    """
    _record(ctx, "bcast", root)
    stats, t0 = _coll_begin(ctx)
    name = "binomial" if algo is None else str(algo)
    if name == "auto":
        policy = _require_policy(ctx)
        header = ctx.comm.sizer(value) if ctx.rank == root else None
        header = yield from _sweep(ctx, header, root)
        name = str(policy.bcast_choice(ctx.size, header)[0])
    if name == "binomial":
        result = yield from _binomial_bcast(ctx, value, root, segment_bytes)
    elif name == "segmented":
        result = yield from _binomial_bcast(
            ctx, value, root, segment_bytes if segment_bytes else 1 << 20
        )
    elif name == "serial":
        result = yield from _serial_bcast_impl(ctx, value, root)
    elif name == "torus":
        result = yield from _torus_bcast_impl(ctx, value, root, _resolve_grid(ctx, None))
    else:
        raise ValueError(f"unknown bcast algo {name!r}")
    _coll_end(ctx, stats, "bcast", name, t0)
    return result


def _require_policy(ctx: RankCtx) -> Any:
    policy = ctx.comm.coll_policy
    if policy is None:
        raise ValueError(
            'algo="auto" needs a CollectivePolicy attached to the '
            "communicator (VComm(..., coll_policy=...))"
        )
    return policy


def _segment_sizes(total: int, segment_bytes: int) -> list[int]:
    """Full segments then the remainder, summing to ``total`` exactly."""
    nseg = -(-total // segment_bytes)
    return [segment_bytes] * (nseg - 1) + [total - segment_bytes * (nseg - 1)]


def _binomial_bcast(
    ctx: RankCtx, value: Any, root: int, segment_bytes: int | None
) -> Generator:
    """Binomial-tree broadcast, optionally segment-pipelined."""
    if segment_bytes is not None and segment_bytes > 0:
        # Every rank must agree on the segment count, which depends on the
        # root's payload size — ship it in a tiny header bcast first.
        nbytes = value.nbytes if isinstance(value, PayloadStub) else None
        header = yield from _sweep(ctx, nbytes, root)
        if header is not None and header > segment_bytes:
            for s in _segment_sizes(header, segment_bytes):
                yield from _sweep(ctx, PayloadStub(s, "segment"), root)
            return PayloadStub(header, "bcast")
        # small or non-stub payload: fall through to one-shot
    result = yield from _sweep(ctx, value, root)
    return result


def serial_bcast(ctx: RankCtx, value: Any = None, root: int = 0) -> Generator:
    """Root sends to every rank one at a time.

    This is what a hand-rolled socket layer does (the paper's *before*
    state); cost is O(P) at the root instead of O(log P) — the COMM
    ablation benchmark contrasts the two.
    """
    _record(ctx, "serial_bcast", root)
    stats, t0 = _coll_begin(ctx)
    result = yield from _serial_bcast_impl(ctx, value, root)
    _coll_end(ctx, stats, "bcast", "serial", t0)
    return result


def _serial_bcast_impl(ctx: RankCtx, value: Any, root: int) -> Generator:
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return value
    if rank == root:
        for dst in range(size):
            if dst != root:
                yield from ctx.send(dst, value, tag=tag)
        return value
    msg = yield from ctx.recv(source=root, tag=tag)
    return msg.payload


def reduce(
    ctx: RankCtx,
    value: Any,
    op: ReduceOp = SUM,
    root: int = 0,
    segment_bytes: int | None = None,
    algo: Any = None,
) -> Generator:
    """Reduction to ``root``; other ranks return ``None``.

    The operator must be associative and commutative (tree order is not
    rank order — see :func:`ordered_reduce` for bitwise-reproducible
    float sums).  ``segment_bytes`` pipelines stub payloads exactly as in
    :func:`bcast` on the binomial path.

    ``algo``: ``None``/``"binomial"`` is the default tree;
    ``"ring"``/``"rabenseifner"``/``"torus"`` run the corresponding
    allreduce schedule (which over-delivers the result to every rank but
    moves fewer bytes per link at large n) and return it only at the
    root; ``"auto"`` lets the communicator's policy choose.  All ranks
    hold equal-size payloads, so every rank computes the same choice
    with no extra traffic.
    """
    _record(ctx, "reduce", root)
    name = "binomial" if algo is None else str(algo)
    if name == "auto":
        policy = _require_policy(ctx)
        name = str(policy.reduce_choice(ctx.size, ctx.comm.sizer(value))[0])
    if name == "segmented":
        # executed analogue: the segment-pipelined binomial tree
        name = "binomial"
        if not segment_bytes:
            segment_bytes = 1 << 20
    if name != "binomial":
        result = yield from _allreduce(ctx, value, op, name, stat_op="reduce")
        return result if ctx.rank == root else None
    stats, t0 = _coll_begin(ctx)
    if (
        segment_bytes is not None
        and segment_bytes > 0
        and isinstance(value, PayloadStub)
        and value.nbytes > segment_bytes
    ):
        for s in _segment_sizes(value.nbytes, segment_bytes):
            yield from _sweep(ctx, PayloadStub(s, "segment"), root, op)
        result = PayloadStub(value.nbytes, "reduced") if ctx.rank == root else None
    else:
        result = yield from _sweep(ctx, value, root, op)
    _coll_end(ctx, stats, "reduce", "binomial", t0)
    return result


def ordered_reduce(
    ctx: RankCtx, value: Any, op: ReduceOp = SUM, root: int = 0
) -> Generator:
    """Gather-then-fold reduction: root combines contributions in rank
    order, so float sums are bitwise identical to a serial loop over
    ranks.  Used by parity experiments; costs O(P) messages at the root.
    """
    _record(ctx, "ordered_reduce", root)
    contributions = yield from gather(ctx, value, root=root)
    if ctx.rank != root:
        return None
    acc = contributions[0]
    for c in contributions[1:]:
        acc = op(acc, c)
    return acc


def allreduce(ctx: RankCtx, value: Any, op: ReduceOp = SUM, algo: Any = None) -> Generator:
    """Allreduce; every rank returns the full reduction.

    ``algo``: ``None``/``"recursive_doubling"`` is the default MPICH
    schedule (unchanged semantics); ``"ring"``, ``"rabenseifner"`` and
    ``"torus"`` run the bandwidth-optimized schedules; ``"auto"``
    consults the communicator's
    :class:`~repro.vmpi.algoselect.CollectivePolicy` (payloads are
    equal-size on every rank, so the choice needs no extra traffic).
    """
    _record(ctx, "allreduce")
    name = "recursive_doubling" if algo is None else str(algo)
    if name == "auto":
        policy = _require_policy(ctx)
        name = str(policy.allreduce_choice(ctx.size, ctx.comm.sizer(value))[0])
    result = yield from _allreduce(ctx, value, op, name)
    return result


# --------------------------------------------------------------------------
# Exchange schedules.
#
# A schedule is the list of steps ONE rank executes, built by a pure
# function of (rank, size, vector length):
#
#     (tag offset, dst, send part, src, recv part, mode)
#
# ``dst``/``src`` are absolute ranks, or None when the step only receives
# / only sends; with both set the send and the receive overlap
# (:meth:`RankCtx.sendrecv` semantics).  A part is a ``(lo, hi)`` range of
# the flattened vector, or None for the whole payload.  ``mode`` says what
# the received part does to the rank's own copy of that range.
# --------------------------------------------------------------------------


def _copy(op: ReduceOp, mine: Any, incoming: Any) -> Any:
    return incoming


def _fold(op: ReduceOp, mine: Any, incoming: Any) -> Any:
    return op(mine, incoming)


def _fold_incoming_first(op: ReduceOp, mine: Any, incoming: Any) -> Any:
    return op(incoming, mine)


_Part = tuple[int, int] | None
_Mode = Callable[[ReduceOp, Any, Any], Any]
_Step = tuple[int, int | None, _Part, int | None, _Part, _Mode]


# A schedule that moves the vector in *pieces* works on a private buffer:
# a PayloadStub (byte-count bookkeeping; the part sizes a rank sends sum
# to the original exactly) or a flattened copy of a numpy array (real
# data).  Anything else raises TypeError — a scalar cannot be
# meaningfully scattered.  Whole-payload schedules (every part None) use
# the value itself, whatever the operator accepts.


def _flat(value: Any, op: ReduceOp) -> tuple[Any, int]:
    """``(buffer, length)`` for a schedule that moves ``value`` in parts."""
    if isinstance(value, PayloadStub):
        return PayloadStub(value.nbytes, f"{op.name}-reduced"), value.nbytes
    if isinstance(value, np.ndarray):
        return value.flatten(), value.size
    raise TypeError(
        f"ring/rabenseifner/torus schedules need a PayloadStub or numpy "
        f"array payload, got {type(value).__name__}"
    )


def _take(buf: Any, part: _Part) -> Any:
    """The payload of a send step.  Array parts are copies, so a sender
    folding into the range later cannot disturb a message in flight."""
    if part is None:
        return buf
    lo, hi = part
    if isinstance(buf, PayloadStub):
        return PayloadStub(hi - lo, buf.kind)
    return buf[lo:hi].copy()


def _put(buf: Any, part: _Part, incoming: Any, mode: _Mode, op: ReduceOp) -> Any:
    """Apply a received part to the buffer; returns the buffer."""
    if part is None:
        return mode(op, buf, incoming)
    lo, hi = part
    if not isinstance(buf, PayloadStub):
        buf[lo:hi] = mode(op, buf[lo:hi], incoming)
    elif incoming.nbytes != hi - lo:
        raise ValueError(
            f"slice mismatch: got {incoming.nbytes} bytes for range [{lo}, {hi})"
        )
    return buf


def _chunk_sizes(total: int, parts: int) -> list[int]:
    """``parts`` contiguous chunk sizes summing to ``total`` exactly
    (first ``total % parts`` chunks get the extra unit)."""
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _chunk_parts(total: int, parts: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` ranges of :func:`_chunk_sizes`, tiling
    ``[0, total)`` — the bit-exact contract the allgather half of ring
    allreduce and the bucketed-gradient accounting both rely on."""
    bounds = [0, *accumulate(_chunk_sizes(total, parts))]
    return list(zip(bounds, bounds[1:]))


def _ring_steps(
    line: Sequence[int], pos: int, total: int, allgather: bool = True
) -> list[_Step]:
    """Ring reduce-scatter, then (``allgather``) ring allgather, over
    ``line`` (absolute ranks in ring order; this rank sits at
    ``line[pos]``).

    2(s-1) steps each moving ~n/s bytes — bandwidth-optimal, with cost
    linear in ring length (the latency the selection policy trades
    against the logarithmic trees).  After the first s-1 steps the rank
    holds the fully reduced chunk ``pos``.
    """
    s = len(line)
    right, left = line[(pos + 1) % s], line[(pos - 1) % s]
    part = _chunk_parts(total, s)
    steps: list[_Step] = [
        (0, right, part[(pos - 1 - k) % s], left, part[(pos - 2 - k) % s], _fold)
        for k in range(s - 1)
    ]
    if allgather:
        steps += [
            (1, right, part[(pos - k) % s], left, part[(pos - 1 - k) % s], _copy)
            for k in range(s - 1)
        ]
    return steps


def _torus_steps(rank: int, grid: tuple[int, ...], total: int) -> list[_Step]:
    """Per-dimension ring allreduce: after stage d every rank holds the
    reduction over all ranks agreeing with it on dimensions > d, so after
    the last stage every rank holds the global reduction.

    Every rank sits on exactly one line of every dimension, so all ranks
    run the same stages; stage k uses the k-th of the tag blocks the
    caller reserves (one per dimension longer than 1).
    """
    steps: list[_Step] = []
    block = 0
    for d in range(len(grid)):
        if grid[d] > 1:
            line, pos, _stride = _grid_line(rank, d, grid)
            steps += [
                (block + offset, *rest)
                for offset, *rest in _ring_steps(line, pos, total)
            ]
            block += _COLL_TAG_STRIDE
    return steps


def _with_fold_in(
    rank: int,
    size: int,
    whole: _Part,
    core: Callable[[int, int, Callable[[int], int]], list[_Step]],
    unfold_offset: int,
    fold_in_mode: _Mode,
) -> list[_Step]:
    """MPICH's wrapper for non-power-of-two communicators, shared by
    recursive doubling and Rabenseifner.

    The first ``2 * rem`` ranks pair up: each even rank hands its whole
    vector to its odd neighbour (tag offset 0) and sits out; the odd ones
    and everyone above form a power-of-two core numbered by ``newrank``,
    whose steps are ``core(newrank, pof2, real_rank)``; afterwards each
    odd rank pushes the result back (``unfold_offset``).  On a power of
    two ``rem`` is 0 and only the core remains.
    """
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2

    def real_rank(newrank: int) -> int:
        return newrank * 2 + 1 if newrank < rem else newrank + rem

    if rank >= 2 * rem:
        return core(rank - rem, pof2, real_rank)
    if rank % 2 == 0:
        return [
            (0, rank + 1, whole, None, None, _copy),
            (unfold_offset, None, None, rank + 1, whole, _copy),
        ]
    return [
        (0, None, None, rank - 1, whole, fold_in_mode),
        *core(rank // 2, pof2, real_rank),
        (unfold_offset, rank - 1, whole, None, None, _copy),
    ]


def _recursive_doubling_steps(rank: int, size: int) -> list[_Step]:
    """Recursive-doubling allreduce: log2(pof2) whole-payload exchanges
    with the partner across each bit.  The fold-in combines the lower
    rank's value first, keeping rank order for non-commutative
    operators."""

    def core(newrank: int, pof2: int, real_rank: Callable[[int], int]) -> list[_Step]:
        levels = range(pof2.bit_length() - 1)
        partners = [real_rank(newrank ^ (1 << k)) for k in levels]
        return [(1, partner, None, partner, None, _fold) for partner in partners]

    return _with_fold_in(rank, size, None, core, 2, _fold_incoming_first)


def _rabenseifner_steps(rank: int, size: int, total: int) -> list[_Step]:
    """Rabenseifner allreduce: recursive-halving reduce-scatter then
    recursive-doubling allgather.

    Ranks track the (lo, hi) slice of the vector they currently own;
    partners at each level hold identical ranges (they differ only in the
    current mask bit), so both compute the same split point and the
    exchanged halves tile the vector exactly.
    """

    def core(newrank: int, pof2: int, real_rank: Callable[[int], int]) -> list[_Step]:
        steps: list[_Step] = []
        halvings = []
        lo, hi = 0, total
        mask = 1
        while mask < pof2:
            partner = real_rank(newrank ^ mask)
            mid = lo + (hi - lo) // 2
            keep, give = ((mid, hi), (lo, mid)) if newrank & mask else ((lo, mid), (mid, hi))
            steps.append((1, partner, give, partner, keep, _fold))
            halvings.append((partner, (lo, hi), give))
            lo, hi = keep
            mask <<= 1
        # Allgather reverses the halving order: the partner at each level
        # owns the sibling half — the range given away on the way down,
        # whole again by now — and the exchange restores the parent range.
        for partner, parent, sibling in reversed(halvings):
            steps.append((2, partner, (lo, hi), partner, sibling, _copy))
            lo, hi = parent
        return steps

    return _with_fold_in(rank, size, (0, total), core, 3, _fold)


def _exchange(
    ctx: RankCtx, steps: list[_Step], buf: Any, op: ReduceOp, tag: int
) -> Generator:
    """Exchange driver: execute this rank's ``steps`` against ``buf``
    with tags ``tag + offset``; returns the final buffer.

    A step's send and receive overlap: the send is injected, the receive
    waited for, and the step then lasts at least the injection time — as
    on real hardware with independent DMA.
    """
    fast = _fast_p2p(ctx)
    engine = ctx.comm.engine
    for offset, dst, send_part, src, recv_part, mode in steps:
        t = tag + offset
        if fast:
            t0 = engine._now
            inj = 0.0 if dst is None else ctx.post(dst, _take(buf, send_part), tag=t)
            if src is not None:
                msg = yield ctx.recv_cmd(src, t)
            elapsed = engine._now - t0
            if elapsed < inj:
                yield inj - elapsed + 0.0
        elif src is None:
            yield from ctx.send(dst, _take(buf, send_part), tag=t)
        elif dst is None:
            msg = yield from ctx.recv(source=src, tag=t)
        else:
            msg = yield from ctx.sendrecv(dst, _take(buf, send_part), source=src, tag=t)
        if src is not None:
            buf = _put(buf, recv_part, msg.payload, mode, op)
    return buf


def _allreduce(
    ctx: RankCtx,
    value: Any,
    op: ReduceOp,
    name: str,
    grid: tuple[int, ...] | None = None,
    stat_op: str = "allreduce",
) -> Generator:
    """The one allreduce dispatcher: build this rank's schedule for
    algorithm ``name`` and run it; every rank returns the full reduction.

    Serves :func:`allreduce`, the named wrappers and :func:`reduce`'s
    non-binomial algorithms (``stat_op`` is the operation the duration
    is logged under).
    """
    stats, t0 = _coll_begin(ctx)
    size, rank = ctx.size, ctx.rank
    blocks = 1
    if name == "torus":
        grid = _resolve_grid(ctx, grid)
        blocks = sum(d > 1 for d in grid)
    elif name not in ("recursive_doubling", "ring", "rabenseifner"):
        raise ValueError(f"unknown {stat_op} algo {name!r}")
    tag = _next_tag(ctx, blocks)
    if size > 1 and name == "recursive_doubling":
        steps = _recursive_doubling_steps(rank, size)
        value = yield from _exchange(ctx, steps, value, op, tag)
    elif size > 1:
        buf, total = _flat(value, op)
        if name == "ring":
            steps = _ring_steps(range(size), rank, total)
        elif name == "rabenseifner":
            steps = _rabenseifner_steps(rank, size, total)
        else:
            steps = _torus_steps(rank, grid, total)
        buf = yield from _exchange(ctx, steps, buf, op, tag)
        value = buf.reshape(value.shape) if isinstance(buf, np.ndarray) else buf
    _coll_end(ctx, stats, stat_op, name, t0)
    return value


def ring_allreduce(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Ring allreduce over the whole communicator in rank order (see
    :func:`_ring_steps`); every rank returns the full reduction."""
    _record(ctx, "ring_allreduce")
    result = yield from _allreduce(ctx, value, op, "ring")
    return result


def reduce_scatter(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Ring reduce-scatter: rank r returns the fully reduced chunk r.

    Chunk boundaries follow :func:`_chunk_sizes` — sizes are bit-exact
    (they sum to the payload's total).
    """
    _record(ctx, "reduce_scatter")
    stats, t0 = _coll_begin(ctx)
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size > 1:
        buf, total = _flat(value, op)
        steps = _ring_steps(range(size), rank, total, allgather=False)
        buf = yield from _exchange(ctx, steps, buf, op, tag)
        value = _take(buf, _chunk_parts(total, size)[rank])
    _coll_end(ctx, stats, "reduce_scatter", "ring", t0)
    return value


def rabenseifner_allreduce(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Rabenseifner allreduce (see :func:`_rabenseifner_steps`); every
    rank returns the full reduction."""
    _record(ctx, "rabenseifner_allreduce")
    result = yield from _allreduce(ctx, value, op, "rabenseifner")
    return result


# --------------------------------------------------------------------------
# Torus-dimension-pipelined collectives.
#
# The communicator is viewed as a row-major grid (the partition's
# non-trivial torus dimensions with ranks-per-node innermost, matching
# the block rank→node mapping), and the collective runs one stage per
# grid dimension.  Neighbouring positions along a grid line are adjacent
# in the physical torus ring, so each stage pays single-ring latencies —
# the structural advantage the closed-form `torus_*_cost` formulas price.
# --------------------------------------------------------------------------


def _resolve_grid(ctx: RankCtx, grid: tuple[int, ...] | None) -> tuple[int, ...]:
    """The rank grid for torus-pipelined stages: explicit argument, else
    the communicator's policy grid, else the network model's topology."""
    if grid is None:
        policy = ctx.comm.coll_policy
        if policy is not None and getattr(policy, "grid", None) is not None:
            grid = policy.grid
        else:
            topo = getattr(ctx.comm.network, "collective_topology", None)
            if topo is not None:
                grid = topo()[0]
    if grid is None:
        raise ValueError(
            "torus collective needs a rank grid: pass grid=, attach a "
            "CollectivePolicy with one, or use a torus network model"
        )
    grid = tuple(int(d) for d in grid)
    if any(d < 1 for d in grid):
        raise ValueError(f"all grid dims must be >= 1: {grid}")
    if math.prod(grid) != ctx.size:
        raise ValueError(
            f"grid {grid} covers {math.prod(grid)} ranks, "
            f"communicator has {ctx.size}"
        )
    return grid


def _grid_line(rank: int, dim: int, grid: tuple[int, ...]) -> tuple[range, int, int]:
    """``(line, pos, stride)``: the absolute ranks along grid dimension
    ``dim`` through ``rank``, indexed by position on that dimension; this
    rank's position; and the dimension's stride.  The grid is row-major,
    so a line is an arithmetic progression and ``rank % stride`` encodes
    the coordinates on every dimension > ``dim``."""
    stride = math.prod(grid[dim + 1 :])
    pos = rank // stride % grid[dim]
    first = rank - pos * stride
    return range(first, first + grid[dim] * stride, stride), pos, stride


def _torus_bcast_impl(
    ctx: RankCtx, value: Any, root: int, grid: tuple[int, ...]
) -> Generator:
    """Dimension-ordered broadcast: stage d fans the value out along
    grid dimension d.

    Invariant: before stage d, the holders are exactly the ranks that
    match the root's coordinates on every dimension >= d.  Stage d's
    participants are the ranks matching the root on every dimension
    > d; each of their dim-d lines contains exactly one holder (the rank
    that additionally matches on dim d), which acts as that line's root.
    After the last stage every rank holds the value.
    """
    val = value if ctx.rank == root else None
    for d in range(len(grid)):
        # One tag block per stage on EVERY rank — non-participants must
        # stay tag-aligned with participants for later collectives.
        tag = _next_tag(ctx)
        line, pos, stride = _grid_line(ctx.rank, d, grid)
        if grid[d] > 1 and ctx.rank % stride == root % stride:
            root_pos = root // stride % grid[d]
            val = yield from _tree_sweep(ctx, val, tag, line, pos, root_pos)
    return val


def torus_bcast(
    ctx: RankCtx,
    value: Any = None,
    root: int = 0,
    grid: tuple[int, ...] | None = None,
) -> Generator:
    """Torus-dimension-pipelined broadcast; returns the root's value on
    every rank.  ``grid`` defaults to the communicator's partition grid
    (see :func:`_resolve_grid`)."""
    _record(ctx, "torus_bcast", root)
    stats, t0 = _coll_begin(ctx)
    result = yield from _torus_bcast_impl(ctx, value, root, _resolve_grid(ctx, grid))
    _coll_end(ctx, stats, "bcast", "torus", t0)
    return result


def torus_allreduce(
    ctx: RankCtx,
    value: Any,
    op: ReduceOp = SUM,
    grid: tuple[int, ...] | None = None,
) -> Generator:
    """Torus-dimension-pipelined allreduce; every rank returns the full
    reduction.  ``grid`` defaults to the communicator's partition grid."""
    _record(ctx, "torus_allreduce")
    result = yield from _allreduce(ctx, value, op, "torus", grid)
    return result


def gather(ctx: RankCtx, value: Any, root: int = 0) -> Generator:
    """Binomial-tree gather; root returns the rank-ordered list, others None.

    A reduce whose operator is dict union: each subtree accumulates
    ``{relative rank: value}`` on the way up the tree."""
    _record(ctx, "gather", root)
    size = ctx.size
    acc = yield from _sweep(ctx, {(ctx.rank - root) % size: value}, root, operator.or_)
    if acc is None:
        return None
    return [acc[(r - root) % size] for r in range(size)]


def scatter(ctx: RankCtx, values: list[Any] | None, root: int = 0) -> Generator:
    """Binomial-tree scatter of ``values[r]`` to rank ``r``.

    Only the root's ``values`` list is read; it must have ``size`` items.
    """
    _record(ctx, "scatter", root)
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    rel = (rank - root) % size
    recv_from, send_to = _tree_steps(size)[0][rel]
    if rank == root:
        if values is None or len(values) != size:
            raise ValueError(
                f"scatter root needs exactly {size} values, got "
                f"{None if values is None else len(values)}"
            )
        bundle = {(r - root) % size: v for r, v in enumerate(values)}
    for peer in recv_from:
        msg = yield from ctx.recv(source=(peer + root) % size, tag=tag)
        bundle = msg.payload
    for peer in send_to:
        # Children come in descending order, so what is still held from
        # ``peer`` upward is exactly that child's subtree.
        sub = {k: v for k, v in bundle.items() if k >= peer}
        bundle = {k: v for k, v in bundle.items() if k < peer}
        yield from ctx.send((peer + root) % size, sub, tag=tag)
    return bundle[rel]


def allgather(ctx: RankCtx, value: Any) -> Generator:
    """Gather to rank 0 then broadcast the list (simple, log-depth x2)."""
    _record(ctx, "allgather")
    gathered = yield from gather(ctx, value, root=0)
    result = yield from bcast(ctx, gathered, root=0)
    return result


def barrier(ctx: RankCtx) -> Generator:
    """Synchronize all ranks (zero-byte allreduce)."""
    _record(ctx, "barrier")
    yield from allreduce(ctx, 0, SUM)
    # A zero-length timeout keeps single-rank barriers well-formed
    # (every collective must yield at least once to be a generator).
    yield Timeout(0.0)
    return None
