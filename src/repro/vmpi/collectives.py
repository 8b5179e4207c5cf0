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
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.sim.engine import Timeout
from repro.vmpi.comm import RankCtx
from repro.vmpi.ops import SUM, CONCAT, ReduceOp

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


def _next_tag(ctx: RankCtx) -> int:
    seq = ctx._coll_seq
    ctx._coll_seq = seq + 1
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


def _record(ctx: RankCtx, operation: str) -> None:
    """Ledger hook: note that this rank entered a public collective.

    Recording happens *before* any message traffic, so a schedule
    divergence (rank 0 in ``bcast`` while rank 1 is in ``barrier``) is
    caught by the communicator's
    :class:`~repro.analysis.runtime.CollectiveOrderChecker` the moment
    the second rank arrives — long before the mismatch could drain the
    event queue into an opaque deadlock.  Nested collectives (``barrier``
    -> ``allreduce``) record on every rank identically, so composition
    stays divergence-free.
    """
    checker = ctx.comm.collective_checker
    if checker is not None:
        checker.record(ctx.rank, operation)


_LEVELS_CACHE: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}


def binomial_levels(size: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Edge schedule of the root-0 binomial tree over ``size`` ranks.

    Returns ``[(mask, leaves, parents), ...]`` in ascending ``mask``
    order, where at level ``mask`` the edges connect ``leaves[i]``
    (ranks whose lowest set bit is ``mask``) with ``parents[i] =
    leaves[i] - mask``.  Ascending order is exactly the up-sweep of
    :func:`reduce`'s ``_reduce_once`` (each rank sends at the level of
    its lowest set bit); the reversed list is the down-sweep of
    :func:`bcast`'s ``_bcast_once`` (each parent sends to its children
    in descending-mask order).  The vectorized SPMD executor
    (`repro.dist.vectorized`) replays whole levels as array operations
    against this schedule instead of stepping ``size`` generators.

    Any ``size >= 1`` works.  Off a power of two the upper levels are
    simply shorter: ``arange(mask, size, 2 * mask)`` stops at the last
    rank that exists, which is the ``src_rel < size`` test of
    ``_reduce_once`` and the ``rel + mask < size`` test of
    ``_bcast_once`` — the remainder branches of the scalar algorithms.
    """
    levels = _LEVELS_CACHE.get(size)
    if levels is None:
        if size < 1:
            raise ValueError(f"binomial_levels needs size >= 1, got {size}")
        levels = []
        mask = 1
        while mask < size:
            leaves = np.arange(mask, size, 2 * mask, dtype=np.int64)
            levels.append((mask, leaves, leaves - mask))
            mask <<= 1
        _LEVELS_CACHE[size] = levels
    return levels


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
    _record(ctx, "bcast")
    stats, t0 = _coll_begin(ctx)
    name = "binomial" if algo is None else str(algo)
    if name == "auto":
        policy = _require_policy(ctx)
        header = ctx.comm.sizer(value) if ctx.rank == root else None
        header = yield from _bcast_once(ctx, header, root)
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


def _binomial_bcast(
    ctx: RankCtx, value: Any, root: int, segment_bytes: int | None
) -> Generator:
    """Binomial-tree broadcast, optionally segment-pipelined."""
    from repro.vmpi.costmodel import PayloadStub

    if segment_bytes is not None and segment_bytes > 0:
        # Every rank must agree on the segment count, which depends on the
        # root's payload size — ship it in a tiny header bcast first.
        nbytes = value.nbytes if isinstance(value, PayloadStub) else None
        header = yield from _bcast_once(ctx, nbytes, root)
        if header is not None and header > segment_bytes:
            nseg = -(-header // segment_bytes)
            sizes = [segment_bytes] * (nseg - 1) + [
                header - segment_bytes * (nseg - 1)
            ]
            for s in sizes:
                yield from _bcast_once(ctx, PayloadStub(s, "segment"), root)
            return PayloadStub(header, "bcast")
        # small or non-stub payload: fall through to one-shot
        result = yield from _bcast_once(ctx, value, root)
        return result
    result = yield from _bcast_once(ctx, value, root)
    return result


def _fast_p2p(ctx: RankCtx) -> bool:
    """True when the frame-skipping :meth:`RankCtx.post` /
    :meth:`RankCtx.recv_cmd` helpers are observationally identical to
    :meth:`RankCtx.send` / :meth:`RankCtx.recv`: no default recv timeout
    to wrap and no p2p trace spans to record.  The tree collectives move
    one message per rank per level, so the saved generator frames are
    the bulk of their simulation cost."""
    comm = ctx.comm
    return comm.recv_timeout is None and not (
        comm.trace_p2p and comm.tracer is not None
    )


def _bcast_once(ctx: RankCtx, value: Any, root: int) -> Generator:
    """Single-shot binomial-tree broadcast."""
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return value
    fast = _fast_p2p(ctx)
    rel = (rank - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            src = (rel - mask + root) % size
            if fast:
                msg = yield ctx.recv_cmd(src, tag)
            else:
                msg = yield from ctx.recv(source=src, tag=tag)
            value = msg.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < size:
            dst = (rel + mask + root) % size
            if fast:
                inj = ctx.post(dst, value, tag=tag)
                if inj > 0:
                    yield inj
            else:
                yield from ctx.send(dst, value, tag=tag)
        mask >>= 1
    return value


def serial_bcast(ctx: RankCtx, value: Any = None, root: int = 0) -> Generator:
    """Root sends to every rank one at a time.

    This is what a hand-rolled socket layer does (the paper's *before*
    state); cost is O(P) at the root instead of O(log P) — the COMM
    ablation benchmark contrasts the two.
    """
    _record(ctx, "serial_bcast")
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
    from repro.vmpi.costmodel import PayloadStub

    _record(ctx, "reduce")
    stats, t0 = _coll_begin(ctx)
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
        if name == "ring":
            result = yield from _ring_allreduce_impl(ctx, value, op)
        elif name == "rabenseifner":
            result = yield from _rabenseifner_impl(ctx, value, op)
        elif name == "recursive_doubling":
            result = yield from _recursive_doubling_impl(ctx, value, op)
        elif name == "torus":
            result = yield from _torus_allreduce_impl(
                ctx, value, op, _resolve_grid(ctx, None)
            )
        else:
            raise ValueError(f"unknown reduce algo {name!r}")
        _coll_end(ctx, stats, "reduce", name, t0)
        return result if ctx.rank == root else None
    if (
        segment_bytes is not None
        and segment_bytes > 0
        and isinstance(value, PayloadStub)
        and value.nbytes > segment_bytes
    ):
        total = value.nbytes
        nseg = -(-total // segment_bytes)
        sizes = [segment_bytes] * (nseg - 1) + [total - segment_bytes * (nseg - 1)]
        out = None
        for s in sizes:
            out = yield from _reduce_once(ctx, PayloadStub(s, "segment"), op, root)
        _coll_end(ctx, stats, "reduce", "binomial", t0)
        if ctx.rank == root:
            return PayloadStub(total, "reduced")
        return None
    result = yield from _reduce_once(ctx, value, op, root)
    _coll_end(ctx, stats, "reduce", "binomial", t0)
    return result


def _reduce_once(
    ctx: RankCtx, value: Any, op: ReduceOp = SUM, root: int = 0
) -> Generator:
    """Single-shot binomial-tree reduction."""
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return value
    fast = _fast_p2p(ctx)
    rel = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if rel & mask == 0:
            src_rel = rel | mask
            if src_rel < size:
                src = (src_rel + root) % size
                if fast:
                    msg = yield ctx.recv_cmd(src, tag)
                else:
                    msg = yield from ctx.recv(source=src, tag=tag)
                acc = op(acc, msg.payload)
        else:
            dst = ((rel & ~mask) + root) % size
            if fast:
                inj = ctx.post(dst, acc, tag=tag)
                if inj > 0:
                    yield inj
                return None
            yield from ctx.send(dst, acc, tag=tag)
            return None
        mask <<= 1
    return acc if rank == root else None


def ordered_reduce(
    ctx: RankCtx, value: Any, op: ReduceOp = SUM, root: int = 0
) -> Generator:
    """Gather-then-fold reduction: root combines contributions in rank
    order, so float sums are bitwise identical to a serial loop over
    ranks.  Used by parity experiments; costs O(P) messages at the root.
    """
    _record(ctx, "ordered_reduce")
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
    stats, t0 = _coll_begin(ctx)
    name = "recursive_doubling" if algo is None else str(algo)
    if name == "auto":
        policy = _require_policy(ctx)
        name = str(policy.allreduce_choice(ctx.size, ctx.comm.sizer(value))[0])
    if name == "recursive_doubling":
        result = yield from _recursive_doubling_impl(ctx, value, op)
    elif name == "ring":
        result = yield from _ring_allreduce_impl(ctx, value, op)
    elif name == "rabenseifner":
        result = yield from _rabenseifner_impl(ctx, value, op)
    elif name == "torus":
        result = yield from _torus_allreduce_impl(ctx, value, op, _resolve_grid(ctx, None))
    else:
        raise ValueError(f"unknown allreduce algo {name!r}")
    _coll_end(ctx, stats, "allreduce", name, t0)
    return result


def _recursive_doubling_impl(ctx: RankCtx, value: Any, op: ReduceOp) -> Generator:
    """Recursive-doubling allreduce (MPICH fold-in for non-power-of-2)."""
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return value
    pof2 = 1 << (size.bit_length() - 1)
    if pof2 == size:
        rem = 0
    else:
        rem = size - pof2
    acc = value
    # Fold the surplus ranks into the power-of-two core.
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from ctx.send(rank + 1, acc, tag=tag)
            newrank = -1
        else:
            msg = yield from ctx.recv(source=rank - 1, tag=tag)
            acc = op(msg.payload, acc)
            newrank = rank // 2
    else:
        newrank = rank - rem
    # Recursive doubling among the core.
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            )
            msg = yield from ctx.sendrecv(
                partner, acc, source=partner, tag=tag + 1
            )
            acc = op(acc, msg.payload)
            mask <<= 1
    # Unfold: push results back to the surplus ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield from ctx.send(rank - 1, acc, tag=tag + 2)
        else:
            msg = yield from ctx.recv(source=rank + 1, tag=tag + 2)
            acc = msg.payload
    return acc


# --------------------------------------------------------------------------
# Chunked-payload helpers shared by the ring / reduce-scatter schedules.
#
# Ring schedules move *pieces* of the vector, so they need to split a
# payload into ``parts`` contiguous chunks and reassemble it.  Two payload
# families are supported: PayloadStub (byte-count bookkeeping; chunk byte
# sizes sum to the original exactly) and numpy arrays (real data; chunks
# are views of the flattened buffer).  Anything else raises TypeError —
# a scalar cannot be meaningfully scattered.
# --------------------------------------------------------------------------


def _chunk_sizes(total: int, parts: int) -> list[int]:
    """``parts`` contiguous chunk sizes summing to ``total`` exactly
    (first ``total % parts`` chunks get the extra unit)."""
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _split_chunks(value: Any, parts: int) -> tuple[list[Any], Any]:
    """Split ``value`` into ``parts`` chunks; returns (chunks, meta) where
    ``meta`` carries what :func:`_join_chunks` needs to reassemble."""
    from repro.vmpi.costmodel import PayloadStub

    if isinstance(value, PayloadStub):
        sizes = _chunk_sizes(value.nbytes, parts)
        return [PayloadStub(s, "chunk") for s in sizes], ("stub", value.nbytes)
    if isinstance(value, np.ndarray):
        flat = np.ascontiguousarray(value).reshape(-1)
        return np.array_split(flat, parts), ("array", value.shape)
    raise TypeError(
        f"ring schedules need a PayloadStub or numpy array payload, "
        f"got {type(value).__name__}"
    )


def _join_chunks(chunks: list[Any], meta: Any, op: ReduceOp) -> Any:
    from repro.vmpi.costmodel import PayloadStub

    kind, detail = meta
    if kind == "stub":
        # integer byte counts: addition is exact, order cannot matter
        total = sum(c.nbytes for c in chunks)  # repro: noqa(DET002)
        assert total == detail, f"chunk bytes {total} != payload bytes {detail}"
        return PayloadStub(total, f"{op.name}-reduced")
    return np.concatenate(chunks).reshape(detail)


def _ring_exchange(
    ctx: RankCtx, dst: int, src: int, payload: Any, tag: int, fast: bool
) -> Generator:
    """One ring step: send ``payload`` to ``dst`` while receiving from
    ``src`` — :meth:`RankCtx.sendrecv` semantics, with the frame-skipping
    post/recv_cmd fast path when it is observationally identical."""
    if not fast:
        msg = yield from ctx.sendrecv(dst, payload, source=src, tag=tag)
        return msg
    comm = ctx.comm
    t0 = comm.engine._now
    inj = ctx.post(dst, payload, tag=tag)
    msg = yield ctx.recv_cmd(src, tag)
    elapsed = comm.engine._now - t0
    if elapsed < inj:
        yield inj - elapsed + 0.0
    return msg


def _ring_reduce_scatter_steps(
    ctx: RankCtx,
    chunks: list[Any],
    op: ReduceOp,
    line: list[int],
    pos: int,
    tag: int,
    fast: bool,
) -> Generator:
    """The s-1 reduce-scatter steps of the ring schedule over ``line``
    (absolute ranks in ring order; this rank sits at ``line[pos]``).
    Afterwards ``chunks[pos]`` holds the fully reduced chunk ``pos``."""
    s = len(line)
    right, left = line[(pos + 1) % s], line[(pos - 1) % s]
    for step in range(s - 1):
        send_idx = (pos - 1 - step) % s
        recv_idx = (pos - 2 - step) % s
        msg = yield from _ring_exchange(ctx, right, left, chunks[send_idx], tag, fast)
        chunks[recv_idx] = op(chunks[recv_idx], msg.payload)


def _ring_allreduce_impl(
    ctx: RankCtx,
    value: Any,
    op: ReduceOp,
    line: list[int] | None = None,
    pos: int | None = None,
) -> Generator:
    """Ring allreduce: reduce-scatter then allgather around the ring.

    2(s-1) steps each moving ~n/s bytes — bandwidth-optimal, with cost
    linear in ring length (the latency the selection policy trades
    against the logarithmic trees).  ``line``/``pos`` restrict the
    schedule to a sub-ring (the torus per-dimension stages); by default
    the ring is the whole communicator in rank order.
    """
    if line is None:
        line = list(range(ctx.size))
        pos = ctx.rank
    assert pos is not None
    s = len(line)
    tag = _next_tag(ctx)
    if s == 1:
        return value
    chunks, meta = _split_chunks(value, s)
    fast = _fast_p2p(ctx)
    yield from _ring_reduce_scatter_steps(ctx, chunks, op, line, pos, tag, fast)
    right, left = line[(pos + 1) % s], line[(pos - 1) % s]
    for step in range(s - 1):
        send_idx = (pos - step) % s
        recv_idx = (pos - 1 - step) % s
        msg = yield from _ring_exchange(
            ctx, right, left, chunks[send_idx], tag + 1, fast
        )
        chunks[recv_idx] = msg.payload
    return _join_chunks(chunks, meta, op)


def ring_allreduce(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Ring allreduce over the whole communicator (see
    :func:`_ring_allreduce_impl`); every rank returns the full reduction."""
    _record(ctx, "ring_allreduce")
    stats, t0 = _coll_begin(ctx)
    result = yield from _ring_allreduce_impl(ctx, value, op)
    _coll_end(ctx, stats, "allreduce", "ring", t0)
    return result


def reduce_scatter(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Ring reduce-scatter: rank r returns the fully reduced chunk r.

    Chunk boundaries follow :func:`_chunk_sizes` — sizes are bit-exact
    (they sum to the payload's total), the contract the allgather half of
    ring allreduce and the bucketed-gradient accounting both rely on.
    """
    _record(ctx, "reduce_scatter")
    stats, t0 = _coll_begin(ctx)
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        _coll_end(ctx, stats, "reduce_scatter", "ring", t0)
        return value
    chunks, _meta = _split_chunks(value, size)
    fast = _fast_p2p(ctx)
    line = list(range(size))
    yield from _ring_reduce_scatter_steps(ctx, chunks, op, line, rank, tag, fast)
    _coll_end(ctx, stats, "reduce_scatter", "ring", t0)
    return chunks[rank]


def _rabenseifner_impl(ctx: RankCtx, value: Any, op: ReduceOp) -> Generator:
    """Rabenseifner allreduce: recursive-halving reduce-scatter then
    recursive-doubling allgather (MPICH fold-in for non-power-of-2).

    Ranks track the (lo, hi) slice of the vector they currently own;
    partners at each level hold identical ranges (they differ only in the
    current mask bit), so both compute the same split point and the
    exchanged halves tile the vector exactly.
    """
    from repro.vmpi.costmodel import PayloadStub

    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return value
    if isinstance(value, PayloadStub):
        total = value.nbytes
        stub_kind = f"{op.name}-reduced"
        buf = None

        def whole() -> Any:
            return PayloadStub(total, stub_kind)

        def extract(lo: int, hi: int) -> Any:
            return PayloadStub(hi - lo, "chunk")

        def fold(lo: int, hi: int, payload: Any) -> None:
            got = payload.nbytes
            if got != hi - lo:
                raise ValueError(
                    f"rabenseifner slice mismatch: got {got} bytes for "
                    f"range [{lo}, {hi})"
                )

        def emplace(lo: int, hi: int, payload: Any) -> None:
            fold(lo, hi, payload)

        def recv_len(payload: Any) -> int:
            return payload.nbytes

    elif isinstance(value, np.ndarray):
        buf = np.ascontiguousarray(value).reshape(-1).copy()
        total = buf.size

        def whole() -> Any:
            return buf.copy()

        def extract(lo: int, hi: int) -> Any:
            return buf[lo:hi].copy()

        def fold(lo: int, hi: int, payload: Any) -> None:
            buf[lo:hi] = op(buf[lo:hi], payload)

        def emplace(lo: int, hi: int, payload: Any) -> None:
            buf[lo:hi] = payload

        def recv_len(payload: Any) -> int:
            return int(payload.size)

    else:
        raise TypeError(
            f"rabenseifner needs a PayloadStub or numpy array payload, "
            f"got {type(value).__name__}"
        )

    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    # Fold the surplus ranks into the power-of-two core.
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from ctx.send(rank + 1, whole(), tag=tag)
            newrank = -1
        else:
            msg = yield from ctx.recv(source=rank - 1, tag=tag)
            fold(0, total, msg.payload)
            newrank = rank // 2
    else:
        newrank = rank - rem

    def real_rank(nr: int) -> int:
        return nr * 2 + 1 if nr < rem else nr + rem

    if newrank != -1:
        lo, hi = 0, total
        mask = 1
        while mask < pof2:
            partner = real_rank(newrank ^ mask)
            mid = lo + (hi - lo) // 2
            if newrank & mask:
                keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
            else:
                keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
            msg = yield from ctx.sendrecv(
                partner, extract(send_lo, send_hi), source=partner, tag=tag + 1
            )
            fold(keep_lo, keep_hi, msg.payload)
            lo, hi = keep_lo, keep_hi
            mask <<= 1
        # Recursive-doubling allgather, reversing the halving order: the
        # partner at each level owns the sibling half, adjacent to ours.
        mask = pof2 >> 1
        while mask > 0:
            partner = real_rank(newrank ^ mask)
            msg = yield from ctx.sendrecv(
                partner, extract(lo, hi), source=partner, tag=tag + 2
            )
            got = recv_len(msg.payload)
            if newrank & mask:
                emplace(lo - got, lo, msg.payload)
                lo -= got
            else:
                emplace(hi, hi + got, msg.payload)
                hi += got
            mask >>= 1
        assert (lo, hi) == (0, total)
    # Unfold: push results back to the surplus ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield from ctx.send(rank - 1, whole(), tag=tag + 3)
        else:
            msg = yield from ctx.recv(source=rank + 1, tag=tag + 3)
            if buf is None:
                return msg.payload
            return np.asarray(msg.payload).reshape(np.shape(value))
    if buf is None:
        return whole()
    return buf.reshape(np.shape(value))


def rabenseifner_allreduce(ctx: RankCtx, value: Any, op: ReduceOp = SUM) -> Generator:
    """Rabenseifner allreduce (see :func:`_rabenseifner_impl`); every
    rank returns the full reduction."""
    _record(ctx, "rabenseifner_allreduce")
    stats, t0 = _coll_begin(ctx)
    result = yield from _rabenseifner_impl(ctx, value, op)
    _coll_end(ctx, stats, "allreduce", "rabenseifner", t0)
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


def _grid_prod(grid: tuple[int, ...]) -> int:
    n = 1
    for d in grid:
        n *= d
    return n


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
    if _grid_prod(grid) != ctx.size:
        raise ValueError(
            f"grid {grid} covers {_grid_prod(grid)} ranks, "
            f"communicator has {ctx.size}"
        )
    return grid


def _grid_coords(rank: int, grid: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    rem = rank
    for d in reversed(grid):
        out.append(rem % d)
        rem //= d
    return tuple(reversed(out))


def _grid_line(
    coords: tuple[int, ...], dim: int, grid: tuple[int, ...]
) -> list[int]:
    """Absolute ranks along grid dimension ``dim`` through ``coords``,
    indexed by position on that dimension."""
    line = []
    for i in range(grid[dim]):
        c = coords[:dim] + (i,) + coords[dim + 1 :]
        idx = 0
        for x, d in zip(c, grid):
            idx = idx * d + x
        line.append(idx)
    return line


def _line_bcast(
    ctx: RankCtx,
    value: Any,
    line: list[int],
    pos: int,
    root_pos: int,
    tag: int,
) -> Generator:
    """Binomial-tree broadcast along one grid line."""
    s = len(line)
    fast = _fast_p2p(ctx)
    rel = (pos - root_pos) % s
    mask = 1
    while mask < s:
        if rel & mask:
            src = line[(rel - mask + root_pos) % s]
            if fast:
                msg = yield ctx.recv_cmd(src, tag)
            else:
                msg = yield from ctx.recv(source=src, tag=tag)
            value = msg.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < s:
            dst = line[(rel + mask + root_pos) % s]
            if fast:
                inj = ctx.post(dst, value, tag=tag)
                if inj > 0:
                    yield inj
            else:
                yield from ctx.send(dst, value, tag=tag)
        mask >>= 1
    return value


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
    ndim = len(grid)
    coords = _grid_coords(ctx.rank, grid)
    root_coords = _grid_coords(root, grid)
    val = value if ctx.rank == root else None
    for d in range(ndim):
        # One tag block per stage on EVERY rank — non-participants must
        # stay tag-aligned with participants for later collectives.
        tag = _next_tag(ctx)
        if grid[d] == 1:
            continue
        if any(coords[j] != root_coords[j] for j in range(d + 1, ndim)):
            continue
        line = _grid_line(coords, d, grid)
        val = yield from _line_bcast(
            ctx, val, line, coords[d], root_coords[d], tag
        )
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
    _record(ctx, "torus_bcast")
    stats, t0 = _coll_begin(ctx)
    result = yield from _torus_bcast_impl(ctx, value, root, _resolve_grid(ctx, grid))
    _coll_end(ctx, stats, "bcast", "torus", t0)
    return result


def _torus_allreduce_impl(
    ctx: RankCtx, value: Any, op: ReduceOp, grid: tuple[int, ...]
) -> Generator:
    """Per-dimension ring allreduce: after stage d every rank holds the
    reduction over all ranks agreeing with it on dimensions > d, so after
    the last stage every rank holds the global reduction."""
    ndim = len(grid)
    coords = _grid_coords(ctx.rank, grid)
    acc = value
    for d in range(ndim):
        if grid[d] == 1:
            continue
        # Every rank participates in every stage (each sits on exactly
        # one dim-d line), and the ring impl allocates its own tag block,
        # so tag sequences stay aligned without a stage-level tag here.
        line = _grid_line(coords, d, grid)
        acc = yield from _ring_allreduce_impl(
            ctx, acc, op, line=line, pos=coords[d]
        )
    return acc


def torus_allreduce(
    ctx: RankCtx,
    value: Any,
    op: ReduceOp = SUM,
    grid: tuple[int, ...] | None = None,
) -> Generator:
    """Torus-dimension-pipelined allreduce; every rank returns the full
    reduction.  ``grid`` defaults to the communicator's partition grid."""
    _record(ctx, "torus_allreduce")
    stats, t0 = _coll_begin(ctx)
    result = yield from _torus_allreduce_impl(ctx, value, op, _resolve_grid(ctx, grid))
    _coll_end(ctx, stats, "allreduce", "torus", t0)
    return result


def gather(ctx: RankCtx, value: Any, root: int = 0) -> Generator:
    """Binomial-tree gather; root returns the rank-ordered list, others None."""
    _record(ctx, "gather")
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        return [value]
    rel = (rank - root) % size
    # Each subtree accumulates {relrank: value}; dicts merge up the tree.
    acc: dict[int, Any] = {rel: value}
    mask = 1
    while mask < size:
        if rel & mask == 0:
            src_rel = rel | mask
            if src_rel < size:
                src = (src_rel + root) % size
                msg = yield from ctx.recv(source=src, tag=tag)
                acc.update(msg.payload)
        else:
            dst = ((rel & ~mask) + root) % size
            yield from ctx.send(dst, acc, tag=tag)
            return None
        mask <<= 1
    if rank != root:
        return None
    return [acc[(r - root) % size] for r in _rank_order(size, root)]


def _rank_order(size: int, root: int) -> list[int]:
    """Absolute ranks in gather output order (0..size-1)."""
    return list(range(size))


def scatter(ctx: RankCtx, values: list[Any] | None, root: int = 0) -> Generator:
    """Binomial-tree scatter of ``values[r]`` to rank ``r``.

    Only the root's ``values`` list is read; it must have ``size`` items.
    """
    _record(ctx, "scatter")
    size, rank = ctx.size, ctx.rank
    tag = _next_tag(ctx)
    if size == 1:
        if values is None or len(values) != 1:
            raise ValueError("scatter root needs exactly `size` values")
        return values[0]
    rel = (rank - root) % size
    if rank == root:
        if values is None or len(values) != size:
            raise ValueError(
                f"scatter root needs exactly {size} values, got "
                f"{None if values is None else len(values)}"
            )
        bundle = {(r - root) % size: v for r, v in enumerate(values)}
    else:
        bundle = None
    mask = 1
    while mask < size:
        if rel & mask:
            src = (rel - mask + root) % size
            msg = yield from ctx.recv(source=src, tag=tag)
            bundle = msg.payload
            break
        mask <<= 1
    mask >>= 1
    assert bundle is not None
    while mask > 0:
        if rel + mask < size:
            dst = (rel + mask + root) % size
            lo = rel + mask
            sub = {k: v for k, v in bundle.items() if k >= lo}
            bundle = {k: v for k, v in bundle.items() if k < lo}
            yield from ctx.send(dst, sub, tag=tag)
        mask >>= 1
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
