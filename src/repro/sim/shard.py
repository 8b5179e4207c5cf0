"""Sharded execution of the vectorized SPMD kernel across OS processes.

:class:`ShardPool` partitions the rank vector of a
:class:`repro.dist.vectorized._VectorRun` into ``shards`` contiguous
blocks — contiguous ranks are contiguous nodes on the torus
(``node = rank // ranks_per_node``), so each block is a torus
sub-partition — and executes the block-local portion of every kernel
operation in a dedicated forked worker process.  The per-rank clock and
wire-busy vectors live in shared memory; workers mutate disjoint slices,
so the run is bit-identical to the single-process inline backend (and to
the scalar per-generator scheduler) by construction: every array element
is written by exactly one process, with exactly the same float
operations in exactly the same order.

Work split (DESIGN.md §6e)
--------------------------
With block size ``S = ranks // shards`` (both powers of two), a binomial
tree level of mask ``m`` is *block-local* iff ``m < S``: a sender at
level ``m`` has ``lowbit(rank) == m``, so ``rank mod S`` also has low
bit ``m`` and the partner ``rank ∓ m`` stays inside the same block.
Workers therefore execute

* the ascending reduce levels ``m = 1 .. S/2`` restricted to their
  block (the ``log2(shards)`` cross-shard levels ``m >= S`` touch only
  the block *root* ranks ``q * S``),
* the descending bcast levels ``m = S/2 .. 1`` (after the cross
  levels),
* their slice of per-worker compute charges and closed-form cost adds.

Conservative protocol (default)
-------------------------------
Synchronization is a conservative time-window protocol realized with
two process barriers per kernel op: the coordinator releases a window,
workers advance their block through everything block-local, and the
window closes before any cross-shard tree level touches boundary state
(the coordinator folds the cross levels itself, outside the window).
The safe lookahead is :func:`repro.vmpi.costmodel.min_cross_latency` —
the minimum latency of any message crossing a shard boundary; whenever
the observed clock spread across shards exceeds it, an optimistic
window of that width would have had to stall, which the coordinator
reports through the ``sim.shard.window_stalls`` counter and the
``sim.shard.window_spread_seconds`` gauge (per-shard op counts land in
``sim.shard.kernel_ops``).

Optimistic protocol (``speculate=True``)
----------------------------------------
The speculative mode removes both barriers: the coordinator publishes a
monotone *grant* count and each worker free-runs through every granted
kernel op.  At an ascending sweep a worker finishes its block-local
levels, publishes its block root's ``(clock, wire-busy)`` state to a
per-shard *export* slot (lock-protected, versioned by a gather epoch),
then **speculates**: it checkpoints its block slice, reads every other
shard's export slot *without waiting*, folds the cross-shard levels
privately over the snapshot, and keeps going — through the descending
cross fold and the block-local down sweep.  Validation happens after
the speculated work: the worker waits until every shard's epoch has
caught up, re-reads the exports under their locks, and compares them
with the optimistic snapshot.  A mismatch is a cross-shard causality
violation — the worker restores the checkpoint, re-folds from the
validated values and redoes the block-local down sweep (counted in
``sim.shard.rollbacks``).  The coordinator's :meth:`ShardPool.drain`
replaces the op barriers: it spins until every worker has committed all
granted ops, so every observable read (collective stats, span bulks,
the phase log) still sees fully-folded state.  Committed values are
bit-identical to the conservative protocol by construction: every
commit is validated against exactly the values the conservative fold
would have read, and the cross fold itself is
``repro.dist.vectorized._level`` — so :func:`~repro.vmpi.costmodel.delivery`
— applied to the gathered root vectors.  Obs surfaces: ``sim.shard.rollbacks`` (validation failures),
``sim.shard.speculated_windows`` (drained grant windows),
``sim.shard.commit_depth`` (ops committed per window — the speculation
depth the two-barrier protocol never exceeds 1 on); in this mode
``sim.shard.window_stalls`` counts only actual rollbacks, the windows
that really had to rewind.
"""

# repro: spmd-vectorized  (module-wide: per-rank work is array ops; see DET004)

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any

import numpy as np

from repro.dist.vectorized import _sweep
from repro.vmpi.costmodel import min_cross_latency

__all__ = ["ShardPool"]

_SPIN_BUDGET = 50_000
"""Lock-free spins an optimistic gather grants a lagging peer before
speculating on its stale export column (see ``optimistic_snapshot``)."""


def _local_sweep(run: Any, cost_idx: int, b0: int, b1: int, up: bool) -> None:
    """Block-local tree levels for the block ``[b0, b1)``: the levels of
    mask ``m < b1 - b0``, over the block's strided views, with the
    block's share of each level's costs — ``_VectorRun.sweep``
    restricted to one block."""
    costs = run.cost_sets[cost_idx]
    busy = run.busy_up if up else run.busy_dn
    levels = range((b1 - b0).bit_length() - 1)
    _sweep(run.cur, busy, costs, run.inj_sets[cost_idx], levels, up, b0, b1)


def _root_sweep(
    run: Any, cost_idx: int, n_local: int, cur: np.ndarray, busy: np.ndarray, up: bool
) -> None:
    """The cross-shard tree levels (masks ``m >= S = 2**n_local``) over
    *root space*: ``cur``/``busy`` hold one entry per shard, the state of
    its block root (rank ``q * S`` -> index ``q``), and level ``m`` of
    the full tree is level ``m // S`` of the roots."""
    costs = run.cost_sets[cost_idx]
    levels = range(n_local, len(costs))
    inj = run.inj_sets[cost_idx]
    _sweep(cur, busy, costs, inj, levels, up, 0, len(cur), shift=n_local)


def _shard_loop(run: Any, b0: int, b1: int, start_b: Any, end_b: Any) -> None:
    """One conservative-mode shard worker: replay the static kernel
    schedule on one block between the coordinator's op barriers."""
    cur = run.cur
    try:
        for op in run.kernel_ops:
            start_b.wait()
            kind = op[0]
            if kind in ("up", "down"):
                _local_sweep(run, op[1], b0, b1, kind == "up")
            elif kind == "add":
                cur[b0:b1] += op[1]
            elif kind == "addv":
                cur[b0:b1] += op[1][b0:b1]
            elif kind == "cw":
                lo = max(b0, 1)
                cur[lo:b1] += run.charges[op[1]][lo - 1 : b1 - 1]
            end_b.wait()
    except threading.BrokenBarrierError:
        return  # coordinator aborted the run; exit quietly


class _Aborted(Exception):
    """Coordinator raised the abort flag mid-validation; exit quietly."""


class _SpecShared:
    """Shared control state for the optimistic protocol (one instance,
    inherited by every worker through fork).

    * ``ctl[0]`` — grant count: ops the coordinator has released;
    * ``ctl[1]`` — abort flag;
    * ``committed[q]`` — ops shard ``q`` has validated and committed;
    * ``epochs[q]`` — shard ``q``'s published gather sequence (bumps
      once per ascending sweep, *after* the export slots are written);
    * ``rollbacks[q]`` — shard ``q``'s validation failures;
    * ``exports[0..2, q]`` — shard ``q``'s block-root ``cur`` /
      ``busy_up`` / ``busy_dn``, valid for gather ``epochs[q]``;
    * ``locks[q]`` — guards ``exports[:, q]`` + ``epochs[q]`` (a lock
      round-trip is a full memory barrier, so a validated read is never
      stale; the *optimistic* reads skip the locks entirely and rely on
      validation to catch what they missed).
    """

    __slots__ = ("ctl", "committed", "epochs", "rollbacks", "exports", "locks")

    def __init__(self, ctx: Any, shards: int) -> None:
        as_i64 = lambda raw: np.frombuffer(raw, dtype=np.int64)  # noqa: E731
        self.ctl = as_i64(ctx.RawArray("q", 2))
        self.committed = as_i64(ctx.RawArray("q", shards))
        self.epochs = as_i64(ctx.RawArray("q", shards))
        self.rollbacks = as_i64(ctx.RawArray("q", shards))
        self.exports = np.frombuffer(
            ctx.RawArray("d", 3 * shards), dtype=np.float64
        ).reshape(3, shards)
        self.locks = [ctx.Lock() for _ in range(shards)]


def _spec_shard_loop(run: Any, q: int, b0: int, b1: int, sh: _SpecShared) -> None:
    """One optimistic-mode shard worker.

    Every worker folds the full cross-shard schedule privately
    (:func:`_root_sweep`) over the same validated inputs, so the one slot
    each writes back (its own root) is consistent across shards.
    """
    cur, busy_up, busy_dn = run.cur, run.busy_up, run.busy_dn
    shards = sh.committed.shape[0]
    n_local = (b1 - b0).bit_length() - 1
    ctl, epochs, exports, locks = sh.ctl, sh.epochs, sh.exports, sh.locks

    def fold_up(ci: int, base: np.ndarray) -> tuple:
        g_cur, g_bup, g_bdn = base[0].copy(), base[1].copy(), base[2].copy()
        _root_sweep(run, ci, n_local, g_cur, g_bup, up=True)
        return g_cur, g_bup, g_bdn

    def fold_down(ci: int, state: tuple) -> None:
        g_cur, _g_bup, g_bdn = state
        _root_sweep(run, ci, n_local, g_cur, g_bdn, up=False)

    def optimistic_snapshot(seq: int) -> np.ndarray:
        """Lock-free gather of the peers' export columns.

        Each column is taken as soon as the peer's (lock-free) epoch
        shows ``seq`` — the peer publishes right after its *local* up
        sweep, long before it commits, so this wait pipelines where the
        barrier protocol would stall for the full window.  A peer still
        lagging past the spin budget gets its stale column taken as-is:
        genuine speculation, near-certain to roll back (root clocks are
        strictly increasing), but bounded — the redo costs less than an
        unbounded spin on a descheduled peer.  Torn or stale reads are
        caught by validation either way."""
        snap = np.empty((3, shards), dtype=np.float64)
        for j in range(shards):
            if j == q:
                continue
            spins = 0
            while epochs[j] < seq and spins < _SPIN_BUDGET:
                if ctl[1]:
                    raise _Aborted
                spins += 1
                time.sleep(0)
            snap[:, j] = exports[:, j]
        return snap

    def validated_exports(seq: int) -> np.ndarray:
        """Block until every shard has published gather ``seq``; return
        the (barrier-fresh) export matrix."""
        good = np.empty((3, shards), dtype=np.float64)
        for j in range(shards):
            while True:
                with locks[j]:
                    if epochs[j] >= seq:
                        good[:, j] = exports[:, j]
                        break
                if ctl[1]:
                    raise _Aborted
                time.sleep(0)
        return good

    def restore(ckpt: tuple) -> None:
        cur[b0:b1] = ckpt[0]
        busy_up[b0:b1] = ckpt[1]
        busy_dn[b0:b1] = ckpt[2]

    # speculation state carried between an up op and its down op
    seq = 0
    root_state: tuple | None = None
    pending: tuple | None = None  # (ci, seq, snap, ckpt)

    def validate_up_only(pend: tuple) -> None:
        """Resolve a pending up-speculation with no down work speculated
        yet; on mismatch, redo just the cross-up fold."""
        nonlocal root_state
        ci, s, snap, ckpt = pend
        good = validated_exports(s)
        if np.array_equal(snap, good):
            return
        sh.rollbacks[q] += 1
        restore(ckpt)
        root_state = fold_up(ci, good)
        cur[b0] = root_state[0][q]
        busy_up[b0] = root_state[1][q]

    try:
        for k, op in enumerate(run.kernel_ops):
            while ctl[0] <= k:
                if ctl[1]:
                    return
                time.sleep(0)
            with locks[q]:
                pass  # fence: order the grant read before shared-state reads
            kind = op[0]
            if kind == "up":
                ci = op[1]
                if pending is not None:  # pragma: no cover - schedule always
                    validate_up_only(pending)  # resolves at the down; defensive
                    pending = None
                _local_sweep(run, ci, b0, b1, up=True)
                seq += 1
                with locks[q]:
                    exports[0, q] = cur[b0]
                    exports[1, q] = busy_up[b0]
                    exports[2, q] = busy_dn[b0]
                    epochs[q] = seq
                ckpt = (
                    cur[b0:b1].copy(),
                    busy_up[b0:b1].copy(),
                    busy_dn[b0:b1].copy(),
                )
                # optimistic: lock-free epoch-aware gather of the peers'
                # exports; our own column is authoritative
                snap = optimistic_snapshot(seq)
                snap[0, q] = cur[b0]
                snap[1, q] = busy_up[b0]
                snap[2, q] = busy_dn[b0]
                root_state = fold_up(ci, snap)
                cur[b0] = root_state[0][q]
                busy_up[b0] = root_state[1][q]
                if ctl[0] > k + 1:
                    # the matching down sweep is already granted — defer
                    # validation past it so the heavy block-local down
                    # overlaps the peers' catching up (the coordinator
                    # can only be draining at or past that later op)
                    pending = (ci, seq, snap, ckpt)
                else:
                    validate_up_only((ci, seq, snap, ckpt))
                    pending = None
            elif kind == "down":
                ci = op[1]
                fold_down(ci, root_state)
                cur[b0] = root_state[0][q]
                busy_dn[b0] = root_state[2][q]
                _local_sweep(run, ci, b0, b1, up=False)
                if pending is not None:
                    p_ci, s, snap, ckpt = pending
                    good = validated_exports(s)
                    if not np.array_equal(snap, good):
                        sh.rollbacks[q] += 1
                        restore(ckpt)
                        root_state = fold_up(p_ci, good)
                        cur[b0] = root_state[0][q]
                        busy_up[b0] = root_state[1][q]
                        fold_down(ci, root_state)
                        cur[b0] = root_state[0][q]
                        busy_dn[b0] = root_state[2][q]
                        _local_sweep(run, ci, b0, b1, up=False)
                    pending = None
            else:
                if pending is not None:  # pragma: no cover - schedule pairs
                    validate_up_only(pending)  # up/down; defensive only
                    pending = None
                if kind == "add":
                    cur[b0:b1] += op[1]
                elif kind == "addv":
                    cur[b0:b1] += op[1][b0:b1]
                elif kind == "cw":
                    lo = max(b0, 1)
                    cur[lo:b1] += run.charges[op[1]][lo - 1 : b1 - 1]
            with locks[q]:  # fence: publish block writes before the commit
                sh.committed[q] = k + 1
    except _Aborted:
        return


class ShardPool:
    """Kernel backend farming block-local work out to forked processes.

    Drop-in for ``_VectorRun``'s inline backend: the coordinator calls
    :meth:`run_op` for each kernel op in schedule order and
    :meth:`drain` before any observable read of the shared state.  With
    the default conservative protocol, two barriers bracket the
    workers' block-local window per op and the coordinator folds the
    cross-shard tree levels outside it (``drain`` is then a no-op —
    every op completes synchronously).  With ``speculate=True`` the
    workers free-run through granted ops on checkpointed optimistic
    windows (module docstring) and ``drain`` blocks until every grant
    is validated and committed.  Must be installed *before*
    :meth:`_VectorRun.execute` and closed afterwards; construction
    rebinds the run's state vectors onto shared memory and forks, so
    the static schedule (cost arrays, compute charges) is
    inherited copy-on-write.
    """

    def __init__(
        self, run: Any, shards: int, obs: Any = None, speculate: bool = False
    ) -> None:
        p = run.p
        if shards < 2 or shards & (shards - 1) or p % shards:
            raise ValueError(
                f"shards must be a power of two >= 2 dividing ranks: "
                f"{shards} shards over {p} ranks"
            )
        if p & (p - 1):
            # "level m is block-local iff m < block size" holds only for
            # power-of-two blocks: 96 ranks in 2 blocks of 48 would put
            # level 16's edge 48 -> 32 across the boundary
            raise ValueError(
                f"sharding needs a power-of-two communicator, got {p} ranks"
            )
        if run.n_chains:
            raise ValueError(
                "a serial-broadcast schedule cannot be sharded: a chain is "
                "one sequential fold on the master with no block-local part"
            )
        if not self.supported():
            raise RuntimeError("sharded execution requires fork-capable multiprocessing")
        self.run = run
        self.shards = shards
        self.speculate = bool(speculate)
        self._block = p // shards
        self._n_local = self._block.bit_length() - 1
        self.lookahead = min_cross_latency(run.network, p, shards)

        ctx = multiprocessing.get_context("fork")
        # Rebind clock + wire-busy state onto shared memory before forking;
        # zero-initialized exactly like the arrays they replace (execute()
        # has not started, so nothing is lost).
        for name in ("cur", "busy_up", "busy_dn"):
            private = getattr(run, name)
            shared = np.frombuffer(
                ctx.RawArray("d", len(private)), dtype=np.float64
            )
            shared[:] = private
            setattr(run, name, shared)

        self._stalls = self._spread = None
        self._rollb = self._spec_windows = self._commit_depth = None
        self._op_counters: list[Any] = []
        if obs is not None:
            self._stalls = obs.counter("sim.shard.window_stalls")
            self._spread = obs.gauge("sim.shard.window_spread_seconds")
            self._op_counters = [
                obs.counter("sim.shard.kernel_ops", shard=q) for q in range(shards)
            ]
            if self.speculate:
                self._rollb = obs.counter("sim.shard.rollbacks")
                self._spec_windows = obs.counter("sim.shard.speculated_windows")
                self._commit_depth = obs.gauge("sim.shard.commit_depth")

        # plain-int mirrors of the speculative counters, maintained with
        # or without a registry (the perf harness reports them per leg)
        self.stat_rollbacks = 0
        self.stat_windows = 0
        self.stat_commit_depth_peak = 0

        self._procs = []
        if self.speculate:
            self._granted = 0
            self._drained = 0
            self._rb_seen = 0
            self._shared = _SpecShared(ctx, shards)
            for q in range(shards):
                b0 = q * self._block
                proc = ctx.Process(
                    target=_spec_shard_loop,
                    args=(run, q, b0, b0 + self._block, self._shared),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            return

        self._start = ctx.Barrier(shards + 1)
        self._end = ctx.Barrier(shards + 1)
        for q in range(shards):
            b0 = q * self._block
            proc = ctx.Process(
                target=_shard_loop,
                args=(run, b0, b0 + self._block, self._start, self._end),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    @staticmethod
    def supported() -> bool:
        """True where fork-based shared-memory workers are available."""
        return hasattr(os, "fork")

    def run_op(self, op: tuple) -> None:
        """Execute one kernel op across the pool (coordinator side)."""
        r = self.run
        kind = op[0]
        if self.speculate:
            # grant-only: workers fold the cross levels themselves; the
            # shared state is observable again after :meth:`drain`
            self._granted += 1
            with self._shared.locks[0]:  # fence: flush coordinator writes
                self._shared.ctl[0] = self._granted
            for c in self._op_counters:
                c.inc()
            return
        if kind == "down":
            r.sweep(op[1], False, lo=self._n_local)
        self._start.wait()
        self._end.wait()
        if kind == "up":
            r.sweep(op[1], True, lo=self._n_local)
        for c in self._op_counters:
            c.inc()
        if self._stalls is not None and kind in ("up", "down"):
            spread = float(r.cur.max() - r.cur.min())
            self._spread.set(spread)
            if spread > self.lookahead:
                self._stalls.inc()

    def drain(self) -> None:
        """Block until every granted op is committed (speculative mode;
        a no-op on the conservative protocol, whose ops are synchronous).

        Folds the window's telemetry: one ``speculated_windows`` tick,
        the window's op count into ``commit_depth``, and any validation
        failures into ``rollbacks`` — and, in this mode, into
        ``window_stalls``, which then counts exactly the windows that
        had to rewind."""
        if not self.speculate or self._granted == self._drained:
            return
        sh = self._shared
        spins = 0
        while not bool((sh.committed >= self._granted).all()):
            spins += 1
            if not spins % 65536 and any(
                not proc.is_alive() for proc in self._procs
            ):  # pragma: no cover - defensive against a crashed worker
                raise RuntimeError("shard worker died mid-window")
            time.sleep(0)
        for lk in sh.locks:
            with lk:
                pass  # fence: order the commit reads before block reads
        depth = self._granted - self._drained
        self._drained = self._granted
        self.stat_windows += 1
        if depth > self.stat_commit_depth_peak:
            self.stat_commit_depth_peak = depth
        rb = int(sh.rollbacks.sum())
        new_rb = rb - self._rb_seen
        self._rb_seen = rb
        self.stat_rollbacks = rb
        if self._spec_windows is not None:
            self._spec_windows.inc()
            self._commit_depth.set(float(depth))
            if new_rb:
                self._rollb.inc(new_rb)
                self._stalls.inc(new_rb)
            self._spread.set(float(self.run.cur.max() - self.run.cur.min()))

    def close(self) -> None:
        """Tear the pool down; safe after both clean and aborted runs."""
        if self.speculate:
            self._shared.ctl[1] = 1
        else:
            self._start.abort()
            self._end.abort()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join(timeout=1.0)
