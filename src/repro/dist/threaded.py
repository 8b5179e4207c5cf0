"""Distributed Hessian-free training on real threads (real math).

This backend runs the *actual* Algorithm-1 optimizer on rank 0 while
worker ranks hold utterance shards and answer gradient / curvature /
held-out requests — the full master/worker protocol of Section IV with
genuine data parallelism (numpy's GEMMs release the GIL, so worker
compute overlaps on multicore hosts).

The master-side :class:`MasterSource` implements
:class:`~repro.hf.types.HFDataSource`, so the optimizer code is the
*same object* that runs serially; the parity tests (paper: "no loss in
accuracy") compare its trajectory against the serial sources at
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dist.partition import Assignment, balanced_partition
from repro.dist.protocol import (
    CMD_CURV,
    CMD_CURV_SETUP,
    CMD_GRADIENT,
    CMD_HELDOUT,
    CMD_STOP,
    FrameShard,
    SequenceShard,
    global_frame_sample,
    global_utterance_sample,
    sample_size,
)
from repro.hf.optimizer import HessianFreeOptimizer
from repro.hf.types import HFConfig, HFResult
from repro.nn.gauss_newton import GaussNewtonOperator
from repro.nn.losses import Loss, UtteranceSpan
from repro.nn.network import DNN
from repro.util.logging import RunLog
from repro.vmpi.inprocess import ThreadRankComm, run_threaded

__all__ = ["MasterSource", "worker_loop", "make_frame_shards", "make_sequence_shards", "train_threaded_hf"]


@dataclass
class MasterSource:
    """Master-side HFDataSource that fans work out over a communicator."""

    comm: ThreadRankComm
    total_train_frames: int
    total_heldout_frames: int
    curvature_fraction: float
    curvature_total: int
    """Sampling universe size: total frames (CE) or utterances (MMI)."""
    seed: int

    def _collect(self) -> list:
        parts = self.comm.gather(None, root=0)
        assert parts is not None
        return parts[1:]  # drop the master's own placeholder

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Broadcast theta, sum worker loss/gradient shards."""
        self.comm.bcast((CMD_GRADIENT, theta), root=0)
        loss_sum = 0.0
        grad = np.zeros_like(theta)
        frames = 0
        for part_loss, part_grad, part_n in self._collect():
            loss_sum += part_loss
            grad += part_grad
            frames += part_n
        if frames != self.total_train_frames:
            raise RuntimeError(
                f"workers reported {frames} frames, expected "
                f"{self.total_train_frames} — shard assignment is broken"
            )
        return loss_sum, grad, frames

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Distributed damped Gauss-Newton operator: each apply fans a
        vector out to workers and sums their curvature products."""
        self.comm.bcast((CMD_CURV_SETUP, theta, sample_seed), root=0)
        k = sample_size(self.curvature_total, self.curvature_fraction)
        setup = self._collect()  # workers ack with their sampled frame counts
        sampled_frames = sum(setup)

        def op(v: np.ndarray) -> np.ndarray:
            self.comm.bcast((CMD_CURV, v), root=0)
            gv = np.zeros_like(v)
            for part in self._collect():
                gv += part
            return gv / max(sampled_frames, 1) + lam * v

        op.sample_frames = sampled_frames  # type: ignore[attr-defined]
        op.sample_units = k  # type: ignore[attr-defined]
        return op

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """Broadcast theta, sum worker held-out loss shards."""
        self.comm.bcast((CMD_HELDOUT, theta), root=0)
        loss_sum = 0.0
        frames = 0
        for part_loss, part_n in self._collect():
            loss_sum += part_loss
            frames += part_n
        return loss_sum, frames

    def stop(self) -> None:
        self.comm.bcast((CMD_STOP,), root=0)


def worker_loop(
    comm: ThreadRankComm,
    net: DNN,
    loss: Loss,
    shard: FrameShard | SequenceShard,
    curvature_fraction: float,
    curvature_total: int,
    seed: int,
) -> int:
    """Serve master commands until ``stop``; returns commands served."""
    op: GaussNewtonOperator | None = None
    served = 0
    while True:
        cmd = comm.bcast(None, root=0)
        served += 1
        kind = cmd[0]
        if kind == CMD_STOP:
            return served
        if kind == CMD_GRADIENT:
            theta = cmd[1]
            value, grad, n = _shard_gradient(net, loss, shard, theta)
            comm.gather((value, grad, n), root=0)
        elif kind == CMD_CURV_SETUP:
            theta, sample_seed = cmd[1], cmd[2]
            op, n_sampled = _shard_curvature_setup(
                net, loss, shard, theta, curvature_fraction, curvature_total,
                seed, sample_seed,
            )
            comm.gather(n_sampled, root=0)
        elif kind == CMD_CURV:
            v = cmd[1]
            gv = op(v) if op is not None else np.zeros_like(v)
            comm.gather(gv, root=0)
        elif kind == CMD_HELDOUT:
            theta = cmd[1]
            value, n = _shard_heldout(net, loss, shard, theta)
            comm.gather((value, n), root=0)
        else:
            raise ValueError(f"unknown command {kind!r}")


# -------------------------------------------------------------- shard math
def _shard_gradient(net, loss, shard, theta):
    if isinstance(shard, FrameShard):
        if shard.n_frames == 0:
            return 0.0, np.zeros_like(theta), 0
        value, grad = net.loss_and_grad(theta, shard.x, loss, shard.targets)
        return value, grad, shard.n_frames
    from repro.nn.losses import SequenceBatchTargets

    if not shard.spans:
        return 0.0, np.zeros_like(theta), 0
    targets = SequenceBatchTargets(tuple(shard.spans))
    value, grad = net.loss_and_grad(theta, shard.x, loss, targets)
    return value, grad, shard.n_frames


def _shard_curvature_setup(
    net, loss, shard, theta, fraction, total, base_seed, sample_seed
):
    """Build this worker's raw (unnormalized, undamped) G-product op."""
    if isinstance(shard, FrameShard):
        sample = global_frame_sample(total, fraction, base_seed, sample_seed)
        rows = shard.sample_rows(sample)
        if rows.size == 0:
            return None, 0
        op = GaussNewtonOperator(
            net=net,
            theta=theta,
            x=shard.x[rows],
            loss=loss,
            targets=np.asarray(shard.targets)[rows],
            lam=0.0,
            normalizer=1.0,
        )
        return op, int(rows.size)
    sample = global_utterance_sample(total, fraction, base_seed, sample_seed)
    batch = shard.sample_batch(sample)
    if batch is None:
        return None, 0
    xb, tb = batch
    op = GaussNewtonOperator(
        net=net, theta=theta, x=xb, loss=loss, targets=tb, lam=0.0, normalizer=1.0
    )
    return op, tb.n_frames


def _shard_heldout(net, loss, shard, theta):
    if isinstance(shard, FrameShard):
        if shard.heldout_x.shape[0] == 0:
            return 0.0, 0
        value, _ = net.loss_and_grad(
            theta, shard.heldout_x, loss, shard.heldout_targets
        )
        return value, shard.heldout_x.shape[0]
    from repro.nn.losses import SequenceBatchTargets

    if not shard.heldout_spans:
        return 0.0, 0
    targets = SequenceBatchTargets(tuple(shard.heldout_spans))
    value, _ = net.loss_and_grad(theta, shard.heldout_x, loss, targets)
    return value, shard.heldout_x.shape[0]


# ----------------------------------------------------------- shard builders
def make_frame_shards(
    x: np.ndarray,
    targets: np.ndarray,
    heldout_x: np.ndarray,
    heldout_targets: np.ndarray,
    utt_lengths: Sequence[int],
    n_workers: int,
    partitioner: Callable[[Sequence[int], int], Assignment] = balanced_partition,
) -> list[FrameShard]:
    """Split concatenated frame data into per-worker shards by utterance.

    ``utt_lengths`` must tile ``x`` exactly; held-out frames are split
    contiguously (held-out balance matters less — it is evaluated, not
    differentiated, and it is small).
    """
    if np.sum(utt_lengths) != x.shape[0]:
        raise ValueError(
            f"utterance lengths sum to {np.sum(utt_lengths)}, x has {x.shape[0]} frames"
        )
    order, bounds = partitioner(utt_lengths, n_workers).grouped()
    lengths = np.asarray(utt_lengths, dtype=np.int64)
    # every frame index, utterances in worker order: a worker's are one slice
    by_worker = lengths[order]
    ends = np.cumsum(by_worker)
    first_frame = (np.cumsum(lengths) - lengths)[order]
    frame_ids = np.arange(x.shape[0]) + np.repeat(first_frame - (ends - by_worker), by_worker)
    cuts = np.concatenate([[0], ends])[bounds]
    h_bounds = np.linspace(0, heldout_x.shape[0], n_workers + 1).astype(int)
    shards = []
    for w in range(n_workers):
        ids = frame_ids[cuts[w] : cuts[w + 1]]
        shards.append(
            FrameShard(
                x=x[ids],
                targets=np.asarray(targets)[ids],
                global_ids=ids,
                heldout_x=heldout_x[h_bounds[w] : h_bounds[w + 1]],
                heldout_targets=np.asarray(heldout_targets)[
                    h_bounds[w] : h_bounds[w + 1]
                ],
            )
        )
    return shards


def _gather_utterances(
    x: np.ndarray, spans: Sequence[UtteranceSpan], utts: np.ndarray
) -> tuple[np.ndarray, list[UtteranceSpan]]:
    """Frames of utterances ``utts`` concatenated, spans rebased onto them."""
    pieces, rebased = [], []
    pos = 0
    for u in utts.tolist():
        s = spans[u]
        pieces.append(x[s.start : s.end])
        length = s.end - s.start
        rebased.append(UtteranceSpan(pos, pos + length, s.states))
        pos += length
    gathered = np.concatenate(pieces, axis=0) if pieces else np.empty((0, x.shape[1]))
    return gathered, rebased


def make_sequence_shards(
    x: np.ndarray,
    spans: Sequence[UtteranceSpan],
    heldout_x: np.ndarray,
    heldout_spans: Sequence[UtteranceSpan],
    n_workers: int,
    partitioner: Callable[[Sequence[int], int], Assignment] = balanced_partition,
) -> list[SequenceShard]:
    """Split utterance-structured data into per-worker shards."""
    order, bounds = partitioner([s.end - s.start for s in spans], n_workers).grouped()
    if len(heldout_spans) >= n_workers:
        h_order, h_bounds = partitioner(
            [s.end - s.start for s in heldout_spans], n_workers
        ).grouped()
    else:  # too few to spread: worker 0 evaluates them all
        h_order = np.arange(len(heldout_spans))
        h_bounds = np.r_[0, np.full(n_workers, len(heldout_spans))]
    shards = []
    for w in range(n_workers):
        utts = order[bounds[w] : bounds[w + 1]]
        sx, rebased = _gather_utterances(x, spans, utts)
        hx, h_rebased = _gather_utterances(
            heldout_x, heldout_spans, h_order[h_bounds[w] : h_bounds[w + 1]]
        )
        shards.append(
            SequenceShard(
                x=sx,
                spans=rebased,
                global_utt_ids=utts,
                heldout_x=hx,
                heldout_spans=h_rebased,
            )
        )
    return shards


# ------------------------------------------------------------- entry point
def train_threaded_hf(
    net: DNN,
    loss: Loss,
    shards: list[FrameShard] | list[SequenceShard],
    theta0: np.ndarray,
    config: HFConfig,
    curvature_fraction: float = 0.02,
    seed: int = 0,
    log: RunLog | None = None,
    timeout: float = 600.0,
) -> HFResult:
    """Run distributed HF: 1 master + ``len(shards)`` workers on threads."""
    n_workers = len(shards)
    if n_workers < 1:
        raise ValueError("need at least one worker shard")
    total_train = sum(s.n_frames for s in shards)
    total_heldout = sum(
        s.heldout_x.shape[0] for s in shards
    )
    if isinstance(shards[0], FrameShard):
        curvature_total = total_train
    else:
        curvature_total = sum(len(s.spans) for s in shards)

    def master_program(comm: ThreadRankComm) -> HFResult:
        source = MasterSource(
            comm=comm,
            total_train_frames=total_train,
            total_heldout_frames=total_heldout,
            curvature_fraction=curvature_fraction,
            curvature_total=curvature_total,
            seed=seed,
        )
        opt = HessianFreeOptimizer(source, config, log=log)
        try:
            return opt.run(theta0)
        finally:
            source.stop()

    def make_worker(shard):
        def program(comm: ThreadRankComm) -> int:
            return worker_loop(
                comm, net, loss, shard, curvature_fraction, curvature_total, seed
            )

        return program

    programs = [master_program] + [make_worker(s) for s in shards]
    results = run_threaded(n_workers + 1, programs, timeout=timeout)
    return results[0]
