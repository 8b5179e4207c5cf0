"""Distributed Hessian-free training on real threads (real math).

This backend runs the *actual* Algorithm-1 optimizer on rank 0 while
worker ranks hold utterance shards and answer gradient / curvature /
held-out work — the master/worker protocol of Section IV with genuine
data parallelism (numpy's GEMMs release the GIL, so worker compute
overlaps on multicore hosts).

Workers run the simulator's own :func:`~repro.dist.exchange.
worker_program` over a :class:`~repro.dist.exchange.ThreadExchange`,
with a :class:`ShardWorker` as the compute callback (DESIGN.md §2a).

The master-side :class:`MasterSource` implements
:class:`~repro.hf.types.HFDataSource`, so the optimizer code is the
*same object* that runs serially; the parity tests (paper: "no loss in
accuracy") compare its trajectory against the serial sources at
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.dist.exchange import ThreadExchange, worker_program
from repro.dist.partition import Assignment, balanced_partition
from repro.dist.protocol import FrameShard, SequenceShard, gather_utterances, global_sample
from repro.hf.optimizer import HessianFreeOptimizer
from repro.hf.types import HFConfig, HFResult
from repro.nn.gauss_newton import GaussNewtonOperator
from repro.nn.losses import Loss, UtteranceSpan
from repro.nn.network import DNN
from repro.util.logging import RunLog
from repro.vmpi.inprocess import ThreadRankComm, run_threaded

__all__ = [
    "MasterSource", "ShardWorker", "Work",
    "make_frame_shards", "make_sequence_shards", "train_threaded_hf",
]


@dataclass(frozen=True)
class Work:
    """One exchange: every worker runs ``compute`` (a :class:`ShardWorker`
    method) on ``args``; ``zero`` is the master's term of the sum."""

    compute: Callable[..., tuple]
    args: tuple
    zero: tuple


@dataclass
class MasterSource:
    """Master-side HFDataSource: every call is one exchange."""

    comm: ThreadRankComm
    total_train_frames: int
    _theta: np.ndarray | None = field(default=None, init=False, repr=False)
    """Theta of the last gradient: where the workers' curvature lives."""

    def _collect(self, work: Work) -> tuple:
        """The one place the master blocks on workers: ``work`` out, the
        summed results back."""
        return self.comm.collective(lambda ctx: ThreadExchange(ctx).scatter_gather(work))

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Summed loss, gradient and frame count over every shard."""
        loss_sum, grad, frames = self._collect(
            Work(ShardWorker.gradient, (theta,), (0.0, np.zeros_like(theta), 0))
        )
        if frames != self.total_train_frames:
            raise RuntimeError(
                f"workers reported {frames} frames, expected "
                f"{self.total_train_frames} — shard assignment is broken"
            )
        self._theta = theta
        return loss_sum, grad, frames

    def curvature_operator(
        self, theta: np.ndarray, lam: float, sample_seed: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Distributed damped Gauss-Newton operator: each apply is one
        exchange of ``(v, sample_seed)``; the workers' products and
        sampled-frame counts come back summed."""
        if self._theta is None or not np.array_equal(theta, self._theta):
            raise ValueError(
                "curvature_operator needs the theta of the last gradient "
                "call: workers build their Gauss-Newton operators there"
            )

        def op(v: np.ndarray) -> np.ndarray:
            gv, frames = self._collect(
                Work(ShardWorker.curvature, (v, sample_seed), (np.zeros_like(v), 0))
            )
            op.sample_size = frames  # type: ignore[attr-defined]
            return gv / max(frames, 1) + lam * v

        return op

    def heldout_loss(self, theta: np.ndarray) -> tuple[float, int]:
        """Summed held-out loss and frame count over every shard."""
        return self._collect(Work(ShardWorker.heldout, (theta,), (0.0, 0)))

    def stop(self) -> None:
        self.comm.collective(lambda ctx: ThreadExchange(ctx).finish())


class ShardWorker:
    """One worker's shard math: the compute callback of
    :func:`~repro.dist.exchange.worker_program` on real threads."""

    def __init__(
        self, net: DNN, loss: Loss, shard: FrameShard | SequenceShard,
        curvature_fraction: float, curvature_total: int, seed: int,
    ) -> None:
        self.net, self.loss, self.shard = net, loss, shard
        self.sample_args = (curvature_total, curvature_fraction, seed)
        self.theta: np.ndarray | None = None
        """Theta of the last gradient work."""
        self.gn: tuple[int, GaussNewtonOperator | None] | None = None
        """``(sample_seed, raw operator)`` built at :attr:`theta`."""

    def __call__(self, work: Work) -> tuple[tuple, Any]:
        return (), work.compute(self, *work.args)

    def serve(self, comm: ThreadRankComm) -> None:
        """Answer the master's work until it finishes."""
        comm.collective(lambda ctx: worker_program(ThreadExchange(ctx), self))

    def gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray, int]:
        """Loss, gradient and frame count on this shard; a new theta
        drops the curvature operator built at the last one."""
        self.theta, self.gn = theta, None
        if self.shard.n_frames == 0:
            return 0.0, np.zeros_like(theta), 0
        x, targets = self.shard.batch()
        value, grad = self.net.loss_and_grad(theta, x, self.loss, targets)
        return value, grad, self.shard.n_frames

    def curvature(self, v: np.ndarray, sample_seed: int) -> tuple[np.ndarray, int]:
        """Raw (unnormalized, undamped) G-product on this shard's part of
        the sample, and that part's frame count."""
        if self.gn is None or self.gn[0] != sample_seed:
            batch = self.shard.sample_batch(global_sample(*self.sample_args, sample_seed))
            op = None if batch is None else GaussNewtonOperator(
                net=self.net, theta=self.theta, x=batch[0], loss=self.loss,
                targets=batch[1], lam=0.0, normalizer=1.0,
            )
            self.gn = (sample_seed, op)
        op = self.gn[1]
        if op is None:
            return np.zeros_like(v), 0
        return op(v), op.sample_size

    def heldout(self, theta: np.ndarray) -> tuple[float, int]:
        """Held-out loss and frame count on this shard."""
        x, targets = self.shard.heldout_batch()
        if x.shape[0] == 0:
            return 0.0, 0
        value, _ = self.net.loss_and_grad(theta, x, self.loss, targets)
        return value, int(x.shape[0])


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
        sx, rebased = gather_utterances(x, spans, utts)
        hx, h_rebased = gather_utterances(
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
    if isinstance(shards[0], FrameShard):
        curvature_total = total_train
    else:
        curvature_total = sum(len(s.spans) for s in shards)

    def master_program(comm: ThreadRankComm) -> HFResult:
        source = MasterSource(comm, total_train)
        opt = HessianFreeOptimizer(source, config, log=log)
        try:
            return opt.run(theta0)
        finally:
            source.stop()

    workers = [
        ShardWorker(net, loss, s, curvature_fraction, curvature_total, seed).serve
        for s in shards
    ]
    results = run_threaded(n_workers + 1, [master_program] + workers, timeout=timeout)
    return results[0]
