"""Parallel SGD baselines — what Section II-A says is hard.

"While parallel SGD methods have been successfully explored for convex
problems [11], for non-convex problems such as DNNs it is very difficult
to parallelize SGD across machines ... it is generally cheaper to
compute the gradient serially on one machine."

Two classic schemes, implemented so the claim can be *measured* instead
of cited:

* :func:`parameter_averaging_sgd` — Zinkevich-style one-shot averaging:
  W independent SGD runs on data shards, parameters averaged at the end.
  Fine for convex losses, degraded for DNNs (averaging distinct basins).
* :func:`synchronous_minibatch_sgd` — gradient-synchronous parallel SGD:
  every update reduces a mini-batch gradient across W workers.  The
  math equals serial SGD with a W-times-larger batch; the *cost model*
  (one parameter-sized reduction per tiny step) is exactly the
  communication pathology the paper describes, which
  :func:`sync_sgd_comm_cost` quantifies against HF's per-iteration
  communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.losses import Loss
from repro.nn.network import DNN
from repro.nn.sgd import SGDConfig, SGDResult, sgd_train
from repro.util.rng import make_rng

__all__ = [
    "parameter_averaging_sgd",
    "synchronous_minibatch_sgd",
    "sync_sgd_comm_cost",
    "CommCostComparison",
    "GradientBucketPlan",
    "exposed_comm_model",
    "overlap_schedule",
]


def parameter_averaging_sgd(
    net: DNN,
    theta0: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    n_workers: int,
    config: SGDConfig = SGDConfig(),
    heldout: tuple[np.ndarray, np.ndarray] | None = None,
) -> SGDResult:
    """One-shot parameter averaging over ``n_workers`` data shards."""
    if n_workers < 1:
        raise ValueError(f"need >= 1 worker: {n_workers}")
    n = x.shape[0]
    if n < n_workers:
        raise ValueError(f"cannot shard {n} frames over {n_workers} workers")
    rng = make_rng(config.seed)
    perm = rng.permutation(n)
    bounds = np.linspace(0, n, n_workers + 1).astype(int)
    thetas = []
    total_updates = 0
    for w in range(n_workers):
        idx = perm[bounds[w] : bounds[w + 1]]
        shard_cfg = SGDConfig(
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            batch_size=config.batch_size,
            epochs=config.epochs,
            lr_decay=config.lr_decay,
            seed=config.seed + w + 1,
        )
        res = sgd_train(
            net, theta0, x[idx], np.asarray(targets)[idx], loss, shard_cfg
        )
        thetas.append(res.theta)
        total_updates += res.n_updates
    theta = np.mean(thetas, axis=0)
    out = SGDResult(theta=theta, n_updates=total_updates)
    value, _ = net.loss_and_grad(theta, x, loss, targets)
    out.epoch_losses.append(value / n)
    if heldout is not None:
        hx, ht = heldout
        hv, _ = net.loss_and_grad(theta, hx, loss, ht)
        out.heldout_losses.append(hv / hx.shape[0])
    return out


def synchronous_minibatch_sgd(
    net: DNN,
    theta0: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    n_workers: int,
    config: SGDConfig = SGDConfig(),
    heldout: tuple[np.ndarray, np.ndarray] | None = None,
) -> SGDResult:
    """Gradient-synchronous parallel SGD (mathematically: serial SGD with
    batch size ``n_workers x batch_size``)."""
    if n_workers < 1:
        raise ValueError(f"need >= 1 worker: {n_workers}")
    big = SGDConfig(
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        batch_size=config.batch_size * n_workers,
        epochs=config.epochs,
        lr_decay=config.lr_decay,
        seed=config.seed,
    )
    return sgd_train(net, theta0, x, targets, loss, big, heldout=heldout)


@dataclass(frozen=True)
class CommCostComparison:
    """Per-epoch communication volume: sync-SGD vs Hessian-free."""

    sgd_reductions: int
    sgd_bytes: float
    hf_reductions: int
    hf_bytes: float

    @property
    def ratio(self) -> float:
        """How many times more bytes sync-SGD moves per epoch."""
        return self.sgd_bytes / self.hf_bytes


@dataclass(frozen=True)
class GradientBucketPlan:
    """DDP-style gradient buckets in backward-pass production order.

    Backprop produces layer gradients last-layer-first; coalescing them
    into ~``cap_bytes`` buckets (a layer bigger than the cap gets its own
    bucket) lets each bucket's reduction start while earlier layers are
    still computing.  Bucket bytes partition the parameter vector exactly
    — their sum equals the total gradient size, the invariant the
    simulated overlap accounting relies on.
    """

    bucket_bytes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bucket_bytes:
            raise ValueError("need at least one bucket")
        if any(b < 1 for b in self.bucket_bytes):
            raise ValueError(f"bucket sizes must be >= 1: {self.bucket_bytes}")

    @classmethod
    def from_layers(
        cls, layer_bytes: list[int], cap_bytes: int
    ) -> "GradientBucketPlan":
        """Coalesce per-layer gradient byte counts (given in forward
        order) into buckets, walking layers in backward order."""
        if cap_bytes < 1:
            raise ValueError(f"cap_bytes must be >= 1: {cap_bytes}")
        if not layer_bytes or any(b < 1 for b in layer_bytes):
            raise ValueError(f"layer byte counts must be >= 1: {layer_bytes}")
        buckets: list[int] = []
        current = 0
        for b in reversed(list(layer_bytes)):
            if current and current + b > cap_bytes:
                buckets.append(current)
                current = 0
            current += b
        buckets.append(current)
        return cls(tuple(buckets))

    @property
    def total_bytes(self) -> int:
        # integer byte counts: addition is exact, order cannot matter
        return sum(self.bucket_bytes)  # repro: noqa(DET002)

    def __len__(self) -> int:
        return len(self.bucket_bytes)


def overlap_schedule(
    compute_seconds: list[float], comm_seconds: list[float]
) -> tuple[float, float]:
    """Pipeline one communication stream behind a compute stream.

    ``compute_seconds[i]`` produces bucket ``i``; its reduction
    (``comm_seconds[i]``) starts as soon as both the bucket is ready and
    the previous reduction finished (one in-flight collective at a time,
    matching a single communication stream).  Returns ``(total,
    exposed)`` where ``exposed = total - sum(compute)`` is the
    communication time *not* hidden behind compute — the per-bucket
    ``max(compute, comm)`` pipeline the DDP-style trainer charges in
    place of compute-then-communicate's sum.
    """
    if len(compute_seconds) != len(comm_seconds):
        raise ValueError(
            f"bucket count mismatch: {len(compute_seconds)} compute vs "
            f"{len(comm_seconds)} comm"
        )
    if any(c < 0 for c in compute_seconds) or any(m < 0 for m in comm_seconds):
        raise ValueError("bucket times must be >= 0")
    t_ready = 0.0
    t_comm = 0.0
    for c, m in zip(compute_seconds, comm_seconds):
        t_ready += c
        start = t_comm if t_comm > t_ready else t_ready
        t_comm = start + m
    total = t_comm if t_comm > t_ready else t_ready
    return total, total - t_ready


def exposed_comm_model(
    layer_bytes: list[int],
    cap_bytes: int,
    total_bytes: int,
    reduce_cost_fn,
) -> tuple[GradientBucketPlan, "callable"]:
    """Build the bucketed-overlap cost model once per run.

    Coalesces ``layer_bytes`` (forward order) into ``cap_bytes`` buckets,
    prices each bucket's reduction with ``reduce_cost_fn(bucket_bytes)``
    and partitions a rank's gradient compute by byte fraction of
    ``total_bytes``.  Returns ``(plan, exposed)`` where
    ``exposed(gradient_seconds)`` is the communication time the pipeline
    cannot hide behind that rank's compute — the only gradient-sync
    charge an overlapping trainer pays.

    :class:`repro.dist.script.Schedule` builds it once per run; the
    scalar scheduler (:mod:`repro.dist.simulated`) and the SPMD vector
    fast path (:mod:`repro.dist.vectorized`) both charge its ``exposed``,
    so their per-rank costs are bit-identical by construction.
    """
    plan = GradientBucketPlan.from_layers(layer_bytes, cap_bytes)
    bucket_costs = [reduce_cost_fn(b) for b in plan.bucket_bytes]
    # layer bytes sum exactly to total_bytes, so fracs partition the
    # gradient compute the way the buckets partition the vector
    bucket_fracs = [b / total_bytes for b in plan.bucket_bytes]

    def exposed(gradient_seconds: float) -> float:
        """Exposed (unhidden) communication for one rank's gradient."""
        _, exp = overlap_schedule(
            [gradient_seconds * f for f in bucket_fracs], bucket_costs
        )
        return exp

    return plan, exposed


def sync_sgd_comm_cost(
    n_params: int,
    n_frames: int,
    batch_size: int,
    cg_iters_per_epoch: int = 15,
    heldout_evals_per_epoch: int = 5,
    dtype_bytes: int = 4,
) -> CommCostComparison:
    """The paper's Section II argument, quantified.

    Sync-SGD reduces a full parameter-sized gradient every mini-batch —
    ``n_frames / batch_size`` reductions per epoch.  HF reduces once for
    the epoch gradient plus once per CG iteration (plus scalar held-out
    losses).  With speech batch sizes of 100-1000 frames and 10-50 M
    parameters, the ratio is in the hundreds — "it is generally cheaper
    to compute the gradient serially on one machine."
    """
    if min(n_params, n_frames, batch_size) < 1:
        raise ValueError("all sizes must be >= 1")
    sgd_reductions = max(1, n_frames // batch_size)
    hf_reductions = 1 + cg_iters_per_epoch + heldout_evals_per_epoch
    theta_bytes = n_params * dtype_bytes
    return CommCostComparison(
        sgd_reductions=sgd_reductions,
        sgd_bytes=float(sgd_reductions) * theta_bytes,
        hf_reductions=hf_reductions,
        # held-out evaluations reduce scalars, not parameter vectors
        hf_bytes=float(1 + cg_iters_per_epoch) * theta_bytes
        + heldout_evals_per_epoch * 8.0,
    )
