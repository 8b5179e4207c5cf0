"""Simulated distributed HF training on the virtual BG/Q.

Runs the master/worker protocol of Section IV as generator rank programs
on the discrete-event engine, at the paper's true scale (1024-8192 MPI
ranks): payloads are byte-counted stubs, worker compute is charged
through the GEMM/A2 performance models at each worker's *actual* shard
and curvature-sample sizes, and communication executes the real
collective algorithms on the torus cost model.  Control flow comes from
an :class:`~repro.dist.script.IterationScript` calibrated on a real
small-scale HF run.

What this reproduces (and what the tests assert):

* Fig 1(a)/(b): end-to-end time per ``ranks-rpn-threads`` configuration;
* Figs 2-5: per-rank per-function compute/collective/p2p breakdowns,
  convertible to cycle categories via :mod:`repro.dist.timeline`;
* the LB ablation: ``partitioner="naive"`` vs ``"balanced"``;
* the COMM ablation: ``bcast_algorithm="serial"`` (socket-style) vs
  ``"binomial"`` (MPI_Bcast);
* the cluster comparison: swap in the Ethernet network model, the Xeon
  perf model, and Linux jitter (see :mod:`repro.cluster`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bgq.kernel import CnkNoise, NoiseModel
from repro.bgq.network import TorusNetworkModel
from repro.bgq.node import RunShape
from repro.dist.exchange import CollectiveExchange, RecoveringExchange, SimWire, worker_program
from repro.dist.partition import balanced_partition, naive_partition
from repro.dist.script import IterationScript, Phase, Schedule, default_script
from repro.dist.timeline import COMPUTE, P2P, RankBreakdown, label, split_breakdown
from repro.dist.workload import SimWorkload
from repro.faults import FaultInjector, FaultPlan, FaultPolicy, RecoveryLog
from repro.sim.trace import Tracer
from repro.speech.hmm import HmmSpec
from repro.util.rng import spawn
from repro.vmpi.algoselect import CollectivePolicy
from repro.vmpi.comm import RankCtx, VComm
from repro.vmpi.costmodel import NetworkModel, PayloadStub

_log = logging.getLogger(__name__)

__all__ = ["SimJobConfig", "SimRunResult", "simulate_training"]

_TAG_DATA = 77
_TAG_WORK0 = 200
"""First tag of the fault-policy master/worker protocol: each dispatched
phase gets a unique consecutive tag (kept far below the reserved
collective band at 1_000_000), so late or duplicate replies can never be
mistaken for another phase's."""

CURVATURE_JITTER = 0.08
"""Relative std of per-worker curvature-time variation under frame
sampling (content mix effects; the paper's Fig. 3 notes the random
sample "could contribute to the variance")."""

IO_AGGREGATE_BANDWIDTH = 20e9
"""Filesystem aggregate read bandwidth (B/s) for ``"parallel_io"`` load
(GPFS-era BG/Q installations: tens of GB/s)."""


@dataclass(frozen=True)
class SimJobConfig:
    """Everything one simulated training run needs."""

    shape: RunShape
    workload: SimWorkload
    script: IterationScript = field(default_factory=default_script)
    partitioner: str = "balanced"  # "balanced" | "naive"
    bcast_algorithm: str = "binomial"  # "binomial" | "serial"
    curvature_sampling: str = "frame"  # "frame" | "utterance"
    """How workers draw their curvature mini-sample: "frame" takes an
    exact fraction of local frames (balanced; mild content jitter),
    "utterance" takes whole utterances until the share is reached —
    utterance granularity makes one long-utterance worker stall every CG
    product, which is the ablation showing why frame-level sampling (or
    the paper's careful balancing) matters at scale."""
    load_data_mode: str = "master"
    """How training shards reach workers:

    * ``"master"`` — the paper's one-layer architecture: the master
      ships every shard point-to-point (Fig 2's growing ``load_data``);
    * ``"staged"`` — two-level relay: the master sends group bundles to
      every ``load_data_fanout``-th worker, which forwards to its group.
      Spoiler (and the DATA ablation's finding): this barely helps,
      because the master's NIC egress — total bytes at injection
      bandwidth — is the binding constraint either way;
    * ``"parallel_io"`` — workers read their shards from the parallel
      filesystem through the I/O nodes concurrently (no master relay),
      which is what actually removes the bottleneck."""
    load_data_fanout: int = 64
    """Group size for ``"staged"`` distribution."""
    hmm: HmmSpec = field(default_factory=HmmSpec)
    seed: int = 0
    network: NetworkModel | None = None
    """Defaults to the BG/Q torus for the run shape; the cluster
    comparator passes an Ethernet model instead."""
    noise: NoiseModel = field(default_factory=CnkNoise)
    collective_selection: str = "fixed"  # "fixed" | "auto"
    """``"fixed"`` keeps the historical single-algorithm cost model;
    ``"auto"`` routes every large-message collective through
    :class:`~repro.vmpi.algoselect.CollectivePolicy`, which picks the
    cheapest of binomial / van-de-Geijn-segmented / ring / Rabenseifner /
    torus-pipelined per ``(op, ranks, nbytes)``."""
    overlap_gradient: bool = False
    """Overlap the gradient allreduce with backprop, DDP-style: layer
    gradients are coalesced into ``gradient_bucket_bytes`` buckets in
    backward order and each bucket's reduction pipelines behind the
    compute that produces the next one, so only the *exposed* (unhidden)
    communication is charged after the gradient compute."""
    gradient_bucket_bytes: int = 1 << 22
    """Bucket capacity for :attr:`overlap_gradient` (25 MB-class models
    at 4 MB buckets give ~10 pipeline stages)."""
    fault_plan: FaultPlan | None = None
    """Optional seeded fault schedule (crashes, stragglers, link
    degradation, message drops) injected into the DES.  ``None`` (the
    default) leaves every hot path untouched — all fault-free goldens are
    bit-identical.  A plan without a :attr:`fault_policy` injects into
    the standard collective protocol, where a crash surfaces as a
    :class:`~repro.sim.engine.DeadlockError` (fault *detection* without
    recovery)."""
    fault_policy: FaultPolicy | None = None
    """Opt-in recovery: switches the trainer to the master-driven
    tagged-p2p protocol with timeout/retry collection, dead-worker
    exclusion, quorum CG, and modeled master checkpoint-restart (see
    DESIGN.md §8).  Changes the communication pattern even with no
    faults injected, so it gets its own determinism goldens."""

    def __post_init__(self) -> None:
        if self.shape.ranks < 2:
            raise ValueError("need a master and at least one worker")
        if self.partitioner not in ("balanced", "naive"):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.curvature_sampling not in ("frame", "utterance"):
            raise ValueError(
                f"unknown curvature_sampling {self.curvature_sampling!r}"
            )
        if self.bcast_algorithm not in ("binomial", "serial"):
            raise ValueError(f"unknown bcast algorithm {self.bcast_algorithm!r}")
        if self.load_data_mode not in ("master", "staged", "parallel_io"):
            raise ValueError(f"unknown load_data_mode {self.load_data_mode!r}")
        if self.load_data_fanout < 2:
            raise ValueError(
                f"load_data_fanout must be >= 2: {self.load_data_fanout}"
            )
        if self.collective_selection not in ("fixed", "auto"):
            raise ValueError(
                f"unknown collective_selection {self.collective_selection!r}"
            )
        if self.gradient_bucket_bytes < 1:
            raise ValueError("gradient_bucket_bytes must be >= 1")
        if self.fault_plan is not None:
            self.fault_plan.validate_ranks(self.shape.ranks)

    @property
    def n_workers(self) -> int:
        """Worker count (every rank except the master)."""
        return self.shape.ranks - 1


@dataclass
class SimRunResult:
    """Virtual-time outcome of one simulated training run."""

    config: SimJobConfig
    load_data_seconds: float
    iteration_seconds: float
    """Virtual time of the simulated iterations (post-load_data)."""
    tracer: Tracer = field(repr=False, default=None)  # type: ignore[assignment]
    total_messages: int = 0
    total_bytes: int = 0
    recovery: RecoveryLog | None = field(repr=False, default=None)
    """Recovery actions taken by the master (fault-policy runs only)."""
    finish_time: float = 0.0
    """Exact ``Engine.finish_time`` of the run (the bit-level anchor of
    the attribution invariant — NOT ``load + iteration``, whose float
    re-sum can differ in the last ulp)."""
    rank_end_times: list[float] | None = field(repr=False, default=None)
    """Per-rank virtual finish times (names the run's straggler)."""
    phase_log: list[tuple[str, float, int]] | None = field(repr=False, default=None)
    """Vector fast path's ``(label, end, straggler)`` dependency log;
    ``None`` on the scalar path (which records spans instead)."""
    execution_path: str = "scalar"
    """Which executor produced the (path-invariant) numbers: ``scalar``,
    ``vector``, ``vector+sharded``, or ``speculative`` (the sharded
    pool's optimistic window protocol)."""

    @property
    def excluded_ranks(self) -> tuple[int, ...]:
        """Ranks permanently excluded by the fault policy (empty if none)."""
        if self.recovery is None:
            return ()
        return self.recovery.excluded_ranks

    @property
    def simulated_iterations(self) -> int:
        """Number of outer HF iterations actually simulated."""
        return self.config.script.n_iterations

    @property
    def per_iteration_seconds(self) -> float:
        return self.iteration_seconds / self.simulated_iterations

    @property
    def represented_total_seconds(self) -> float:
        """Projected full-training time (load + represented iterations)."""
        return (
            self.load_data_seconds
            + self.per_iteration_seconds
            * self.config.script.represented_iterations
        )

    @property
    def represented_total_hours(self) -> float:
        return self.represented_total_seconds / 3600.0

    def breakdown(self, rank: int) -> RankBreakdown:
        return split_breakdown(self.tracer.totals(f"rank{rank}"))

    def master_breakdown(self) -> RankBreakdown:
        return self.breakdown(0)

    def worker_breakdown(self, worker: int = 1) -> RankBreakdown:
        """Per-function breakdown of one worker rank (default: rank 1)."""
        if not 1 <= worker < self.config.shape.ranks:
            raise ValueError(f"worker rank must be in [1, ranks): {worker}")
        return self.breakdown(worker)

    def mean_worker_breakdown(self, sample: int = 16) -> RankBreakdown:
        """Average breakdown over an evenly spaced sample of workers."""
        ranks = np.linspace(
            1, self.config.shape.ranks - 1, min(sample, self.config.n_workers)
        ).astype(int)
        acc = RankBreakdown()
        for r in ranks:
            b = self.breakdown(int(r))
            for d_acc, d in (
                (acc.compute, b.compute),
                (acc.collective, b.collective),
                (acc.p2p, b.p2p),
            ):
                for k, v in d.items():
                    d_acc[k] = d_acc.get(k, 0.0) + v / len(ranks)
        return acc

    def attribution(self, ranks: "list[int] | None" = None):
        """Exact per-rank time attribution (:mod:`repro.obs.attrib`).

        ``ranks`` restricts the per-rank set; by default the master, the
        straggler, and an evenly spaced worker sample are attributed
        (full enumeration at 100k ranks is pointless in a report).
        """
        from repro.obs.attrib import attribute_run, worker_sample

        if ranks is None:
            p = self.config.shape.ranks
            picked = [0] + worker_sample(p)
            ends = self.rank_end_times
            if ends:
                straggler = max(range(len(ends)), key=lambda r: (ends[r], -r))
                if straggler not in picked:
                    picked.append(straggler)
            ranks = sorted(set(picked))
        return attribute_run(self, ranks)

    def critical_path(self):
        """The run's critical path (:mod:`repro.obs.critpath`)."""
        from repro.obs.critpath import critical_path

        return critical_path(self)


# --------------------------------------------------------------- planning
@dataclass
class _Plan:
    """Precomputed per-worker loads (frames) for every phase."""

    grad_frames: np.ndarray  # (workers,)
    heldout_frames: np.ndarray  # (workers,)
    curv_frames: list[np.ndarray]  # per outer iteration, (workers,)
    shard_bytes: np.ndarray  # (workers,)


def _draw_utterance_lengths(cfg: SimJobConfig) -> np.ndarray:
    """Full-scale utterance length table matching the corpus generator's
    log-normal distribution (lengths only — no features materialized)."""
    spec = cfg.hmm
    rng = spawn(cfg.seed, "sim-lengths")
    mu = np.log(spec.mean_length) - 0.5 * spec.length_sigma**2
    target = cfg.workload.train_frames
    est = max(16, int(target / spec.mean_length * 1.1) + 16)
    lengths: list[np.ndarray] = []
    got = 0
    while got < target:
        draw = np.clip(
            np.round(rng.lognormal(mu, spec.length_sigma, size=est)),
            spec.min_length,
            spec.max_length,
        ).astype(np.int64)
        cum = got + np.cumsum(draw)
        cut = int(np.searchsorted(cum, target)) + 1
        lengths.append(draw[:cut])
        got = int(cum[min(cut, len(cum)) - 1])
        est = max(16, est // 4)
    return np.concatenate(lengths)


def _build_plan(cfg: SimJobConfig) -> _Plan:
    lengths = _draw_utterance_lengths(cfg)
    w = cfg.n_workers
    part_fn = balanced_partition if cfg.partitioner == "balanced" else naive_partition
    if len(lengths) < w:
        # tiny test workloads: pad with minimum-length utterances
        pad = np.full(w - len(lengths) + 1, cfg.hmm.min_length, dtype=np.int64)
        lengths = np.concatenate([lengths, pad])
    assignment = part_fn(lengths, w)
    grad_frames = assignment.frames_per_worker()

    heldout = np.full(w, cfg.workload.heldout_frames // w, dtype=np.int64)
    heldout[: cfg.workload.heldout_frames % w] += 1

    # Curvature sampling is *local and balanced*, mirroring Section V-C's
    # philosophy: every worker contributes its share (fraction x local
    # frames) of the sample, redrawn per CG-Minimize call.
    #
    # "frame" granularity takes that share exactly (plus a small seeded
    # content jitter); "utterance" granularity accumulates whole
    # utterances until the share is reached, so one long utterance can
    # blow a worker's sample up — the ablation quantifying why sampling
    # granularity matters at thousands of workers.
    curv: list[np.ndarray] = []
    frac = cfg.workload.curvature_fraction
    if cfg.curvature_sampling == "utterance":
        order, bounds = assignment.grouped()
        by_worker = lengths[order]
    for it in range(cfg.script.n_iterations):
        rng = spawn(cfg.seed, "sim-curv", it)
        if cfg.curvature_sampling == "frame":
            base = np.maximum(1, np.round(frac * grad_frames)).astype(np.int64)
            jitter = rng.normal(1.0, CURVATURE_JITTER, size=w)
            frames = np.maximum(
                1, np.round(base * np.clip(jitter, 0.5, 1.5))
            ).astype(np.int64)
        else:
            frames = np.zeros(w, dtype=np.int64)
            for wi in range(w):
                wl_lens = by_worker[bounds[wi] : bounds[wi + 1]]
                target = max(1, int(round(frac * int(grad_frames[wi]))))
                start = int(rng.integers(0, wl_lens.size))
                rolled = np.roll(wl_lens, -start)
                cum = np.cumsum(rolled)
                stop = int(np.searchsorted(cum, target)) + 1
                frames[wi] = int(cum[min(stop, len(cum)) - 1])
        curv.append(frames)

    return _Plan(
        grad_frames=grad_frames,
        heldout_frames=heldout,
        curv_frames=curv,
        shard_bytes=cfg.workload.shard_bytes(grad_frames),
    )


# ----------------------------------------------------------- rank programs
def _make_programs(
    cfg: SimJobConfig,
    plan: _Plan,
    load_done: list[float],
    network: NetworkModel,
    policy: CollectivePolicy | None = None,
    injector: FaultInjector | None = None,
    recovery: RecoveryLog | None = None,
):
    """Build the per-rank generator programs for one training run: one
    master program and the shared :func:`~repro.dist.exchange.
worker_program` interpret the run's :class:`~repro.dist.script.Schedule`
    over the paper's collective exchange, or with a ``cfg.fault_policy``
    over the recovering one (DESIGN.md §8), which records every recovery
    action into ``recovery``."""
    shape = cfg.shape
    wire = SimWire(
        cfg, Schedule(cfg, plan, network, policy), plan, _TAG_WORK0,
        injector=injector, recovery=recovery,
    )
    exchange = CollectiveExchange if cfg.fault_policy is None else RecoveringExchange
    fanout = cfg.load_data_fanout
    mode = cfg.load_data_mode
    total_shard_bytes = float(plan.shard_bytes.sum())

    def master_load(ctx: RankCtx):
        # load_data: get shards to the workers per cfg.load_data_mode.
        t0 = ctx.now
        if mode == "staged":
            for g0 in range(1, shape.ranks, fanout):
                group = range(g0, min(g0 + fanout, shape.ranks))
                bundle = int(sum(plan.shard_bytes[w - 1] for w in group))
                yield from ctx.send(
                    g0, PayloadStub(bundle, "bundle"), tag=_TAG_DATA
                )
            ctx.record_span(label(P2P, "load_data"), t0)
        elif mode == "master":
            for w in range(1, shape.ranks):
                yield from ctx.send(
                    w, PayloadStub(int(plan.shard_bytes[w - 1]), "shard"),
                    tag=_TAG_DATA,
                )
            ctx.record_span(label(P2P, "load_data"), t0)
        # parallel_io: workers read directly; the master does nothing.
        load_done[0] = ctx.now

    def worker_load(ctx: RankCtx, widx: int):
        t0 = ctx.now
        if mode == "staged":
            rank = widx + 1
            leader = ((rank - 1) // fanout) * fanout + 1
            if rank == leader:
                yield from ctx.recv(source=0, tag=_TAG_DATA)
                for member in range(
                    leader + 1, min(leader + fanout, shape.ranks)
                ):
                    yield from ctx.send(
                        member,
                        PayloadStub(
                            int(plan.shard_bytes[member - 1]), "shard"
                        ),
                        tag=_TAG_DATA,
                    )
            else:
                yield from ctx.recv(source=leader, tag=_TAG_DATA)
            ctx.record_span(label(P2P, "load_data"), t0)
        elif mode == "parallel_io":
            # concurrent reads share the filesystem: everyone takes
            # total_bytes / aggregate_bandwidth (function-shipped I/O
            # through the I/O nodes, no master relay)
            yield from ctx.compute(
                total_shard_bytes / IO_AGGREGATE_BANDWIDTH,
                label(COMPUTE, "load_data"),
            )
        else:
            yield from ctx.recv(source=0, tag=_TAG_DATA)
            ctx.record_span(label(P2P, "load_data"), t0)

    def master_program(ctx: RankCtx):
        yield from master_load(ctx)
        ex = exchange(ctx, wire)
        for ph in wire.phases:
            yield from ex.scatter_gather(ph)
            if ph.master_label is not None:
                yield from ctx.compute(ph.master_secs, ph.master_label)
        yield from ex.finish()
        return ctx.now

    def make_worker(widx: int) -> Callable:
        def program(ctx: RankCtx):
            rng = spawn(cfg.seed, "noise", widx)

            # one perturb per compute charge, in program order: the rng
            # draw sequence is what every simulated time hangs on
            def compute(ph: Phase):
                secs = cfg.noise.perturb(float(ph.worker_secs[widx]), rng)
                return ctx.compute(secs, ph.compute_label), secs

            yield from worker_load(ctx, widx)
            yield from worker_program(exchange(ctx, wire), compute)
            return ctx.now

        return program

    return [master_program] + [make_worker(w) for w in range(cfg.n_workers)]


# -------------------------------------------------------------- entry point
def simulate_training(
    cfg: SimJobConfig,
    obs: object | None = None,
    trace_p2p: bool = False,
    vector: bool | None = None,
    shards: int = 1,
    speculate: bool | None = None,
) -> SimRunResult:
    """Run one simulated training configuration to completion.

    ``obs``, when given, is a :class:`~repro.obs.metrics.MetricsRegistry`
    to instrument the run with: engine event counts and queue depths,
    per-(src, dst) traffic matrices, and the outstanding-message
    high-water mark.  Observability is strictly passive — every simulated
    number is bit-identical with it on or off (pinned by the determinism
    goldens).  ``trace_p2p`` additionally records per-message
    ``mpi_send``/``mpi_recv`` spans (heavy at scale; meant for
    ``repro trace`` exports of small shapes).

    ``vector`` controls the SPMD fast path
    (:mod:`repro.dist.vectorized`): ``None`` follows the
    ``REPRO_SIM_VECTOR`` env toggle (default on), ``False`` forces the
    scalar scheduler, ``True`` requests the fast path.  Either way the
    fast path only engages when the run is eligible (see
    :func:`repro.dist.vectorized.vector_fallback_reason`; DESIGN.md
    §6e) — heterogeneous runs (faults, recovery, staged load,
    small-theta shapes, noise or network models the replay does not
    know) fall back to the per-process scheduler, and simulated results
    are bit-identical on both paths.  ``collective_selection="auto"``,
    ``overlap_gradient``, serial-broadcast, non-power-of-two and
    ``LinuxJitter``/Ethernet runs (Table I's Xeon arm is all four) stay
    on the fast path.  When a requested
    vector run falls back, the reason is recorded as a
    ``sim.vector.fallback{reason=...}`` counter (if ``obs`` is
    attached) and a debug log line, so a silent scalar-path regression
    is observable instead of just slow.  ``shards > 1`` additionally
    partitions the vector kernels across OS processes
    (:mod:`repro.sim.shard`); it is ignored on the scalar path, and on a
    vector run the block split cannot serve — a communicator that is not
    a power of two, or ``bcast_algorithm="serial"``
    (:func:`~repro.dist.vectorized.vector_shardable`) — which runs
    single-process with ``execution_path == "vector"``.
    ``speculate`` selects the sharded pool's optimistic window protocol
    (checkpointed per-shard clock slices, rollback on cross-shard
    causality violation) instead of the conservative two-barrier
    protocol (``None`` means off).  Committed results are bit-identical
    either way.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    network = cfg.network
    modeled_ranks = getattr(network, "size", None)
    if modeled_ranks is not None and modeled_ranks < cfg.shape.ranks:
        raise ValueError(
            f"network model covers {modeled_ranks} ranks, "
            f"run shape has {cfg.shape.ranks}"
        )
    plan = _build_plan(cfg)
    if network is None:
        network = TorusNetworkModel(
            nodes=cfg.shape.nodes, ranks_per_node=cfg.shape.ranks_per_node
        )
    policy = None
    if cfg.collective_selection == "auto":
        policy = CollectivePolicy.from_network(network, cfg.shape.ranks)
    injector = None
    if cfg.fault_plan is not None and not cfg.fault_plan.empty:
        # rank 0 is spared from kill when a policy is attached: the
        # master program models checkpoint-restart instead of dying
        spare = (0,) if cfg.fault_policy is not None else ()
        injector = FaultInjector(cfg.fault_plan, spare=spare)
    recovery = RecoveryLog() if cfg.fault_policy is not None else None
    tracer = Tracer()
    comm = VComm(
        cfg.shape.ranks,
        # closed-form collective params come from the base model either
        # way (the wrapper delegates them); only per-message p2p costs
        # route through degraded windows
        network=injector.wrap_network(network) if injector is not None else network,
        tracer=tracer,
        trace_p2p=trace_p2p,
        obs=obs,
        coll_policy=policy,
        faults=injector,
    )
    if obs is not None and (injector is not None or recovery is not None):
        from repro.obs.metrics import counter_record

        def _fault_records() -> list[dict]:
            recs = []
            if injector is not None:
                recs.extend(injector.obs_records())
            if recovery is not None:
                recs.append(counter_record("train.recoveries", recovery.recoveries))
                recs.append(
                    counter_record(
                        "train.excluded_ranks", len(recovery.excluded_ranks)
                    )
                )
            return recs

        obs.add_collector(_fault_records)
    if obs is not None:
        from repro.obs.attrib import phase_records

        spec = (
            f"{cfg.shape.ranks}-{cfg.shape.ranks_per_node}"
            f"-{cfg.shape.threads_per_rank}"
        )
        obs.add_collector(lambda: phase_records(tracer, cfg.shape.ranks, spec))
    load_done = [0.0]
    from repro.dist.vectorized import (
        run_vectorized,
        vector_enabled,
        vector_fallback_reason,
        vector_shardable,
    )

    fallback = (
        vector_fallback_reason(cfg, network, trace_p2p)
        if vector_enabled(vector)
        else "disabled"
    )
    if fallback is None:
        if not vector_shardable(cfg):
            shards = 1
        if shards > 1:
            execution_path = "speculative" if speculate else "vector+sharded"
        else:
            execution_path = "vector"
        end_time, phase_log = run_vectorized(
            cfg, plan, network, policy, comm, load_done,
            shards=shards, speculate=bool(speculate),
        )
    else:
        # only a *requested* fast path that could not engage is a
        # fallback worth counting; an explicit vector=False is not
        if fallback != "disabled":
            if obs is not None:
                obs.counter("sim.vector.fallback", reason=fallback).inc()
            _log.debug(
                "vector fast path fallback (reason=%s): %d ranks on the "
                "scalar scheduler", fallback, cfg.shape.ranks,
            )
        programs = _make_programs(
            cfg, plan, load_done, network, policy,
            injector=injector, recovery=recovery,
        )
        end_time, _values = comm.run(programs)
        phase_log = None
        execution_path = "scalar"
    if injector is not None:
        injector.record_degraded_spans(tracer, end_time)
    return SimRunResult(
        config=cfg,
        load_data_seconds=load_done[0],
        iteration_seconds=end_time - load_done[0],
        tracer=tracer,
        total_messages=comm.total_sends,
        total_bytes=comm.total_bytes,
        recovery=recovery,
        finish_time=end_time,
        rank_end_times=comm.rank_finish_times,
        phase_log=phase_log,
        execution_path=execution_path,
    )
