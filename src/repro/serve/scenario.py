"""The serving scenario: requests, queue, batcher, replicas, autoscaler.

Topology: rank 0 is the front end (admission queue, batcher, one
*courier* process per replica, optional autoscaler); ranks ``1..R``
are replica servers, one BG/Q node each, connected by the torus
network cost model.  A request's life:

1. The admission process injects it into the bounded queue at its
   arrival time (or sheds it when the queue is full).
2. The batcher closes a batch (max-batch / max-wait), waits for an
   idle active replica, and hands the batch to that replica's courier.
3. The courier ships the batch over the virtual network, the replica
   charges the machine-model decode time (``serve.decode`` spans), and
   the result returns to rank 0, completing every request aboard.

Replica crashes compose through the standard :class:`~repro.faults.
inject.FaultInjector` path: the crash kills the replica's rank
process, the courier's response timeout fires, the batch is counted
``failed``, and the replica is excluded from further dispatch —
visible as ``serve.replica.excluded`` counters and ``serve.excluded``
Perfetto spans.

A run with no fault plan, no autoscaler, no metrics registry and no
trace has nothing for the DES to decide: :func:`simulate_serving`
replays it as one forward recurrence over the arrivals
(:mod:`repro.serve.recurrence`), bit-identical to the DES programs
below, which run every other scenario and serve as the recurrence's
oracle.  ``ServeResult.execution_path`` records which path ran.  Both
are deterministic, so a fixed :class:`ServeConfig` reproduces its
latency histogram bit-for-bit — the determinism golden of
``tests/test_serve.py`` and the committed saturation baseline in
``BENCH_sim_vmpi.json`` both lean on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.bgq.network import TorusNetworkModel
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.engine import AllOf, Engine, Get, Put
from repro.sim.trace import Tracer
from repro.vmpi.comm import RankCtx, RecvTimeoutError, VComm
from repro.vmpi.costmodel import PayloadStub

from repro.serve.arrivals import ArrivalSpec, generate_arrivals
from repro.serve.autoscale import AutoscalePolicy, autoscaler_process
from repro.serve.batching import WAKE, BatchPolicy, batcher_process
from repro.serve.cost import DecodeCostModel
from repro.serve.queueing import AdmissionQueue, admission_process
from repro.serve.recurrence import STOP_BYTES, batch_message, replay
from repro.serve.stats import ServeLog, quantile

__all__ = [
    "ServeConfig",
    "ServeResult",
    "ServeState",
    "simulate_serving",
    "simulate_serving_des",
]

TAG_REQUEST = 11
TAG_RESULT = 12
TAG_STOP = 13

STOP = object()
"""Sentinel the front end puts into each courier's work store at
shutdown; the courier forwards it to its replica as a ``TAG_STOP``
message and exits."""


@dataclass(frozen=True)
class ServeConfig:
    """One serving scenario (the ``repro serve`` surface).

    ``request_timeout_s`` is the admission deadline (``None`` disables
    expiry); ``detect_margin``/``detect_floor_s`` size the courier's
    crash detector — the response timeout is ``margin x`` the modeled
    batch decode time plus the floor, so honest slow batches (including
    straggler windows up to the margin) never trip it.
    """

    replicas: int = 8
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    horizon_s: float = 30.0
    seed: int = 0
    queue_capacity: int = 256
    request_timeout_s: float | None = 10.0
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    autoscale: AutoscalePolicy | None = None
    cost: DecodeCostModel = field(default_factory=DecodeCostModel)
    fault_plan: FaultPlan | None = None
    detect_margin: float = 8.0
    detect_floor_s: float = 1.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"need >= 1 replica, got {self.replicas}")
        if not (math.isfinite(self.horizon_s) and self.horizon_s > 0):
            raise ValueError(f"horizon_s must be finite and > 0, got {self.horizon_s}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        timeout = self.request_timeout_s
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(
                f"request_timeout_s must be finite and > 0, or None; got {timeout}"
            )
        if not (math.isfinite(self.detect_margin) and self.detect_margin >= 1.0):
            raise ValueError(
                f"detect_margin must be finite and >= 1, got {self.detect_margin}"
            )
        if not (math.isfinite(self.detect_floor_s) and self.detect_floor_s >= 0.0):
            raise ValueError(
                f"detect_floor_s must be finite and >= 0, got {self.detect_floor_s}"
            )
        if self.autoscale is not None and self.autoscale.min_replicas > self.replicas:
            raise ValueError(
                f"autoscale.min_replicas ({self.autoscale.min_replicas}) "
                f"exceeds the replica pool ({self.replicas})"
            )


class ServeState:
    """Mutable run state shared by the scenario's DES processes.

    Replica indices are their MPI ranks (``1..replicas``).  ``active``
    is the autoscaler's intent; ``in_circulation`` tracks whether a
    replica's idle token is live (in the idle store or held by a busy
    replica) — activation is only legal when it is not, which keeps
    exactly one token per serving replica.
    """

    def __init__(self, engine: Engine, replicas: int, initial_active: int) -> None:
        self.engine = engine
        self.replica_ids = tuple(range(1, replicas + 1))
        self.active = {r: r <= initial_active for r in self.replica_ids}
        self.in_circulation = {r: r <= initial_active for r in self.replica_ids}
        self.excluded = {r: False for r in self.replica_ids}
        self.idle_store = engine.new_store("serve.idle")
        # pre-run seeding: no getters exist yet, so direct appends are
        # equivalent to (and cheaper than) a priming process doing Puts
        self.idle_store.items.extend(r for r in self.replica_ids if self.active[r])
        self.work = {
            r: engine.new_store(f"serve.work[{r}]") for r in self.replica_ids
        }
        self.done_store = engine.new_store("serve.done")
        self.stopping = False

    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    def activate(self, r: int, warmup_s: float) -> None:
        """Bring replica ``r`` into service after ``warmup_s`` of warm-up."""
        self.active[r] = True
        self.in_circulation[r] = True
        self.engine.put_later(warmup_s, self.idle_store, r)


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one scenario run (all quantities virtual-time exact)."""

    config: ServeConfig
    virtual_finish: float
    generated: int
    admitted: int
    dropped: int
    timed_out: int
    completed: int
    failed: int
    latencies: tuple[float, ...]
    p50_s: float
    p99_s: float
    p999_s: float
    throughput_rps: float
    mean_batch: float
    utilization: dict[int, float]
    depth_peak: int
    active_peak: int
    scale_ups: int
    scale_downs: int
    excluded: tuple[tuple[int, float], ...]
    tracer: Tracer | None
    log: ServeLog
    execution_path: str
    """``"recurrence"`` or ``"des"``: which executor ran (not part of
    :meth:`invariants` — both produce the same numbers)."""

    def invariants(self) -> dict[str, Any]:
        """The bit-comparable fingerprint of this run (determinism
        goldens and the committed BENCH baseline compare exactly this)."""
        return {
            "virtual_finish": self.virtual_finish,
            "generated": self.generated,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "timed_out": self.timed_out,
            "completed": self.completed,
            "failed": self.failed,
            "latency_sum": math.fsum(self.latencies),
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "p999_s": self.p999_s,
        }

    def summary(self) -> str:
        """Operator-facing text summary (the ``repro serve`` output)."""
        lines = [
            f"serve: {self.config.replicas} replicas, "
            f"{self.config.arrivals.kind} arrivals at "
            f"{self.config.arrivals.rate:g} rps over "
            f"{self.config.horizon_s:g} s",
            f"  requests: {self.generated} generated, {self.admitted} admitted, "
            f"{self.completed} completed, {self.dropped} dropped, "
            f"{self.timed_out} timed out, {self.failed} failed",
            f"  latency: p50 {1e3 * self.p50_s:.1f} ms, "
            f"p99 {1e3 * self.p99_s:.1f} ms, p99.9 {1e3 * self.p999_s:.1f} ms",
            f"  throughput: {self.throughput_rps:.2f} rps, "
            f"mean batch {self.mean_batch:.2f}, "
            f"peak queue depth {self.depth_peak}",
        ]
        util = ", ".join(
            f"r{r}={100 * self.utilization[r]:.0f}%" for r in sorted(self.utilization)
        )
        if util:
            lines.append(f"  replica utilization: {util}")
        if self.scale_ups or self.scale_downs:
            lines.append(
                f"  autoscale: {self.scale_ups} up / {self.scale_downs} down, "
                f"peak active {self.active_peak}"
            )
        if self.excluded:
            who = ", ".join(f"r{r}@{t:.2f}s" for r, t in self.excluded)
            lines.append(f"  excluded replicas: {who}")
        return "\n".join(lines)


def _courier(
    ctx: RankCtx, r: int, state: ServeState, log: ServeLog, cfg: ServeConfig
) -> Generator:
    """Front-end transport loop for replica ``r``: ship batches, await
    results, detect crashes via response timeout."""
    while True:
        batch = yield Get(state.work[r])
        if batch is STOP:
            if not state.excluded[r]:
                stop = PayloadStub(STOP_BYTES, "serve.stop")
                yield from ctx.send(r, stop, tag=TAG_STOP)
            return
        t0 = ctx.now
        payload, seconds = batch_message(cfg.cost, batch)
        yield from ctx.send(r, payload, tag=TAG_REQUEST)
        timeout = seconds * cfg.detect_margin + cfg.detect_floor_s
        try:
            yield from ctx.recv(source=r, tag=TAG_RESULT, timeout=timeout)
        except RecvTimeoutError:
            state.active[r] = False
            state.excluded[r] = True
            state.in_circulation[r] = False
            log.note_failed(len(batch))
            log.note_excluded(r, ctx.now)
            yield Put(state.done_store, 1)
            return
        now = ctx.now
        for q in batch:
            log.note_completed(now - q.t)
        log.note_batch_done(r, now - t0)
        yield Put(state.idle_store, r)
        yield Put(state.done_store, 1)


def _replica_program(ctx: RankCtx) -> Generator:
    """Replica server: decode every batch it is sent until told to stop."""
    batches = 0
    while True:
        msg = yield from ctx.recv(source=0)
        if msg.tag == TAG_STOP:
            break
        _stub, seconds, result_nbytes = msg.payload
        yield from ctx.compute(seconds, "serve.decode")
        yield from ctx.send(
            0, PayloadStub(result_nbytes, "serve.result"), tag=TAG_RESULT
        )
        batches += 1
    return {"batches": batches}


def _frontend_program(
    ctx: RankCtx,
    cfg: ServeConfig,
    state: ServeState,
    log: ServeLog,
    queue: AdmissionQueue,
    requests: list,
) -> Generator:
    """Rank-0 program: spawn the serving processes, wait for drain,
    then shut the system down."""
    eng = ctx.comm.engine
    arrivals = eng.process(
        admission_process(queue, requests, log), name="serve.arrivals"
    )
    router = eng.process(
        batcher_process(queue, cfg.batch, state, log, cfg.request_timeout_s),
        name="serve.batcher",
    )
    couriers = [
        eng.process(_courier(ctx, r, state, log, cfg), name=f"serve.courier[{r}]")
        for r in state.replica_ids
    ]
    scaler = None
    if cfg.autoscale is not None:
        scaler = eng.process(
            autoscaler_process(queue, cfg.autoscale, state, log),
            name="serve.autoscaler",
        )
    yield AllOf([arrivals])
    while not log.drained():
        yield Get(state.done_store)
    state.stopping = True
    if scaler is not None:
        # idle between sampling ticks by construction; killing it keeps
        # the next tick from stretching the reported finish time
        eng.kill(scaler)
    yield Put(queue.store, WAKE)
    for r in state.replica_ids:
        yield Put(state.work[r], STOP)
    yield AllOf([router, *couriers])


def simulate_serving(
    cfg: ServeConfig, obs: Any | None = None, trace: bool = False
) -> ServeResult:
    """Run one serving scenario to completion and summarize it.

    ``obs`` attaches a :class:`~repro.obs.metrics.MetricsRegistry`
    (``serve.*`` + ``comm.*`` + ``sim.*`` + ``faults.*`` metrics);
    ``trace`` records Perfetto spans (decode spans per replica, fault
    and exclusion windows).  Both are passive: the simulated timeline
    and every :meth:`ServeResult.invariants` entry are bit-identical
    with them on or off.

    A run with neither, and with no fault plan and no autoscaler, is
    replayed by the arrival recurrence; every other run goes through
    :func:`simulate_serving_des`.  The results are bit-identical.
    """
    if cfg.fault_plan is None and cfg.autoscale is None and obs is None and not trace:
        requests = generate_arrivals(cfg.arrivals, cfg.horizon_s, cfg.seed)
        log, end = replay(cfg, requests, _network(cfg))
        return _result(cfg, log, end, None, "recurrence")
    return simulate_serving_des(cfg, obs=obs, trace=trace)


def simulate_serving_des(
    cfg: ServeConfig, obs: Any | None = None, trace: bool = False
) -> ServeResult:
    """:func:`simulate_serving` on the DES programs, whatever the config:
    the general executor, and the oracle the recurrence is held to."""
    requests = generate_arrivals(cfg.arrivals, cfg.horizon_s, cfg.seed)
    size = cfg.replicas + 1
    tracer = Tracer() if trace else None
    injector = (
        FaultInjector(cfg.fault_plan, spare=(0,))
        if cfg.fault_plan is not None
        else None
    )
    network: Any = _network(cfg)
    if injector is not None:
        network = injector.wrap_network(network)
    comm = VComm(
        size,
        network=network,
        tracer=tracer,
        trace_p2p=False,
        obs=obs,
        faults=injector,
    )
    log = ServeLog(cfg.replicas)
    initial_active = (
        cfg.autoscale.min_replicas if cfg.autoscale is not None else cfg.replicas
    )
    state = ServeState(comm.engine, cfg.replicas, initial_active)
    log.note_active(initial_active)
    queue = AdmissionQueue(comm.engine, cfg.queue_capacity)
    if obs is not None:
        from repro.obs.hooks import ServeStats

        ServeStats(log, queue).attach(obs)
        if injector is not None:
            obs.add_collector(injector.obs_records)

    def front(ctx: RankCtx) -> Generator:
        return _frontend_program(ctx, cfg, state, log, queue, requests)

    programs = [front] + [_replica_program] * cfg.replicas
    end, _returns = comm.run(programs)
    if tracer is not None:
        if injector is not None:
            injector.record_degraded_spans(tracer, end)
        for r, at in log.excluded:
            tracer.record(f"rank{r}", "serve.excluded", at, end)
    return _result(cfg, log, end, tracer, "des")


def _network(cfg: ServeConfig) -> TorusNetworkModel:
    """The front end and one node per replica on the BG/Q torus."""
    return TorusNetworkModel(nodes=cfg.replicas + 1, ranks_per_node=1)


def _result(
    cfg: ServeConfig, log: ServeLog, end: float, tracer: Tracer | None, path: str
) -> ServeResult:
    """Summarize a finished run's books — the one place either executor's
    :class:`ServeResult` is assembled."""
    lat_sorted = sorted(log.latencies)
    completed = log.completed
    return ServeResult(
        config=cfg,
        virtual_finish=end,
        generated=log.generated,
        admitted=log.admitted,
        dropped=log.dropped,
        timed_out=log.timed_out,
        completed=completed,
        failed=log.failed,
        latencies=tuple(log.latencies),
        p50_s=quantile(lat_sorted, 0.50),
        p99_s=quantile(lat_sorted, 0.99),
        p999_s=quantile(lat_sorted, 0.999),
        throughput_rps=completed / cfg.horizon_s,
        mean_batch=(
            sum(log.batch_sizes) / len(log.batch_sizes) if log.batch_sizes else 0.0
        ),
        utilization={
            r: log.busy.get(r, 0.0) / end if end > 0 else 0.0
            for r in range(1, cfg.replicas + 1)
        },
        depth_peak=log.depth_peak,
        active_peak=log.active_peak,
        scale_ups=log.scale_ups,
        scale_downs=log.scale_downs,
        excluded=tuple(log.excluded),
        tracer=tracer,
        log=log,
        execution_path=path,
    )
