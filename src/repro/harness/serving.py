"""Serving sweeps: saturation curve and the batching tradeoff.

Two drivers over :func:`~repro.serve.scenario.simulate_serving`:

* :func:`run_saturation_sweep` holds the cluster fixed and walks the
  offered load across the analytic capacity — the classic hockey-stick:
  p50 stays near the service time until ~85 % capacity, p99 bends first
  (the *knee* the committed baseline asserts on), and past 100 % the
  queue fills, latency is timeout-bounded, and drops/timeouts absorb
  the overload.
* :func:`run_batching_tradeoff` holds the load fixed and walks the
  dynamic-batching knobs (``max_batch`` / ``max_wait_ms``) — bigger
  batches buy GEMM efficiency (throughput) at the price of batching
  delay on every request.

Every sweep point is crash-free and autoscale-free, so it replays on
the arrival recurrence (:mod:`repro.serve.recurrence`), not on the
DES.  Everything downstream of a fixed seed is bit-deterministic, so
the sweep's numbers are committed verbatim to ``BENCH_sim_vmpi.json``
and compared exactly by ``benchmarks/test_serve_saturation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.serve import (
    ArrivalSpec,
    BatchPolicy,
    DecodeCostModel,
    ServeConfig,
    ServeResult,
    simulate_serving,
)

__all__ = [
    "DEFAULT_SWEEP_LOADS",
    "SweepPoint",
    "capacity_rps",
    "run_batching_tradeoff",
    "run_saturation_sweep",
    "render_batching",
    "render_saturation",
    "serve_payload",
]

DEFAULT_SWEEP_LOADS = (0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2)
"""Offered load as a fraction of analytic capacity: three healthy
points, the knee region, and two overload points."""


def capacity_rps(
    replicas: int,
    batch: BatchPolicy | None = None,
    arrivals: ArrivalSpec | None = None,
    cost: DecodeCostModel | None = None,
) -> float:
    """Analytic peak throughput: full batches on every replica.

    The sweep's load axis is normalized by this, so "load 1.05" means
    5 % past the best the cluster could do with perfect batching —
    real achieved throughput saturates slightly below it because
    batches close partially filled.
    """
    batch = batch if batch is not None else BatchPolicy()
    arrivals = arrivals if arrivals is not None else ArrivalSpec()
    cost = cost if cost is not None else DecodeCostModel()
    mean_frames = (arrivals.min_frames + arrivals.max_frames) / 2.0
    return replicas * cost.service_rate(batch.max_batch, mean_frames)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep cell: the knob setting plus the run's outcome."""

    load: float
    offered_rps: float
    max_batch: int
    max_wait_ms: float
    result: ServeResult

    def row(self) -> dict[str, Any]:
        """The committed-baseline record for this point (all fields
        bit-deterministic for a fixed seed)."""
        r = self.result
        return {
            "load": self.load,
            "offered_rps": self.offered_rps,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "generated": r.generated,
            "completed": r.completed,
            "dropped": r.dropped,
            "timed_out": r.timed_out,
            "failed": r.failed,
            "throughput_rps": r.throughput_rps,
            "mean_batch": r.mean_batch,
            "depth_peak": r.depth_peak,
            "p50_s": r.p50_s,
            "p99_s": r.p99_s,
            "p999_s": r.p999_s,
        }


def _base_config(
    replicas: int, rate: float, horizon_s: float, seed: int, **overrides: Any
) -> ServeConfig:
    return ServeConfig(
        replicas=replicas,
        arrivals=ArrivalSpec(rate=rate),
        horizon_s=horizon_s,
        seed=seed,
        **overrides,
    )


def run_saturation_sweep(
    replicas: int = 8,
    loads: Sequence[float] = DEFAULT_SWEEP_LOADS,
    horizon_s: float = 30.0,
    seed: int = 0,
    batch: BatchPolicy | None = None,
    quick: bool = False,
) -> list[SweepPoint]:
    """Walk offered load across capacity at a fixed cluster size.

    ``quick`` shrinks the cluster and horizon for smoke tests (seconds
    of wall time); quick numbers are *not* comparable to the committed
    baseline.
    """
    batch = batch if batch is not None else BatchPolicy()
    if quick:
        replicas = min(replicas, 4)
        horizon_s = min(horizon_s, 8.0)
        loads = (0.3, 0.7, 0.95, 1.2)
    cap = capacity_rps(replicas, batch)
    points = []
    for load in loads:
        rate = load * cap
        cfg = _base_config(replicas, rate, horizon_s, seed, batch=batch)
        points.append(
            SweepPoint(
                load=load,
                offered_rps=rate,
                max_batch=batch.max_batch,
                max_wait_ms=batch.max_wait_ms,
                result=simulate_serving(cfg),
            )
        )
    return points


def run_batching_tradeoff(
    replicas: int = 8,
    load: float = 0.85,
    max_batches: Sequence[int] = (1, 4, 8, 16),
    max_waits_ms: Sequence[float] = (5.0, 20.0, 80.0),
    horizon_s: float = 30.0,
    seed: int = 0,
    quick: bool = False,
) -> list[SweepPoint]:
    """Walk the dynamic-batching grid at fixed offered load.

    The offered rate is anchored to capacity at the *largest* batch
    setting so every cell sees identical traffic — smaller ``max_batch``
    cells are therefore progressively overloaded, which is the point:
    the grid shows where batching stops being a latency tax and starts
    being the thing keeping the cluster alive.
    """
    if quick:
        replicas = min(replicas, 4)
        horizon_s = min(horizon_s, 8.0)
        max_batches = tuple(max_batches)[:2]
        max_waits_ms = tuple(max_waits_ms)[:2]
    anchor = BatchPolicy(max_batch=max(max_batches), max_wait_ms=min(max_waits_ms))
    rate = load * capacity_rps(replicas, anchor)
    points = []
    for mb in max_batches:
        for mw in max_waits_ms:
            policy = BatchPolicy(max_batch=mb, max_wait_ms=mw)
            cfg = _base_config(replicas, rate, horizon_s, seed, batch=policy)
            points.append(
                SweepPoint(
                    load=load,
                    offered_rps=rate,
                    max_batch=mb,
                    max_wait_ms=mw,
                    result=simulate_serving(cfg),
                )
            )
    return points


def render_saturation(points: list[SweepPoint]) -> str:
    """Text table of the saturation sweep (the ``repro perf --serve``
    output)."""
    header = (
        f"{'load':>6} {'rps':>7} {'done':>6} {'drop':>5} {'t/o':>5} "
        f"{'thru':>7} {'batch':>6} {'p50 ms':>8} {'p99 ms':>8} {'p99.9 ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        r = p.result
        lines.append(
            f"{p.load:>6.2f} {p.offered_rps:>7.2f} {r.completed:>6d} "
            f"{r.dropped:>5d} {r.timed_out:>5d} {r.throughput_rps:>7.2f} "
            f"{r.mean_batch:>6.2f} {1e3 * r.p50_s:>8.1f} "
            f"{1e3 * r.p99_s:>8.1f} {1e3 * r.p999_s:>9.1f}"
        )
    return "\n".join(lines)


def render_batching(points: list[SweepPoint]) -> str:
    """Text table of the batching-tradeoff grid."""
    header = (
        f"{'max_b':>6} {'wait ms':>8} {'done':>6} {'drop':>5} {'t/o':>5} "
        f"{'thru':>7} {'batch':>6} {'p50 ms':>8} {'p99 ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        r = p.result
        lines.append(
            f"{p.max_batch:>6d} {p.max_wait_ms:>8.1f} {r.completed:>6d} "
            f"{r.dropped:>5d} {r.timed_out:>5d} {r.throughput_rps:>7.2f} "
            f"{r.mean_batch:>6.2f} {1e3 * r.p50_s:>8.1f} {1e3 * r.p99_s:>8.1f}"
        )
    return "\n".join(lines)


def serve_payload(quick: bool = False, seed: int = 0) -> dict[str, Any]:
    """The ``serve`` section of ``BENCH_sim_vmpi.json``.

    Pure virtual-time results — no wall clocks anywhere — so the
    committed section is compared **bit-for-bit** by
    ``benchmarks/test_serve_saturation.py`` (unlike the wall-clock
    micro/macro sections, which get ratio tolerances).
    """
    replicas = 4 if quick else 8
    sat = run_saturation_sweep(replicas=replicas, seed=seed, quick=quick)
    trade = run_batching_tradeoff(replicas=replicas, seed=seed, quick=quick)
    return {
        "replicas": replicas,
        "seed": seed,
        "quick": quick,
        "capacity_rps": capacity_rps(replicas),
        "saturation": [p.row() for p in sat],
        "batching": [p.row() for p in trade],
    }
