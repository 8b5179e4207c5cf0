"""Reactive autoscaling: queue-depth / utilization triggers with warm-up.

The controller samples the admission backlog and the in-flight batch
count every ``interval_s`` of virtual time and moves the active-replica
set between ``min_replicas`` and the configured pool size:

* **Scale up** when the backlog exceeds ``up_backlog_per_replica``
  requests per active replica (or when no replica is active at all —
  the recover-from-total-exclusion path).  A newly activated replica
  only starts taking work after ``warmup_s`` — the model-load /
  cache-warm delay — implemented by delaying its idle token.
* **Scale down** when the queue is empty and utilization (in-flight
  batches per active replica) sits below ``down_utilization``.  The
  highest-indexed active replica is marked inactive; the batcher
  retires its idle token lazily, so a busy replica finishes its
  current batch first.

The controller is a plain DES process driven by the same virtual clock
as everything else, so scaling decisions are deterministic for a fixed
seed and appear in the obs stream as ``serve.autoscale.events``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.serve.queueing import AdmissionQueue
from repro.serve.stats import ServeLog

__all__ = ["AutoscalePolicy", "autoscaler_process"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Trigger thresholds and timing for the reactive controller."""

    min_replicas: int = 2
    interval_s: float = 1.0
    up_backlog_per_replica: float = 4.0
    down_utilization: float = 0.25
    step: int = 2
    warmup_s: float = 2.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if not (math.isfinite(self.interval_s) and self.interval_s > 0.0):
            raise ValueError(f"interval_s must be finite and > 0, got {self.interval_s}")
        backlog = self.up_backlog_per_replica
        if not (math.isfinite(backlog) and backlog > 0.0):
            raise ValueError(
                f"up_backlog_per_replica must be finite and > 0, got {backlog}"
            )
        if not 0.0 <= self.down_utilization <= 1.0:
            raise ValueError(
                f"down_utilization must be in [0, 1], got {self.down_utilization}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if not (math.isfinite(self.warmup_s) and self.warmup_s >= 0.0):
            raise ValueError(f"warmup_s must be finite and >= 0, got {self.warmup_s}")


def autoscaler_process(
    queue: AdmissionQueue,
    policy: AutoscalePolicy,
    state,
    log: ServeLog,
) -> Generator:
    """DES process body: the sampling loop of the reactive controller.

    ``state`` is the scenario's :class:`~repro.serve.scenario.ServeState`.
    The loop returns once every replica is excluded (none is active and
    none can be activated); otherwise the scenario kills it at shutdown
    (it would idle until the next sampling tick and stretch the reported
    finish time).
    """
    while True:
        yield policy.interval_s
        if state.all_excluded:
            return
        active = [r for r in state.replica_ids if state.active[r]]
        n = len(active)
        backlog = queue.backlog()
        if n == 0 or backlog > policy.up_backlog_per_replica * n:
            candidates = [
                r
                for r in state.replica_ids
                if not state.active[r]
                and not state.excluded[r]
                and not state.in_circulation[r]
            ]
            k = min(policy.step, len(candidates))
            if k:
                for r in candidates[:k]:
                    state.activate(r, policy.warmup_s)
                log.note_scale("up", k)
                log.note_active(n + k)
        elif (
            n > policy.min_replicas
            and backlog == 0
            and log.in_flight < policy.down_utilization * n
        ):
            state.active[max(active)] = False
            log.note_scale("down")
            log.note_active(n - 1)
