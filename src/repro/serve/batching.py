"""Dynamic batching: the max-batch / max-wait request batcher.

One batcher process owns the admission queue.  It blocks for the first
request, then keeps the batch open for up to ``max_wait_s`` (or until
``max_batch`` requests are aboard), then hands the closed batch to the
first idle active replica.  That ordering gives the classic tradeoff
the saturation sweep measures: a longer wait fills batches (higher
GEMM efficiency, higher throughput) at the price of queueing latency
on every request in the batch.

Deadline expiry is enforced here, at dequeue time: an expired request
is counted ``timed_out`` and never dispatched.  A batch that is closed
and waiting for a free replica is considered in service — its
requests no longer expire (matching admission-timeout semantics in
real servers, where timers cover the queue, not the GPU).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.sim.engine import Get, GetTimeout, Put

from repro.serve.queueing import AdmissionQueue
from repro.serve.stats import ServeLog

__all__ = ["BatchPolicy", "WAKE", "batcher_process"]

WAKE = object()
"""Sentinel the scenario injects into the admission queue at shutdown to
unpark the batcher; never dispatched."""


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs (the ``--max-batch`` / ``--max-wait-ms``
    CLI flags)."""

    max_batch: int = 8
    max_wait_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0.0):
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )

    @property
    def max_wait_s(self) -> float:
        """``max_wait_ms`` in the simulator's native seconds."""
        return self.max_wait_ms / 1e3


def batcher_process(
    queue: AdmissionQueue,
    policy: BatchPolicy,
    state,
    log: ServeLog,
    timeout_s: float | None,
) -> Generator:
    """DES process body: assemble batches and assign them to replicas.

    ``state`` is the scenario's :class:`~repro.serve.scenario.ServeState`
    (idle/work stores, active flags, stopping flag).  ``timeout_s`` is
    the per-request admission deadline (``None`` disables expiry).
    """
    store = queue.store

    def expired(req) -> bool:
        return timeout_s is not None and state.now() > req.t + timeout_s

    while True:
        first = yield Get(store)
        if first is WAKE:
            if state.stopping:
                return
            continue
        if expired(first):
            log.note_timed_out()
            yield Put(state.done_store, 1)
            continue
        batch = [first]
        t_close = state.now() + policy.max_wait_s
        saw_wake = False
        while len(batch) < policy.max_batch:
            remaining = t_close - state.now()
            if remaining <= 0.0:
                if not store.items:
                    break
                item = yield Get(store)
            else:
                try:
                    item = yield Get(store, timeout=remaining)
                except GetTimeout:
                    break
            if item is WAKE:
                saw_wake = True
                break
            if expired(item):
                log.note_timed_out()
                yield Put(state.done_store, 1)
                continue
            batch.append(item)
        # hand the closed batch to the first idle *active* replica;
        # tokens of deactivated replicas are retired here (the lazy half
        # of the autoscaler's scale-down)
        while True:
            r = yield Get(state.idle_store)
            if state.active[r]:
                break
            state.in_circulation[r] = False
        log.note_dispatch(len(batch))
        yield Put(state.work[r], tuple(batch))
        if saw_wake and state.stopping:
            return
