"""Crash-free serving as one forward recurrence over the arrivals.

With no fault plan and no autoscaler, every batch's close, dispatch
and completion instant follows from the sorted arrivals by max-plus
arithmetic.  :func:`replay` walks them once with three pieces of state
— the FIFO backlog, the batcher (waiting for a first request → filling
→ waiting for an idle replica) and a heap of in-flight batches keyed by
completion — and fills the same :class:`~repro.serve.stats.ServeLog`,
in the same order and with the same float operations, as the DES
programs of :mod:`repro.serve.scenario` (a message lands where
:func:`~repro.vmpi.costmodel.delivery`, the DES send path's rule,
says): bit-identical results, with the DES as the oracle (DESIGN.md
§10).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Sequence

from repro.vmpi.costmodel import PayloadStub, delivery, nbytes_of

from repro.serve.arrivals import Request
from repro.serve.cost import DecodeCostModel
from repro.serve.stats import ServeLog

if TYPE_CHECKING:
    from repro.serve.scenario import ServeConfig

__all__ = ["STOP_BYTES", "batch_message", "replay"]

STOP_BYTES = 8
"""Wire size of the shutdown message each courier sends its replica."""


def batch_message(cost: DecodeCostModel, batch: Sequence[Request]) -> tuple[Any, float]:
    """``(request payload, modeled decode seconds)`` of one batch: what
    the courier ships to its replica, priced identically on both paths."""
    frames = sum(q.frames for q in batch)
    seconds = cost.batch_seconds(frames, len(batch))
    stub = PayloadStub(cost.request_bytes(frames), "serve.batch")
    return (stub, seconds, cost.result_bytes(frames)), seconds


def replay(
    cfg: ServeConfig, requests: list[Request], network: Any
) -> tuple[ServeLog, float]:
    """Run the crash-free, autoscale-free scenario ``cfg`` over
    ``requests`` on ``network``; returns ``(log, virtual finish)``."""
    log = ServeLog(cfg.replicas)
    log.note_active(cfg.replicas)
    timeout = cfg.request_timeout_s
    # the admission process sleeps gap by gap: its clock sums the gaps
    arrive_at: list[float] = []
    clock = prev = 0.0
    for q in requests:
        if q.t - prev > 0.0:
            clock += q.t - prev
            prev = q.t
        arrive_at.append(clock)
    backlog: deque[Request] = deque()
    idle = deque(range(1, cfg.replicas + 1))
    flight: list[tuple[float, int, int, float, list[Request]]] = []
    i, n = 0, len(requests)
    now = last = 0.0  # the batcher's clock; the last completion

    def land(src: int, dst: int, nbytes: int, at: float) -> float:
        # wire_free = at: a courier sends only after its last result came
        # back, a replica answers only after the batch arrived
        transfer, wire = network.pair_time(src, dst, nbytes)
        inj = network.injection_time(nbytes)
        return at + delivery(at, transfer, wire, at, inj)[0]

    def hand_off() -> Request:
        # the parked batcher takes the next arrival before it is queued
        nonlocal i, now
        now, i = arrive_at[i], i + 1
        log.note_generated()
        log.note_admitted(len(backlog))
        return requests[i - 1]

    def live(q: Request) -> bool:
        if timeout is not None and now > q.t + timeout:
            log.note_timed_out()
            return False
        return True

    def complete() -> int:
        nonlocal last
        last, _seq, r, sent, batch = heapq.heappop(flight)
        for q in batch:
            log.note_completed(last - q.t)
        log.note_batch_done(r, last - sent)
        return r

    while True:
        first = None
        while first is None and (backlog or i < n):
            q = backlog.popleft() if backlog else hand_off()
            first = q if live(q) else None
        if first is None:
            break
        batch = [first]
        t_close = now + cfg.batch.max_wait_s
        while len(batch) < cfg.batch.max_batch:
            remaining = t_close - now
            if backlog:
                q = backlog.popleft()
            elif remaining > 0.0 and i < n and arrive_at[i] < now + remaining:
                q = hand_off()
            else:
                if remaining > 0.0:
                    now = now + remaining  # the batcher's Get timeout fires
                break
            if live(q):
                batch.append(q)
        while flight and flight[0][0] < now:
            idle.append(complete())
        if not idle:
            # wait for the next completion; arrivals meanwhile queue or are shed
            now = flight[0][0]
            while i < n and arrive_at[i] < now:
                log.note_generated()
                if len(backlog) >= cfg.queue_capacity:
                    log.note_dropped()
                else:
                    backlog.append(requests[i])
                    log.note_admitted(len(backlog))
                i += 1
            idle.append(complete())
        r = idle.popleft()
        log.note_dispatch(len(batch))
        payload, seconds = batch_message(cfg.cost, batch)
        there = land(0, r, nbytes_of(payload), now)
        back = land(r, 0, payload[2], there + seconds)
        heapq.heappush(flight, (back, len(log.batch_sizes), r, now, batch))
    while flight:
        complete()
    log.arrivals_done = True
    # A timeout happens at an arrival or a completion instant, so the
    # front end sees the run drained at the later of the last two; it
    # then stops every replica, and the STOP deliveries end the run.
    drain = max(arrive_at[-1] if n else 0.0, last)
    replicas = range(1, cfg.replicas + 1)
    return log, max(land(0, r, STOP_BYTES, drain) for r in replicas)
