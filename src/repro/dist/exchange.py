"""The exchange: how one unit of work reaches the workers and its result
returns — the paper's Section IV master/worker protocol, stated once for
both machines (DESIGN.md §2a).

An exchange has four generator methods: the master's
``scatter_gather(work)`` (work out, the combined result back and
returned) and ``finish()`` (release the workers), and the worker's
``next_work()`` (the next item, ``None`` once the master finished) and
``reply(work, result)``.  :func:`worker_program` is the one worker
program over any of them.  :class:`CollectiveExchange` (the paper's
broadcast + reduce) and :class:`RecoveringExchange` (fault-tolerant
tagged p2p, DESIGN.md §8) run the simulator's phase table over a
:class:`SimWire`; :class:`ThreadExchange` runs the real trainer.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator

from repro.dist.timeline import COMPUTE, P2P, label
from repro.faults import FaultRecoveryError
from repro.vmpi.collectives import bcast, reduce, serial_bcast
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG, RankCtx, RecvTimeoutError
from repro.vmpi.costmodel import PayloadStub
from repro.vmpi.ops import SUM

__all__ = [
    "SEGMENT_BYTES", "CollectiveExchange", "RecoveringExchange", "SimWire",
    "ThreadExchange", "worker_program",
]

SEGMENT_BYTES = 1 << 20
"""Pipeline segment of the simulator's executed tree collectives; a
theta collective larger than this (on more than 8 ranks) takes its
closed-form cost instead of executing message by message."""


def worker_program(ex: Any, compute: Callable[[Any], tuple[Any, Any]]) -> Generator:
    """Take work, pay for it, reply — until the master finishes.

    ``compute(work)`` returns ``(charge, result)``: the generator to
    delegate to for the work's cost (``ctx.compute`` in the simulator,
    ``()`` on threads, whose callback did the math) and the reply."""
    while (work := (yield from ex.next_work())) is not None:
        charge, result = compute(work)
        yield from charge
        yield from ex.reply(work, result)


# ------------------------------------------------------------- simulated
def _spanned(ctx: RankCtx, lbl: str, collective: Generator) -> Generator:
    """An executed collective under one span."""
    t0 = ctx.now
    yield from collective
    ctx.record_span(lbl, t0)


class SimWire:
    """What one simulated run's exchanges share: the phase table, its
    byte-counted payloads, the route of every collective, and the inputs
    of fault recovery (``first_tag``, ``injector``, ``recovery``)."""

    def __init__(
        self, cfg: Any, schedule: Any, plan: Any, first_tag: int,
        injector: Any = None, recovery: Any = None,
    ) -> None:
        self.cfg, self.schedule, self.plan = cfg, schedule, plan
        self.first_tag, self.injector, self.recovery = first_tag, injector, recovery
        self.phases = schedule.phases
        self.by_name = {ph.name: ph for ph in self.phases}
        self.serial = cfg.bcast_algorithm == "serial"
        self.theta = PayloadStub(cfg.workload.theta_bytes, "theta")
        self.loss = PayloadStub(16, "loss")
        self.sync, self.go = PayloadStub(4, "sync"), PayloadStub(4, "go")
        # The protocol moves two payload sizes: route each once per run.
        self.bcast_route = self._route(schedule.bcast_model, self.theta.nbytes)
        self.up = {  # Phase.reduce -> (payload, route)
            kind: (stub, self._route(schedule.reduce_model, stub.nbytes))
            for kind, stub in (("theta", self.theta), ("loss", self.loss))
        }

    def _route(self, model: Callable, nbytes: int) -> tuple[bool, str, float]:
        """(modeled?, algo label, cost) of one collective: large payloads
        take the validated closed-form cost; small ones execute the real
        tree algorithms message by message."""
        if nbytes > SEGMENT_BYTES and self.cfg.shape.ranks > 8:
            return (True, *model(nbytes))
        return False, "fixed", 0.0

    def modeled(self, ctx: RankCtx, lbl: str, cost: float, op: str, algo: str) -> Generator:
        """Tiny-message barrier (straggler wait stays emergent) followed
        by the closed-form transfer charge."""
        stats = ctx.comm.coll_stats
        t0 = ctx.comm.engine._now
        yield from reduce(ctx, self.sync, root=0)
        yield from bcast(ctx, self.go if ctx.rank == 0 else None, root=0)
        if cost > 0:
            yield float(cost)
        ctx.record_span(lbl, t0)
        if stats is not None:
            stats.log.append((op, algo, ctx.comm.engine._now - t0))

    # Both return the generator to delegate to rather than wrapping it: a
    # ``yield from`` level costs every resume of everything beneath it.
    def theta_down(self, ctx: RankCtx, lbl: str, payload: Any = None) -> Generator:
        """Theta from the master (``payload`` is ``None`` on workers)."""
        fast, algo, cost = self.bcast_route
        if self.serial:
            return _spanned(ctx, lbl, serial_bcast(ctx, payload, root=0))
        if fast:
            return self.modeled(ctx, lbl, cost, "bcast", algo)
        return _spanned(ctx, lbl, bcast(ctx, payload, root=0, segment_bytes=SEGMENT_BYTES))

    def result_up(self, ctx: RankCtx, ph: Any) -> Generator:
        """The phase's result — theta or the loss stub — summed onto the
        master."""
        payload, (fast, algo, cost) = self.up[ph.reduce]
        lbl = ph.reduce_label
        if fast:
            return self.modeled(ctx, lbl, cost, "reduce", algo)
        return _spanned(ctx, lbl, reduce(ctx, payload, root=0, segment_bytes=SEGMENT_BYTES))


class CollectiveExchange:
    """The paper's protocol: theta down a broadcast, the result up a
    reduction; every rank walks the phase table in step."""

    def __init__(self, ctx: RankCtx, wire: SimWire) -> None:
        self.ctx = ctx
        self.wire = wire
        self.todo = iter(wire.phases)

    def scatter_gather(self, ph: Any) -> Generator:
        """Master: theta out, the reduction back."""
        yield from self.wire.theta_down(self.ctx, ph.bcast_labels[0], self.wire.theta)
        yield from self.reply(ph, None)

    def next_work(self) -> Generator:
        """Worker: the next phase, once its theta has arrived."""
        ph = next(self.todo, None)
        if ph is not None:
            yield from self.wire.theta_down(self.ctx, ph.bcast_labels[1])
        return ph

    def reply(self, ph: Any, secs: float | None) -> Generator:
        """The phase's reduction, to delegate to; ``secs`` is the
        gradient compute just charged (``None`` on the master)."""
        if ph.reduce != "overlap":
            return self.wire.result_up(self.ctx, ph)
        # full gradient compute already charged; the bucketed pipeline
        # leaves only the exposed communication
        schedule = self.wire.schedule
        cost = schedule.master_exposed if secs is None else schedule.exposed(secs)
        return self.wire.modeled(
            self.ctx, ph.reduce_label, cost, "reduce", schedule.grad_algo
        )

    def finish(self) -> tuple:
        """Nothing to tear down: the table's end is the run's end."""
        return ()


# Master-driven tagged p2p (DESIGN.md §8): every phase (gradient, one CG
# product, one held-out eval) gets a unique tag; the master sends work to
# each live worker and collects replies under that tag with a bounded
# timeout/retry/backoff loop.  Strict phases exclude workers that stay
# silent through all retries; quorum phases (CG) proceed once
# ``policy.cg_quorum`` of the live set replied, keeping stragglers in the
# protocol.  Work payloads are PayloadStubs whose ``kind`` string (the
# phase's wire name, or "shutdown") tells the worker what to compute.
_SHUTDOWN = PayloadStub(4, "shutdown")
_LBL_COLLECT = label(P2P, "ft_collect")
_LBL_RESTART = label(COMPUTE, "master_restart")


class RecoveringExchange:
    """The same two programs over a transport that survives faults."""

    def __init__(self, ctx: RankCtx, wire: SimWire) -> None:
        self.ctx = ctx
        self.wire = wire
        if ctx.rank == 0:  # the live set is the master's alone: O(p)
            self.tag = wire.first_tag  # the next phase's
            self.live = list(range(1, wire.cfg.shape.ranks))
            self.lost_frames = 0.0
            self.restart_at = wire.injector and wire.injector.master_crash_time()
        else:
            self.tag = -1  # of the work last answered
            self.last_reply = wire.loss

    def scatter_gather(self, ph: Any) -> Generator:
        """Send ``ph`` to every live worker under a fresh tag and collect
        the replies (all of them, or the CG quorum)."""
        ctx, live, wire = self.ctx, self.live, self.wire
        pol, recovery = wire.cfg.fault_policy, wire.recovery
        if (
            ph.opens_iteration
            and self.restart_at is not None
            and ctx.now >= self.restart_at
        ):
            # Fail-stop master: model the respawn reloading the last
            # iteration-boundary checkpoint (util.checkpoint format) and
            # replaying nothing — iteration-granular recovery.
            self.restart_at = None
            yield from ctx.compute(pol.restart_seconds, _LBL_RESTART)
            recovery.add(
                ctx.now, "master_restart", 0,
                f"checkpoint-restart resumed before iteration "
                f"{ph.iteration} ({pol.restart_seconds:g}s modeled reload)",
            )
        what = ph.name
        payload = PayloadStub(wire.theta.nbytes, what)
        t0 = ctx.now
        tag = self.tag
        self.tag += 1
        for w in live:
            yield from ctx.send(w, payload, tag=tag)
        needed = (
            len(live) if ph.strict
            else max(1, math.ceil(pol.cg_quorum * len(live)))
        )
        replied: set[int] = set()
        retries = 0
        timeout = pol.recv_timeout
        while len(replied) < needed:
            try:
                msg = yield from ctx.recv(source=ANY_SOURCE, tag=tag, timeout=timeout)
            except RecvTimeoutError as err:
                missing = [w for w in live if w not in replied]
                # err carries the (source, tag) the wait was for
                recovery.add(
                    ctx.now, "timeout", 0,
                    f"{what} tag={err.tag} after {err.timeout:g}s "
                    f"missing={missing}",
                )
                if retries >= pol.max_retries:
                    break
                retries += 1
                timeout *= pol.backoff
                recovery.add(
                    ctx.now, "retry", 0,
                    f"{what} resend to {missing} next_timeout={timeout:g}",
                )
                for w in missing:
                    yield from ctx.send(w, payload, tag=tag)
                continue
            replied.add(msg.src)
        if len(replied) < needed:
            missing = [w for w in live if w not in replied]
            if ph.strict:
                for w in missing:
                    live.remove(w)
                    self.lost_frames += float(wire.plan.grad_frames[w - 1])
                    recovery.add(
                        ctx.now, "exclude", w,
                        f"silent through {retries} retries of {what}",
                    )
                    # best-effort: a straggler (not dead) that wakes up
                    # later must drain to this and exit
                    yield from ctx.send(w, _SHUTDOWN, tag=tag)
                if not live:
                    raise FaultRecoveryError(
                        f"all workers dead at {what} (t={ctx.now:g})"
                    )
                total = float(wire.plan.grad_frames.sum())
                recovery.add(
                    ctx.now, "renormalize", 0,
                    f"gradient weight over {total - self.lost_frames:.0f}/"
                    f"{total:.0f} surviving frames",
                )
            else:
                if not replied:
                    raise FaultRecoveryError(
                        f"no quorum for {what}: zero replies (t={ctx.now:g})"
                    )
                recovery.add(
                    ctx.now, "partial", 0,
                    f"{what} proceeding with {len(replied)}/{needed} "
                    "GN-sample workers",
                )
        ctx.record_span(_LBL_COLLECT, t0)

    def next_work(self) -> Generator:
        """Worker: the next fresh phase; a duplicate (a master retry that
        crossed our reply) gets the cached reply retransmitted, not
        recomputed; ``None`` on shutdown."""
        ctx = self.ctx
        while True:
            msg = yield from ctx.recv(source=0, tag=ANY_TAG, timeout=None)
            kind = msg.payload.kind
            if kind == "shutdown":
                return None
            if msg.tag == self.tag:
                yield from ctx.send(0, self.last_reply, tag=msg.tag)
                continue
            self.tag = msg.tag
            return self.wire.by_name[kind]

    def reply(self, ph: Any, secs: float | None) -> Generator:
        """Worker: the answer, under the tag the work arrived on."""
        self.last_reply = self.wire.loss if ph.reduce == "loss" else self.wire.theta
        return self.ctx.send(0, self.last_reply, tag=self.tag)

    def finish(self) -> Generator:
        """Master: release the surviving workers."""
        for w in self.live:
            yield from self.ctx.send(w, _SHUTDOWN, tag=self.tag)


# ------------------------------------------------------------ real threads
class ThreadExchange:
    """Real threads, over a :class:`~repro.vmpi.inprocess.ThreadRankComm`'s
    collective view (``ctx``): the work item down vmpi's broadcast, every
    rank's result up its SUM reduction, where the master adds the work
    item's ``zero``."""

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx

    def scatter_gather(self, work: Any) -> Generator:
        """Master: ``work`` out, the summed results back."""
        yield from bcast(self.ctx, work, root=0)
        return (yield from reduce(self.ctx, work.zero, SUM, root=0))

    def next_work(self) -> Generator:
        """Worker: the master's next work item (``None`` means stop)."""
        return (yield from bcast(self.ctx, None, root=0))

    def reply(self, work: Any, result: Any) -> Generator:
        """Worker: ``result`` into the sum."""
        return reduce(self.ctx, result, SUM, root=0)

    def finish(self) -> Generator:
        """Master: the stop broadcast."""
        return bcast(self.ctx, None, root=0)
