"""Compile a :class:`~repro.faults.plan.FaultPlan` into live DES hooks.

The :class:`FaultInjector` is the object a :class:`~repro.vmpi.comm.
VComm` carries in its ``faults`` slot.  It owns four mechanisms, one per
event kind:

* **crashes** — armed as engine actions at plan time; each fires
  :meth:`repro.sim.engine.Engine.kill` on the rank's process;
* **slowdowns** — :meth:`scale_compute` multiplies compute charges whose
  start time falls inside a straggler window;
* **drops** — :meth:`drop_message` decides, per send, whether the
  payload ever reaches the destination inbox (messages to crashed ranks
  always drop; scheduled drops draw from a stream seeded by the plan);
* **link degradation** — :meth:`wrap_network` interposes a
  :class:`DegradedNetworkModel` that routes affected (window, node)
  traffic through a derived network model with scaled link parameters.

Everything is deterministic: crash kills are ordinary scheduled events
(FIFO seq-ordered like all engine events), drop draws happen in send
order from a :func:`repro.util.rng.spawn`-derived stream, and window
checks are pure functions of the virtual clock.
"""

from __future__ import annotations

from typing import Any

from repro.faults.plan import FaultPlan, LinkDegrade, MessageDrop, NodeCrash, NodeSlowdown
from repro.sim.engine import Engine, SimError, SimProcess
from repro.util.rng import spawn

__all__ = ["DegradedNetworkModel", "FaultInjector"]


class DegradedNetworkModel:
    """Window-aware wrapper routing traffic through degraded variants.

    For each :class:`~repro.faults.plan.LinkDegrade` event the wrapper
    derives a scaled model via the base's ``degraded()`` (exact, used by
    :class:`~repro.bgq.network.TorusNetworkModel`) or, for models
    without one, falls back to multiplying returned times by
    ``latency_factor / bandwidth_factor``.

    The wrapper deliberately does **not** expose ``pair_time``: that
    attribute is the base model's promise that costs are pure in
    ``(src, dst, nbytes)``, which no longer holds once costs depend on
    the clock.  Its absence makes :class:`~repro.vmpi.comm.VComm` fall
    back to the per-call ``p2p_time(..., now=now)`` + ``wire_time``
    path.  ``wire_time`` has no time parameter, so the wrapper reads the
    engine clock bound via :meth:`bind_clock` — deterministic, since
    every call happens at a deterministic virtual time.  All other
    attributes delegate to the base model.
    """

    def __init__(self, base: Any, events: tuple[LinkDegrade, ...],
                 counts: dict[str, int] | None = None) -> None:
        self._base = base
        self._events = events
        self._node_sets = tuple(
            frozenset(ev.nodes) if ev.nodes is not None else None for ev in events
        )
        derive = getattr(base, "degraded", None)
        self._variants = tuple(
            derive(ev.bandwidth_factor, ev.latency_factor) if derive is not None
            else None
            for ev in events
        )
        self._node_of = getattr(base, "node_of", None)
        self._base_wire = base.wire_time
        self._counts = counts
        self._engine: Engine | None = None

    def bind_clock(self, engine: Engine) -> None:
        """Give the wrapper the engine whose clock gates the windows."""
        self._engine = engine

    def _active(self, src: int, dst: int, now: float) -> int:
        """Index of the first event covering (src, dst) at ``now``; -1 if none."""
        for i, ev in enumerate(self._events):
            if ev.start <= now < ev.end:
                nodes = self._node_sets[i]
                if nodes is None:
                    return i
                node_of = self._node_of
                nsrc = node_of(src) if node_of is not None else src
                ndst = node_of(dst) if node_of is not None else dst
                if nsrc in nodes or ndst in nodes:
                    return i
        return -1

    def injection_time(self, nbytes: int) -> float:
        """Sender-side occupancy (undegraded: the NIC is not the link)."""
        return self._base.injection_time(nbytes)

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        """Base p2p time, or the degraded variant's inside a window."""
        i = self._active(src, dst, now)
        if i < 0:
            return self._base.p2p_time(src, dst, nbytes, now=now)
        if self._counts is not None:
            self._counts["degrade"] += 1
        variant = self._variants[i]
        if variant is not None:
            return variant.p2p_time(src, dst, nbytes, now=now)
        ev = self._events[i]
        scale = ev.latency_factor / ev.bandwidth_factor
        return self._base.p2p_time(src, dst, nbytes, now=now) * scale

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Per-pair wire occupancy at the (bound) current virtual time."""
        if self._engine is None:
            raise SimError(
                "DegradedNetworkModel used before bind_clock() — the wrapper "
                "needs the engine clock to evaluate fault windows"
            )
        now = self._engine._now
        i = self._active(src, dst, now)
        if i < 0:
            return self._base_wire(src, dst, nbytes)
        variant = self._variants[i]
        if variant is not None:
            return variant.wire_time(src, dst, nbytes)
        ev = self._events[i]
        return self._base_wire(src, dst, nbytes) * (ev.latency_factor / ev.bandwidth_factor)

    def __getattr__(self, name: str) -> Any:
        # pair_time must stay absent (see class docstring); everything
        # else — collective_params, node_of, size, memory — delegates.
        if name == "pair_time":
            raise AttributeError(name)
        return getattr(self._base, name)


class FaultInjector:
    """Live fault state for one simulated run of a :class:`FaultPlan`.

    ``spare`` names ranks whose crash events are *not* armed as kills —
    the trainer spares rank 0 when a recovery policy is attached, so the
    master program can model checkpoint-restart instead of dying (its
    crash time is still visible via :meth:`master_crash_time`).

    ``counts`` tallies applied injections by kind (``crash``,
    ``slowdown``, ``degrade``, ``drop``) and feeds the
    ``faults.injected{kind}`` obs counters.
    """

    def __init__(self, plan: FaultPlan, spare: tuple[int, ...] = ()) -> None:
        self.plan = plan
        self.spare = tuple(spare)
        self.counts: dict[str, int] = {
            "crash": 0, "slowdown": 0, "degrade": 0, "drop": 0,
        }
        crash_at: dict[int, float] = {}
        slow: dict[int, list[tuple[float, float, float]]] = {}
        drops: list[MessageDrop] = []
        degrades: list[LinkDegrade] = []
        for ev in plan.events:
            if isinstance(ev, NodeCrash):
                prev = crash_at.get(ev.rank)
                if prev is None or ev.at < prev:
                    crash_at[ev.rank] = ev.at
            elif isinstance(ev, NodeSlowdown):
                slow.setdefault(ev.rank, []).append((ev.start, ev.end, ev.factor))
            elif isinstance(ev, MessageDrop):
                drops.append(ev)
            else:
                degrades.append(ev)
        self._crash_at = crash_at
        self._kill_at = {
            r: t for r, t in crash_at.items() if r not in self.spare
        }
        self._slow = {r: tuple(ws) for r, ws in slow.items()}
        self._drops = tuple(drops)
        self._degrades = tuple(degrades)
        self._drop_rng = spawn(plan.seed, "drop")
        self._wrapper: DegradedNetworkModel | None = None

    # ------------------------------------------------------------ plan views
    def master_crash_time(self) -> float | None:
        """Earliest crash scheduled for rank 0, or None."""
        return self.plan.crash_time(0)

    # --------------------------------------------------------------- wiring
    def wrap_network(self, network: Any) -> Any:
        """Return ``network``, wrapped iff the plan degrades links."""
        if not self._degrades:
            return network
        self._wrapper = DegradedNetworkModel(
            network, self._degrades, counts=self.counts
        )
        return self._wrapper

    def bind_clock(self, engine: Engine) -> None:
        """Bind the engine clock to the network wrapper (if any)."""
        if self._wrapper is not None:
            self._wrapper.bind_clock(engine)

    def arm(self, engine: Engine, procs: list[SimProcess]) -> None:
        """Schedule every non-spared crash as a kill of its rank process.

        Called by :meth:`repro.vmpi.comm.VComm.run` once rank processes
        exist; also binds the clock for the network wrapper.
        """
        self.plan.validate_ranks(len(procs))
        self.bind_clock(engine)
        now = engine._now
        for rank in sorted(self._kill_at):
            at = self._kill_at[rank]
            proc = procs[rank]

            def do_kill(proc: SimProcess = proc) -> None:
                if engine.kill(proc):
                    self.counts["crash"] += 1

            engine.schedule(max(0.0, at - now), do_kill)

    # ------------------------------------------------------------ hot hooks
    def scale_compute(self, rank: int, seconds: float, now: float) -> float:
        """Apply the first straggler window covering ``now`` for ``rank``."""
        windows = self._slow.get(rank)
        if windows is None:
            return seconds
        for start, end, factor in windows:
            if start <= now < end:
                self.counts["slowdown"] += 1
                return seconds * factor
        return seconds

    def drop_message(self, src: int, dst: int, now: float) -> bool:
        """Decide, at send time, whether this message is lost.

        Messages to a crashed (non-spared) rank always drop; otherwise
        the first :class:`MessageDrop` window matching (src, dst, now)
        draws one uniform from the plan's drop stream.  Draws happen in
        send order, so the dropped set is a pure function of the plan
        seed and the (deterministic) simulated send sequence.
        """
        crash = self._kill_at.get(dst)
        if crash is not None and now >= crash:
            self.counts["drop"] += 1
            return True
        for ev in self._drops:
            if (
                ev.start <= now < ev.end
                and (ev.src is None or ev.src == src)
                and (ev.dst is None or ev.dst == dst)
            ):
                if float(self._drop_rng.random()) < ev.probability:
                    self.counts["drop"] += 1
                    return True
                return False
        return False

    # ---------------------------------------------------------- surfacing
    def obs_records(self) -> list[dict[str, Any]]:
        """``faults.injected{kind}`` counter records for a collector."""
        from repro.obs.metrics import counter_record

        return [
            counter_record("faults.injected", self.counts[kind], kind=kind)
            for kind in ("crash", "slowdown", "degrade", "drop")
        ]

    def record_degraded_spans(self, tracer: Any, end_time: float) -> None:
        """Emit one span per degraded window so Perfetto shows the faults.

        Slowdown windows land on the affected rank's own track
        (``fault_slowdown``); link-degrade windows land on a synthetic
        ``faults`` track.  Labels carry no ``.`` so breakdown parsing
        skips them.  Windows are clamped to the run's end time.
        """
        for ev in self.plan.events:
            if isinstance(ev, NodeSlowdown):
                if ev.start >= end_time:
                    continue
                tracer.record(
                    f"rank{ev.rank}", "fault_slowdown",
                    ev.start, min(ev.end, end_time),
                )
            elif isinstance(ev, LinkDegrade):
                if ev.start >= end_time:
                    continue
                where = "fabric" if ev.nodes is None else f"nodes{list(ev.nodes)}"
                tracer.record(
                    "faults", f"fault_link_degrade_{where}",
                    ev.start, min(ev.end, end_time),
                )
            elif isinstance(ev, NodeCrash):
                if ev.at >= end_time:
                    continue
                tracer.record(f"rank{ev.rank}", "fault_crash", ev.at, end_time)
