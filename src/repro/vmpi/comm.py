"""Virtual MPI communicator on the discrete-event engine.

Rank programs are generator functions ``def program(ctx): ...`` receiving
a :class:`RankCtx`.  All communication operations are sub-generators used
with ``yield from``::

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.arange(4), tag=7)
        else:
            msg = yield from ctx.recv(source=0, tag=7)

Semantics follow MPI's matched, tagged, per-pair-ordered point-to-point
model: a receive matches the oldest pending message from the requested
source (or ``ANY_SOURCE``) with the requested tag (or ``ANY_TAG``).
Message transfer time is charged by the communicator's
:class:`~repro.vmpi.costmodel.NetworkModel`; the *sender* blocks only for
the injection time (eager protocol with DMA offload, as on BG/Q's
messaging unit), while the payload lands in the destination inbox when
the network delivers it.

Rank inboxes are :class:`Mailbox` stores: pending messages are indexed
by ``(source, tag)`` key so the common exact-match receive is an O(1)
dict lookup + deque pop, and wildcard receives (``ANY_SOURCE`` /
``ANY_TAG``) fall back to a min-over-candidate-keys scan that preserves
the oldest-matching-message-wins FIFO order of a linear inbox exactly.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Sequence
from typing import Any, Callable, Generator, Iterable, NamedTuple

import numpy as np

from repro.analysis.runtime import CollectiveOrderChecker
from repro.sim.engine import Engine, Get, GetTimeout, SimError, Timeout
from repro.sim.trace import Tracer
from repro.vmpi.costmodel import NetworkModel, UniformNetwork, delivery, nbytes_of

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Mailbox",
    "Message",
    "RankCtx",
    "RecvTimeoutError",
    "VComm",
]

ANY_SOURCE = -1
ANY_TAG = -1

_USE_COMM_DEFAULT = object()
"""Sentinel: ``recv(timeout=...)`` falls back to the communicator-wide
``recv_timeout`` unless the call overrides it (``None`` disables)."""


class RecvTimeoutError(SimError):
    """A matched receive waited longer than its timeout.

    The message names rank, requested source/tag, and the virtual time;
    the same facts are attached as attributes (``rank``, ``source``,
    ``tag``, ``timeout``, ``at`` — source/tag as requested, so
    ``ANY_SOURCE`` / ``ANY_TAG`` stay ``-1``) so recovery code such as
    the fault policy's master collection loop can act on *what* timed
    out instead of parsing the string.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        source: int | None = None,
        tag: int | None = None,
        timeout: float | None = None,
        at: float | None = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.source = source
        self.tag = tag
        self.timeout = timeout
        self.at = at


def _fmt_source(source: int) -> str:
    return "ANY_SOURCE" if source == ANY_SOURCE else str(source)


def _fmt_tag(tag: int) -> str:
    return "ANY_TAG" if tag == ANY_TAG else str(tag)


class _RankNames(Sequence):
    """``["rank0", ..., "rank<size-1>"]`` without the list.

    A communicator names its ranks for process labels, trace rows and
    deadlock reports; a 262144-rank vector run never asks for one of
    them, so each name is made when it is read.  ``index`` is the O(1)
    inverse the tracer's per-process queries use.
    """

    __slots__ = ("_size",)

    def __init__(self, size: int) -> None:
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, rank: int) -> str:  # type: ignore[override]
        if not 0 <= rank < self._size:
            raise IndexError(rank)
        return f"rank{rank}"

    def index(self, name: str) -> int:  # type: ignore[override]
        digits = name[4:]
        if name[:4] == "rank" and digits.isdecimal():
            rank = int(digits)
            if rank < self._size and name == f"rank{rank}":
                return rank
        raise ValueError(f"{name!r} is not one of {self._size} rank names")


class Message(NamedTuple):
    """One in-flight or delivered message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    sent_at: float


class Mailbox:
    """Rank inbox with per-``(source, tag)`` FIFO indexes.

    Implements the engine's store protocol (``_offer`` / ``_take`` /
    ``_park`` / ``_cancel``) so :class:`~repro.sim.engine.Engine` drives
    it exactly like a plain :class:`~repro.sim.engine.Store`, plus the
    ``describe_get`` / ``waits_on`` diagnostic hooks used by deadlock
    reports.

    Pending messages live in ``_queues[(src, tag)]`` deques of
    ``(arrival_seq, message)``; ``_src_keys`` / ``_tag_keys`` map one
    fixed coordinate to the set of live keys so single-wildcard receives
    only scan matching keys.  Empty queues are removed eagerly — the
    wildcard scans and the key sets never see dead keys, and memory stays
    proportional to the number of genuinely pending messages.  The
    arrival sequence number makes wildcard matching exact: the candidate
    queue heads are each key's oldest message, so the minimum head seq is
    the globally oldest matching message — precisely what a linear scan
    of a single FIFO inbox would return.
    """

    __slots__ = (
        "engine",
        "name",
        "obs_log",
        "_rank_names",
        "_queues",
        "_src_keys",
        "_tag_keys",
        "_getters",
        "_seq",
    )

    def __init__(
        self, engine: Engine, name: str, rank_names: Sequence[str] | None = None
    ) -> None:
        self.engine = engine
        self.name = name
        self.obs_log = None
        """Optional :class:`~repro.obs.hooks.CommStats` event log; when
        set, every message consumed out of this inbox (matched on arrival
        or popped by a receive) appends a ``(src, dst, -1)`` entry so
        per-pair outstanding counts close."""
        self._rank_names = rank_names
        self._queues: dict[tuple[int, int], deque[tuple[int, Message]]] = {}
        self._src_keys: dict[int, set[tuple[int, int]]] = {}
        self._tag_keys: dict[int, set[tuple[int, int]]] = {}
        # parked getters: (process, source-or-None, tag-or-None), FIFO.
        # A rank blocks on at most one receive, so this deque is tiny.
        self._getters: deque[tuple[Any, int | None, int | None]] = deque()
        self._seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        # integer count for a debug repr: order cannot matter
        pending = sum(len(q) for q in self._queues.values())  # repro: noqa(DET002)
        return f"<Mailbox {self.name} items={pending} waiters={len(self._getters)}>"

    @property
    def items(self) -> list[Message]:
        """All pending messages in arrival order (diagnostic view)."""
        merged = [entry for q in self._queues.values() for entry in q]
        merged.sort()
        return [m for _, m in merged]

    # --------------------------------------------------- engine store protocol
    def _offer(self, item: Message) -> Any:
        getters = self._getters
        if getters:
            src, tag = item.src, item.tag
            for i, (getter, want_src, want_tag) in enumerate(getters):
                if (want_src is None or want_src == src) and (
                    want_tag is None or want_tag == tag
                ):
                    del getters[i]
                    log = self.obs_log
                    if log is not None:
                        log.append((item.src, item.dst, -1))
                    return getter
        key = (item.src, item.tag)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
            self._src_keys.setdefault(item.src, set()).add(key)
            self._tag_keys.setdefault(item.tag, set()).add(key)
        q.append((self._seq, item))
        self._seq += 1
        return None

    def _take(self, command: Get) -> tuple[bool, Message | None]:
        src, tag = command.source, command.tag
        queues = self._queues
        if src is not None and tag is not None:
            key = (src, tag)
            q = queues.get(key)
            if q is None:
                return False, None
            item = q.popleft()[1]
            if not q:
                self._drop_key(key)
            log = self.obs_log
            if log is not None:
                log.append((item.src, item.dst, -1))
            return True, item
        if tag is not None:
            keys: Any = self._tag_keys.get(tag)
        elif src is not None:
            keys = self._src_keys.get(src)
        else:
            keys = queues
        if not keys:
            return False, None
        best = min(keys, key=lambda k: queues[k][0][0])
        q = queues[best]
        item = q.popleft()[1]
        if not q:
            self._drop_key(best)
        log = self.obs_log
        if log is not None:
            log.append((item.src, item.dst, -1))
        return True, item

    def _drop_key(self, key: tuple[int, int]) -> None:
        del self._queues[key]
        srcs = self._src_keys[key[0]]
        srcs.discard(key)
        if not srcs:
            del self._src_keys[key[0]]
        tags = self._tag_keys[key[1]]
        tags.discard(key)
        if not tags:
            del self._tag_keys[key[1]]

    def _park(self, proc: Any, command: Get) -> Any:
        entry = (proc, command.source, command.tag)
        self._getters.append(entry)
        return entry

    def _cancel(self, entry: Any) -> bool:
        try:
            self._getters.remove(entry)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------- diagnostic hooks
    def describe_get(self, command: Get) -> str:
        """Human-readable form of a blocked receive, for deadlock reports."""
        src = ANY_SOURCE if command.source is None else command.source
        tag = ANY_TAG if command.tag is None else command.tag
        return f"recv(source={_fmt_source(src)}, tag={_fmt_tag(tag)})"

    def waits_on(self, command: Get) -> str | None:
        """Name of the rank a blocked receive waits on (None if any-source)."""
        if command.source is None or self._rank_names is None:
            return None
        return self._rank_names[command.source]


class VComm:
    """A communicator: ``size`` ranks, each with an inbox, over a network."""

    def __init__(
        self,
        size: int,
        network: NetworkModel | None = None,
        engine: Engine | None = None,
        tracer: Tracer | None = None,
        sizer: Callable[[Any], int] = nbytes_of,
        trace_p2p: bool = True,
        recv_timeout: float | None = None,
        check_collectives: bool = True,
        obs: Any | None = None,
        coll_policy: Any | None = None,
        faults: Any | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"communicator needs >= 1 rank, got {size}")
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError(f"recv_timeout must be > 0, got {recv_timeout}")
        self.size = size
        self.engine = engine if engine is not None else Engine()
        self.network = network if network is not None else UniformNetwork()
        self.tracer = tracer
        self.sizer = sizer
        self.trace_p2p = trace_p2p
        """When False, per-message mpi_send/mpi_recv spans are suppressed
        (large simulations record phase-level spans instead; dropping the
        per-message ones keeps the tracer from dominating memory)."""
        self.recv_timeout = recv_timeout
        """Default timeout (virtual seconds) for every matched receive on
        this communicator; ``None`` waits forever.  A receive that trips
        it raises :class:`RecvTimeoutError` naming rank/source/tag/time
        instead of hanging the engine on a lost message."""
        self.collective_checker: CollectiveOrderChecker | None = (
            CollectiveOrderChecker(size) if check_collectives else None
        )
        """Online collective-sequence verifier; the collectives in
        :mod:`repro.vmpi.collectives` record each entry here so a
        schedule divergence raises
        :class:`~repro.analysis.runtime.CollectiveOrderError` naming the
        offending ranks instead of deadlocking opaquely."""
        self._rank_names = _RankNames(size)
        self._inboxes: list[Mailbox] = []
        """One inbox per rank, built by :meth:`run` — the only place
        ranks are spawned and so the only place a message can land.  An
        executor that replays the run as array phases never calls it and
        allocates nothing per rank."""
        self.obs = obs
        """Attached :class:`~repro.obs.metrics.MetricsRegistry`, or None."""
        self.coll_policy = coll_policy
        """Optional :class:`~repro.vmpi.algoselect.CollectivePolicy`;
        collectives called with ``algo="auto"`` consult it to pick the
        cheapest algorithm for (p, nbytes) on this network."""
        self.faults = faults
        """Optional :class:`~repro.faults.inject.FaultInjector`.  When
        None (the default) the p2p send paths and :meth:`RankCtx.compute`
        pay one attribute check each and nothing else — the same
        zero-cost gating discipline as ``comm_stats``.  When set, sends
        consult :meth:`~repro.faults.inject.FaultInjector.drop_message`
        and compute charges are scaled by straggler windows; crash events
        are armed against the rank processes in :meth:`run`."""
        self.coll_stats = None
        """Per-(op, algo) collective counts + per-op simulated-duration
        histograms (:class:`~repro.obs.hooks.CollectiveStats`), built iff
        ``obs`` is set.  Collectives append ``(op, algo, duration)``
        tuples; folding happens lazily at scrape time."""
        self.comm_stats = None
        """Per-(src, dst) traffic matrices + outstanding-message HWM
        (:class:`~repro.obs.hooks.CommStats`), built iff ``obs`` is set.
        When None, the p2p hot paths pay one attribute check per message
        and nothing else (the ``_fast_p2p`` gating discipline)."""
        self._obs_log = None
        """``comm_stats.log`` when attached — the hot paths append event
        tuples straight onto the stats log, skipping the method call."""
        if obs is not None:
            from repro.obs.hooks import CollectiveStats, CommStats

            self.coll_stats = CollectiveStats().attach(obs)
            self.comm_stats = CommStats(size).attach(obs)
            self._obs_log = self.comm_stats.log
            self.engine.attach_obs(obs)
        self._sends = 0
        self._bytes_sent = 0
        # Hoisted network-model lookups: one getattr per communicator
        # instead of one per message on the send fast path.
        self._wire_time = self.network.wire_time
        self._p2p_time = self.network.p2p_time
        self._injection_time = self.network.injection_time
        self._pair_time = getattr(self.network, "pair_time", None)
        """Optional combined (p2p, wire) lookup — models declaring it
        promise both costs are pure in (src, dst, nbytes), letting the
        send path make one call instead of two."""
        self._wire_busy_until: defaultdict[tuple[int, int], float] = defaultdict(float)
        """Per (src, dst) pair: when the wire frees up (0.0 before its
        first message).  Back-to-back messages between the same pair
        serialize at link bandwidth — without this, pipelined segment
        streams would exceed the link rate."""
        self._rank_finish_times: list[float] | None = None
        """Per-rank virtual finish times, populated by :meth:`run` (or by
        the vector executor from its clock vector); consumed by the
        critical-path / attribution passes in :mod:`repro.obs`."""

    # ------------------------------------------------------------------ stats
    @property
    def total_sends(self) -> int:
        return self._sends

    @property
    def total_bytes(self) -> int:
        return self._bytes_sent

    def bulk_account(self, messages: int, nbytes: int) -> None:
        """Fold a batch of vector-path messages into the send totals.

        The vectorized SPMD executor models whole tree levels without
        calling ``post``/``send``, so it reports its message traffic
        here in aggregate; ``total_sends``/``total_bytes`` stay equal to
        what the scalar scheduler would have counted message by message.
        """
        self._sends += messages
        self._bytes_sent += nbytes

    # ------------------------------------------------------------------- run
    def run(
        self,
        programs: Iterable[Callable[["RankCtx"], Generator]],
        until: float | None = None,
    ) -> tuple[float, list[Any]]:
        """Instantiate one rank per program and run the DES to completion.

        ``programs`` may be a single callable (replicated across all ranks,
        SPMD style) or a sequence of exactly ``size`` callables.  Returns
        ``(virtual end time, per-rank return values)``.
        """
        if callable(programs):
            programs = [programs] * self.size
        programs = list(programs)
        if len(programs) != self.size:
            raise ValueError(
                f"got {len(programs)} programs for {self.size} ranks"
            )
        if not self._inboxes:
            names = self._rank_names
            self._inboxes = [
                Mailbox(self.engine, f"inbox[{r}]", names) for r in range(self.size)
            ]
            if self._obs_log is not None:
                for box in self._inboxes:
                    box.obs_log = self._obs_log
        ctxs = [RankCtx(self, r) for r in range(self.size)]
        procs = [
            self.engine.process(prog(ctx), name=self._rank_names[r])
            for r, (prog, ctx) in enumerate(zip(programs, ctxs))
        ]
        if self.faults is not None:
            self.faults.arm(self.engine, procs)
        t = self.engine.run(until=until)
        if until is None:
            # the run ends when the last rank finishes; stale timer
            # events (satisfied recv timeouts draining from the heap)
            # must not inflate the reported simulated time
            t = self.engine.finish_time
        self._rank_finish_times = [p.finished_at for p in procs]
        return t, [p.value for p in procs]

    @property
    def rank_finish_times(self) -> list[float] | None:
        """Per-rank virtual finish times of the last :meth:`run` (the
        vector executor records its final clock vector here); ``None``
        before any run completes."""
        return self._rank_finish_times

    def set_rank_finish_times(self, times: "Sequence[float] | np.ndarray") -> None:
        """Record per-rank finish times (a float sequence or array) on
        behalf of an executor that bypasses :meth:`run` (the vectorized
        SPMD path)."""
        if len(times) != self.size:
            raise ValueError(
                f"got {len(times)} finish times for {self.size} ranks"
            )
        self._rank_finish_times = np.asarray(times, dtype=np.float64).tolist()


class RankCtx:
    """Per-rank handle passed to a rank program."""

    __slots__ = ("comm", "rank", "_name", "_inbox", "_coll_seq")

    def __init__(self, comm: VComm, rank: int) -> None:
        if not 0 <= rank < comm.size:
            raise ValueError(f"rank {rank} out of range for size {comm.size}")
        self.comm = comm
        self.rank = rank
        self._name = comm._rank_names[rank]
        self._inbox = comm._inboxes[rank]
        self._coll_seq = 0
        """Per-rank collective call counter; gives every collective a
        unique reserved tag block (see :func:`repro.vmpi.collectives._next_tag`)."""

    # ------------------------------------------------------------- properties
    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        return self.comm.engine._now

    # ------------------------------------------------------------ time charge
    def compute(self, seconds: float, label: str = "compute") -> Generator:
        """Charge ``seconds`` of modeled computation to this rank.

        If a fault injector is attached and a straggler window covers the
        charge's start time, the charge is multiplied by the window's
        slowdown factor."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        comm = self.comm
        t0 = comm.engine._now
        faults = comm.faults
        if faults is not None:
            seconds = faults.scale_compute(self.rank, float(seconds), t0)
        yield float(seconds)
        self.record_span(label, t0)

    # ------------------------------------------------------------------- p2p
    def send(self, dest: int, payload: Any, tag: int = 0) -> Generator:
        """Blocking-for-injection send; completes when the NIC takes over."""
        comm = self.comm
        t0 = comm.engine._now
        inj = self.post(dest, payload, tag)
        if inj > 0:
            yield inj + 0.0
        if comm.trace_p2p and comm.tracer is not None:
            comm.tracer.record(self._name, "mpi_send", t0, comm.engine._now)

    def post(self, dest: int, payload: Any, tag: int = 0) -> float:
        """Inject a message and return the injection-occupancy seconds
        still to be charged — the one place a message enters the network;
        :meth:`send` and :meth:`sendrecv` are built on it.

        Callers on the hot path do ``inj = ctx.post(...)`` followed by
        ``yield inj``, skipping one generator frame per message.  Callers
        own the injection charge and any ``mpi_send`` trace span; the
        collectives use this only when p2p tracing is off.
        """
        comm = self.comm
        if not 0 <= dest < comm.size:
            raise ValueError(f"send to invalid rank {dest} (size {comm.size})")
        if tag < 0:
            raise ValueError(f"send tag must be >= 0, got {tag}")
        src = self.rank
        nbytes = comm.sizer(payload)
        t0 = comm.engine._now
        inj = comm._injection_time(nbytes)
        pair_fn = comm._pair_time
        if pair_fn is not None:
            transfer, wire = pair_fn(src, dest, nbytes)
        else:
            transfer = comm._p2p_time(src, dest, nbytes, now=t0)
            wire = comm._wire_time(src, dest, nbytes)
        key = (src, dest)
        busy = comm._wire_busy_until
        delay, busy[key] = delivery(t0, transfer, wire, busy[key], inj)
        msg = Message(src, dest, tag, payload, nbytes, t0)
        comm._sends += 1
        comm._bytes_sent += nbytes
        log = comm._obs_log
        if log is not None:
            log.append((src, dest, nbytes))
        faults = comm.faults
        if faults is None or not faults.drop_message(src, dest, t0):
            comm.engine.put_later(delay, comm._inboxes[dest], msg)
        return inj

    def recv_cmd(self, source: int | None, tag: int | None) -> "Get":
        """The :class:`Get` command :meth:`recv` would yield (``None`` =
        wildcard), with no timeout.  Hot paths do ``msg = yield
        ctx.recv_cmd(src, tag)`` to skip one generator frame per message;
        valid only when the communicator's ``recv_timeout`` is ``None``
        (otherwise :meth:`recv`'s timeout wrapping is load-bearing)."""
        return Get(self._inbox, source=source, tag=tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None | object = _USE_COMM_DEFAULT,
    ) -> Generator:
        """Blocking matched receive; returns the :class:`Message`.

        ``timeout`` (virtual seconds) bounds the wait; it defaults to the
        communicator's ``recv_timeout`` and may be overridden per call
        (``None`` waits forever).  On expiry a :class:`RecvTimeoutError`
        describing rank, source, tag, and sim-time is raised in the rank
        program.
        """
        comm = self.comm
        if source != ANY_SOURCE and not 0 <= source < comm.size:
            raise ValueError(f"recv from invalid rank {source}")
        if timeout is _USE_COMM_DEFAULT:
            timeout = comm.recv_timeout
        t0 = comm.engine._now
        try:
            msg = yield Get(
                self._inbox,
                timeout=timeout,  # type: ignore[arg-type]
                source=None if source == ANY_SOURCE else source,
                tag=None if tag == ANY_TAG else tag,
            )
        except GetTimeout:
            detail = f"recv(source={_fmt_source(source)}, tag={_fmt_tag(tag)})"
            raise RecvTimeoutError(
                f"rank {self.rank}: {detail} timed out after {timeout:g} "
                f"virtual seconds at t={self.now:g} — sender never "
                "injected a matching message (lost-message or protocol "
                "mismatch)",
                rank=self.rank,
                source=source,
                tag=tag,
                timeout=timeout,  # type: ignore[arg-type]
                at=self.now,
            ) from None
        if comm.trace_p2p and comm.tracer is not None:
            comm.tracer.record(self._name, "mpi_recv", t0, comm.engine._now)
        return msg

    def sendrecv(
        self, dest: int, payload: Any, source: int, tag: int = 0
    ) -> Generator:
        """Concurrent send+recv (the exchange step of recursive doubling).

        The send's injection and the receive's wait overlap: we post the
        send (message departs immediately) and then block on the receive;
        total charged time is max(injection, wait) as on real hardware
        with independent DMA.
        """
        t0 = self.now
        inj = self.post(dest, payload, tag)
        msg_in = yield from self.recv(source=source, tag=tag)
        # ensure at least injection time elapsed on our side
        elapsed = self.now - t0
        if elapsed < inj:
            yield inj - elapsed + 0.0
        return msg_in

    # ----------------------------------------------------------------- trace
    def record_span(self, label: str, t0: float) -> None:
        """Record an explicit phase-level span ``[t0, now]`` for this rank.

        Rank programs use this to attribute virtual time to named
        functions (``gradient_loss``, ``sync_weights_master``, ...) — the
        raw data behind the paper's Figures 2-5."""
        if self.comm.tracer is not None:
            self.comm.tracer.record(self._name, label, t0, self.now)
