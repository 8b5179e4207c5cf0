"""Discrete-event simulation engine.

A minimal but complete process-oriented DES in the style of SimPy, used
as the execution substrate for the virtual MPI layer (:mod:`repro.vmpi`).
Simulated processes are Python generators that ``yield`` commands — a
bare ``float`` delay, :class:`Get`, :class:`Put`, :class:`AllOf` or
:class:`VectorPhase`; the engine advances a virtual clock and resumes
processes when their commands complete.

Determinism: events at equal virtual time fire in FIFO order of their
scheduling (a monotone sequence number breaks ties), so a given set of
rank programs always interleaves identically — essential for reproducible
simulated-BG/Q figures.

Scheduler internals (the hot path, see DESIGN.md for the full argument):
the pending-event set is split into a plain ``(time, seq, action)`` tuple
heap and a zero-delay *ready deque*.  ``schedule(0.0, ...)`` — every
process start, every ``Put`` completion, every satisfied ``Get`` — is an
O(1) deque append instead of a heap push, and the run loop interleaves
the two sources by comparing the heap top's ``(time, seq)`` against the
deque head's ``seq``, which reproduces the single-heap FIFO order
exactly: ready entries are always stamped at the current virtual time,
and heap entries never lie in the past (delays are >= 0 and the clock is
monotone), so seq comparison at equal time is the only tie-break needed.
There is one run loop: with a metrics registry attached it pops through
two tallied closures instead of the bare deque and heap pops.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Engine",
    "SimProcess",
    "Get",
    "Put",
    "AllOf",
    "VectorPhase",
    "Store",
    "DeadlockError",
    "GetTimeout",
    "SimError",
]


class SimError(RuntimeError):
    """Base class for simulation errors."""


class DeadlockError(SimError):
    """Raised when live processes remain but no event can ever fire.

    The message lists every blocked process's pending operation (as
    described by the command it yielded — the vmpi layer annotates
    receives with source/tag) and, when the waits-on hints close a
    cycle, the wait-for cycle itself.
    """


class GetTimeout(SimError):
    """Thrown *into* a process whose :class:`Get` exceeded its timeout.

    Consumers (e.g. :meth:`repro.vmpi.comm.RankCtx.recv`) catch this at
    the ``yield`` and re-raise a domain-specific error with full context.
    """


Command = Any
ProcessBody = Generator[Command, Any, Any]


class Store:
    """Unbounded FIFO store with optional item filtering on get.

    Generic engine-level store: getters may pass an arbitrary
    ``predicate`` and matching scans linearly.  The vmpi layer uses the
    indexed :class:`~repro.vmpi.comm.Mailbox` (same ``_offer`` /
    ``_take`` / ``_park`` / ``_cancel`` protocol) for rank inboxes, where
    the (source, tag) key structure makes exact matches O(1).
    """

    __slots__ = ("engine", "name", "items", "_getters")

    def __init__(self, engine: "Engine", name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self.items: deque[Any] = deque()
        # waiting getters: (process, predicate or None), FIFO
        self._getters: deque[tuple[SimProcess, Callable[[Any], bool] | None]] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Store {self.name} items={len(self.items)} waiters={len(self._getters)}>"

    # --------------------------------------------------- engine store protocol
    def _offer(self, item: Any) -> "SimProcess | None":
        """Hand ``item`` to the first compatible parked getter (FIFO) and
        return it; queue the item and return None if nobody matches."""
        getters = self._getters
        for i, (getter, pred) in enumerate(getters):
            if pred is None or pred(item):
                del getters[i]
                return getter
        self.items.append(item)
        return None

    def _take(self, command: "Get") -> tuple[bool, Any]:
        """Pop the first queued item matching ``command``; (found, item)."""
        pred = command.predicate
        items = self.items
        if pred is None:
            if items:
                return True, items.popleft()
            return False, None
        for i, item in enumerate(items):
            if pred(item):
                del items[i]
                return True, item
        return False, None

    def _park(self, proc: "SimProcess", command: "Get") -> Any:
        """Register a blocked getter; returns a cancel token."""
        entry = (proc, command.predicate)
        self._getters.append(entry)
        return entry

    def _cancel(self, entry: Any) -> bool:
        """Unregister a parked getter; False if it was already satisfied."""
        try:
            self._getters.remove(entry)
        except ValueError:
            return False
        return True


class Get:
    """Take the first item from ``store`` (matching ``predicate`` if given).

    The item becomes the value of the ``yield`` expression.

    ``source`` / ``tag`` are the indexed-matching alternative to
    ``predicate``: against a :class:`~repro.vmpi.comm.Mailbox` they
    select by key (``None`` meaning wildcard) without calling back into
    Python per item.  Deadlock reports describe a blocked get, and name
    the process it waits on, through the store's optional
    ``describe_get`` / ``waits_on`` methods, built only when a report is
    made.  ``timeout``, when set, bounds the wait in virtual seconds: on
    expiry a :class:`GetTimeout` is thrown into the blocked process at
    the ``yield``.
    """

    __slots__ = ("store", "predicate", "timeout", "source", "tag")

    def __init__(
        self,
        store: Any,
        predicate: Callable[[Any], bool] | None = None,
        timeout: float | None = None,
        source: int | None = None,
        tag: int | None = None,
    ) -> None:
        self.store = store
        self.predicate = predicate
        self.timeout = timeout
        self.source = source
        self.tag = tag


class Put:
    """Deposit ``item`` into ``store`` (never blocks; stores are unbounded)."""

    __slots__ = ("store", "item")

    def __init__(self, store: Any, item: Any) -> None:
        self.store = store
        self.item = item


class AllOf:
    """Wait until all child processes (spawned handles) have finished.

    Yields a list of their return values in order.
    """

    __slots__ = ("processes",)

    def __init__(self, processes: list["SimProcess"]) -> None:
        self.processes = processes


class VectorPhase:
    """Execute one batched SPMD phase as a single heap event.

    The vectorized fast path (:mod:`repro.dist.vectorized`) drives a
    whole homogeneous rank population from one process.  Yielding a
    ``VectorPhase`` calls ``fn(now) -> (end, value)`` synchronously:
    ``fn`` advances every rank's clock with array operations and returns
    the virtual time at which the driving process resumes (``end`` must
    be ``>= now``) plus the value delivered at the ``yield``.  One event
    replaces the N-generator-step interleaving the scalar scheduler
    would perform for the same phase; the exact eligibility conditions
    and fallback rules are in DESIGN.md §6e.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float], tuple[float, Any]]) -> None:
        self.fn = fn


class SimProcess:
    """A running simulated process wrapping a generator body."""

    __slots__ = (
        "engine",
        "name",
        "body",
        "finished",
        "finished_at",
        "killed",
        "value",
        "error",
        "_waiters",
        "_blocked_cmd",
        "_park_entry",
    )

    def __init__(self, engine: "Engine", body: ProcessBody, name: str) -> None:
        self.engine = engine
        self.name = name
        self.body = body
        self.finished = False
        self.finished_at = 0.0
        """Virtual time at which the process finished (0.0 while live);
        the critical-path pass uses it to name the straggler exactly."""
        self.killed = False
        self.value: Any = None
        self.error: BaseException | None = None
        self._waiters: list[tuple[SimProcess, AllOf]] = []
        self._blocked_cmd: Any = None
        self._park_entry: Any = None
        """Cancel token of the currently parked Get, if any.  Only
        :meth:`Engine.kill` reads it; stale tokens are harmless because
        store ``_cancel`` is a no-op once the entry has been removed."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.finished:
            state = "done"
        elif self._blocked_cmd is not None:
            state = _describe_command(self._blocked_cmd)
        else:
            state = "ready"
        return f"<SimProcess {self.name} {state}>"


def _describe_command(cmd: Command) -> str:
    """Human description of a blocking command, built lazily — only
    deadlock/timeout reports and debug reprs ever pay for formatting."""
    if isinstance(cmd, Get):
        describe = getattr(cmd.store, "describe_get", None)
        if describe is not None:
            return describe(cmd)
        return f"get({cmd.store.name})"
    if isinstance(cmd, AllOf):
        return f"allof({len(cmd.processes)})"
    if isinstance(cmd, float):  # pragma: no cover - cannot deadlock
        return f"timeout({cmd:g})"
    return "?"  # pragma: no cover - defensive


def _waits_on(cmd: Command) -> str | None:
    """Wait-for-graph successor of a blocked command, if known."""
    if isinstance(cmd, Get):
        waiter = getattr(cmd.store, "waits_on", None)
        if waiter is not None:
            return waiter(cmd)
    return None


class Engine:
    """The event loop: virtual clock plus scheduled actions.

    Pending work lives in two structures: ``_queue``, a heap of
    ``(time, seq, kind, a, b)`` tuples, and ``_ready``, a deque of
    ``(seq, kind, a, b)`` tuples for zero-delay events at the current
    virtual time.  ``seq`` is one monotone counter shared by both, so
    merging the two streams by seq at equal time reproduces the order a
    single heap would produce (and, being unique, guarantees tuple
    comparison never reaches the non-ordered payload fields).

    ``kind`` selects the event's effect without allocating a closure per
    event — the previous design bound a lambda for every resume, which
    dominated allocation in large simulations:

    * ``0`` — resume process ``a`` with value ``b``;
    * ``1`` — deposit item ``b`` into store ``a``;
    * ``2`` — call ``a()`` (generic actions from :meth:`schedule`).
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Any, Any]] = []
        self._ready: deque[tuple[int, int, Any, Any]] = deque()
        self._seq = 0
        self._now = 0.0
        self._finish_time = 0.0
        self._processes: list[SimProcess] = []
        self._live = 0
        self._obs = None
        """Attached :class:`~repro.obs.metrics.MetricsRegistry`, or None.
        Selects :meth:`run`'s pop functions once per call: the bare
        deque and heap pops when None, the tallied pops otherwise."""
        # event-loop tallies, folded into the registry by the collector
        self._obs_events = [0, 0, 0]  # resume / put / action, by kind
        self._obs_peak_heap = 0
        self._obs_peak_ready = 0
        self._vector_phases = 0
        """Count of :class:`VectorPhase` commands dispatched — always
        maintained (not just under obs) so tests can assert the fast
        path actually engaged."""

    # ----------------------------------------------------------- observability
    def attach_obs(self, registry: Any) -> None:
        """Instrument this engine: event-dispatch counts by kind, peak
        heap depth, and peak ready-deque occupancy, reported through
        ``registry`` at snapshot time.

        Purely passive — the tallied pops return exactly the entries
        the bare pops would, so simulated timelines are bit-identical
        with observability on or off (pinned by the determinism
        goldens).  Attaching twice with the same registry is
        a no-op; re-attaching with a different one is an error.
        """
        if registry is self._obs:
            return
        if self._obs is not None:
            raise SimError("engine already instrumented with another registry")
        self._obs = registry
        registry.add_collector(self._obs_records)

    def _obs_records(self) -> list[dict[str, Any]]:
        from repro.obs.metrics import counter_record, gauge_record

        resume, put, action = self._obs_events
        return [
            counter_record("sim.events", resume, kind="resume"),
            counter_record("sim.events", put, kind="put"),
            counter_record("sim.events", action, kind="action"),
            counter_record("sim.vector_phases", self._vector_phases),
            counter_record("sim.processes", len(self._processes)),
            gauge_record("sim.heap_depth", len(self._queue), peak=float(self._obs_peak_heap)),
            gauge_record("sim.ready_depth", len(self._ready), peak=float(self._obs_peak_ready)),
        ]

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time (seconds by convention)."""
        return self._now

    @property
    def finish_time(self) -> float:
        """Virtual time at which the last process (so far) finished.

        Differs from :attr:`now` after a full :meth:`run` only when stale
        timer events outlive every process — e.g. a satisfied
        :class:`Get` timeout whose no-op expiry still drains from the
        heap.  Callers reporting "when did the workload end" want this,
        not the heap-drain time."""
        return self._finish_time

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` units of virtual time."""
        if delay == 0.0:
            self._ready.append((self._seq, 2, action, None))
        else:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            heapq.heappush(
                self._queue, (self._now + delay, self._seq, 2, action, None)
            )
        self._seq += 1

    # ------------------------------------------------------------- processes
    def process(self, body: ProcessBody, name: str = "proc") -> SimProcess:
        """Register a generator as a simulated process; starts at time now."""
        proc = SimProcess(self, body, name)
        self._processes.append(proc)
        self._live += 1
        self._ready.append((self._seq, 0, proc, None))
        self._seq += 1
        return proc

    def new_store(self, name: str = "store") -> Store:
        return Store(self, name)

    def put_later(self, delay: float, store: Store, item: Any) -> None:
        """Deposit ``item`` into ``store`` after ``delay`` virtual seconds.

        Used by the vmpi layer to model in-flight messages: the sender
        continues once injection completes while the payload arrives at
        the destination inbox at link-transfer time.
        """
        if delay == 0.0:
            self._ready.append((self._seq, 1, store, item))
        else:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            heapq.heappush(
                self._queue, (self._now + delay, self._seq, 1, store, item)
            )
        self._seq += 1

    def kill(self, proc: SimProcess) -> bool:
        """Fail-stop ``proc`` at the current virtual time.

        The fault-injection hook (:mod:`repro.faults`): the process is
        unparked from whatever it was blocked on, its generator is closed
        (running ``finally`` blocks), and it finishes with value ``None``
        and ``killed=True``.  ``AllOf`` waiters are woken as for a normal
        finish; events already scheduled for the process (a pending
        resume, a Get timeout) become stale and are dropped by
        :meth:`_resume`'s killed guard.  Returns False if the process had
        already finished (kill is then a no-op).
        """
        if proc.finished:
            return False
        cmd = proc._blocked_cmd
        if proc._park_entry is not None and isinstance(cmd, Get):
            cmd.store._cancel(proc._park_entry)
        proc._park_entry = None
        if isinstance(cmd, AllOf):
            for child in cmd.processes:
                try:
                    child._waiters.remove((proc, cmd))
                except ValueError:
                    pass
        proc.killed = True
        try:
            proc.body.close()
        except BaseException:
            # fail-stop: anything the body raises on the way down is lost
            # with the node (we are modeling a crash, not a clean exit)
            pass
        self._finish(proc, None, None)
        return True

    # -------------------------------------------------------------- stepping
    def run(self, until: float | None = None) -> float:
        """Run until no events remain (or virtual time exceeds ``until``).

        Returns the final virtual time.  Raises :class:`DeadlockError` if
        unfinished processes remain when the event queue drains — this is
        how mismatched sends/receives in rank programs surface.
        """
        if until is not None and self._now > until:
            # The clock already sits past ``until``: firing anything
            # (even zero-delay ready entries, which are stamped at the
            # current time) would run events later than the cap, and
            # rewinding to ``until`` would move the clock backward.
            return self._now
        queue = self._queue
        ready = self._ready
        if self._obs is None:
            pop_ready = ready.popleft
            pop_queue = heapq.heappop
        else:
            pop_ready, pop_queue = self._tallied_pops()
        resume = self._resume
        do_put = self._do_put
        while queue or ready:
            # Ready entries sit at the current virtual time; fire them
            # before any strictly-future heap event, and before an
            # equal-time heap event iff they were scheduled earlier.
            if ready and (
                not queue
                or queue[0][0] > self._now
                or ready[0][0] < queue[0][1]
            ):
                _, kind, a, b = pop_ready()
            else:
                time = queue[0][0]
                if until is not None and time > until:
                    self._now = until
                    return until
                _, _, kind, a, b = pop_queue(queue)
                self._now = time
            if kind == 0:
                resume(a, b)
            elif kind == 1:
                do_put(a, b)
            else:
                a()
        if self._live > 0:
            raise self._deadlock_error()
        return self._now

    def _tallied_pops(self) -> tuple[Callable[[], Any], Callable[[list], Any]]:
        """:meth:`run`'s pop functions with a registry attached: each
        samples its structure's depth just before popping, then counts
        the popped event by kind.

        Both structures only shrink at their own pops, so the pre-pop
        length majorizes every length since the previous pop and the
        sampled maximum equals the true maximum.
        """
        ready = self._ready
        events = self._obs_events
        heappop = heapq.heappop

        def pop_ready() -> Any:
            depth = len(ready)
            if depth > self._obs_peak_ready:
                self._obs_peak_ready = depth
            entry = ready.popleft()
            events[entry[1]] += 1
            return entry

        def pop_queue(queue: list) -> Any:
            depth = len(queue)
            if depth > self._obs_peak_heap:
                self._obs_peak_heap = depth
            entry = heappop(queue)
            events[entry[2]] += 1
            return entry

        return pop_ready, pop_queue

    def _deadlock_error(self) -> DeadlockError:
        """Build the wait-for-graph diagnostic for a drained event queue.

        Every blocked process is listed with the operation it yielded
        (annotated :class:`Get` commands carry source/tag detail from the
        vmpi layer); ``waits_on`` hints are assembled into a wait-for
        graph and the first cycle, if any, is named explicitly.
        """
        blocked = [p for p in self._processes if not p.finished]
        lines = [
            f"{self._live} process(es) blocked forever at t={self._now:g}:"
        ]
        for p in blocked[:32]:
            what = (
                _describe_command(p._blocked_cmd)
                if p._blocked_cmd is not None
                else "?"
            )
            lines.append(f"  {p.name}: waiting on {what}")
        if len(blocked) > 32:
            lines.append(f"  ... and {len(blocked) - 32} more")
        edges: dict[str, str] = {}
        for p in blocked:
            succ = _waits_on(p._blocked_cmd)
            if succ is not None:
                edges[p.name] = succ
        cycle = _find_cycle(edges)
        if cycle:
            lines.append("  wait-for cycle: " + " -> ".join(cycle))
        return DeadlockError("\n".join(lines))

    # -------------------------------------------------------------- internal
    def _resume(
        self,
        proc: SimProcess,
        send_value: Any,
        throw: BaseException | None = None,
    ) -> None:
        """Advance ``proc`` one step and act on the command it yields.

        Dispatch is inlined here (rather than a separate method) because
        this is the single hottest call in any simulation — one frame per
        event — and the common commands reduce to a couple of tuple
        appends.
        """
        if proc.finished:
            if proc.killed:
                # Stale event for a killed process (e.g. a pending resume
                # or Get timeout scheduled before the kill): drop it.
                return
            raise SimError(f"resuming finished process {proc.name}")
        proc._blocked_cmd = None
        try:
            if throw is not None:
                command = proc.body.throw(throw)
            else:
                command = proc.body.send(send_value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # propagate with process context
            self._finish(proc, None, exc)
            raise
        cls = command.__class__
        if cls is float:
            # The one delay form: suspend for ``command`` virtual
            # seconds.  A bare float, not a wrapper object — injection
            # waits and modeled compute charges dominate event volume,
            # and at that volume an allocation per delay is measurable.
            if command == 0.0:
                proc._blocked_cmd = command
                self._ready.append((self._seq, 0, proc, None))
            elif command > 0.0:
                proc._blocked_cmd = command
                heapq.heappush(
                    self._queue, (self._now + command, self._seq, 0, proc, None)
                )
            else:
                raise ValueError(f"negative timeout {command!r}")
            self._seq += 1
        elif cls is Get:
            store = command.store
            found, item = store._take(command)
            if found:
                self._ready.append((self._seq, 0, proc, item))
                self._seq += 1
                return
            proc._blocked_cmd = command
            entry = store._park(proc, command)
            proc._park_entry = entry
            if command.timeout is not None:
                self.schedule(
                    command.timeout,
                    lambda: self._expire_get(store, entry, command),
                )
        elif cls is Put:
            self._do_put(command.store, command.item)
            # puts complete immediately (unbounded store)
            self._ready.append((self._seq, 0, proc, None))
            self._seq += 1
        elif cls is AllOf:
            if all(p.finished for p in command.processes):
                results = [p.value for p in command.processes]
                self._ready.append((self._seq, 0, proc, results))
                self._seq += 1
            else:
                proc._blocked_cmd = command
                for p in command.processes:
                    if not p.finished:
                        p._waiters.append((proc, command))
        elif cls is VectorPhase:
            end, value = command.fn(self._now)
            self._vector_phases += 1
            proc._blocked_cmd = command
            if end <= self._now:
                self._ready.append((self._seq, 0, proc, value))
            else:
                heapq.heappush(self._queue, (end, self._seq, 0, proc, value))
            self._seq += 1
        elif isinstance(command, float):  # float subclass, e.g. np.float64
            proc._blocked_cmd = command
            delay = float(command)
            if delay < 0:
                raise ValueError(f"negative timeout {command!r}")
            if delay == 0.0:
                self._ready.append((self._seq, 0, proc, None))
            else:
                heapq.heappush(
                    self._queue, (self._now + delay, self._seq, 0, proc, None)
                )
            self._seq += 1
        else:
            raise SimError(
                f"process {proc.name} yielded unsupported command {command!r}"
            )

    def _finish(self, proc: SimProcess, value: Any, error: BaseException | None) -> None:
        proc.finished = True
        proc.finished_at = self._now
        proc.value = value
        proc.error = error
        self._live -= 1
        if self._now > self._finish_time:
            self._finish_time = self._now
        for waiter, allof in proc._waiters:
            if all(p.finished for p in allof.processes):
                results = [p.value for p in allof.processes]
                self._ready.append((self._seq, 0, waiter, results))
                self._seq += 1
        proc._waiters.clear()

    def _do_put(self, store: Store, item: Any) -> None:
        getter = store._offer(item)
        if getter is not None:
            self._ready.append((self._seq, 0, getter, item))
            self._seq += 1

    def _expire_get(self, store: Store, entry: Any, command: Get) -> None:
        """Expiry hook for :class:`Get`'s ``timeout``: if the getter is still parked,
        unpark it and throw :class:`GetTimeout` at its ``yield``."""
        proc = entry[0]
        if proc._blocked_cmd is not command:
            # Stale expiry: this Get was satisfied and the process moved
            # on.  The identity check is load-bearing — park entries are
            # value-compared tuples, so a later Get by the same process
            # for the same (source, tag) produces an *equal* entry and
            # ``_cancel`` alone would unpark the wrong wait (observed as
            # a timed-out receive microseconds after it was posted).
            return
        if not store._cancel(entry):
            return  # satisfied before the timeout fired
        what = _describe_command(command)
        self._resume(
            proc,
            None,
            throw=GetTimeout(
                f"{proc.name}: {what} timed out after {command.timeout:g} "
                f"virtual seconds (t={self._now:g})"
            ),
        )


def _find_cycle(edges: dict[str, str]) -> list[str] | None:
    """First cycle in a functional graph (each node has <= 1 successor),
    returned as ``[a, b, ..., a]``; None if the graph is acyclic."""
    done: set[str] = set()
    for start in edges:
        if start in done:
            continue
        path: list[str] = []
        seen_at: dict[str, int] = {}
        node: str | None = start
        while node is not None and node not in done:
            if node in seen_at:
                return path[seen_at[node] :] + [node]
            seen_at[node] = len(path)
            path.append(node)
            node = edges.get(node)
        done.update(path)
    return None


def run_all(bodies: Iterable[ProcessBody], names: Iterable[str] | None = None) -> tuple[float, list[Any]]:
    """Convenience: run independent process bodies to completion.

    Returns ``(final_time, [return values])``.
    """
    eng = Engine()
    if names is None:
        procs = [eng.process(b, f"proc{i}") for i, b in enumerate(bodies)]
    else:
        procs = [eng.process(b, n) for b, n in zip(bodies, names)]
    t = eng.run()
    return t, [p.value for p in procs]
