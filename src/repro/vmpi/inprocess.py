"""Real-thread MPI-style communicator for genuinely parallel runs.

The DES backend (:mod:`repro.vmpi.comm`) runs rank programs cooperatively
on a virtual clock — ideal for timing studies at thousands of ranks.
This module instead runs a handful of ranks on *real OS threads* with a
blocking send/recv/collective API, so examples and tests can demonstrate
actual wall-clock parallelism: the heavy numpy kernels (GEMM in the
gradient computation) release the GIL, so data-parallel workers overlap
on multicore hosts.

The API mirrors :class:`~repro.vmpi.comm.RankCtx` minus the generators:

    def program(comm: ThreadRankComm):
        if comm.rank == 0:
            comm.send(1, payload, tag=3)
        else:
            msg = comm.recv(source=0, tag=3)

There are no collectives here: each rank runs the generators of
:mod:`repro.vmpi.collectives` against a view whose p2p blocks on this
module's mailboxes, so both backends send the same messages with the
same tags, root checks and fold order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from repro.vmpi import collectives
from repro.vmpi.comm import ANY_SOURCE, ANY_TAG
from repro.vmpi.ops import SUM, ReduceOp

__all__ = ["ThreadRankComm", "run_threaded", "WorkerFailure"]

_DEFAULT_TIMEOUT = 120.0


class WorkerFailure(RuntimeError):
    """A rank program raised; carries the originating rank."""

    def __init__(self, rank: int, cause: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


@dataclass(frozen=True)
class _Envelope:
    src: int
    tag: int
    payload: Any


class _Fabric:
    """Shared mailbox state for one threaded communicator."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.inboxes: list[list[_Envelope]] = [[] for _ in range(size)]
        self.conds = [threading.Condition() for _ in range(size)]
        self.failed = threading.Event()
        self.failures: list[WorkerFailure] = []
        """In the order the rank programs raised: the first is the culprit."""


class _CollectiveView:
    """The :class:`~repro.vmpi.comm.RankCtx` surface the collectives read,
    over one rank's blocking p2p.  It is its own ``comm``, whose set
    ``recv_timeout`` keeps the collectives off their DES-only fast path;
    its p2p generators return without yielding."""

    coll_stats = collective_checker = coll_policy = network = engine = tracer = None

    def __init__(self, owner: "ThreadRankComm") -> None:
        self._owner = owner
        self.comm = self
        self.rank = owner.rank
        self.size = owner.size
        self.recv_timeout = owner.timeout
        self._coll_seq = 0

    def send(self, dest: int, payload: Any, tag: int = 0) -> Generator:
        self._owner.send(dest, payload, tag)
        yield from ()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        yield from ()
        return self._owner.recv(source, tag)

    def sendrecv(self, dest: int, payload: Any, source: int, tag: int = 0) -> Generator:
        yield from self.send(dest, payload, tag)
        return (yield from self.recv(source, tag))


class ThreadRankComm:
    """Per-rank blocking communicator handle."""

    def __init__(self, fabric: _Fabric, rank: int, timeout: float = _DEFAULT_TIMEOUT) -> None:
        self._fabric = fabric
        self.rank = rank
        self.timeout = timeout
        self._view = _CollectiveView(self)

    @property
    def size(self) -> int:
        return self._fabric.size

    # ------------------------------------------------------------------- p2p
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deposit ``payload`` in ``dest``'s inbox and wake its waiters."""
        if not 0 <= dest < self.size:
            raise ValueError(f"send to invalid rank {dest} (size {self.size})")
        if tag < 0:
            raise ValueError(f"send tag must be >= 0, got {tag}")
        cond = self._fabric.conds[dest]
        with cond:
            self._fabric.inboxes[dest].append(_Envelope(self.rank, tag, payload))
            cond.notify_all()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _Envelope:
        """Block until a matching envelope arrives; FIFO per (src, tag)."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"recv from invalid rank {source}")
        cond = self._fabric.conds[self.rank]
        inbox = self._fabric.inboxes[self.rank]
        with cond:
            while True:
                for i, env in enumerate(inbox):
                    if (source == ANY_SOURCE or env.src == source) and (
                        tag == ANY_TAG or env.tag == tag
                    ):
                        return inbox.pop(i)
                if self._fabric.failed.is_set():
                    raise WorkerFailure(self.rank, RuntimeError("peer failed"))
                if not cond.wait(timeout=self.timeout):
                    raise TimeoutError(
                        f"rank {self.rank} timed out waiting for "
                        f"(source={source}, tag={tag})"
                    )

    # ------------------------------------------------------------ collectives
    def collective(self, fn: Callable[..., Generator], *args: Any, **kwargs: Any) -> Any:
        """Run the generator ``fn(view, *args, **kwargs)`` — a collective
        or a whole exchange program — on this rank; returns its result."""
        gen = fn(self._view, *args, **kwargs)
        try:
            while True:
                next(gen)
        except StopIteration as done:
            return done.value

    # The same-named repro.vmpi.collectives functions, run on this rank.
    def barrier(self) -> None:
        self.collective(collectives.barrier)

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        return self.collective(collectives.bcast, value, root)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        return self.collective(collectives.gather, value, root)

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any | None:
        return self.collective(collectives.reduce, value, op, root)

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        return self.collective(collectives.allreduce, value, op)

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        return self.collective(collectives.scatter, values, root)


def run_threaded(
    size: int,
    program: Callable[[ThreadRankComm], Any] | Sequence[Callable[[ThreadRankComm], Any]],
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run rank programs on real threads; return per-rank results.

    Raises :class:`WorkerFailure` for the rank whose program raised
    first if any program raises — surviving ranks are unblocked via the
    failure flag.
    """
    if callable(program):
        programs = [program] * size
    else:
        programs = list(program)
        if len(programs) != size:
            raise ValueError(f"got {len(programs)} programs for {size} ranks")
    fabric = _Fabric(size)
    results: list[Any] = [None] * size

    def runner(rank: int) -> None:
        comm = ThreadRankComm(fabric, rank, timeout=timeout)
        try:
            results[rank] = programs[rank](comm)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            fabric.failures.append(WorkerFailure(rank, exc))
            fabric.failed.set()
            for cond in fabric.conds:
                with cond:
                    cond.notify_all()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"vmpi-rank{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            fabric.failed.set()
            raise TimeoutError(f"thread {t.name} did not finish within {timeout}s")
    if fabric.failures:
        raise fabric.failures[0]
    return results
