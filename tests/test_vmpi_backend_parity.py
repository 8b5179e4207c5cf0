"""Differential harness: one SPMD program, both vmpi backends.

The thread communicator runs :mod:`repro.vmpi.collectives` itself, so a
generated program — collectives of every public algorithm that needs no
policy, each with a drawn root, operator and payload kind (numpy arrays,
floats, ``PayloadStub``\\ s), mixed with p2p ``sendrecv`` shifts — must
give the same result on :class:`~repro.vmpi.VComm` and on
:func:`~repro.vmpi.run_threaded`: byte-identical return values on every
rank and the same messages between the same ranks.  The threads go
through ``ThreadRankComm``'s own ``bcast``/``gather``/``reduce``/
``allreduce``/``scatter``/``barrier`` where one exists, so a private
copy of an algorithm there shows up as different traffic.

A handful of examples run in tier-1; ``CI=1`` runs it at depth.
"""

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.vmpi import (
    MAX,
    MIN,
    SUM,
    PayloadStub,
    RankCtx,
    ThreadRankComm,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    nbytes_of,
    ordered_reduce,
    rabenseifner_allreduce,
    reduce,
    reduce_scatter,
    ring_allreduce,
    run_spmd,
    run_threaded,
    scatter,
    serial_bcast,
    torus_allreduce,
    torus_bcast,
)

EXAMPLES = 300 if os.environ.get("CI") else 20

_ANY = ("array", "float", "stub")
_PARTS = ("array", "stub")
"""Payloads a schedule can move in parts (ring, Rabenseifner, torus)."""


@dataclass(frozen=True)
class _Case:
    """One public collective with a fixed algorithm: ``fn`` takes the
    arguments ``shape`` names, the ``fixed`` keywords and the ``drawn``
    ones; ``method`` is the ``ThreadRankComm`` method that runs the same
    call, if there is one."""

    fn: Callable
    shape: str
    kinds: tuple = _ANY
    fixed: tuple = ()
    drawn: tuple = ()
    method: str | None = None

    def kwargs(self, grid: tuple, segment_bytes: int) -> dict:
        drawn = {"grid": grid, "segment_bytes": segment_bytes}
        return {**dict(self.fixed), **{k: drawn[k] for k in self.drawn}}


_CASES = {
    "bcast": _Case(bcast, "bcast", method="bcast"),
    "bcast_segmented": _Case(
        bcast, "bcast", fixed=(("algo", "segmented"),), drawn=("segment_bytes",)
    ),
    "serial_bcast": _Case(serial_bcast, "bcast"),
    "torus_bcast": _Case(torus_bcast, "bcast", drawn=("grid",)),
    "reduce": _Case(reduce, "rooted_op", method="reduce"),
    "reduce_ring": _Case(reduce, "rooted_op", _PARTS, (("algo", "ring"),)),
    "reduce_rabenseifner": _Case(reduce, "rooted_op", _PARTS, (("algo", "rabenseifner"),)),
    "allreduce": _Case(allreduce, "op", method="allreduce"),
    "ring_allreduce": _Case(ring_allreduce, "op", _PARTS),
    "rabenseifner_allreduce": _Case(rabenseifner_allreduce, "op", _PARTS),
    "torus_allreduce": _Case(torus_allreduce, "op", _PARTS, drawn=("grid",)),
    "reduce_scatter": _Case(reduce_scatter, "op", _PARTS),
    "gather": _Case(gather, "rooted", method="gather"),
    "scatter": _Case(scatter, "scatter", method="scatter"),
    "allgather": _Case(allgather, "value"),
    "ordered_reduce": _Case(ordered_reduce, "rooted_op"),
    "barrier": _Case(barrier, "none", method="barrier"),
}


@dataclass(frozen=True)
class _Step:
    """One statement of a generated program: a collective (``case``) or,
    with ``case=None``, a ``sendrecv`` ring shift by ``shift`` ranks."""

    case: str | None
    kind: str = "float"
    seed: int = 0
    n: int = 1
    root: int = 0
    op: Any = SUM
    shift: int = 0
    kwargs: dict = field(default_factory=dict)


def _payload(step: _Step, rank: int) -> Any:
    rng = np.random.default_rng([step.seed, rank])
    if step.kind == "array":
        return rng.standard_normal(step.n)
    if step.kind == "stub":
        return PayloadStub(8 * step.n, "grad")
    return float(rng.standard_normal())


def _args(step: _Step, rank: int, size: int) -> tuple:
    """The positional arguments after ``ctx``; the same on both backends."""
    shape = _CASES[step.case].shape
    if shape == "none":
        return ()
    if shape == "scatter":
        values = [_payload(step, r) for r in range(size)] if rank == step.root else None
        return values, step.root
    value = _payload(step, rank)
    if shape == "value":
        return (value,)
    if shape == "op":
        return value, step.op
    if shape == "rooted_op":
        return value, step.op, step.root
    if shape == "bcast":
        return (value if rank == step.root else None), step.root
    return value, step.root


def _des_program(steps: list[_Step]) -> Callable:
    def program(ctx):
        out = []
        for tag, step in enumerate(steps):
            if step.case is None:
                dst, src = (ctx.rank + step.shift) % ctx.size, (ctx.rank - step.shift) % ctx.size
                msg = yield from ctx.sendrecv(dst, _payload(step, ctx.rank), source=src, tag=tag)
                out.append(msg.payload)
            else:
                fn = _CASES[step.case].fn
                res = yield from fn(ctx, *_args(step, ctx.rank, ctx.size), **step.kwargs)
                out.append(res)
        return out

    return program


def _thread_program(steps: list[_Step]) -> Callable:
    def program(comm):
        out = []
        for tag, step in enumerate(steps):
            if step.case is None:
                dst, src = (comm.rank + step.shift) % comm.size, (comm.rank - step.shift) % comm.size
                comm.send(dst, _payload(step, comm.rank), tag=tag)
                out.append(comm.recv(source=src, tag=tag).payload)
                continue
            case, args = _CASES[step.case], _args(step, comm.rank, comm.size)
            if case.method is not None:
                out.append(getattr(comm, case.method)(*args, **step.kwargs))
            else:
                out.append(comm.collective(case.fn, *args, **step.kwargs))
        return out

    return program


@contextmanager
def recorded_traffic():
    """Every message either backend injects while the block runs, as
    ``(src, dst, tag, nbytes)`` rows: DES messages at ``RankCtx.post``,
    thread messages at ``ThreadRankComm.send``."""
    rows: list[tuple[int, int, int, int]] = []
    post, send = RankCtx.post, ThreadRankComm.send

    def des_post(self, dest, payload, tag=0):
        rows.append((self.rank, dest, tag, nbytes_of(payload)))
        return post(self, dest, payload, tag)

    def thread_send(self, dest, payload, tag=0):
        rows.append((self.rank, dest, tag, nbytes_of(payload)))
        return send(self, dest, payload, tag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RankCtx, "post", des_post)
        mp.setattr(ThreadRankComm, "send", thread_send)
        yield rows


def _pairs(rows: list[tuple[int, int, int, int]]) -> Counter:
    """The ``(src, dst, messages, bytes)`` multiset of a run's traffic."""
    messages, nbytes = Counter(), Counter()
    for src, dst, _tag, n in rows:
        messages[src, dst] += 1
        nbytes[src, dst] += n
    return Counter((s, d, messages[s, d], nbytes[s, d]) for s, d in messages)


def _canon(x: Any) -> Any:
    """A value's exact contents: arrays and floats by their bytes."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, np.generic):
        return (type(x).__name__, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, tuple(_canon(i) for i in x))
    return (type(x).__name__, x)


def _assert_backends_agree(size: int, steps: list[_Step]) -> None:
    with recorded_traffic() as rows:
        des = run_spmd(size, _des_program(steps)).values
        des_rows = list(rows)
        rows.clear()
        threads = run_threaded(size, _thread_program(steps), timeout=60)
    for rank in range(size):
        assert _canon(threads[rank]) == _canon(des[rank]), f"rank {rank}"
    assert _pairs(rows) == _pairs(des_rows)
    # per message, tags included: both backends number collectives alike
    assert Counter(rows) == Counter(des_rows)


def _grids(size: int) -> st.SearchStrategy:
    """Row-major rank grids covering ``size`` ranks, unit dims included."""
    divisors = [d for d in range(1, size + 1) if size % d == 0]
    return st.sampled_from(divisors).flatmap(
        lambda d: st.sampled_from([(d, size // d), (size // d, 1, d), (size,)])
    )


@st.composite
def _steps(draw, size: int) -> _Step:
    name = draw(st.sampled_from([None, *_CASES]))
    seed, n = draw(st.integers(0, 2**16)), draw(st.integers(1, 40))
    if name is None:
        kind = draw(st.sampled_from(_ANY))
        return _Step(None, kind, seed, n, shift=draw(st.integers(0, size - 1)))
    case = _CASES[name]
    kwargs = case.kwargs(draw(_grids(size)), draw(st.sampled_from([8, 24, 64])))
    return _Step(
        name,
        draw(st.sampled_from(case.kinds)),
        seed,
        n,
        root=draw(st.integers(0, size - 1)),
        op=draw(st.sampled_from([SUM, MAX, MIN])),
        kwargs=kwargs,
    )


@st.composite
def _programs(draw) -> tuple[int, list[_Step]]:
    size = draw(st.integers(1, 16))
    return size, draw(st.lists(_steps(size), min_size=1, max_size=6))


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_programs())
def test_generated_programs_agree_across_backends(program):
    _assert_backends_agree(*program)


@pytest.mark.parametrize("size", [4, 6, 16])
def test_every_collective_agrees_across_backends(size):
    """Each case once, with a non-zero root, on every payload kind it
    takes — the generated programs draw from the same catalogue."""
    steps = [_Step(None, "array", 1, 5, shift=1)]
    for name, case in _CASES.items():
        kwargs = case.kwargs((2, size // 2), 24)
        steps += [
            _Step(name, kind, len(steps) + i, 9, root=size - 1, kwargs=kwargs)
            for i, kind in enumerate(case.kinds)
        ]
    _assert_backends_agree(size, steps)
