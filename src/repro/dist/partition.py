"""Utterance-to-worker partitioning (the paper's Section V-C).

Speech utterances vary wildly in length (our synthetic lengths are
log-normal, like real corpora), so distributing *equal numbers of
utterances* gives workers unequal *frame* counts — and every reduction
then waits for the most-loaded straggler.  The paper's fix: "we
preprocessed the data by sorting and computed the number of utterances
per worker such that they all receive equal amount of data."

* :func:`naive_partition` — round-robin by utterance index (the
  before state, the LB ablation's baseline);
* :func:`balanced_partition` — sort by length, then greedy
  longest-processing-time assignment to the currently lightest worker
  (the classic 4/3-approximation to makespan; this is the paper's
  sorted scheme);
* :func:`imbalance` — max/mean frame load, the quantity that multiplies
  straggler wait time at synchronization points.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

__all__ = ["Assignment", "naive_partition", "balanced_partition", "imbalance"]


class Assignment:
    """Which worker owns each utterance, plus the length table used.

    Held as one ``int64`` array, ``worker_of[utterance] -> worker``;
    ``workers`` and ``lengths`` are tuples derived from it on demand and
    :meth:`grouped` is ``workers`` as arrays.
    """

    __slots__ = ("worker_of", "n_workers", "_lengths")

    def __init__(self, workers: Sequence[Sequence[int]], lengths: Sequence[int]) -> None:
        """From each worker's utterance indices: every utterance of
        ``lengths`` exactly once."""
        n, counts = len(lengths), [len(w) for w in workers]
        utts = np.fromiter(chain.from_iterable(workers), np.int64, sum(counts))
        bad = utts[(utts < 0) | (utts >= n)]
        if bad.size:
            raise ValueError(f"utterance index {bad[0]} out of range")
        seen = np.bincount(utts, minlength=n)
        if seen.max(initial=0) > 1:
            raise ValueError(f"utterance {seen.argmax()} assigned twice")
        if utts.size != n:
            raise ValueError(f"{n - utts.size} utterances unassigned")
        self.worker_of = np.empty(n, dtype=np.int64)
        self.worker_of[utts] = np.repeat(np.arange(len(workers)), counts)
        self.n_workers, self._lengths = len(workers), np.asarray(lengths, dtype=np.int64)

    @classmethod
    def _from_map(cls, worker_of: np.ndarray, lengths: np.ndarray, n_workers: int) -> Assignment:
        """A partitioner's complete utterance->worker map, not re-validated."""
        self = object.__new__(cls)
        self.worker_of, self._lengths, self.n_workers = worker_of, lengths, n_workers
        return self

    def grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: utterance indices sorted by worker, ascending
        within one; worker ``w`` owns ``order[bounds[w]:bounds[w + 1]]``."""
        order = np.argsort(self.worker_of, kind="stable")
        counts = np.bincount(self.worker_of, minlength=self.n_workers)
        return order, np.concatenate([[0], np.cumsum(counts)])

    @property
    def workers(self) -> tuple[tuple[int, ...], ...]:
        """Utterance indices of each worker, ascending."""
        order, bounds = (a.tolist() for a in self.grouped())
        return tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def lengths(self) -> tuple[int, ...]:
        """The length table, one entry per utterance."""
        return tuple(self._lengths.tolist())

    def frames_per_worker(self) -> np.ndarray:
        """Total utterance length on each worker, ``(n_workers,)`` int64
        (the float64 sums are exact: ``_check`` keeps the total below 2**53)."""
        loads = np.bincount(self.worker_of, self._lengths, self.n_workers)
        return loads.astype(np.int64)


def _check(lengths: Sequence[int], n_workers: int) -> np.ndarray:
    """The length table as a validated ``int64`` array."""
    if n_workers < 1:
        raise ValueError(f"need >= 1 worker, got {n_workers}")
    if len(lengths) < n_workers:
        raise ValueError(
            f"cannot spread {len(lengths)} utterances over {n_workers} workers"
        )
    arr = np.asarray(lengths)
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.rint(arr)).all()
    ):
        raise ValueError("utterance lengths must be finite integers, not booleans")
    if arr.min() < 1:
        raise ValueError("all utterance lengths must be >= 1")
    # load * n_workers + worker must be exact as an int64 and as a float64
    if arr.sum(dtype=np.float64) * n_workers >= 2**53:
        raise ValueError("length table too large to balance exactly")
    return arr.astype(np.int64, copy=False)


def naive_partition(lengths: Sequence[int], n_workers: int) -> Assignment:
    """Round-robin by utterance index, ignoring lengths."""
    arr = _check(lengths, n_workers)
    return Assignment._from_map(np.arange(arr.size) % n_workers, arr, n_workers)


def balanced_partition(lengths: Sequence[int], n_workers: int) -> Assignment:
    """Sorted greedy (LPT): longest utterance to the lightest worker.

    Ties break on worker index, so the result is deterministic for a
    given length table — required for cross-backend reproducibility.
    """
    arr = _check(lengths, n_workers)
    order = np.argsort(-arr, kind="stable")  # longest first, ties by index
    worker_of = np.empty(arr.size, dtype=np.int64)
    worker_of[order] = _lpt_takers(arr[order], n_workers)[0]
    return Assignment._from_map(worker_of, arr, n_workers)


def _lpt_takers(sizes: np.ndarray, n_workers: int) -> tuple[np.ndarray, int]:
    """Greedy list scheduling of ``sizes`` in the order given: the worker
    taking each one, and the number of rounds it took to find them.

    The heap loop's result — pop the lightest ``(load, worker)``, give it
    the next size, push it back — several pops per round (DESIGN.md §6a).
    A worker is the key ``load * n_workers + worker``: unique, ordered as
    the heap orders the pair, kept in a sorted array.
    """
    x = sizes * n_workers
    keys = np.arange(n_workers, dtype=np.int64)
    takers = np.empty(x.size, dtype=np.int64)
    pos = budget = rounds = 0
    while pos < x.size:
        left = x.size - pos
        # guess: the g workers lighter than the lightest will be after the
        # next size take the next laps * g sizes round-robin, while every
        # other worker waits behind the barrier keys[g]
        g = min(int(np.searchsorted(keys, keys[0] + x[pos])), left)
        laps = max(1, min(budget, left) // g)
        barrier = keys[g] if g < n_workers else np.iinfo(np.int64).max
        # pop[l, i]: the key of the group's i-th worker when lap l reaches it
        pop = np.empty((laps + 1, g), dtype=np.int64)
        pop[0] = keys[:g]
        np.cumsum(x[pos : pos + laps * g].reshape(laps, g), axis=0, out=pop[1:])
        pop[1:] += pop[0]
        # live[l, i]: the least other key at that moment — the rest of lap l,
        # the part of lap l + 1 already pushed back, the barrier.  The heap
        # makes pop (l, i) too iff pop[l, i] is below it; pop 0 always is
        live = np.full((laps, g), barrier)
        rest, pushed = live[:, :-1], live[:, 1:]
        np.minimum(rest, np.minimum.accumulate(pop[:-1, :0:-1], axis=1)[:, ::-1], out=rest)
        np.minimum(pushed, np.minimum.accumulate(pop[1:, :-1], axis=1), out=pushed)
        took = int((pop[:-1] < live).argmin()) or laps * g
        takers[pos : pos + took] = np.resize(pop[0] % n_workers, took)
        # the group's keys are now the next g pops: merge them back, touching
        # the sorted array only as far as they reach
        moved = pop.ravel()[took : took + g]
        reach = g + int(np.searchsorted(keys[g:], moved.max()))
        keys[:reach] = np.sort(np.concatenate([moved, keys[g:reach]]))
        pos += took
        # speculate on as much as this round kept, twice that if it kept all
        budget = 2 * took if took == laps * g else took
        rounds += 1
    return takers, rounds


def imbalance(assignment: Assignment) -> float:
    """``max(load) / mean(load)`` — 1.0 is perfect balance.

    This factor directly inflates every synchronized phase: with
    imbalance r, the makespan of a data-parallel sweep is r x the
    perfectly balanced time.
    """
    loads = assignment.frames_per_worker()
    return float(loads.max() / loads.mean())
