"""Critical-path extraction over the DES's recorded dependency structure.

A synchronous training run's ``finish_time`` is set by one *chain* of
dependent work: the straggler entering each collective, the compute that
made it late, the p2p hop that fed that compute.  This module walks that
chain backward from the finish time and returns it as an ordered list of
:class:`PathStep` segments tiling ``[0, finish_time]`` exactly — "why
did this run take as long as it did", rank and phase named.

Two granularities, one result type:

* **span** (:func:`path_from_spans`) — the scalar scheduler records
  per-rank phase spans; the walk hops rank-to-rank.  At a collective
  span the dependency edge goes to the *straggler* — the rank with the
  latest entry into the same occurrence of that collective (occurrence
  counting aligns master/worker label variants, e.g.
  ``coll.sync_weights_master`` with ``coll.sync_weights``) — because a
  barrier's exit time is set by its last arrival.  At the fault
  protocol's ``p2p.ft_collect`` the edge goes to the latest other-rank
  span ending inside the collect window (the last reply the master
  waited for).  Compute/p2p spans continue on the same rank.
* **phase** (:func:`path_from_phase_log`) — the vectorized SPMD
  executor never materialises per-rank spans; it logs one
  ``(label, end, straggler_rank)`` edge per phase, and the path is the
  phase sequence with each segment charged to that phase's straggler.
  The fast path stays eligible: no extra per-rank work is done.

Invariants (pinned by tests/test_obs_attrib.py): steps are contiguous
(``steps[i].end == steps[i+1].start`` bitwise), start at 0.0, end at
``finish_time``, and are monotone in virtual time.  Intervals no span
covers appear explicitly as ``wait`` steps, so the path never loses
time.  The walk is pure post-processing — nothing here runs during the
simulation.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import Any

from repro.obs.attrib import PHASES, category_of, phase_of, split_label

__all__ = [
    "PathStep",
    "CriticalPath",
    "critical_path",
    "path_from_phase_log",
    "path_from_spans",
]

WAIT = "wait"
"""Pseudo-label for path segments no recorded span covers."""

_RANK_NAME = re.compile(r"^rank(\d+)$")

_CANON_COLL = {"coll.sync_weights_master": "coll.sync_weights"}
"""Master-side collective labels aliased onto the worker-side label so
occurrence counting aligns the two ends of the same collective call."""


@dataclass(frozen=True)
class PathStep:
    """One segment of the critical path: ``rank`` was the chain's owner
    over ``[start, end]`` doing ``label``."""

    rank: int
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        """Attribution category of the step (``wait`` for gaps)."""
        return category_of(self.label) or WAIT

    @property
    def phase(self) -> str:
        """Protocol phase of the step (``wait`` for gaps)."""
        return phase_of(self.label) or WAIT


@dataclass(frozen=True)
class CriticalPath:
    """The longest dependency chain of one run, tiling ``[0, finish]``."""

    finish_time: float
    granularity: str
    """``"span"`` (scalar scheduler) or ``"phase"`` (vector fast path)."""
    steps: tuple[PathStep, ...]

    @property
    def total(self) -> float:
        """Span of the path — equals :attr:`finish_time` bitwise (the
        steps tile ``[0, finish_time]`` contiguously)."""
        if not self.steps:
            return 0.0
        return self.steps[-1].end - self.steps[0].start

    def by_category(self) -> dict[str, float]:
        """Path seconds per attribution category, folded in step order."""
        acc: dict[str, float] = {}
        for s in self.steps:
            c = s.category
            acc[c] = acc.get(c, 0.0) + s.duration
        return acc

    def by_phase(self) -> dict[str, float]:
        """Path seconds per protocol phase, folded in step order."""
        acc: dict[str, float] = {}
        for s in self.steps:
            p = s.phase
            acc[p] = acc.get(p, 0.0) + s.duration
        return acc

    def by_rank(self) -> dict[int, float]:
        """Path seconds per owning rank, folded in step order."""
        acc: dict[int, float] = {}
        for s in self.steps:
            acc[s.rank] = acc.get(s.rank, 0.0) + s.duration
        return acc

    @property
    def straggler_rank(self) -> int:
        """Rank owning the most path time (lowest rank on ties)."""
        by_rank = self.by_rank()
        if not by_rank:
            return -1
        return max(sorted(by_rank), key=lambda r: (by_rank[r], -r))

    @property
    def straggler_phase(self) -> str:
        """Phase owning the most path time (earliest in PHASES on ties)."""
        by_phase = self.by_phase()
        if not by_phase:
            return WAIT
        order = {p: i for i, p in enumerate(PHASES + (WAIT,))}
        return max(
            sorted(by_phase, key=lambda p: order.get(p, len(order))),
            key=lambda p: (by_phase[p], -order.get(p, len(order))),
        )

    def top_steps(self, n: int = 10) -> list[PathStep]:
        """The ``n`` longest steps, longest first (start-time tiebreak)."""
        return sorted(self.steps, key=lambda s: (-s.duration, s.start))[:n]

    def describe(self) -> str:
        """One-paragraph text summary for reports and the CLI."""
        cats = self.by_category()
        parts = ", ".join(
            f"{k}={cats[k]:.6g}s" for k in sorted(cats, key=cats.get, reverse=True)
        )
        return (
            f"critical path ({self.granularity} granularity): "
            f"{len(self.steps)} steps over {self.total:.6g}s; "
            f"straggler rank {self.straggler_rank}, "
            f"dominant phase {self.straggler_phase}; {parts}"
        )


def path_from_phase_log(
    phase_log: list[tuple[str, float, int]], finish_time: float
) -> CriticalPath:
    """Phase-granular path from the vector executor's dependency log.

    Each log entry names the phase's global end time and the rank whose
    clock set it; consecutive ends tile the run, so the path is the
    phase sequence charged to each phase's straggler.
    """
    steps: list[PathStep] = []
    prev = 0.0
    last_rank = 0
    for lbl, end, straggler in phase_log:
        if end > prev:
            steps.append(PathStep(straggler, lbl, prev, end))
            prev = end
            last_rank = straggler
    if prev < finish_time:
        steps.append(PathStep(last_rank, WAIT, prev, finish_time))
    return CriticalPath(
        finish_time=finish_time, granularity="phase", steps=tuple(steps)
    )


def path_from_spans(tracer: Any, finish_time: float) -> CriticalPath:
    """Span-granular backward walk over a tracer's per-rank spans.

    Only structured (dotted) labels on ``rank<N>`` processes
    participate; raw ``mpi_send``/``mpi_recv`` and fault overlays are
    skipped exactly as in attribution (they overlap phase spans).
    """
    rank_spans: dict[int, list[Any]] = {}
    for proc, spans in tracer.spans_by_process().items():
        m = _RANK_NAME.match(proc)
        if m is None:
            continue
        dotted = [s for s in spans if split_label(s.label) is not None]
        if dotted:
            rank_spans[int(m.group(1))] = dotted
    if not rank_spans or finish_time <= 0.0:
        steps = (
            (PathStep(0, WAIT, 0.0, finish_time),) if finish_time > 0.0 else ()
        )
        return CriticalPath(
            finish_time=finish_time, granularity="span", steps=steps
        )

    starts: dict[int, list[float]] = {}
    occ_of: dict[int, list[int]] = {}
    coll_occurrences: dict[str, dict[int, list[Any]]] = {}
    for r, spans in rank_spans.items():
        starts[r] = [s.start for s in spans]
        counters: dict[str, int] = {}
        occs = []
        for s in spans:
            if s.label.startswith("coll."):
                canon = _CANON_COLL.get(s.label, s.label)
                k = counters.get(canon, 0)
                counters[canon] = k + 1
                occs.append(k)
                coll_occurrences.setdefault(canon, {}).setdefault(r, []).append(s)
            else:
                occs.append(-1)
        occ_of[r] = occs

    strag_cache: dict[tuple[str, int], tuple[float, int]] = {}

    def straggler_entry(canon: str, k: int) -> tuple[float, int]:
        hit = strag_cache.get((canon, k))
        if hit is None:
            best_t, best_r = -1.0, -1
            per_rank = coll_occurrences[canon]
            for rr in sorted(per_rank):
                lst = per_rank[rr]
                if k < len(lst) and lst[k].start > best_t:
                    best_t, best_r = lst[k].start, rr
            hit = strag_cache[(canon, k)] = (best_t, best_r)
        return hit

    # global (end, rank) index, built lazily for ft_collect cause hops
    ends_index: list[tuple[float, int]] | None = None
    ends_only: list[float] = []

    def cause_before(lo: float, hi: float, exclude: int) -> tuple[float, int] | None:
        nonlocal ends_index
        if ends_index is None:
            # zero-length spans are skipped: they cannot be a cause and
            # hopping to one would stall the walk at a fixed time
            ends_index = sorted(
                (s.end, rr)
                for rr, spans in rank_spans.items()
                for s in spans
                if s.end > s.start
            )
            ends_only.extend(e for e, _ in ends_index)
        j = bisect.bisect_right(ends_only, hi) - 1
        while j >= 0 and ends_index[j][0] > lo:
            if ends_index[j][1] != exclude:
                e = ends_index[j][0]
                lo_j = bisect.bisect_left(ends_only, e)
                cands = [
                    rr for ee, rr in ends_index[lo_j : j + 1] if rr != exclude
                ]
                return e, min(cands)
            j -= 1
        return None

    max_end_rank = max(
        rank_spans, key=lambda rr: (rank_spans[rr][-1].end, -rr)
    )
    t = finish_time
    r = max_end_rank
    steps_rev: list[PathStep] = []

    def emit(rank: int, lbl: str, lo: float, hi: float) -> None:
        if hi > lo:
            steps_rev.append(PathStep(rank, lbl, lo, hi))

    last_end = rank_spans[max_end_rank][-1].end
    if last_end < t:
        emit(r, WAIT, last_end, t)
        t = last_end

    guard = 2 * sum(len(rank_spans[rr]) for rr in sorted(rank_spans)) + 64
    while t > 0.0 and guard > 0:
        guard -= 1
        spans = rank_spans.get(r)
        i = bisect.bisect_left(starts[r], t) - 1 if spans else -1
        if i < 0:
            emit(r, WAIT, 0.0, t)
            t = 0.0
            break
        s = spans[i]
        if s.end < t:
            # idle gap on this rank: the rank resumed at t because some
            # other rank's work completed inside the gap (the message it
            # was blocked on) — hop to that cause and charge the gap to
            # wait; fall back to same-rank continuation if nothing else
            # ended in the window
            cause = cause_before(s.end, t, exclude=r)
            if cause is not None:
                emit(r, WAIT, cause[0], t)
                t, r = cause
            else:
                emit(r, WAIT, s.end, t)
                t = s.end
            continue
        if s.label.startswith("coll."):
            canon = _CANON_COLL.get(s.label, s.label)
            st_start, st_rank = straggler_entry(canon, occ_of[r][i])
            if st_rank >= 0 and st_start <= t and (st_start, st_rank) != (t, r):
                emit(r, s.label, st_start, t)
                t, r = st_start, st_rank
                continue
        elif s.label == "p2p.ft_collect":
            cause = cause_before(s.start, t, exclude=r)
            if cause is not None and cause[0] < t:
                emit(r, s.label, cause[0], t)
                t, r = cause
                continue
        emit(r, s.label, s.start, t)
        t = s.start
    if t > 0.0:
        # guard exhausted (degenerate span sets): close the tiling
        emit(r, WAIT, 0.0, t)
    steps_rev.reverse()
    return CriticalPath(
        finish_time=finish_time, granularity="span", steps=tuple(steps_rev)
    )


def critical_path(result: Any) -> CriticalPath:
    """Extract the critical path of a simulated run.

    Dispatches on how the run executed: the vector fast path leaves a
    phase log (phase granularity); the scalar scheduler leaves per-rank
    spans (span granularity).  Either way the result tiles
    ``[0, finish_time]`` exactly.
    """
    log = getattr(result, "phase_log", None)
    if log:
        return path_from_phase_log(log, result.finish_time)
    return path_from_spans(result.tracer, result.finish_time)
