"""Span labels and what they mean: breakdowns and exact attribution.

Rank programs label their phase-level spans ``<kind>.<function>``
(:func:`label`): ``compute.*`` is modeled computation,
``coll.*`` time inside a collective (including straggler wait), and
``p2p.*`` time in point-to-point calls.  Undotted labels (raw
``mpi_send``/``mpi_recv`` from ``trace_p2p`` runs, ``fault_slowdown``
overlays) overlap those spans on the same rank and would double-count,
so :func:`split_label` returns None for them and every reading here
skips them.  Two readings of a rank's span totals
(:meth:`repro.sim.trace.Tracer.totals`):

* :func:`split_breakdown` — seconds per (kind, function), the Figs 2-5
  views (:mod:`repro.harness.breakdown` maps them to cycle counters);
* :func:`attribute_rank` — the rank's ``finish_time`` split into
  ``compute``, ``comm`` (``coll.*`` + ``p2p.*``), ``recovery``
  (``compute.master_restart``) and ``wait``: everything the spans do
  not cover, up to the run's ``Engine.finish_time`` — the Fig. 4
  counter-flow argument.

The headline invariant (pinned by tests/test_obs_attrib.py) is
**exactness**: ``compute + comm + recovery + wait == finish_time``
*bitwise*, not approximately.  ``wait`` is defined as the residual and
closed to the ulp by :func:`exact_residual`, so nothing is ever lost to
float rounding — a tiny *negative* wait (a few ulps) is legal and means
the tracked categories alone already overshoot the finish time by
accumulated rounding.

Because the folds consume per-rank label totals only — bit-identical
between the scalar scheduler and the vectorized SPMD path (DESIGN.md
§6e) — every reading is bit-identical across both, which
tests/test_obs_attrib.py asserts directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "COMPUTE",
    "COLL",
    "P2P",
    "CATEGORIES",
    "PHASES",
    "RankAttribution",
    "RankBreakdown",
    "RunAttribution",
    "attribute_rank",
    "attribute_run",
    "category_of",
    "exact_residual",
    "label",
    "mean_label_totals",
    "ordered_sum",
    "phase_flow_rows",
    "phase_of",
    "phase_records",
    "split_breakdown",
    "split_label",
    "worker_sample",
]

COMPUTE = "compute"
COLL = "coll"
P2P = "p2p"
"""Span kinds: the ``<kind>`` of a ``<kind>.<function>`` label."""

CATEGORIES = ("compute", "comm", "recovery", "wait")
"""Attribution categories, in the fold order of :attr:`RankAttribution.total`."""

PHASES = ("load", "sync", "gradient", "cg", "linesearch", "recovery", "other")
"""Protocol phases (Fig-4 granularity), in rendering order."""

_RECOVERY_FUNCTIONS = frozenset({"master_restart"})
"""Span functions charged to ``recovery`` regardless of label kind."""

_PHASE_OF_FUNCTION = {
    "load_data": "load",
    "sync_weights": "sync",
    "sync_weights_master": "sync",
    "gradient_loss": "gradient",
    "reduce_gradient": "gradient",
    "worker_curvature_product": "cg",
    "cg_bcast": "cg",
    "cg_reduce": "cg",
    "cg_minimize": "cg",
    "hf_master": "cg",
    "heldout_loss": "linesearch",
    "reduce_loss": "linesearch",
    "master_restart": "recovery",
}
"""Span function -> protocol phase; unknown functions land in ``other``
(e.g. the fault protocol's ``ft_collect`` dispatch/collect envelope)."""


def label(kind: str, function: str) -> str:
    """Compose a span label, e.g. ``label(COLL, "sync_weights_master")``."""
    if kind not in (COMPUTE, COLL, P2P):
        raise ValueError(f"unknown span kind {kind!r}")
    return f"{kind}.{function}"


def split_label(lbl: str) -> tuple[str, str] | None:
    """``(kind, function)`` of a span label, or None for an undotted one."""
    kind, dot, function = lbl.partition(".")
    return (kind, function) if dot else None


def category_of(lbl: str) -> str | None:
    """Attribution category for a span label, or None if excluded."""
    parts = split_label(lbl)
    if parts is None:
        return None
    kind, function = parts
    if function in _RECOVERY_FUNCTIONS:
        return "recovery"
    if kind == COMPUTE:
        return "compute"
    if kind in (COLL, P2P):
        return "comm"
    return None


def phase_of(lbl: str) -> str | None:
    """Protocol phase for a span label (None for excluded labels)."""
    parts = split_label(lbl)
    if parts is None:
        return None
    return _PHASE_OF_FUNCTION.get(parts[1], "other")


def ordered_sum(d: dict[str, float]) -> float:
    """Fold float values in sorted-key order: bitwise reproducible no
    matter the dict's (per-rank, arrival-dependent) insertion order."""
    return sum(d[k] for k in sorted(d))


@dataclass
class RankBreakdown:
    """One rank's time, split by (kind, function)."""

    compute: dict[str, float] = field(default_factory=dict)
    collective: dict[str, float] = field(default_factory=dict)
    p2p: dict[str, float] = field(default_factory=dict)

    @property
    def total_compute(self) -> float:
        return ordered_sum(self.compute)

    @property
    def total_mpi(self) -> float:
        return ordered_sum(self.collective) + ordered_sum(self.p2p)

    @property
    def total(self) -> float:
        return self.total_compute + self.total_mpi


def split_breakdown(span_totals: dict[str, float]) -> RankBreakdown:
    """Partition a rank's per-label totals by label kind."""
    out = RankBreakdown()
    by_kind = {COMPUTE: out.compute, COLL: out.collective, P2P: out.p2p}
    for lbl, secs in span_totals.items():
        parts = split_label(lbl)
        if parts is None or parts[0] not in by_kind:
            continue
        d = by_kind[parts[0]]
        d[parts[1]] = d.get(parts[1], 0.0) + secs
    return out


def exact_residual(total: float, tracked: float) -> float:
    """The ``wait`` closing ``tracked + wait == total`` *bitwise*.

    Starts from the plain difference (exact by Sterbenz's lemma whenever
    ``tracked`` is within a factor of two of ``total``), then applies the
    classic error fix-up ``wait += total - (tracked + wait)``; if the
    correction underflows the fix-up, steps ``wait`` by ulps.  Raises
    :class:`ArithmeticError` only if no closing value exists (never
    observed for finite inputs; the bound is a safety net).
    """
    wait = total - tracked
    for _ in range(8):
        got = tracked + wait
        if got == total:
            return wait
        wait += total - got
    for _ in range(64):
        got = tracked + wait
        if got == total:
            return wait
        wait = math.nextafter(wait, math.inf if got < total else -math.inf)
    raise ArithmeticError(
        f"cannot close attribution: {tracked!r} + wait != {total!r}"
    )


@dataclass(frozen=True)
class RankAttribution:
    """One rank's exact split of the run's finish time."""

    rank: int
    finish_time: float
    compute: float
    comm: float
    recovery: float
    wait: float
    phases: tuple[tuple[str, float], ...]
    """Tracked seconds per protocol phase (phases present only), in
    :data:`PHASES` order; excludes ``wait`` (which belongs to no single
    phase)."""

    @property
    def total(self) -> float:
        """Category sum in the defining fold order — equals
        :attr:`finish_time` bitwise by construction."""
        return ((self.compute + self.comm) + self.recovery) + self.wait

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (used by ``repro report --json``)."""
        return {
            "rank": self.rank,
            "finish_time": self.finish_time,
            "compute": self.compute,
            "comm": self.comm,
            "recovery": self.recovery,
            "wait": self.wait,
            "phases": dict(self.phases),
        }


@dataclass(frozen=True)
class RunAttribution:
    """Attribution for a set of ranks plus the run-level straggler."""

    finish_time: float
    ranks: tuple[RankAttribution, ...]
    straggler_rank: int
    """Rank whose own finish time set ``finish_time`` (lowest rank on
    ties; -1 when per-rank end times were unavailable)."""

    def rank(self, r: int) -> RankAttribution:
        """The attribution computed for rank ``r`` (KeyError if absent)."""
        for a in self.ranks:
            if a.rank == r:
                return a
        raise KeyError(f"rank {r} not in attribution set")


def attribute_rank(
    span_totals: dict[str, float], finish_time: float, rank: int = 0
) -> RankAttribution:
    """Fold one rank's label totals into an exact category split.

    Labels fold in sorted order — bit-deterministic regardless of the
    totals dict's (path-dependent) insertion order.
    """
    compute = comm = recovery = 0.0
    phase_acc: dict[str, float] = {}
    for lbl in sorted(span_totals):
        cat = category_of(lbl)
        if cat is None:
            continue
        secs = span_totals[lbl]
        if cat == "compute":
            compute += secs
        elif cat == "comm":
            comm += secs
        else:
            recovery += secs
        ph = phase_of(lbl)
        assert ph is not None  # category_of and phase_of exclude together
        phase_acc[ph] = phase_acc.get(ph, 0.0) + secs
    tracked = (compute + comm) + recovery
    wait = exact_residual(finish_time, tracked)
    phases = tuple((p, phase_acc[p]) for p in PHASES if p in phase_acc)
    return RankAttribution(
        rank=rank,
        finish_time=finish_time,
        compute=compute,
        comm=comm,
        recovery=recovery,
        wait=wait,
        phases=phases,
    )


def attribute_run(result: Any, ranks: Iterable[int] | None = None) -> RunAttribution:
    """Attribute a :class:`~repro.dist.simulated.SimRunResult`.

    ``ranks`` restricts the per-rank set (recommended at 10k+ ranks —
    e.g. ``[0, straggler] + worker_sample(p)``); default is every rank.
    """
    finish = result.finish_time
    tracer = result.tracer
    p = result.config.shape.ranks
    rank_ids = list(range(p)) if ranks is None else [int(r) for r in ranks]
    per = tuple(
        attribute_rank(tracer.totals(f"rank{r}"), finish, r) for r in rank_ids
    )
    ends = result.rank_end_times
    if ends:
        straggler = max(range(len(ends)), key=lambda r: (ends[r], -r))
    else:
        straggler = -1
    return RunAttribution(finish_time=finish, ranks=per, straggler_rank=straggler)


# --------------------------------------------------- counter-flow breakdown
def worker_sample(ranks: int, sample: int = 16) -> list[int]:
    """Evenly spaced sample of at most ``sample`` worker ranks."""
    import numpy as np

    n_workers = ranks - 1
    return [
        int(r) for r in np.linspace(1, ranks - 1, min(sample, n_workers)).astype(int)
    ]


def mean_label_totals(tracer: Any, rank_ids: list[int]) -> dict[str, float]:
    """Average label totals over ``rank_ids``, folding labels in sorted
    order and ranks in list order (bit-deterministic, path-independent)."""
    acc: dict[str, float] = {}
    n = len(rank_ids)
    for r in rank_ids:
        totals = tracer.totals(f"rank{r}")
        for lbl in sorted(totals):
            acc[lbl] = acc.get(lbl, 0.0) + totals[lbl] / n
    return acc


def _phase_kind_fold(totals: dict[str, float]) -> dict[tuple[str, str], float]:
    """Label totals -> seconds per (phase, category), sorted-label fold."""
    acc: dict[tuple[str, str], float] = {}
    for lbl in sorted(totals):
        cat = category_of(lbl)
        if cat is None:
            continue
        ph = phase_of(lbl)
        assert ph is not None
        acc[(ph, cat)] = acc.get((ph, cat), 0.0) + totals[lbl]
    return acc


def phase_flow_rows(
    tracer: Any, ranks: int, sample: int = 16
) -> list[dict[str, Any]]:
    """Fig-4-style counter-flow rows for one run.

    One row per present ``(role, phase, kind)``: the master's and the
    mean worker's tracked seconds, split compute vs comm (vs recovery)
    per protocol phase.  As partitions grow, per-phase ``compute``
    shrinks and ``comm`` grows — the counter-flow the figure stacks.
    """
    rows: list[dict[str, Any]] = []
    sources = (
        ("master", tracer.totals("rank0")),
        ("worker_mean", mean_label_totals(tracer, worker_sample(ranks, sample))),
    )
    for role, totals in sources:
        acc = _phase_kind_fold(totals)
        for phase in PHASES:
            for kind in ("compute", "comm", "recovery"):
                secs = acc.get((phase, kind))
                if secs is not None:
                    rows.append(
                        {"phase": phase, "role": role, "kind": kind, "seconds": secs}
                    )
    return rows


def phase_records(
    tracer: Any, ranks: int, spec: str, sample: int = 16
) -> list[dict[str, Any]]:
    """Counter-flow rows as ``train.phase_seconds`` gauge records.

    Registered as a snapshot-time collector by ``simulate_training``, so
    every ``--obs`` metrics dump carries the per-phase breakdown —
    ``repro obs diff`` then aligns and gates it across runs.
    """
    from repro.obs.metrics import gauge_record

    return [
        gauge_record(
            "train.phase_seconds",
            row["seconds"],
            shape=spec,
            phase=row["phase"],
            role=row["role"],
            kind=row["kind"],
        )
        for row in phase_flow_rows(tracer, ranks, sample)
    ]
