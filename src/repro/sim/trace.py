"""Per-process timeline tracing for the DES.

Rank programs record labelled spans ``(label, t_start, t_end)`` against a
:class:`Tracer`; the breakdown harness turns these into the per-function
cycle/communication splits of the paper's Figures 2-5.

Aggregation is incremental: ``record`` folds each span's duration into
per-process and global running totals as it arrives, so ``totals`` is a
dict copy instead of a scan over every span ever recorded (the old
behaviour was O(all spans) per query — quadratic across the breakdown
harness's per-rank queries at scale).  The fold order per label equals
the record order, i.e. exactly the float-addition order of the old
linear scan, so totals are bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

__all__ = ["Span", "Tracer"]


class Span(NamedTuple):
    """One labelled interval of virtual time on one process."""

    process: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; queryable by process and by label.

    Two recording surfaces share the aggregate store: :meth:`record`
    takes one span at a time (the scalar scheduler path), and
    :meth:`add_bulk` folds a whole population's durations for one label
    in a single array operation (the vectorized SPMD path, which never
    materialises per-rank ``Span`` objects — ``spans`` stays empty for
    bulk-recorded processes).  Per-process totals are bit-identical
    between the two surfaces because a rank's spans arrive in its
    program order on both paths and the bulk fold is an elementwise
    left-fold in that same order.
    """

    __slots__ = ("spans", "_by_process", "_all", "_bulk", "_bulk_names")

    def __init__(self, spans: list[Span] | None = None) -> None:
        self.spans: list[Span] = []
        self._by_process: dict[str, dict[str, float]] = {}
        self._all: dict[str, float] = {}
        # bulk (vectorized) aggregates: label -> [(base_row, ndarray)]
        self._bulk: dict[str, list[tuple[int, object]]] = {}
        self._bulk_names: Sequence[str] = ()
        if spans:
            for s in spans:
                self.record(s.process, s.label, s.start, s.end)

    def record(self, process: str, label: str, start: float, end: float) -> Span:
        """Record one span.  Spans may arrive in any start order — a
        worker that finishes a long phase reports it after a peer already
        recorded later work, and merged per-worker tracers interleave
        freely — so the only rejected shape is an individual span that
        ends before it starts (``end < start``).  Zero-duration spans are
        legal markers."""
        duration = end - start
        if duration < 0:
            raise ValueError(f"span ends before it starts: {label} [{start}, {end}]")
        span = Span(process, label, start, end)
        self.spans.append(span)
        agg = self._by_process.get(process)
        if agg is None:
            agg = self._by_process[process] = {}
        agg[label] = agg.get(label, 0.0) + duration
        self._all[label] = self._all.get(label, 0.0) + duration
        return span

    # ------------------------------------------------------- bulk (vectorized)
    def register_bulk(self, names: Sequence[str]) -> None:
        """Declare the process rows bulk arrays index into.

        ``names[i]`` is the process name whose durations live at row
        ``i`` of every array later passed to :meth:`add_bulk` (offset by
        that call's ``base``).  The vectorized executor registers its
        communicator's rank names once per run.  The sequence is kept,
        not copied or indexed: a per-process query finds its row with
        ``names.index``, which the communicator's names answer in O(1).
        """
        self._bulk_names = names

    def _fold_bulk_row(self, out: dict[str, float], idx: int) -> None:
        """Add bulk row ``idx``'s duration under every label covering it."""
        for label, segments in self._bulk.items():
            for base, arr in segments:
                if base <= idx < base + len(arr):  # type: ignore[arg-type]
                    out[label] = out.get(label, 0.0) + float(arr[idx - base])  # type: ignore[index]

    def add_bulk(self, label: str, base: int, values) -> None:
        """Fold per-process durations for ``label`` in one array op.

        ``values[j]`` is the duration charged to registered row
        ``base + j``; rows outside ``[base, base + len(values))`` do not
        gain the label (mirroring span recording, where a process that
        never records a label has no key in its totals).  Repeated calls
        with the same ``(label, base, len)`` accumulate elementwise in
        call order — for each row that is exactly the float-addition
        order of per-span recording in program order, so per-process
        totals match the scalar path bit-for-bit.
        """
        segments = self._bulk.setdefault(label, [])
        for seg_base, arr in segments:
            if seg_base == base and len(arr) == len(values):  # type: ignore[arg-type]
                arr += values  # type: ignore[operator]
                return
        segments.append((base, values.copy()))

    @classmethod
    def merge(cls, *tracers: "Tracer") -> "Tracer":
        """Combine tracers (e.g. one per worker) into a new one.

        Spans are concatenated and aggregates folded label-wise in
        argument order — no re-recording, so merging N tracers is
        O(total spans + total distinct labels) with the float-fold order
        fully determined by the argument order (bit-stable totals).
        """
        merged = cls()
        for t in tracers:
            merged.spans.extend(t.spans)
            for process, agg in t._by_process.items():
                dst = merged._by_process.get(process)
                if dst is None:
                    dst = merged._by_process[process] = {}
                for label, dur in agg.items():
                    dst[label] = dst.get(label, 0.0) + dur
            for label, dur in t._all.items():
                merged._all[label] = merged._all.get(label, 0.0) + dur
        return merged

    def totals(self, process: str | None = None) -> dict[str, float]:
        """Total duration per label, optionally restricted to one process.

        Per-process totals are bit-stable across the scalar and bulk
        recording surfaces.  Global totals (``process=None``) sum bulk
        rows with an array reduction, whose fold order differs from the
        scalar path's global event interleave — compare per-process
        totals, not global ones, across scheduler paths.
        """
        if process is None:
            out = dict(self._all)
            for label, segments in self._bulk.items():
                acc = out.get(label, 0.0)
                for _, arr in segments:
                    acc += float(arr.sum())  # type: ignore[attr-defined]
                out[label] = acc
            return out
        out = dict(self._by_process.get(process, ()))
        try:
            idx = self._bulk_names.index(process)
        except ValueError:
            return out
        self._fold_bulk_row(out, idx)
        return out

    def spans_by_process(self) -> dict[str, list[Span]]:
        """Recorded spans grouped per process, each group sorted by
        ``(start, end)``.

        Only the span surface contributes — bulk (vectorized) aggregates
        never materialise :class:`Span` objects, so bulk-recorded
        processes are absent.  This is the walk order the critical-path
        extraction (:mod:`repro.obs.critpath`) consumes: within a
        process, a span's predecessor is simply the previous list entry.
        """
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.process, []).append(s)
        for group in out.values():
            group.sort(key=lambda s: (s.start, s.end))
        return out

    def by_process(self) -> dict[str, dict[str, float]]:
        """Per-process label totals, spanning both recording surfaces."""
        out = {p: dict(d) for p, d in self._by_process.items()}
        if self._bulk:
            for idx, name in enumerate(self._bulk_names):
                merged = out.get(name, {})
                self._fold_bulk_row(merged, idx)
                if merged:
                    out[name] = merged
        return out

    def processes(self) -> list[str]:
        """Names of processes with at least one span or bulk row."""
        names = list(self._by_process)
        seen = set(names)
        for idx, n in enumerate(self._bulk_names):
            if n not in seen and any(
                base <= idx < base + len(arr)  # type: ignore[arg-type]
                for segs in self._bulk.values()
                for base, arr in segs
            ):
                names.append(n)
        return names
