"""Exporters: Chrome trace-event JSON and flat JSONL metrics dumps.

The Chrome trace format (the ``traceEvents`` JSON consumed by Perfetto
and ``chrome://tracing``) is the natural rendering of the simulator's
:class:`~repro.sim.trace.Tracer`: every recorded span becomes a complete
(``"ph": "X"``) event on one track per simulated rank, with virtual
seconds mapped to trace microseconds.  Load the file in Perfetto and the
per-function timeline behind Figures 2-5 is directly inspectable —
"where did rank 3071 spend its virtual time during CG iteration 12" is a
zoom, not a script.

Track layout: ``pid`` is the simulated rank (parsed from process names
like ``rank3071``; other process names get stable ids above the rank
band), ``tid`` 0.  Process-name metadata events label each track, and
``process_sort_index`` metadata pins the display order (phase track
first, then ranks ascending).  A synthetic ``phases`` track tops the
view with one named window per protocol phase (derived from the
master's span sequence) plus instant markers at each phase start — the
"zoom presets" for navigating big traces: click a window in Perfetto
and the viewport snaps to that phase.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Any

from repro.obs.attrib import phase_of, split_label
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "chrome_trace",
    "phase_windows",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "StreamingMetricsWriter",
]

_RANK_NAME = re.compile(r"^rank(\d+)$")

_VIRTUAL_US = 1e6
"""Virtual seconds -> trace ``ts`` microseconds (Chrome's native unit)."""

_PHASE_TRACK_PID = 1 << 21
"""Dedicated pid of the synthetic phase-window track (above both the
rank band and the non-rank fallback band)."""


def _pid_of(process: str, fallback: dict[str, int], next_pid: list[int]) -> int:
    m = _RANK_NAME.match(process)
    if m:
        return int(m.group(1))
    pid = fallback.get(process)
    if pid is None:
        pid = fallback[process] = next_pid[0]
        next_pid[0] += 1
    return pid


def phase_windows(tracer: Any) -> list[tuple[str, float, float]]:
    """Merge the master's span sequence into named phase time-windows.

    Consecutive rank-0 spans mapping to the same protocol phase
    (:func:`repro.obs.attrib.phase_of`) merge into one
    ``(phase, start, end)`` window — the zoom presets the Perfetto
    export renders as a dedicated track.
    """
    master = sorted(
        (s for s in tracer.spans if s.process == "rank0"),
        key=lambda s: (s.start, s.end),
    )
    windows: list[tuple[str, float, float]] = []
    for s in master:
        ph = phase_of(s.label)
        if ph is None:
            continue
        if windows and windows[-1][0] == ph:
            prev = windows[-1]
            windows[-1] = (ph, prev[1], max(prev[2], s.end))
        else:
            windows.append((ph, s.start, s.end))
    return windows


def chrome_trace(
    tracer: Any,
    time_scale: float = _VIRTUAL_US,
    phase_track: bool = True,
) -> dict[str, Any]:
    """Build the ``traceEvents`` document for a tracer's spans.

    ``tracer`` is anything with a ``spans`` list of
    :class:`~repro.sim.trace.Span`-shaped records.  Spans are emitted in
    record order (deterministic for a deterministic simulation); each
    carries its label's dot-prefix (``compute`` / ``coll`` / ``p2p``) as
    the event category so Perfetto can filter by kind.

    ``phase_track`` adds the synthetic per-phase zoom-preset track
    (:func:`phase_windows`) plus ``process_sort_index`` metadata pinning
    it above the rank tracks.
    """
    events: list[dict[str, Any]] = []
    fallback_pids: dict[str, int] = {}
    next_pid = [1 << 20]  # above any plausible rank id
    seen_pids: dict[int, str] = {}
    for span in tracer.spans:
        pid = _pid_of(span.process, fallback_pids, next_pid)
        seen_pids.setdefault(pid, span.process)
        parts = split_label(span.label)
        category = "span" if parts is None else parts[0]
        events.append(
            {
                "name": span.label,
                "cat": category,
                "ph": "X",
                "ts": span.start * time_scale,
                "dur": (span.end - span.start) * time_scale,
                "pid": pid,
                "tid": 0,
            }
        )
    if phase_track:
        windows = phase_windows(tracer)
        if windows:
            seen_pids[_PHASE_TRACK_PID] = "phases"
            for ph, start, end in windows:
                events.append(
                    {
                        "name": f"phase:{ph}",
                        "cat": "phase",
                        "ph": "X",
                        "ts": start * time_scale,
                        "dur": (end - start) * time_scale,
                        "pid": _PHASE_TRACK_PID,
                        "tid": 0,
                    }
                )
                # named instant marker: a global flow line at the phase
                # boundary, visible at any zoom level
                events.append(
                    {
                        "name": f"begin:{ph}",
                        "cat": "phase",
                        "ph": "i",
                        "s": "g",
                        "ts": start * time_scale,
                        "pid": _PHASE_TRACK_PID,
                        "tid": 0,
                    }
                )
    meta: list[dict[str, Any]] = []
    for pid in sorted(seen_pids):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": seen_pids[pid]},
            }
        )
        # phase track sorts first; ranks keep ascending order below it
        sort_index = -1 if pid == _PHASE_TRACK_PID else pid
        meta.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "time_scale": time_scale},
    }


def write_chrome_trace(tracer: Any, path: str | Path) -> Path:
    """Write ``tracer``'s spans as Chrome trace-event JSON at ``path``."""
    out = Path(path)
    out.write_text(json.dumps(chrome_trace(tracer), sort_keys=True))
    return out


class StreamingMetricsWriter:
    """Incremental JSONL metrics sink: one record per line, flushed as
    written, nothing buffered for the run's lifetime.

    Long sweeps (the 262k-rank scaling recipe, the fault sweep) emit
    metric records continuously; building the whole dump in memory and
    writing at exit both bloats the peak footprint and loses everything
    on a crash.  The streaming writer makes each record durable the
    moment it is produced:

    >>> with StreamingMetricsWriter(path) as w:
    ...     w.write({"record": "run", "shape": spec})
    ...     w.write_snapshot(registry)

    Records serialize with sorted keys (stable diffs); numpy scalars
    degrade via their ``item()`` like the batch writer.  Non-finite
    floats serialize as the strings ``"NaN"`` / ``"Infinity"`` /
    ``"-Infinity"`` instead of Python's bare (invalid-JSON) literals —
    a diverged metric must not corrupt the dump — and every record is
    emitted with ``allow_nan=False`` so nothing non-finite can slip
    through unsanitized.  :meth:`write_snapshot` additionally fsyncs the
    file (best effort), making whole snapshots durable across a crash.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        self.records_written = 0

    def write(self, record: dict[str, Any]) -> None:
        """Serialize one record, write it, and flush it to the OS."""
        self._fh.write(
            json.dumps(
                _sanitize(record), sort_keys=True, allow_nan=False,
                default=_default,
            )
            + "\n"
        )
        self._fh.flush()
        self.records_written += 1

    def write_snapshot(self, registry: MetricsRegistry) -> int:
        """Stream every record of a registry snapshot; returns the count.

        Ends with an ``fsync`` so the snapshot is durable on disk, not
        just in the OS page cache; filesystems without fsync support
        (pipes, some tmpfs mounts) degrade to the per-write flush.
        """
        n = 0
        for rec in registry.snapshot():
            self.write(rec)
            n += 1
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass  # per-write flush already pushed the data to the OS
        return n

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "StreamingMetricsWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def write_metrics_jsonl(
    registry: MetricsRegistry,
    path: str | Path,
    extra_records: list[dict[str, Any]] | None = None,
) -> Path:
    """Dump a registry snapshot (plus caller records) as JSONL.

    ``extra_records`` are appended after the snapshot in caller order —
    run-level context (shape, seed, workload) that is not a metric.
    Implemented over :class:`StreamingMetricsWriter`, so each record
    hits the file as it serializes instead of accumulating in memory.
    """
    with StreamingMetricsWriter(path) as writer:
        writer.write_snapshot(registry)
        for rec in extra_records or ():
            writer.write(rec)
    return writer.path


def _sanitize(value: Any) -> Any:
    """Deep-copy ``value`` with non-finite floats as JSON-safe strings.

    Containers recurse; numpy scalars degrade through ``item()`` first
    so a ``np.float64("nan")`` sanitizes like the builtin.
    """
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (dict, list, tuple, str)):
        value = item()
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _default(obj: Any) -> Any:
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"record value {obj!r} is not JSON-serializable")
