"""Span recorder and layer seams for the traced benchmark run.

Everything here lives in the benchmark: no file under ``src/`` knows it
is being traced.  A seam is a public name of the program (a module-level
function or a method) that is rebound, for the duration of one traced
pass, to a wrapper that records a span ``{name, start, end, parent,
run_id}`` around the call.  Module-level functions are rebound in every
``repro.*`` module that holds the original object, because
``from x import f`` copies the binding to where the caller looks it up.

A layer's *self time* is its spans' duration minus the part their
direct child spans cover, so the self times of one pass — plus the root
span's own self time, reported as ``host.unattributed_s`` — add up to
the pass wall.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

ROOT_LAYER = "host.unattributed"
GC_LAYER = "host.gc"

# span record layout (a list, mutated once at end): name, start, end,
# parent index (-1 for none), run id, thread id
_NAME, _START, _END, _PARENT, _RUN, _TID = range(6)


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._local = threading.local()
        self._root: int = -1
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, adopt: bool = True) -> int:
        """Open a span; returns its index for :meth:`end`.

        A span opened on a thread with no open span is adopted by the
        current pass root when ``adopt`` is set — the HF master runs on
        its own thread while the main thread only waits for it.
        """
        stack = self._stack()
        parent = stack[-1] if stack else (self._root if adopt else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, self.run_id,
                 threading.get_ident()]
            )
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        stack = self._stack()
        # exceptions unwind through several wrappers: pop down to idx
        while stack and stack.pop() != idx:
            pass

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        spans = self.spans
        return any(spans[i][_NAME] == name for i in self._stack())

    def has_open_span(self) -> bool:
        return bool(self._stack())

    @contextmanager
    def traced_pass(self) -> Iterator[int]:
        """One pass = one run id and one root span on the calling thread."""
        self.run_id += 1
        idx = self.begin(ROOT_LAYER, adopt=False)
        self._root = idx
        try:
            yield idx
        finally:
            self.end(idx)
            self._root = -1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # --------------------------------------------------------- analysis
    def self_times(self) -> dict[int, dict[str, float]]:
        """``{run_id: {layer: self seconds}}`` over closed spans.

        GC spans opened on a thread without an enclosing span (HF worker
        threads) have no parent and are left out of the partition; their
        time still shows in the ``host.gc_s`` total kept by the caller.
        """
        dur = [0.0 if s[_END] is None else s[_END] - s[_START] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += dur[i]
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s[_PARENT] < 0 and s[_NAME] != ROOT_LAYER:
                continue
            per = out.setdefault(s[_RUN], {})
            per[s[_NAME]] = per.get(s[_NAME], 0.0) + dur[i] - child[i]
        return out

    def pass_walls(self) -> dict[int, float]:
        return {
            s[_RUN]: s[_END] - s[_START]
            for s in self.spans
            if s[_NAME] == ROOT_LAYER and s[_END] is not None
        }

    # ----------------------------------------------------------- export
    def write_chrome_trace(self, path: str, min_gc_us: float = 200.0) -> int:
        """Write closed spans as Chrome-trace JSON (``ph: "X"`` complete
        events, microseconds); open it in https://ui.perfetto.dev.

        Generation-0 collections number in the tens of thousands per
        run; GC spans shorter than ``min_gc_us`` are dropped from the
        file (never from the reported totals) to keep it loadable.
        """
        if not self.spans:
            events: list[dict[str, Any]] = []
        else:
            t0 = self.spans[0][_START]
            tids: dict[int, int] = {}
            events = []
            for i, s in enumerate(self.spans):
                if s[_END] is None:
                    continue
                dur_us = (s[_END] - s[_START]) * 1e6
                if s[_NAME] == GC_LAYER and dur_us < min_gc_us:
                    continue
                events.append(
                    {
                        "name": s[_NAME],
                        "ph": "X",
                        "ts": (s[_START] - t0) * 1e6,
                        "dur": dur_us,
                        "pid": 1,
                        "tid": tids.setdefault(s[_TID], len(tids) + 1),
                        "args": {"id": i, "parent": s[_PARENT], "run_id": s[_RUN]},
                    }
                )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


# ---------------------------------------------------------------- seams
class Seams:
    """Install and remove the wrappers; ``with Seams(rec, specs):``.

    ``specs`` entries are ``(layer, owner, attr, hook)``: ``owner`` is a
    class (method seam) or a module (function seam, rebound wherever a
    ``repro.*`` module holds the same object); ``hook``, if given, is
    called as ``hook(recorder, args, kwargs, result)`` after the call and
    is where counts are taken.  A layer written ``"+name"`` is an overlay:
    its time is added to the counter ``name`` and no span is opened, for
    a wait that sits inside other layers' spans and must not split them.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        specs: list[tuple[str, Any, str, Callable | None]],
        suppress_inside: dict[str, str] | None = None,
    ) -> None:
        self.rec = recorder
        self.specs = specs
        self.suppress_inside = suppress_inside or {}
        self._undo: list[tuple[Any, str, Any]] = []
        # collections never nest and start/stop come in pairs: one slot
        self._gc_idx = -1
        self._gc_t0 = 0.0

    # -- wrapper construction
    def _wrap(self, layer: str, fn: Callable, hook: Callable | None) -> Callable:
        rec = self.rec
        skip_in = self.suppress_inside.get(layer)

        if layer.startswith("+"):
            def overlay(*args: Any, **kwargs: Any) -> Any:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.count(layer[1:], time.perf_counter() - t0)

            return overlay

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if skip_in is not None and rec.inside(skip_in):
                return fn(*args, **kwargs)
            idx = rec.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if hook is not None:
                result = hook(rec, args, kwargs, result) or result
            return result

        return wrapper

    def _install_one(
        self, layer: str, owner: Any, attr: str, hook: Callable | None
    ) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new: Any = classmethod(self._wrap(layer, raw.__func__, hook))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, raw.__func__, hook))
            else:
                new = self._wrap(layer, raw, hook)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(layer, original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- garbage collector
    def _gc_callback(self, phase: str, info: dict[str, Any]) -> None:
        rec = self.rec
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            # a span only where it has a parent to charge (not on HF
            # worker threads); host.gc_s below counts every thread
            self._gc_idx = rec.begin(GC_LAYER) if rec.has_open_span() else -1
        else:
            if self._gc_idx >= 0:
                rec.end(self._gc_idx)
            rec.count("host.gc_s", time.perf_counter() - self._gc_t0)
            rec.count("host.gc_collections")

    def __enter__(self) -> "Seams":
        for layer, owner, attr, hook in self.specs:
            self._install_one(layer, owner, attr, hook)
        gc.callbacks.append(self._gc_callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._gc_callback)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
