"""Content-hash lint cache.

The self-lint gate runs on every ``pytest`` session and every benchmark
process; re-parsing ~200 unchanged files each time is the dominant cost
of the gate.  The cache stores, per file, the sha256 of its source plus
everything the runner needs to *replay* the file without parsing it:

* the classified per-module findings (unsuppressed and suppressed),
* the expanded inline-suppression table (``finish_run`` findings from
  cross-module rules must still honor a cached file's noqa comments),
* each cross-module rule's :meth:`~repro.analysis.rules.Rule.summarize`
  output, fed back through ``absorb`` so run-level findings (VMPI004
  tag collisions) stay exact with any mix of cached and fresh files.

The whole cache is keyed by an *analysis signature*: a hash over every
source file of :mod:`repro.analysis` plus the selected rule ids.  Edit
any rule (or select a different rule set) and the signature changes, so
stale verdicts can never survive an analyzer change.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

__all__ = ["LintCache", "CACHE_FILENAME", "analysis_signature", "content_hash"]

CACHE_FILENAME = ".repro_lint_cache.json"
_CACHE_VERSION = 2
"""Bumped whenever the entry layout or the set of summarizing rules
changes: version 1 entries carry summaries for retired rules."""


def content_hash(source: str) -> str:
    """sha256 of one file's text (the per-file cache key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def analysis_signature(rule_ids: Sequence[str] | None = None) -> str:
    """Hash of the analyzer itself: all ``repro.analysis`` sources plus
    the selected rule ids (None = full registry)."""
    import repro.analysis as pkg

    h = hashlib.sha256()
    pkg_dir = Path(pkg.__file__).resolve().parent
    for p in sorted(pkg_dir.glob("*.py")):
        h.update(p.name.encode("utf-8"))
        h.update(p.read_bytes())
    h.update(repr(sorted(rule_ids) if rule_ids is not None else None).encode())
    return h.hexdigest()


class LintCache:
    """One on-disk cache file, loaded eagerly and saved explicitly.

    A cache whose signature does not match is discarded wholesale (and
    rewritten on :meth:`save`).  Load/save failures are silent: the
    cache is an accelerator, never a correctness dependency — a corrupt
    or unwritable cache degrades to a full re-lint.
    """

    def __init__(self, path: str | Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._files: dict[str, dict] = {}
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = None
        if (
            isinstance(data, dict)
            and data.get("version") == _CACHE_VERSION
            and data.get("signature") == signature
            and isinstance(data.get("files"), dict)
        ):
            self._files = data["files"]
        elif data is not None:
            self._dirty = True  # stale or corrupt: rewrite on save

    @classmethod
    def default(cls, root: str | Path, rule_ids: Sequence[str] | None = None) -> "LintCache":
        """The conventional cache for a tree: ``<root>/.repro_lint_cache.json``."""
        return cls(Path(root) / CACHE_FILENAME, analysis_signature(rule_ids))

    # -------------------------------------------------------------- access
    def lookup(self, display: str, sha: str) -> dict | None:
        """The stored entry for ``display`` iff its content hash matches."""
        entry = self._files.get(display)
        if entry is not None and entry.get("sha") == sha:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, display: str, sha: str, entry: dict) -> None:
        """Record one file's verdicts + summaries under its content hash."""
        entry = dict(entry)
        entry["sha"] = sha
        self._files[display] = entry
        self._dirty = True

    def save(self) -> None:
        """Persist to disk (tmp-write + atomic replace); no-op when clean."""
        if not self._dirty:
            return
        payload = json.dumps(
            {
                "version": _CACHE_VERSION,
                "signature": self.signature,
                "files": self._files,
            }
        )
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.path)
            self._dirty = False
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
