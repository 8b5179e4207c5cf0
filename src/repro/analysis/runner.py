"""Static-pass driver: walk paths, apply rules, collect findings.

Used by the ``repro lint`` CLI and by ``tests/test_analysis_self.py``,
which lints the whole tree on every pytest run so the rules gate future
PRs.

A lint run may carry a :class:`~repro.analysis.cache.LintCache`: files
whose content hash matches a cached entry are *replayed* — their
classified findings, expanded suppression tables, and cross-module rule
summaries come from the cache instead of a parse — so the recurring
self-lint gates only pay for files that actually changed.  Cross-module
findings (``finish_run``) are recomputed every run from the absorbed
summaries, cached or fresh, so they stay exact.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.astutil import ModuleContext
from repro.analysis.cache import LintCache, content_hash
from repro.analysis.findings import (
    Finding,
    Severity,
    is_suppressed,
    suppressions_in,
)
from repro.analysis.rules import Rule, all_rules

__all__ = ["LintReport", "lint_paths", "lint_source"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


@dataclass
class LintReport:
    """Outcome of one static pass."""

    findings: list[Finding] = field(default_factory=list)
    """Unsuppressed findings, sorted by (path, line, rule)."""
    suppressed: list[Finding] = field(default_factory=list)
    """Findings silenced by an inline ``# repro: noqa(...)``."""
    baselined: list[Finding] = field(default_factory=list)
    """Findings accepted by a ``--baseline`` file (not counted in the
    exit code)."""
    files_checked: int = 0
    rule_seconds: dict[str, float] = field(default_factory=dict)
    """Wall time spent in each rule (check + summarize + finish_run);
    cache-replayed files contribute nothing, by design."""
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def merge(self, other: "LintReport") -> None:
        """Fold another report into this one (multi-path walks)."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.baselined.extend(other.baselined)
        self.files_checked += other.files_checked
        for rule, secs in other.rule_seconds.items():
            self.rule_seconds[rule] = self.rule_seconds.get(rule, 0.0) + secs
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def sort(self) -> None:
        """Order findings by (path, line, rule) for stable output."""
        key = lambda f: (f.path, f.line, f.rule)  # noqa: E731
        self.findings.sort(key=key)
        self.suppressed.sort(key=key)
        self.baselined.sort(key=key)

    # ------------------------------------------------------------ rendering
    def render_text(self) -> str:
        """Render findings plus a summary line, ready to print."""
        lines = [f.render() for f in self.findings]
        n_err = sum(1 for f in self.findings if f.severity is Severity.ERROR)
        n_warn = len(self.findings) - n_err
        summary = (
            f"checked {self.files_checked} file(s): "
            f"{n_err} error(s), {n_warn} warning(s)"
        )
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed"
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": [f.to_dict() for f in self.suppressed],
                "baselined": [f.to_dict() for f in self.baselined],
                "exit_code": self.exit_code,
            },
            indent=2,
        )


def _select_rules(rule_ids: Sequence[str] | None) -> list[Rule]:
    rules = list(all_rules())
    if rule_ids is None:
        return rules
    wanted = set(rule_ids)
    unknown = wanted - {r.info.id for r in rules}
    if unknown:
        raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
    return [r for r in rules if r.info.id in wanted]


def _stale_suppressions(ctx: ModuleContext) -> Iterable[Finding]:
    """A ``# repro: noqa(<id>)`` naming no registered rule silences
    nothing — a typo, or a rule since retired.  Checked against the
    whole registry, not the ``--select`` subset."""
    known = {r.info.id for r in all_rules()} | {"*"}
    for line, ids in sorted(suppressions_in(ctx.source).items()):
        for rid in sorted(ids - known):
            yield Finding(
                rule="NOQA000",
                severity=Severity.WARNING,
                path=ctx.path,
                line=line,
                message=f"suppression names unknown rule {rid!r}",
                hint="delete it, or name a rule from `repro lint --rules`",
            )


def _check_module(
    ctx: ModuleContext,
    rules: Sequence[Rule],
    report: LintReport,
) -> dict:
    """Apply per-module checks, classify findings by suppression, and
    feed cross-module summaries into the rules.

    Returns the cacheable entry body for this file: classified
    findings, the expanded suppression table, and per-rule summaries.
    """
    findings: list[Finding] = list(_stale_suppressions(ctx))
    suppressed: list[Finding] = []
    summaries: dict[str, dict] = {}
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        t0 = _time.perf_counter()
        for f in rule.check(ctx):
            if is_suppressed(f, ctx.suppressions):
                suppressed.append(f)
            else:
                findings.append(f)
        summary = rule.summarize(ctx)
        rid = rule.info.id
        report.rule_seconds[rid] = (
            report.rule_seconds.get(rid, 0.0) + _time.perf_counter() - t0
        )
        if summary is not None:
            rule.absorb(ctx.path, summary)
            summaries[rid] = summary
    report.findings.extend(findings)
    report.suppressed.extend(suppressed)
    return {
        "findings": [f.to_dict() for f in findings],
        "suppressed": [f.to_dict() for f in suppressed],
        "suppressions": {
            str(line): sorted(ids) for line, ids in ctx.suppressions.items()
        },
        "summaries": summaries,
    }


def _replay_cached(
    entry: dict,
    display: str,
    rules: Sequence[Rule],
    report: LintReport,
    suppressions_by_path: dict,
) -> None:
    """Reconstruct a cached file's contribution without parsing it."""
    report.findings.extend(
        Finding.from_dict(d) for d in entry.get("findings", ())
    )
    report.suppressed.extend(
        Finding.from_dict(d) for d in entry.get("suppressed", ())
    )
    suppressions_by_path[display] = {
        int(line): frozenset(ids)
        for line, ids in entry.get("suppressions", {}).items()
    }
    summaries = entry.get("summaries", {})
    for rule in rules:
        summary = summaries.get(rule.info.id)
        if summary is not None:
            rule.absorb(display, summary)


def _finish_run(
    rules: Sequence[Rule],
    report: LintReport,
    suppressions_by_path: dict,
) -> None:
    """Collect whole-run findings from cross-module rules.

    Each finding points into one of the run's modules; that module's
    inline ``# repro: noqa`` suppressions apply to it exactly as to a
    per-module finding."""
    for rule in rules:
        t0 = _time.perf_counter()
        for f in rule.finish_run():
            supp = suppressions_by_path.get(f.path)
            if supp is not None and is_suppressed(f, supp):
                report.suppressed.append(f)
            else:
                report.findings.append(f)
        rid = rule.info.id
        report.rule_seconds[rid] = (
            report.rule_seconds.get(rid, 0.0) + _time.perf_counter() - t0
        )


def lint_source(
    source: str,
    path: str = "<memory>",
    rule_ids: Sequence[str] | None = None,
) -> LintReport:
    """Lint one in-memory module (the unit-test entry point)."""
    report = LintReport(files_checked=1)
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                rule="PARSE000",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            )
        )
        return report
    rules = _select_rules(rule_ids)
    for rule in rules:
        rule.start_run()
    _check_module(ctx, rules, report)
    _finish_run(rules, report, {ctx.path: ctx.suppressions})
    report.sort()
    return report


def _iter_py_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for p in sorted(root.rglob("*.py")):
        if not _SKIP_DIRS.intersection(p.parts):
            yield p


def lint_paths(
    paths: Sequence[str | Path],
    rule_ids: Sequence[str] | None = None,
    root: str | Path | None = None,
    cache: LintCache | None = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths`` (files or directory trees).

    ``root``, when given, resolves relative ``paths`` and relativizes
    displayed locations — the self-lint test passes the repo root so the
    report is stable regardless of the pytest invocation directory.

    ``cache``, when given, short-circuits unchanged files (by content
    hash) and is left *unsaved* — callers decide when to persist it via
    :meth:`~repro.analysis.cache.LintCache.save`.

    The whole walk is one lint *run*: cross-module rules (e.g. VMPI004
    tag collisions) see every module — cached or fresh — before their
    ``finish_run`` findings are collected.
    """
    rules = _select_rules(rule_ids)  # validate ids up front
    base = Path(root) if root is not None else None
    report = LintReport()
    suppressions_by_path: dict = {}
    for rule in rules:
        rule.start_run()
    for raw in paths:
        p = Path(raw)
        if base is not None and not p.is_absolute():
            p = base / p
        if not p.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for f in _iter_py_files(p):
            display = f
            anchor = base if base is not None else Path.cwd()
            try:
                display = f.resolve().relative_to(anchor.resolve())
            except ValueError:
                pass
            display = str(display)
            report.files_checked += 1
            source = f.read_text(encoding="utf-8")
            sha = content_hash(source) if cache is not None else ""
            if cache is not None:
                entry = cache.lookup(display, sha)
                if entry is not None:
                    _replay_cached(
                        entry, display, rules, report, suppressions_by_path
                    )
                    continue
            try:
                ctx = ModuleContext.parse(display, source)
            except SyntaxError as exc:
                parse_finding = Finding(
                    rule="PARSE000",
                    severity=Severity.ERROR,
                    path=display,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
                report.findings.append(parse_finding)
                if cache is not None:
                    cache.store(
                        display,
                        sha,
                        {
                            "findings": [parse_finding.to_dict()],
                            "suppressed": [],
                            "suppressions": {},
                            "summaries": {},
                        },
                    )
                continue
            suppressions_by_path[ctx.path] = ctx.suppressions
            entry = _check_module(ctx, rules, report)
            if cache is not None:
                cache.store(display, sha, entry)
    _finish_run(rules, report, suppressions_by_path)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
    report.sort()
    return report
