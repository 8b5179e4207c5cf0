"""Tag-hygiene rules for rank programs.

The collectives in :mod:`repro.vmpi.collectives` reserve the tag band
``>= 1_000_000`` (``_COLL_TAG_BASE``) for their internally generated
per-call tags.  A user tag constant in that band can match collective
traffic — the resulting cross-talk surfaces as a wrong payload or a
deadlock far from the offending constant.  Tag values duplicated across
modules are the milder cousin: harmless until two protocols share a
communicator, then messages cross streams intermittently.

This rule needs *run-level* state (tag constants from every linted
module) so it uses the :meth:`~repro.analysis.rules.Rule.start_run` /
:meth:`~repro.analysis.rules.Rule.finish_run` lifecycle hooks:
collisions are reported once the whole tree has been seen.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterable

from repro.analysis.astutil import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, RuleInfo, register

__all__ = ["TagCollisionRule", "RESERVED_TAG_BASE"]

RESERVED_TAG_BASE = 1_000_000  # repro: noqa(VMPI004) defines the band itself
"""First tag reserved for internally generated collective tags (equals
``repro.vmpi.collectives._COLL_TAG_BASE``; ``tests/test_analysis_static.py``
holds the two together)."""


def _in_tests_dir(path: str) -> bool:
    return "tests" in PurePath(path).parts


def _is_tag_name(name: str) -> bool:
    """True for identifiers that name a message tag: ``_TAG_DATA``,
    ``ACK_TAG``, ``tag_result`` — any underscore-delimited ``tag``
    segment."""
    return "tag" in name.lower().split("_")


def _int_value(node: ast.expr) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


class _TagSite:
    """One ``NAME = <int>`` tag-constant definition."""

    __slots__ = ("path", "line", "name", "value")

    def __init__(self, path: str, line: int, name: str, value: int) -> None:
        self.path = path
        self.line = line
        self.name = name
        self.value = value


@register
class TagCollisionRule(Rule):
    """VMPI004: tag constants in the reserved band or duplicated
    across modules.

    Within one module: any tag-named integer constant (or literal
    ``tag=`` argument) ``>= 1_000_000`` trespasses on the collective tag
    band and is flagged immediately.  Across modules: two modules
    defining tag constants with the same value are reported at
    ``finish_run``, once every module in the lint run has been seen.
    """

    info = RuleInfo(
        id="VMPI004",
        name="tag-collision",
        severity=Severity.WARNING,
        rationale="user tags in the reserved collective band (>= 1_000_000) "
        "or duplicated across modules cause message cross-talk",
    )

    def __init__(self) -> None:
        self._sites: list[_TagSite] = []

    def applies_to(self, ctx: ModuleContext) -> bool:
        # Test modules define scratch tags for fixtures; their constants
        # never share a communicator with production protocols.
        return not _in_tests_dir(ctx.path)

    # ------------------------------------------------------------ lifecycle
    def start_run(self) -> None:
        self._sites = []

    def summarize(self, ctx: ModuleContext) -> dict | None:
        """Tag-constant definitions, as cacheable plain data."""
        sites = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = _int_value(node.value) if node.value else None
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _is_tag_name(target.id):
                    sites.append(
                        {"line": node.lineno, "name": target.id, "value": value}
                    )
        return {"sites": sites}

    def absorb(self, path: str, summary: dict) -> None:
        for s in summary.get("sites", ()):
            self._sites.append(_TagSite(path, s["line"], s["name"], s["value"]))

    def finish_run(self) -> Iterable[Finding]:
        """Emit collision findings for tag values claimed by more than
        one protocol phase across the whole run."""
        by_value: dict[int, list[_TagSite]] = {}
        for site in self._sites:
            by_value.setdefault(site.value, []).append(site)
        for value in sorted(by_value):
            sites = by_value[value]
            modules = sorted({s.path for s in sites})
            if len(modules) < 2:
                continue
            first = min(sites, key=lambda s: (s.path, s.line))
            for site in sites:
                if site.path == first.path:
                    continue
                yield Finding(
                    rule=self.info.id,
                    severity=self.info.severity,
                    path=site.path,
                    line=site.line,
                    message=f"tag constant {site.name} = {value} collides "
                    f"with {first.name} = {value} "
                    f"({first.path}:{first.line})",
                    hint="give each protocol a distinct tag value, or share "
                    "one constant from a common module",
                )

    # ---------------------------------------------------------------- check
    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = _int_value(node.value) if node.value else None
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if not _is_tag_name(target.id):
                        continue
                    # run-level collision state flows through
                    # summarize/absorb (cache-safe); check() only emits
                    # the per-module reserved-band findings
                    if value >= RESERVED_TAG_BASE:
                        yield self.finding(
                            ctx,
                            node.lineno,
                            f"tag constant {target.id} = {value} lands in "
                            f"the reserved collective tag band "
                            f"(>= {RESERVED_TAG_BASE})",
                            hint="pick a tag below 1_000_000; the band above "
                            "is owned by repro.vmpi.collectives",
                        )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg != "tag":
                        continue
                    value = _int_value(kw.value)
                    if value is not None and value >= RESERVED_TAG_BASE:
                        yield self.finding(
                            ctx,
                            kw.value.lineno,
                            f"literal tag={value} lands in the reserved "
                            f"collective tag band (>= {RESERVED_TAG_BASE})",
                            hint="pick a tag below 1_000_000; the band above "
                            "is owned by repro.vmpi.collectives",
                        )
