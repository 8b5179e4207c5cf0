"""Rule base class and registry.

Rules self-register via the :func:`register` decorator so that adding a
pass in a later PR is one new module with one decorated class — the
runner, CLI, and self-lint test pick it up automatically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.astutil import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["RuleInfo", "Rule", "register", "all_rules", "get_rule"]


@dataclass(frozen=True)
class RuleInfo:
    """Identity and documentation of one rule."""

    id: str
    name: str
    severity: Severity
    rationale: str
    """One-line 'why this matters' shown in ``repro lint --rules``."""


class Rule(abc.ABC):
    """One static pass over a parsed module."""

    info: RuleInfo

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Hook for path-scoped rules (e.g. determinism lints skip test
        files, whose literal seeds are intentional)."""
        return True

    def start_run(self) -> None:
        """Called once before a lint run (one :func:`lint_source` call or
        one :func:`lint_paths` walk).  Cross-module rules reset their
        accumulated state here; the default is stateless."""

    def finish_run(self) -> Iterable[Finding]:
        """Called once after every module of the run has been checked.
        Cross-module rules emit whole-run findings here (each finding's
        ``path``/``line`` must point at a module that was part of the
        run, so inline suppressions still apply).  Default: nothing."""
        return ()

    def summarize(self, ctx: ModuleContext) -> dict | None:
        """Produce this module's JSON-serializable contribution to the
        rule's cross-module state, or None for per-module rules.

        The runner feeds the summary straight back through
        :meth:`absorb` — and the lint cache persists it, so on a cache
        hit the module's state is replayed without re-parsing the file.
        Cross-module rules must therefore build their ``finish_run``
        findings *only* from absorbed summaries, never from state
        gathered in :meth:`check` (which is skipped for cached files).
        """
        return None

    def absorb(self, path: str, summary: dict) -> None:
        """Fold one module summary (fresh or cache-replayed) into the
        run state accumulated since :meth:`start_run`."""

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Yield findings for ``ctx``.  Must not raise on odd code."""

    # ------------------------------------------------------------- helpers
    def finding(
        self, ctx: ModuleContext, line: int, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            rule=self.info.id,
            severity=self.info.severity,
            path=ctx.path,
            line=line,
            message=message,
            hint=hint,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add to the global registry."""
    rule = cls()
    rid = rule.info.id
    if rid in _REGISTRY:
        raise ValueError(f"duplicate rule id {rid!r}")
    _REGISTRY[rid] = rule
    return cls


def all_rules() -> Iterator[Rule]:
    """Registered rules in id order (stable output ordering)."""
    # Rule modules import lazily so `from repro.analysis import rules`
    # alone still sees the full registry.
    _ensure_loaded()
    for rid in sorted(_REGISTRY):
        yield _REGISTRY[rid]


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule by id (KeyError lists known ids)."""
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _ensure_loaded() -> None:
    from repro.analysis import (  # noqa: F401
        comm_rules,
        determinism_rules,
        doc_rules,
        tag_rules,
    )
