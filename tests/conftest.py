"""Shared fixtures for the tier-1 suite."""

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SELF_LINT_TREES = ["src", "examples", "benchmarks", "tests"]


@dataclass(frozen=True)
class SelfLint:
    """One cold lint of the repo's own trees into a fresh cache."""

    report: Any
    root: Path
    trees: list[str]
    cache_file: Path
    signature: str
    cold_s: float


@pytest.fixture(scope="session")
def self_lint(tmp_path_factory) -> SelfLint:
    """Lint :data:`SELF_LINT_TREES` once per session, cold, into a fresh
    :class:`~repro.analysis.cache.LintCache`, timing the walk; the
    self-lint gate and the warm-cache test both read it."""
    from repro.analysis import lint_paths
    from repro.analysis.cache import LintCache, analysis_signature

    signature = analysis_signature(None)
    cache_file = tmp_path_factory.mktemp("self-lint") / "cache.json"
    t0 = time.perf_counter()
    cache = LintCache(cache_file, signature)
    report = lint_paths(SELF_LINT_TREES, root=REPO_ROOT, cache=cache)
    cache.save()
    cold_s = time.perf_counter() - t0
    return SelfLint(report, REPO_ROOT, SELF_LINT_TREES, cache_file, signature, cold_s)
