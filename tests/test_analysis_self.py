"""Self-lint gate: the repo's own tree must pass the static verifier.

This is a tier-1 test, so every future PR is linted by ``pytest`` itself:
a rank-program bug class the rules cover cannot land without either a
fix or an explicit, justified ``# repro: noqa(...)``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
LINTED_TREES = ["src", "examples", "benchmarks", "tests"]


@pytest.fixture(scope="module")
def report():
    """One walk of the tree serves both tests."""
    return lint_paths(LINTED_TREES, root=REPO_ROOT)


def test_repo_lints_clean(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, (
        f"repro lint found {len(report.findings)} unsuppressed finding(s); "
        "fix them or add `# repro: noqa(<rule>)` with a justifying "
        f"comment:\n{rendered}"
    )


def test_self_lint_actually_covered_files(report):
    # sanity: the walk really saw the tree (catches a silently wrong root)
    assert report.files_checked > 100
    # and the tree exercises the suppression mechanism (rng.py, costmodel.py)
    assert {f.rule for f in report.suppressed} >= {"DET001", "DET002"}
