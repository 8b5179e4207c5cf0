"""Self-lint gate: the repo's own tree must pass the static verifier.

This is a tier-1 test, so every future PR is linted by ``pytest`` itself:
a rank-program bug class the rules cover cannot land without either a
fix or an explicit, justified ``# repro: noqa(...)``.
"""

import pytest


@pytest.fixture
def report(self_lint):
    """The session's one cold walk of the tree serves both tests."""
    return self_lint.report


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
