"""Correctness tooling for virtual-MPI rank programs.

Two cooperating layers guard the master/worker protocol that the paper's
enablement work (Section IV) depends on:

* **Static pass** (:mod:`repro.analysis.runner`) — an AST linter that
  walks source trees for rank-program generators and flags the silent
  failure classes unique to generator-based MPI: communication calls
  whose sub-generator is never driven (``ctx.send(...)`` without
  ``yield from`` is a no-op), collectives under rank-dependent branches,
  wildcard receives racing tagged traffic, and determinism hazards
  (direct RNG construction, unordered iteration feeding float sums).
  Rules live in a registry (:mod:`repro.analysis.rules`) so later passes
  bolt on without touching the runner.

* **Runtime verifier** (:mod:`repro.analysis.runtime`) — a
  per-communicator collective-sequence checker wired into
  :mod:`repro.vmpi.collectives`: each rank's collective-call ledger is
  compared entry-by-entry and the first divergence raises
  :class:`CollectiveOrderError` naming both ranks and operations,
  instead of letting the mismatch surface as an opaque hang.  The
  companion wait-for-graph deadlock report lives in
  :mod:`repro.sim.engine` (see :class:`~repro.sim.engine.DeadlockError`).

Run the static pass from the shell::

    python -m repro.cli lint src examples benchmarks

Suppress an intentional pattern inline with a ``repro: noqa(RULE_ID)``
comment plus a justification; an id outside the registry is reported.
"""

from repro.analysis.cache import LintCache, analysis_signature
from repro.analysis.findings import Finding, Severity, suppressions_in
from repro.analysis.rules import Rule, RuleInfo, all_rules, get_rule, register
from repro.analysis.runner import LintReport, lint_paths, lint_source
from repro.analysis.runtime import CollectiveOrderChecker, CollectiveOrderError

# Importing the rule modules populates the registry.
from repro.analysis import comm_rules as _comm_rules  # noqa: F401
from repro.analysis import determinism_rules as _det_rules  # noqa: F401

__all__ = [
    "Finding",
    "Severity",
    "suppressions_in",
    "Rule",
    "RuleInfo",
    "all_rules",
    "get_rule",
    "register",
    "LintCache",
    "analysis_signature",
    "LintReport",
    "lint_paths",
    "lint_source",
    "CollectiveOrderChecker",
    "CollectiveOrderError",
]
