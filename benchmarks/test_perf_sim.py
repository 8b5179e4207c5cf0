"""Simulator invariants: DES engine + vmpi hot paths, every executor.

These exercise the *simulator itself* — the engine event loop, mailbox
matching, collective fan-out and the scalar / vector / sharded macro
executors that every other benchmark rides on.  The same suite is
exposed as ``repro perf``; the committed ``BENCH_sim_vmpi.json`` at the
repo root is the baseline a fresh run must reproduce.

Asserted here: the virtual results (finish times, message counts) are
bit-identical to the baseline — a run that changes a simulated number
is a correctness bug, not a speedup — on every executor, and the
metrics an instrumented run reports (event counts, peak queue depths,
outstanding-message HWMs) are simulated quantities, so they must match
the baseline bit-for-bit too.  Attaching a :class:`MetricsRegistry`
must leave every result unchanged.  Host time is not asserted here:
``python bench/run.py`` measures it, including the obs attach cost
(``obs.attach_ratio``).
"""

import json
import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from common import ensure_linted

from repro.harness.perf import (
    BENCH_FILENAME,
    bench_bcast_fanout,
    bench_collectives,
    bench_macro,
    bench_macro_obs,
    bench_ping_ring,
    bench_timeout_storm,
    registry_metrics_block,
    render_perf_text,
    run_perf,
)

BASELINE_PATH = Path(__file__).parent.parent / BENCH_FILENAME

# The SPMD fast path must reproduce the scalar scheduler at the anchor
# shape and the baseline at the large shape, which only it can afford.
SPMD_LARGE_SHAPE = "16384-4-16"
SPMD_SCALAR_ANCHOR = "1024-4-16"


def _baseline():
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def test_micro_determinism():
    """Each micro benchmark's virtual outcome is run-to-run identical."""
    assert bench_timeout_storm() == bench_timeout_storm()
    assert bench_ping_ring() == bench_ping_ring()
    assert bench_bcast_fanout() == bench_bcast_fanout()


def test_perf_suite():
    payload = run_perf()
    print()
    print(render_perf_text(payload))
    baseline = _baseline()
    if baseline is None:
        return
    for section in ("micro", "macro"):
        for name, base in baseline[section].items():
            got = payload[section][name]
            for key in ("virtual_finish", "messages", "events", "bytes"):
                if key in base:
                    assert got[key] == base[key], (
                        f"{section}/{name}: {key} changed "
                        f"({got[key]!r} != baseline {base[key]!r})"
                    )
    # the file holds only virtual results, so the whole of it must match
    assert json.loads(json.dumps(payload)) == baseline, (
        "perf payload diverged from the committed baseline; if intentional, "
        "regenerate with 'repro perf --json'"
    )


def test_sim_collectives():
    """The PR-4 acceptance criterion at paper scale: with auto algorithm
    selection and bucketed gradient overlap enabled, the 1024-rank run's
    simulated gradient+sync time drops >= 20 % against the binomial/serial
    baseline at large payloads — while small messages still select the
    binomial tree.  The gradsync seconds and selected algorithms are
    virtual quantities, so they must also match the committed baseline
    bit-for-bit."""
    ensure_linted()
    got = bench_collectives("1024-4-16")
    assert got["win_vs_binomial"] >= 0.20
    assert got["win_vs_serial"] >= 0.20
    assert got["gradsync_overlap_s"] < got["gradsync_binomial_s"]
    small = min(got["crossover"], key=lambda r: r["nbytes"])
    large = max(got["crossover"], key=lambda r: r["nbytes"])
    assert small["bcast"] == "binomial" and small["reduce"] == "binomial"
    assert large["reduce"] in ("ring", "rabenseifner", "torus")
    baseline = _baseline()
    if baseline is None or "collectives" not in baseline:
        return
    base = baseline["collectives"]["sweep"]
    for key in (
        "gradsync_binomial_s",
        "gradsync_serial_s",
        "gradsync_overlap_s",
        "win_vs_binomial",
        "win_vs_serial",
        "crossover",
    ):
        assert got[key] == base[key], (
            f"collectives/sweep: {key} changed "
            f"({got[key]!r} != baseline {base[key]!r})"
        )


def _virtual(entry):
    """The executor-invariant portion of a bench result (the ``path``
    key names which executor ran — the one field that *should* differ
    between a scalar and a vector leg)."""
    return {k: v for k, v in entry.items() if k != "path"}


@pytest.mark.parametrize("auto_overlap", [False, True], ids=["plain", "auto+overlap"])
def test_vector_spmd_matches_scalar_and_baseline(auto_overlap):
    """The SPMD vector fast path reproduces the scalar per-generator
    scheduler at 1024 ranks and the committed baseline at 16384 ranks
    (where the scalar path would take most of a minute) — for the plain
    fixed-algorithm run and for the paper configuration (auto-selected
    collectives + bucketed gradient overlap)."""
    scalar_anchor = bench_macro(
        SPMD_SCALAR_ANCHOR, vector=False, auto_overlap=auto_overlap
    )
    vector_anchor = bench_macro(
        SPMD_SCALAR_ANCHOR, vector=True, auto_overlap=auto_overlap
    )
    assert scalar_anchor["path"] == "scalar"
    assert vector_anchor["path"] == "vector"
    assert _virtual(scalar_anchor) == _virtual(vector_anchor), (
        "vector fast path diverged from the scalar scheduler at "
        f"{SPMD_SCALAR_ANCHOR}: {vector_anchor} != {scalar_anchor}"
    )
    baseline = _baseline()
    name = f"{SPMD_LARGE_SHAPE}+auto+overlap" if auto_overlap else SPMD_LARGE_SHAPE
    if baseline and name in baseline.get("macro", {}):
        got = bench_macro(SPMD_LARGE_SHAPE, vector=True, auto_overlap=auto_overlap)
        base = baseline["macro"][name]
        assert got["virtual_finish"] == base["virtual_finish"]
        assert got["messages"] == base["messages"]


def test_macro_invariants_against_baseline():
    """One 1024-rank run, checked against the committed baseline without
    the full suite — the cheap timeline-preservation gate."""
    baseline = _baseline()
    if baseline is None:
        return
    got = bench_macro("1024-4-16")
    base = baseline["macro"]["1024-4-16"]
    assert got["virtual_finish"] == base["virtual_finish"]
    assert got["messages"] == base["messages"]


def test_obs_metrics_match_baseline():
    """The instrumented run's metrics are simulated quantities — event
    counts, peak queue depths, per-pair outstanding HWMs — so a fresh
    obs-attached run must reproduce the committed baseline's ``metrics``
    block exactly, on any machine."""
    baseline = _baseline()
    if baseline is None:
        return
    sink = []
    got = bench_macro_obs("1024-4-16", registry_sink=sink)
    base = baseline["macro"]["1024-4-16"]
    assert got["virtual_finish"] == base["virtual_finish"]
    assert registry_metrics_block(sink[-1]) == base["metrics"]


def _obs_legs():
    """Fast-path obs-passivity legs: vectorized always; sharded where
    the platform can fork."""
    legs = [("vector", {"vector": True})]
    if "fork" in multiprocessing.get_all_start_methods():
        legs.append(("shards4", {"vector": True, "shards": 4}))
        legs.append(
            ("shards4+spec", {"vector": True, "shards": 4, "speculate": True})
        )
    return legs


SPECULATE_SHAPE = "262144-4-16"
SPECULATE_SHARDS = 4


def _shard_metrics(reg):
    """The unlabelled ``sim.shard.*`` window metrics of an obs snapshot,
    by unprefixed name (the peak for gauges)."""
    return {
        rec["metric"][len("sim.shard.") :]: rec.get("peak", rec["value"])
        for rec in reg.snapshot()
        if rec["metric"].startswith("sim.shard.") and not rec["labels"]
    }


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
def test_speculative_windows_reduce_stalls_at_262k():
    """The optimistic-window acceptance gate on the 262k macro shape:
    with speculation on, ``sim.shard.window_stalls`` (now counting only
    windows that actually rolled back) drops below the conservative
    protocol's stall count — with zero divergence in any virtual
    result.  The rollback count is printed."""
    results = {}
    for speculate in (False, True):
        sink = []
        res = bench_macro_obs(
            SPECULATE_SHAPE,
            registry_sink=sink,
            shards=SPECULATE_SHARDS,
            speculate=speculate,
        )
        results[speculate] = (res, _shard_metrics(sink[-1]))
    cons, cons_sm = results[False]
    spec, spec_sm = results[True]
    assert cons["path"] == "vector+sharded" and spec["path"] == "speculative"
    assert _virtual(cons) == _virtual(spec), (
        f"speculation changed the virtual outcome: {spec} != {cons}"
    )
    print(
        f"\nshard windows at {SPECULATE_SHAPE} (shards={SPECULATE_SHARDS}): "
        f"conservative stalls={cons_sm['window_stalls']}, speculative "
        f"stalls={spec_sm['window_stalls']} "
        f"(rollbacks={spec_sm.get('rollbacks', 0)}, "
        f"windows={spec_sm.get('speculated_windows', 0)})"
    )
    assert cons_sm["window_stalls"] > 0, (
        "the conservative protocol reported no stalls at 262k — the "
        "gate is vacuous; pick a shape with real cross-shard spread"
    )
    assert spec_sm["window_stalls"] < cons_sm["window_stalls"], (
        f"speculative windows did not reduce stalls: "
        f"{spec_sm['window_stalls']} vs conservative "
        f"{cons_sm['window_stalls']}"
    )
    assert spec_sm.get("speculated_windows", 0) > 0


def test_obs_attach_is_passive_on_vector_and_sharded_paths():
    """Passivity covers every execution path, not just the scalar
    scheduler: attaching a registry to a vectorized 1024-rank macro run
    and to a sharded (``shards=4``) one leaves the virtual outcome
    unchanged."""
    for name, kw in _obs_legs():
        plain = bench_macro("1024-4-16", **kw)
        attached = bench_macro_obs("1024-4-16", **kw)
        assert attached == plain, (
            f"{name}: attaching obs changed the virtual outcome "
            f"({attached} != {plain})"
        )
