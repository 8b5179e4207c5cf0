"""Serving saturation baseline: the committed sweep, bit-for-bit.

The ``serve`` section of ``BENCH_sim_vmpi.json`` is pure virtual-time
data — no wall clocks anywhere in the sweep — so like the rest of the
file it is compared **exactly**: a fresh run of the same seeded sweep
must reproduce every committed number on any machine.  A mismatch means
the serving model's timeline changed, which is a correctness event that
must be deliberate (regenerate with ``repro perf --serve --json``),
never noise.

Also asserted: the committed curve actually shows the saturation knee
(p99 at overload well above p99 at low load — the plot the operator's
guide walks through), and attaching a metrics registry changes no
virtual outcome (the serving collector is scrape-time only).  Host time
is measured by ``python bench/run.py`` (its ``serve_sweep`` workload).
"""

import json
from pathlib import Path

import sys

sys.path.insert(0, str(Path(__file__).parent))

from common import ensure_linted

from repro.harness.perf import BENCH_FILENAME
from repro.harness.serving import serve_payload
from repro.obs import MetricsRegistry
from repro.serve import ArrivalSpec, ServeConfig, simulate_serving

BASELINE_PATH = Path(__file__).parent.parent / BENCH_FILENAME

# The knee criterion: committed p99 at the worst overload point must be
# at least this multiple of p99 at the lightest load.
KNEE_FACTOR = 2.0


def _baseline_serve():
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text()).get("serve")


def test_saturation_sweep_matches_baseline_bit_for_bit():
    ensure_linted()
    base = _baseline_serve()
    if base is None:
        return
    got = serve_payload(quick=bool(base["quick"]), seed=int(base["seed"]))
    assert got == base, (
        "serving sweep diverged from the committed baseline — the "
        "serving model's virtual timeline changed; if intentional, "
        "regenerate with 'repro perf --serve --json'"
    )


def test_baseline_shows_p99_knee():
    """The committed curve must exhibit saturation: p99 rises steeply
    once offered load crosses capacity, and the overload points shed or
    queue dramatically more than the healthy ones."""
    base = _baseline_serve()
    if base is None:
        return
    rows = sorted(base["saturation"], key=lambda r: r["load"])
    assert rows[0]["load"] < 1.0 < rows[-1]["load"], (
        "baseline sweep must straddle capacity to show the knee"
    )
    p99_low = rows[0]["p99_s"]
    p99_high = max(r["p99_s"] for r in rows)
    assert p99_high >= KNEE_FACTOR * p99_low, (
        f"no p99 knee in the committed sweep: worst p99 {p99_high:.2f}s "
        f"is under {KNEE_FACTOR}x the light-load p99 {p99_low:.2f}s"
    )
    assert rows[-1]["depth_peak"] > rows[0]["depth_peak"], (
        "overload should queue deeper than light load"
    )


def test_obs_attach_is_passive():
    cfg = ServeConfig(
        replicas=4, arrivals=ArrivalSpec(rate=5.0), horizon_s=8.0, seed=5
    )
    plain = simulate_serving(cfg)
    reg = MetricsRegistry()
    attached = simulate_serving(cfg, obs=reg)
    assert attached.invariants() == plain.invariants(), (
        "attaching a metrics registry changed the serving timeline"
    )
    outcomes = {
        rec["labels"]["outcome"]: rec["value"]
        for rec in reg.snapshot()
        if rec["metric"] == "serve.requests"
    }
    assert outcomes["completed"] == plain.completed
