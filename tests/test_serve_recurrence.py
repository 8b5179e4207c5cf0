"""The serving recurrence against its DES oracle, and conservation laws.

A crash-free, autoscale-free run without obs or trace replays as one
forward recurrence over the arrivals (``repro.serve.recurrence``);
:func:`simulate_serving_des` runs the same config on the DES programs.
The differential property draws configs over the whole crash-free
input space — every arrival kind, 1–8 replicas, queue capacity 1–256,
deadlines from tight to none, ``max_batch`` 1–16, ``max_wait_ms``
0–200, plus a run too short to generate any request — and holds
every result field to the DES bit for bit.  The sweep's own
configs are not enough: a shed check off by one or a backlog sampled
before the batcher's hand-off passes every sweep point.

The conservation property adds autoscaling and replica crashes (DES
only) and checks the accounting every run must close.  A handful of
examples run in tier-1; ``CI=1`` runs it at depth.
"""

import math
import os
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, NodeCrash
from repro.obs import MetricsRegistry
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    BatchPolicy,
    ServeConfig,
    generate_arrivals,
    simulate_serving,
)
from repro.serve.scenario import simulate_serving_des

EXAMPLES = 300 if os.environ.get("CI") else 30

FIELDS = (
    "virtual_finish",
    "generated",
    "admitted",
    "dropped",
    "timed_out",
    "completed",
    "failed",
    "latencies",
    "p50_s",
    "p99_s",
    "p999_s",
    "throughput_rps",
    "mean_batch",
    "utilization",
    "depth_peak",
    "active_peak",
    "scale_ups",
    "scale_downs",
    "excluded",
)


@st.composite
def _crash_free_configs(draw):
    return ServeConfig(
        replicas=draw(st.integers(1, 8)),
        arrivals=ArrivalSpec(
            kind=draw(st.sampled_from(["poisson", "bursty", "diurnal"])),
            rate=draw(st.floats(2.0, 80.0)),
        ),
        horizon_s=draw(st.floats(0.5, 8.0)),
        seed=draw(st.integers(0, 2**31 - 1)),
        queue_capacity=draw(st.integers(1, 256)),
        request_timeout_s=draw(st.sampled_from([None, 0.05, 0.5, 10.0])),
        batch=BatchPolicy(
            max_batch=draw(st.integers(1, 16)),
            max_wait_ms=draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0))),
        ),
    )


def _assert_bit_identical(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert repr(x) == repr(y), name
    assert a.log.batch_sizes == b.log.batch_sizes
    assert repr(a.log.busy) == repr(b.log.busy)


ZERO_REQUESTS = ServeConfig(replicas=3, arrivals=ArrivalSpec(rate=0.5), horizon_s=1e-3)


@settings(max_examples=EXAMPLES, deadline=None)
@given(_crash_free_configs())
@example(ZERO_REQUESTS)
def test_recurrence_matches_des_bitwise(cfg):
    fast = simulate_serving(cfg)
    des = simulate_serving_des(cfg)
    assert (fast.execution_path, des.execution_path) == ("recurrence", "des")
    _assert_bit_identical(fast, des)


def test_zero_request_run_matches_des():
    assert generate_arrivals(ZERO_REQUESTS.arrivals, ZERO_REQUESTS.horizon_s, 0) == []
    fast = simulate_serving(ZERO_REQUESTS)
    assert fast.generated == 0 and fast.virtual_finish > 0.0
    _assert_bit_identical(fast, simulate_serving_des(ZERO_REQUESTS))


def test_every_other_run_takes_the_des():
    cfg = ServeConfig(replicas=3, arrivals=ArrivalSpec(rate=6.0), horizon_s=2.0)
    crash = FaultPlan(events=(NodeCrash(rank=2, at=1.0),))
    scaled = AutoscalePolicy(min_replicas=1)
    for result in (
        simulate_serving(cfg, trace=True),
        simulate_serving(cfg, obs=MetricsRegistry()),
        simulate_serving(replace(cfg, fault_plan=crash)),
        simulate_serving(replace(cfg, autoscale=scaled)),
    ):
        assert result.execution_path == "des"


# ------------------------------------------------------------ conservation
@st.composite
def _any_configs(draw):
    """Crash-free configs, plus autoscaling and crashes of all but one
    replica (a run with every replica crashed cannot drain)."""
    cfg = draw(_crash_free_configs())
    if draw(st.booleans()):
        scaler = AutoscalePolicy(
            min_replicas=draw(st.integers(1, cfg.replicas)),
            interval_s=draw(st.sampled_from([0.25, 1.0])),
            warmup_s=draw(st.sampled_from([0.0, 0.5])),
        )
        cfg = replace(cfg, autoscale=scaler)
    if cfg.replicas > 1 and draw(st.booleans()):
        victims = draw(
            st.lists(st.integers(1, cfg.replicas), max_size=cfg.replicas - 1, unique=True)
        )
        at = st.floats(0.0, cfg.horizon_s)
        crashes = tuple(NodeCrash(rank=r, at=draw(at)) for r in victims)
        cfg = replace(cfg, fault_plan=FaultPlan(events=crashes))
    return cfg


@settings(max_examples=EXAMPLES, deadline=None)
@given(_any_configs())
def test_every_request_is_accounted_for_once(cfg):
    floor = cfg.cost.batch_seconds(cfg.arrivals.min_frames, 1)
    runs = [simulate_serving_des(cfg)]
    if cfg.fault_plan is None and cfg.autoscale is None:
        runs.append(simulate_serving(cfg))
    for r in runs:
        assert r.generated == r.admitted + r.dropped
        assert r.admitted == r.completed + r.timed_out + r.failed
        assert len(r.latencies) == r.completed
        # forward_seconds is not monotone in frames, but a batch of k
        # requests (>= k * min_frames frames) never decodes faster than
        # one shortest request alone
        assert all(lat >= floor for lat in r.latencies)


# ------------------------------------------------------------- input space
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: ServeConfig(horizon_s=v),
        lambda v: ServeConfig(request_timeout_s=v),
        lambda v: ServeConfig(detect_margin=v),
        lambda v: ServeConfig(detect_floor_s=v),
        lambda v: BatchPolicy(max_wait_ms=v),
        lambda v: AutoscalePolicy(warmup_s=v),
        lambda v: AutoscalePolicy(interval_s=v),
        lambda v: ArrivalSpec(period_s=v),
        lambda v: ArrivalSpec(mean_burst_s=v),
    ],
)
def test_non_finite_serving_inputs_are_rejected(build, bad):
    """A NaN or infinite delay used to reach the engine heap (and an
    infinite horizon never finished drawing arrivals)."""
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_generate_arrivals_rejects_a_nan_horizon():
    """``--horizon nan`` used to draw zero requests and report NaN
    latencies with exit 0."""
    with pytest.raises(ValueError, match="finite"):
        generate_arrivals(ArrivalSpec(), math.nan, seed=0)
