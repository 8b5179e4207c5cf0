"""Serving scenario tests: arrivals, queueing, batching, autoscale,
fault compose, and end-to-end determinism."""

import math

import pytest

from repro.faults.plan import FaultPlan, NodeCrash
from repro.obs import MetricsRegistry
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    BatchPolicy,
    DecodeCostModel,
    ServeConfig,
    generate_arrivals,
    quantile,
    simulate_serving,
)


# ---------------------------------------------------------------- arrivals
@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_arrivals_deterministic_per_seed(kind):
    spec = ArrivalSpec(kind=kind, rate=20.0)
    a = generate_arrivals(spec, 10.0, seed=42)
    b = generate_arrivals(spec, 10.0, seed=42)
    assert a == b
    c = generate_arrivals(spec, 10.0, seed=43)
    assert a != c


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_arrivals_well_formed(kind):
    spec = ArrivalSpec(kind=kind, rate=30.0, min_frames=50, max_frames=200)
    reqs = generate_arrivals(spec, 20.0, seed=1)
    times = [r.t for r in reqs]
    assert times == sorted(times)
    assert all(0.0 <= t < 20.0 for t in times)
    assert all(50 <= r.frames <= 200 for r in reqs)
    assert [r.id for r in reqs] == list(range(len(reqs)))


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_arrivals_hit_requested_mean_rate(kind):
    spec = ArrivalSpec(kind=kind, rate=40.0)
    n = len(generate_arrivals(spec, 300.0, seed=7))
    expected = 40.0 * 300.0
    # the MMPP is doubly stochastic — the realized burst-time fraction
    # over ~30 dwell cycles swings the count far more than the others
    tol = 0.25 if kind == "bursty" else 0.10
    assert (1 - tol) * expected <= n <= (1 + tol) * expected


def test_arrival_spec_validation():
    with pytest.raises(ValueError):
        ArrivalSpec(kind="weibull")
    with pytest.raises(ValueError):
        ArrivalSpec(rate=0.0)
    with pytest.raises(ValueError):
        ArrivalSpec(min_frames=100, max_frames=50)


# ---------------------------------------------------------------- quantile
def test_quantile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quantile(vals, 0.5) == 5.0
    assert quantile(vals, 0.99) == 10.0
    assert quantile(vals, 0.0) == 1.0
    assert quantile(vals, 1.0) == 10.0
    assert math.isnan(quantile([], 0.5))
    with pytest.raises(ValueError):
        quantile(vals, 1.5)


# ---------------------------------------------------- end-to-end scenarios
def _quick_cfg(**overrides):
    base = dict(
        replicas=4,
        arrivals=ArrivalSpec(rate=6.0),
        horizon_s=8.0,
        seed=3,
    )
    base.update(overrides)
    return ServeConfig(**base)


def test_end_to_end_bit_identical_under_fixed_seed():
    cfg = _quick_cfg()
    a = simulate_serving(cfg)
    b = simulate_serving(cfg)
    assert a.invariants() == b.invariants()
    assert a.latencies == b.latencies
    assert a.utilization == b.utilization
    other = simulate_serving(_quick_cfg(seed=4))
    assert a.invariants() != other.invariants()


def test_all_requests_reach_a_terminal_outcome():
    r = simulate_serving(_quick_cfg())
    assert r.generated == r.admitted + r.dropped
    assert r.admitted == r.completed + r.timed_out + r.failed
    assert len(r.latencies) == r.completed
    assert r.completed > 0


def test_queue_overflow_sheds_load():
    # 2 slow replicas, a 4-deep queue, heavy traffic: the queue must
    # fill and shed, and the bound must hold throughout
    cfg = _quick_cfg(
        replicas=2,
        arrivals=ArrivalSpec(rate=30.0),
        queue_capacity=4,
        request_timeout_s=None,
    )
    r = simulate_serving(cfg)
    assert r.dropped > 0
    assert r.depth_peak <= 4
    assert r.generated == r.admitted + r.dropped


def test_deadline_expiry_counts_timeouts():
    # deep queue + tight deadline: requests expire at dequeue instead
    # of being shed at admission
    cfg = _quick_cfg(
        replicas=2,
        arrivals=ArrivalSpec(rate=30.0),
        queue_capacity=4096,
        request_timeout_s=1.5,
    )
    r = simulate_serving(cfg)
    assert r.timed_out > 0
    assert r.dropped == 0
    # every completed request beat its deadline at dequeue time; the
    # decode itself may run past it, but not by more than one max-size
    # batch's service window
    cost = DecodeCostModel()
    worst = 1.5 + cost.batch_seconds(cfg.batch.max_batch * 500, 1)
    assert max(r.latencies) <= worst


def test_batching_fills_under_load():
    light = simulate_serving(_quick_cfg(arrivals=ArrivalSpec(rate=1.0)))
    heavy = simulate_serving(
        _quick_cfg(
            arrivals=ArrivalSpec(rate=20.0),
            batch=BatchPolicy(max_batch=8, max_wait_ms=200.0),
            request_timeout_s=None,
        )
    )
    assert heavy.mean_batch > light.mean_batch
    assert max(heavy.log.batch_sizes) <= 8


def test_max_wait_bounds_batch_delay():
    # max_wait 0 with a single replica: batches close immediately with
    # whatever queued during the previous decode
    cfg = _quick_cfg(
        replicas=1,
        arrivals=ArrivalSpec(rate=3.0),
        batch=BatchPolicy(max_batch=4, max_wait_ms=0.0),
    )
    r = simulate_serving(cfg)
    assert r.completed == r.admitted


def test_autoscaler_scales_up_under_burst_and_down_when_idle():
    cfg = _quick_cfg(
        replicas=8,
        arrivals=ArrivalSpec(kind="bursty", rate=10.0, burst_factor=6.0),
        horizon_s=20.0,
        autoscale=AutoscalePolicy(
            min_replicas=2, interval_s=0.5, warmup_s=0.5, down_utilization=0.5
        ),
    )
    r = simulate_serving(cfg)
    assert r.scale_ups > 0
    assert r.active_peak > 2
    # the floor holds: replicas beyond the initial two only worked if
    # activated, and the autoscaler never drops below min_replicas
    assert r.log.active_count >= 2
    no_scale = simulate_serving(
        _quick_cfg(replicas=8, arrivals=ArrivalSpec(rate=1.0), horizon_s=20.0)
    )
    assert no_scale.scale_ups == 0 and no_scale.scale_downs == 0


def test_autoscale_warmup_delays_first_work():
    # with a long warm-up and a short horizon, scaled-up replicas never
    # come online: everything is served by the min_replicas floor
    cfg = _quick_cfg(
        replicas=4,
        arrivals=ArrivalSpec(rate=12.0),
        horizon_s=3.0,
        request_timeout_s=None,
        autoscale=AutoscalePolicy(min_replicas=2, interval_s=0.5, warmup_s=1e6),
    )
    r = simulate_serving(cfg)
    workers = {rep for rep, busy in r.log.busy.items() if busy > 0.0}
    assert workers <= {1, 2}
    assert r.completed == r.admitted


# ------------------------------------------------------------ fault compose
def test_replica_crash_under_load_is_excluded_and_observable():
    plan = FaultPlan(events=(NodeCrash(rank=17, at=5.0),))
    cfg = ServeConfig(
        replicas=64,
        arrivals=ArrivalSpec(rate=60.0),
        horizon_s=12.0,
        seed=9,
        fault_plan=plan,
    )
    reg = MetricsRegistry()
    r = simulate_serving(cfg, obs=reg, trace=True)
    # the run completes despite the crash, with the victim's in-flight
    # batch failed and the replica excluded from further dispatch
    assert r.failed > 0
    assert [rep for rep, _at in r.excluded] == [17]
    assert r.generated == r.admitted + r.dropped
    assert r.admitted == r.completed + r.timed_out + r.failed
    # obs counters name the exclusion and the injected crash
    recs = reg.snapshot()
    excluded = [rec for rec in recs if rec["metric"] == "serve.replicas.excluded"]
    assert excluded and excluded[0]["value"] == 1
    crash = [
        rec
        for rec in recs
        if rec["metric"] == "faults.injected"
        and rec["labels"].get("kind") == "crash"
    ]
    assert crash and crash[0]["value"] == 1
    # Perfetto spans: the crash window and the exclusion window both
    # land on the victim's track
    labels_on_victim = {
        s.label for s in r.tracer.spans if s.process == "rank17"
    }
    assert "fault_crash" in labels_on_victim
    assert "serve.excluded" in labels_on_victim
    # the victim stops decoding at the crash: no decode span ends after
    # its exclusion begins
    t_excluded = r.excluded[0][1]
    for s in r.tracer.spans:
        if s.process == "rank17" and s.label == "serve.decode":
            assert s.end <= t_excluded


def test_crash_fault_compose_is_deterministic():
    plan = FaultPlan(events=(NodeCrash(rank=2, at=2.0),))
    cfg = _quick_cfg(fault_plan=plan)
    a = simulate_serving(cfg)
    b = simulate_serving(cfg)
    assert a.invariants() == b.invariants()
    assert a.excluded == b.excluded


@pytest.mark.parametrize(
    "autoscale", [None, AutoscalePolicy(min_replicas=1)], ids=["fixed", "autoscaled"]
)
def test_every_replica_lost_fails_requests_and_returns(autoscale):
    """Both replicas crash at 0.5 s.  Without an autoscaler the run used
    to end in a raw ``DeadlockError`` (the batcher waited for a replica
    forever); with one it never returned (the controller ticked on with
    nothing left to activate).  Once the last replica is excluded, the
    batch the batcher holds, the queue and later arrivals all fail."""
    cfg = ServeConfig(
        replicas=2,
        horizon_s=2.0,
        fault_plan=FaultPlan(events=(NodeCrash(1, 0.5), NodeCrash(2, 0.5))),
        autoscale=autoscale,
    )
    r = simulate_serving(cfg)
    assert r.execution_path == "des"
    assert r.failed > 0 and r.completed == 0
    assert r.generated == r.admitted + r.dropped
    assert r.admitted == r.completed + r.timed_out + r.failed
    assert sorted(rep for rep, _at in r.excluded) == [1, 2]


def test_autoscaler_recovers_after_every_active_replica_is_excluded():
    """Replicas 1 and 2, the only active ones, crash at 2 s and are
    excluded at about 17.3 s and 17.4 s, after the arrivals end.  Until
    the scaler's next tick every other process is parked; that tick
    activates the standby replicas, and one decodes the held batch."""
    cfg = ServeConfig(
        replicas=4,
        horizon_s=3.0,
        seed=1,
        arrivals=ArrivalSpec(rate=4.0),
        autoscale=AutoscalePolicy(min_replicas=2, interval_s=0.5, warmup_s=0.5),
        fault_plan=FaultPlan(events=(NodeCrash(1, 2.0), NodeCrash(2, 2.0))),
    )
    r = simulate_serving(cfg, trace=True)
    assert {rep for rep, _at in r.excluded} == {1, 2}
    assert r.scale_ups >= 1
    last_exclusion = max(at for _rep, at in r.excluded)
    assert any(
        s.label == "serve.decode"
        and s.process not in ("rank1", "rank2")
        and s.start > last_exclusion
        for s in r.tracer.spans
    )
    assert r.generated == r.admitted + r.dropped
    assert r.admitted == r.completed + r.timed_out + r.failed


# ------------------------------------------------------------- validation
def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(replicas=0)
    with pytest.raises(ValueError):
        ServeConfig(horizon_s=0.0)
    with pytest.raises(ValueError):
        ServeConfig(request_timeout_s=-1.0)
    with pytest.raises(ValueError):
        ServeConfig(replicas=2, autoscale=AutoscalePolicy(min_replicas=4))
    with pytest.raises(ValueError):
        BatchPolicy(max_batch=0)
    with pytest.raises(ValueError):
        AutoscalePolicy(interval_s=0.0)
