"""Vectorized-vs-generator equivalence for the SPMD fast path.

The vector executor (:mod:`repro.dist.vectorized`) must reproduce the
per-process scalar scheduler bit for bit: virtual finish times, message
and byte totals, per-rank span totals, and the obs metric snapshot —
with three documented exclusions where the two paths legitimately
differ:

* ``sim.events`` / ``sim.vector_phases`` counters and the
  ``sim.heap_depth`` / ``sim.ready_depth`` peak gauges (the entire
  point of the fast path is executing *fewer, bigger* events);
* the ``comm.coll.seconds`` histogram ``sum`` field (the bulk fold adds
  per-phase duration arrays in a different order than the global event
  interleave; the bucket *counts* are still bit-identical);
* outstanding-message high-water marks (``comm.outstanding_hwm``,
  ``comm.pair.outstanding_hwm``): phases run atomically on the vector
  path, so transient cross-phase backlogs (a slow root consuming a
  loss-tree message after the next barrier's stub lands) report the
  steady-state 1 instead of the scalar interleave's occasional 2;
* the tracer's *global* totals (same fold-order caveat — per-process
  totals are the bit-stable surface, per ``Tracer.totals``).
"""

import gc
import json
import multiprocessing
import os
import weakref

import pytest

from repro.bgq import LinuxJitter, RunShape, TorusNetworkModel
from repro.cluster import EthernetNetworkModel
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.harness.scaling import default_workload
from repro.obs import MetricsRegistry

SCRIPT = IterationScript((2,), (2,), represented_iterations=30)


def _cfg(spec, **kwargs):
    return SimJobConfig(
        shape=RunShape.parse(spec),
        workload=default_workload(50.0),
        script=SCRIPT,
        seed=7,
        **kwargs,
    )


def _run(spec, vector, obs=None, shards=1, cfg=None):
    return simulate_training(
        cfg or _cfg(spec), obs=obs, vector=vector, shards=shards
    )


def _metric_index(reg):
    out = {}
    for rec in reg.snapshot():
        key = (rec["metric"], json.dumps(rec.get("labels", {}), sort_keys=True))
        out[key] = rec
    return out


SNAPSHOT_EXCLUDED = (
    "sim.events",  # one heap event per phase, by design
    "sim.vector_phases",
    "sim.heap_depth",  # ditto: queue depths scale with event count
    "sim.ready_depth",
    "sim.processes",  # one driver generator instead of P rank programs
    "comm.outstanding_hwm",  # cross-phase backlog transients
    "comm.pair.outstanding_hwm",
)


def _assert_snapshots_match(ra, rb, context=None):
    """Scalar and vector registries agree record for record, minus the
    module docstring's exclusions."""
    ia, ib = _metric_index(ra), _metric_index(rb)
    assert {k for k in ia if k[0] not in SNAPSHOT_EXCLUDED} == {
        k for k in ib if k[0] not in SNAPSHOT_EXCLUDED
    }
    for key in ia:
        metric = key[0]
        if metric in SNAPSHOT_EXCLUDED:
            continue
        va, vb = dict(ia[key]), dict(ib[key])
        if metric == "comm.coll.seconds":
            # histogram `sum` folds in a different order; counts must match
            va.pop("sum")
            vb.pop("sum")
        assert va == vb, (context, key)


def _vector_phases(reg):
    return next(
        rec["value"]
        for rec in reg.snapshot()
        if rec["metric"] == "sim.vector_phases"
    )


def _events_total(reg):
    return sum(
        rec["value"] for rec in reg.snapshot() if rec["metric"] == "sim.events"
    )


@pytest.mark.parametrize("spec", ["64-4-16", "256-4-16"])
def test_vector_matches_scalar_bit_for_bit(spec):
    a = _run(spec, vector=False)
    b = _run(spec, vector=True)
    assert a.load_data_seconds == b.load_data_seconds
    assert a.iteration_seconds == b.iteration_seconds
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    ranks = int(spec.split("-")[0])
    for r in (0, 1, 2, ranks // 2, ranks - 1):
        ta, tb = a.tracer.totals(f"rank{r}"), b.tracer.totals(f"rank{r}")
        assert set(ta) == set(tb)
        for k in ta:
            assert ta[k] == tb[k], (r, k)


def test_vector_env_toggle(monkeypatch):
    """``REPRO_SIM_VECTOR=0|1`` forces the path when ``vector`` is None,
    observable through the ``sim.vector_phases`` counter."""
    counts = {}
    for env in ("0", "1"):
        monkeypatch.setenv("REPRO_SIM_VECTOR", env)
        reg = MetricsRegistry()
        _run("64-4-16", vector=None, obs=reg)
        counts[env] = (_vector_phases(reg), _events_total(reg))
    assert counts["0"][0] == 0
    assert counts["1"][0] > 0
    # the fast path's raison d'être: far fewer engine events
    assert counts["1"][1] < counts["0"][1] / 50


def test_vector_metrics_snapshot_matches_scalar():
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = _run("64-4-16", vector=False, obs=ra)
    b = _run("64-4-16", vector=True, obs=rb)
    assert a.iteration_seconds == b.iteration_seconds
    ia, ib = _metric_index(ra), _metric_index(rb)
    assert set(ia) == set(ib)
    _assert_snapshots_match(ra, rb)


def test_vector_fallback_on_heterogeneous_config():
    """Ineligible configs (here: the staged load relay) run the scalar
    scheduler even with the fast path requested — and stay correct."""
    reg = MetricsRegistry()
    cfg = _cfg("64-4-16", load_data_mode="staged")
    res = simulate_training(cfg, obs=reg, vector=True)
    assert _vector_phases(reg) == 0
    assert res.iteration_seconds > 0


def _assert_runs_match(a, b, context=None):
    """Everything virtual two executions of one config must share."""
    assert a.finish_time == b.finish_time, context
    assert a.rank_end_times == b.rank_end_times, context
    assert a.load_data_seconds == b.load_data_seconds, context
    assert a.total_messages == b.total_messages, context
    assert a.total_bytes == b.total_bytes, context
    for r in range(a.config.shape.ranks):
        name = f"rank{r}"
        assert a.tracer.totals(name) == b.tracer.totals(name), (context, r)


def _assert_scalar_equals_vector(cfg, context=None):
    """``vector=False`` against the default path, which must be the
    vector replay with no fallback recorded: runs and snapshots agree."""
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = simulate_training(cfg, obs=ra, vector=False)
    b = simulate_training(cfg, obs=rb)
    assert (a.execution_path, b.execution_path) == ("scalar", "vector"), context
    assert not any(m == "sim.vector.fallback" for m, _ in _metric_index(rb))
    _assert_runs_match(a, b, context)
    _assert_snapshots_match(ra, rb, context)
    return a, b


def test_vector_matches_scalar_on_non_power_of_two():
    """48 ranks: levels 16 and 32 are short (rank 48 does not exist, so
    neither does level 16's edge 48 -> 32) — the remainder branches of
    the scalar tree algorithms."""
    cfg = SimJobConfig(
        shape=RunShape.parse("48-4-16"),
        workload=default_workload(50.0),
        script=IterationScript((1,), (1,), represented_iterations=30),
        seed=7,
    )
    _assert_scalar_equals_vector(cfg)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
def test_sharded_matches_single_shard_bit_for_bit():
    a = _run("64-4-16", vector=True, shards=1)
    b = _run("64-4-16", vector=True, shards=4)
    assert a.load_data_seconds == b.load_data_seconds
    assert a.iteration_seconds == b.iteration_seconds
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    for r in (0, 15, 16, 32, 63):
        assert a.tracer.totals(f"rank{r}") == b.tracer.totals(f"rank{r}")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
def test_shard_obs_counters():
    reg = MetricsRegistry()
    res = _run("64-4-16", vector=True, shards=2, obs=reg)
    assert res.iteration_seconds > 0
    idx = _metric_index(reg)
    ops = [v["value"] for (m, _), v in idx.items() if m == "sim.shard.kernel_ops"]
    assert len(ops) == 2 and ops[0] == ops[1] > 0
    assert ("sim.shard.window_stalls", "{}") in idx
    assert ("sim.shard.window_spread_seconds", "{}") in idx


@pytest.mark.parametrize("shards", [0, -2])
def test_shard_count_below_one_is_rejected(shards):
    """A non-positive count used to run single-shard without a word."""
    with pytest.raises(ValueError, match="shards must be >= 1"):
        _run("64-4-16", vector=True, shards=shards)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        _run("64-4-16", vector=False, shards=shards)


def test_shard_count_validation():
    from repro.dist.vectorized import _VectorRun  # noqa: F401 - import check
    from repro.sim.shard import ShardPool

    class _Stub:
        p = 64

    with pytest.raises(ValueError):
        ShardPool(_Stub(), 3)
    with pytest.raises(ValueError):
        ShardPool(_Stub(), 1)

    class _NonPow2:
        p = 96  # 2 divides it, but blocks of 48 would mis-split level 16
        n_chains = 0

    with pytest.raises(ValueError, match="power-of-two communicator"):
        ShardPool(_NonPow2(), 2)

    class _Chained:
        p = 64
        n_chains = 3

    with pytest.raises(ValueError, match="serial-broadcast schedule"):
        ShardPool(_Chained(), 2)


@pytest.mark.parametrize(
    "spec, kwargs",
    [("96-4-16", {}), ("64-4-16", {"bcast_algorithm": "serial"})],
    ids=["non_pow2", "serial"],
)
def test_unshardable_config_runs_single_process(spec, kwargs):
    """``shards > 1`` on a config the block split cannot serve is decided
    from the config: the run stays on the vector path, in one process."""
    plain = simulate_training(_cfg(spec, **kwargs))
    sharded = simulate_training(_cfg(spec, **kwargs), shards=2, speculate=True)
    assert (plain.execution_path, sharded.execution_path) == ("vector", "vector")
    _assert_runs_match(plain, sharded)


@pytest.mark.parametrize("vector", [False, True])
def test_network_smaller_than_the_run_is_rejected_up_front(vector):
    """Used to die mid-run with ``rank 8 out of range 0..7`` (scalar) or
    ``rank 63 ...`` from cost-class pricing (vector)."""
    for network in (
        EthernetNetworkModel(nodes=2, ranks_per_node=4),
        TorusNetworkModel(nodes=2, ranks_per_node=4),
    ):
        with pytest.raises(
            ValueError, match="network model covers 8 ranks, run shape has 64"
        ):
            simulate_training(_cfg("64-4-16", network=network), vector=vector)


VARIANTS = {
    "auto": {"collective_selection": "auto"},
    "overlap": {"overlap_gradient": True},
    "auto+overlap": {"collective_selection": "auto", "overlap_gradient": True},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("spec", ["16-4-16", "64-4-16", "1024-4-16"])
def test_vector_matches_scalar_auto_and_overlap(spec, variant):
    """Bit-equivalence goldens for the widened fast path: auto-selected
    collectives and the bucketed gradient-overlap pipeline (and their
    combination) must reproduce the scalar scheduler exactly — finish
    times, message/byte totals, and sampled per-rank span totals."""
    cfg_a = _cfg(spec, **VARIANTS[variant])
    cfg_b = _cfg(spec, **VARIANTS[variant])
    a = simulate_training(cfg_a, vector=False)
    reg = MetricsRegistry()
    b = simulate_training(cfg_b, vector=True, obs=reg)
    assert _vector_phases(reg) > 0, "variant fell off the fast path"
    assert a.load_data_seconds == b.load_data_seconds
    assert a.iteration_seconds == b.iteration_seconds
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    ranks = int(spec.split("-")[0])
    for r in (0, 1, ranks // 2, ranks - 1):
        ta, tb = a.tracer.totals(f"rank{r}"), b.tracer.totals(f"rank{r}")
        assert set(ta) == set(tb)
        for k in ta:
            assert ta[k] == tb[k], (variant, r, k)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_vector_metrics_snapshot_matches_scalar_auto_and_overlap(variant):
    """The full obs snapshot (minus the documented exclusions) must
    agree between the paths for the newly-eligible variants too —
    including the per-algorithm ``comm.coll.seconds`` label sets the
    auto policy and the ``+overlap`` algo suffix introduce."""
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = simulate_training(_cfg("64-4-16", **VARIANTS[variant]), vector=False, obs=ra)
    b = simulate_training(_cfg("64-4-16", **VARIANTS[variant]), vector=True, obs=rb)
    assert a.iteration_seconds == b.iteration_seconds
    _assert_snapshots_match(ra, rb, variant)


def test_vector_fallback_reason_recorded():
    """An ineligible vector request lands on the scalar path with the
    blocking precondition recorded: a ``sim.vector.fallback`` counter
    labelled with the reason slug (one per fallback)."""
    from repro.dist.vectorized import vector_fallback_reason

    cases = {
        "staged_load": _cfg("64-4-16", load_data_mode="staged"),
        # the jittered gradient time feeds the exposed-comm charge
        "noise_model": _cfg(
            "64-4-16", noise=LinuxJitter(), overlap_gradient=True
        ),
        "small_comm": _cfg("8-4-16"),
    }
    for want, cfg in cases.items():
        reg = MetricsRegistry()
        res = simulate_training(cfg, obs=reg, vector=True)
        assert res.execution_path == "scalar"
        idx = _metric_index(reg)
        key = ("sim.vector.fallback", json.dumps({"reason": want}))
        assert key in idx and idx[key]["value"] == 1, (want, sorted(idx))
    # *eligible* runs must not record any fallback — the serial broadcast
    # (a retired slug) replays as chain phases, bit for bit
    for cfg in (_cfg("64-4-16"), _cfg("64-4-16", bcast_algorithm="serial")):
        _assert_scalar_equals_vector(cfg, cfg.bcast_algorithm)
    # the reason helper is the single source of truth the counter uses
    assert (
        vector_fallback_reason(_cfg("64-4-16"), object(), trace_p2p=True)
        == "trace_p2p"
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_speculative_rollback_determinism(shards):
    """Seeded runs must be bit-identical for every shard count with
    speculation on or off — rollback repair may fire at arbitrary
    (wall-clock-dependent) points, but committed values never differ."""
    base = _run("64-4-16", vector=True, shards=1)
    for speculate in (False, True):
        if shards == 1 and speculate:
            continue  # the pool (and thus speculation) starts at 2 shards
        r = simulate_training(
            _cfg("64-4-16"), vector=True, shards=shards, speculate=speculate
        )
        assert r.load_data_seconds == base.load_data_seconds
        assert r.iteration_seconds == base.iteration_seconds
        assert r.total_messages == base.total_messages
        assert r.total_bytes == base.total_bytes
        for r_ in (0, 31, 32, 63):
            assert r.tracer.totals(f"rank{r_}") == base.tracer.totals(
                f"rank{r_}"
            ), (shards, speculate)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
def test_speculative_rollback_repair_is_exact(monkeypatch):
    """With the optimistic gather's spin budget forced to zero every
    snapshot takes whatever export columns are there — mostly stale, so
    validation rolls back and repairs constantly.  Committed results
    must still be bit-identical, and the repair traffic must show up on
    the speculative counters."""
    import repro.sim.shard as shard_mod

    monkeypatch.setattr(shard_mod, "_SPIN_BUDGET", 0)
    base = _run("256-4-16", vector=True, shards=1)
    rollbacks = 0
    for _attempt in range(3):
        reg = MetricsRegistry()
        r = simulate_training(
            _cfg("256-4-16"), obs=reg, vector=True, shards=8, speculate=True
        )
        assert r.iteration_seconds == base.iteration_seconds
        assert r.total_messages == base.total_messages
        idx = _metric_index(reg)
        assert idx[("sim.shard.speculated_windows", "{}")]["value"] > 0
        rb = idx.get(("sim.shard.rollbacks", "{}"))
        stalls = idx[("sim.shard.window_stalls", "{}")]["value"]
        rollbacks += rb["value"] if rb else 0
        # speculative stalls are exactly the rolled-back windows
        assert stalls == (rb["value"] if rb else 0)
        if rollbacks:
            break
    assert rollbacks > 0, "zero-budget snapshots never raced a peer"


def test_run_shape_unchanged_by_vector_default():
    """The default path (env unset) must be the vector fast path for
    eligible shapes — the PR flips it on by default."""
    env = os.environ.get("REPRO_SIM_VECTOR")
    assert env is None or env == "1"
    reg = MetricsRegistry()
    _run("64-4-16", vector=None, obs=reg)
    assert _vector_phases(reg) > 0


def test_vector_matches_scalar_on_an_unpinned_shape():
    """2048 ranks at a seed no golden uses: what is built lazily on the
    vector path (mailboxes, rank names, finish-time list) cannot change
    what either path observes."""
    cfg = SimJobConfig(
        shape=RunShape.parse("2048-4-16"),
        workload=default_workload(50.0),
        script=SCRIPT,
        seed=41,
    )
    ra, rb = MetricsRegistry(), MetricsRegistry()
    a = simulate_training(cfg, obs=ra, vector=False)
    b = simulate_training(cfg, obs=rb)
    assert (a.execution_path, b.execution_path) == ("scalar", "vector")
    assert a.finish_time == b.finish_time
    assert a.load_data_seconds == b.load_data_seconds
    assert isinstance(b.rank_end_times, list)
    assert a.rank_end_times == b.rank_end_times
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    for r in (0, 1, 1024, 2047):
        assert a.tracer.totals(f"rank{r}") == b.tracer.totals(f"rank{r}")
    ia, ib = _metric_index(ra), _metric_index(rb)
    assert set(ia) == set(ib)
    _assert_snapshots_match(ra, rb)


@pytest.mark.parametrize(
    "shards",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="sharded engine needs fork-capable multiprocessing",
            ),
        ),
    ],
)
def test_vector_run_state_dies_by_refcount(monkeypatch, shards):
    """With the collector off, dropping the result frees the run, its
    plan and the tracer's bulk span arrays: no reference cycle is left
    behind to pin them until a full collection."""
    from repro.dist import vectorized

    refs = {}
    real_run = vectorized._VectorRun

    def spy(cfg, plan, *args):
        run = real_run(cfg, plan, *args)
        refs["run"], refs["plan"] = weakref.ref(run), weakref.ref(plan)
        return run

    monkeypatch.setattr(vectorized, "_VectorRun", spy)
    gc.collect()
    gc.disable()
    try:
        result = _run("1024-4-16", vector=True, shards=shards)
        assert result.execution_path.startswith("vector")
        assert result.tracer.totals("rank5")  # queried, hence fully built
        segments = next(iter(result.tracer._bulk.values()))
        refs["bulk spans"] = weakref.ref(segments[0][1])
        del segments
        assert refs["run"]() is None and refs["plan"]() is None
        del result
        alive = [name for name, ref in refs.items() if ref() is not None]
        assert not alive
    finally:
        gc.enable()
