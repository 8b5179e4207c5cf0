"""Attribution + critical-path invariants: every virtual second named.

The headline contracts under test:

* **exactness** — each attributed rank's ``compute + comm + recovery +
  wait`` equals ``SimRunResult.finish_time`` *bitwise*;
* **tiling** — the critical path's steps are contiguous (bit-equal
  shared endpoints), start at 0.0, and end at the finish time;
* **path equivalence** — the vector fast path's attribution is
  bit-identical to the scalar scheduler's (it consumes the same
  per-rank totals), and its phase-granular critical path covers the
  same timeline;
* **recovery** — fault-policy runs attribute recovery charges, they are
  not silently folded into compute or lost to wait.
"""

import math

import pytest

from repro.bgq import RunShape
from repro.dist import (
    IterationScript,
    ModelGeometry,
    SimJobConfig,
    SimWorkload,
    simulate_training,
)
from repro.faults import FaultPlan, FaultPolicy, NodeCrash
from repro.harness.scaling import default_workload
from repro.obs.attrib import (
    attribute_rank,
    attribute_run,
    category_of,
    exact_residual,
    mean_label_totals,
    phase_flow_rows,
    phase_of,
    split_label,
    worker_sample,
)
from repro.obs.critpath import critical_path, path_from_phase_log

SCRIPT = IterationScript((2,), (2,), represented_iterations=30)


def _cfg(spec, **kwargs):
    return SimJobConfig(
        shape=RunShape.parse(spec),
        workload=default_workload(50.0),
        script=SCRIPT,
        seed=7,
        **kwargs,
    )


def _fault_job(**kw):
    return SimJobConfig(
        shape=RunShape(64, 1, 16),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 128, 128, 50)),
            train_frames=200_000,
            heldout_frames=20_000,
        ),
        script=IterationScript((6, 8), (3, 4), represented_iterations=20),
        seed=1,
        **kw,
    )


def _assert_tiling(cp, finish):
    assert cp.steps[0].start == 0.0
    assert cp.steps[-1].end == finish
    for a, b in zip(cp.steps, cp.steps[1:]):
        assert a.end == b.start  # contiguous, bit-equal endpoints
    for s in cp.steps:
        assert s.end > s.start  # monotone in virtual time
    assert cp.total == finish


class TestLabelMaps:
    def test_categories(self):
        assert category_of("compute.gradient_loss") == "compute"
        assert category_of("coll.sync_weights") == "comm"
        assert category_of("p2p.load_data") == "comm"
        assert category_of("compute.master_restart") == "recovery"
        assert category_of("mpi_send") is None  # overlaps phase spans
        assert category_of("fault_slowdown") is None

    def test_split_label_splits_at_the_first_dot(self):
        assert split_label("coll.sync_weights") == ("coll", "sync_weights")
        assert split_label("serve.decode.x") == ("serve", "decode.x")
        assert split_label("mpi_send") is None

    def test_phases(self):
        assert phase_of("compute.gradient_loss") == "gradient"
        assert phase_of("coll.sync_weights_master") == "sync"
        assert phase_of("compute.master_restart") == "recovery"
        assert phase_of("p2p.ft_collect") == "other"
        assert phase_of("mpi_recv") is None


class TestExactResidual:
    def test_closes_bitwise_on_awkward_magnitudes(self):
        for total, tracked in [
            (41493.1575659916, 41489.6776),
            (1.0, 1.0 - 2**-53),
            (1e9, 999999999.9999999),
            (0.3, 0.1 + 0.2),  # tracked slightly above total
        ]:
            wait = exact_residual(total, tracked)
            assert tracked + wait == total  # the defining identity

    def test_negative_wait_is_legal(self):
        total = 0.3
        tracked = 0.1 + 0.2  # > 0.3 by one ulp
        wait = exact_residual(total, tracked)
        assert wait < 0.0
        assert tracked + wait == total


class TestAttributionExactness:
    def test_every_rank_sums_to_finish_time_bitwise(self):
        res = simulate_training(_cfg("8-1-16"), vector=False)
        att = attribute_run(res)
        assert len(att.ranks) == 8
        for a in att.ranks:
            assert a.total == res.finish_time  # to the ulp, per rank
            assert a.compute >= 0 and a.comm >= 0 and a.recovery == 0
            # wait is a residual: a few ulps below zero is legal, more
            # than rounding noise is not
            assert a.wait > -1e-6 * res.finish_time
        assert att.straggler_rank in range(8)

    def test_phases_account_for_all_tracked_time(self):
        res = simulate_training(_cfg("8-1-16"), vector=False)
        a = attribute_run(res).rank(1)
        tracked = (a.compute + a.comm) + a.recovery
        assert sum(dict(a.phases).values()) == pytest.approx(tracked, rel=1e-12)

    def test_attribute_rank_is_insertion_order_independent(self):
        totals = {"compute.gradient_loss": 1.25, "coll.reduce_gradient": 0.5}
        rev = dict(reversed(list(totals.items())))
        assert attribute_rank(totals, 2.0) == attribute_rank(rev, 2.0)


class TestVectorScalarEquivalence:
    def test_attribution_bit_identical_across_paths(self):
        ranks = [0, 1, 33, 63]
        av = attribute_run(simulate_training(_cfg("64-4-16"), vector=True), ranks)
        ascl = attribute_run(simulate_training(_cfg("64-4-16"), vector=False), ranks)
        assert av == ascl

    def test_both_paths_tile_the_same_timeline(self):
        rv = simulate_training(_cfg("64-4-16"), vector=True)
        rs = simulate_training(_cfg("64-4-16"), vector=False)
        assert rv.finish_time == rs.finish_time
        cpv, cps = critical_path(rv), critical_path(rs)
        assert cpv.granularity == "phase" and cps.granularity == "span"
        _assert_tiling(cpv, rv.finish_time)
        _assert_tiling(cps, rs.finish_time)
        # both paths agree on what dominates the run
        assert cpv.straggler_phase == cps.straggler_phase


class TestXeonArmOnThePhaseLog:
    """Table I's Xeon arm replays as chain phases under per-worker jitter
    streams; analysis on top of it must not notice."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.harness.speedup import xeon_config
        from repro.obs import MetricsRegistry

        cfg = xeon_config(SCRIPT, hours=5.0)
        reg = MetricsRegistry()
        return (
            simulate_training(cfg, obs=reg),
            simulate_training(cfg, vector=False),
            reg,
        )

    def test_attribution_sums_bitwise_and_matches_scalar(self, runs):
        rv, rs, _reg = runs
        assert (rv.execution_path, rs.execution_path) == ("vector", "scalar")
        att = attribute_run(rv, list(range(96)))
        for a in att.ranks:
            assert a.total == rv.finish_time
        assert att == attribute_run(rs, list(range(96)))
        assert rv.attribution() == rs.attribution()

    def test_chain_phases_carry_the_worker_side_label(self, runs):
        rv, rs, _reg = runs
        labels = [lbl for lbl, _end, _rank in rv.phase_log]
        # 3 weight syncs + 2 CG broadcasts, logged as the workers see them
        assert labels.count("coll.sync_weights") == 3
        assert labels.count("coll.cg_bcast") == 2
        assert "coll.sync_weights_master" not in labels
        cpv, cps = critical_path(rv), critical_path(rs)
        assert cpv.granularity == "phase"
        _assert_tiling(cpv, rv.finish_time)
        _assert_tiling(cps, rs.finish_time)
        assert cpv.straggler_phase == cps.straggler_phase

    def test_run_report_renders(self, runs):
        from repro.harness import build_run_report

        rv, _rs, reg = runs
        doc = build_run_report(rv, reg, title="Xeon arm")
        assert "| shape | 96-12-1 |" in doc
        assert "vector (phase log)" in doc
        assert "## Critical path" in doc and "sync_weights" in doc


class TestSpanGrouping:
    def test_spans_by_process_sorts_within_each_group(self):
        from repro.sim import Tracer

        tr = Tracer()
        tr.record("rank1", "compute.b", 2.0, 3.0)
        tr.record("rank0", "compute.a", 0.0, 1.0)
        tr.record("rank1", "compute.a", 0.0, 2.0)  # out of record order
        groups = tr.spans_by_process()
        assert set(groups) == {"rank0", "rank1"}
        assert [s.label for s in groups["rank1"]] == ["compute.a", "compute.b"]
        # grouping is a view: the tracer's flat span list is untouched
        assert [s.label for s in tr.spans] == [
            "compute.b", "compute.a", "compute.a",
        ]


class TestCriticalPath:
    def test_scalar_path_tiles_and_names_a_straggler(self):
        res = simulate_training(_cfg("8-1-16"), vector=False)
        cp = critical_path(res)
        _assert_tiling(cp, res.finish_time)
        assert cp.straggler_rank in range(8)
        assert cp.straggler_phase in (
            "load", "sync", "gradient", "cg", "linesearch", "recovery",
            "other", "wait",
        )
        cats = cp.by_category()
        assert sum(cats.values()) == pytest.approx(res.finish_time, rel=1e-9)

    def test_phase_log_path_charges_stragglers(self):
        log = [("compute.load_data", 2.0, 3), ("coll.reduce_gradient", 5.0, 1)]
        cp = path_from_phase_log(log, 5.0)
        assert [s.rank for s in cp.steps] == [3, 1]
        assert [(s.start, s.end) for s in cp.steps] == [(0.0, 2.0), (2.0, 5.0)]
        _assert_tiling(cp, 5.0)

    def test_phase_log_terminal_gap_becomes_wait(self):
        cp = path_from_phase_log([("compute.load_data", 2.0, 0)], 2.5)
        assert cp.steps[-1].label == "wait"
        _assert_tiling(cp, 2.5)

    def test_describe_mentions_straggler(self):
        res = simulate_training(_cfg("8-1-16"), vector=False)
        text = critical_path(res).describe()
        assert "straggler rank" in text and "granularity" in text


class TestFaultAttribution:
    POLICY = FaultPolicy(recv_timeout=0.05, max_retries=2)

    def test_master_restart_attributed_as_recovery(self):
        res = simulate_training(
            _fault_job(
                fault_plan=FaultPlan(events=(NodeCrash(rank=0, at=0.05),)),
                fault_policy=self.POLICY,
            )
        )
        att = res.attribution()
        master = att.rank(0)
        assert master.recovery > 0.0  # restart charged, not lost
        for a in att.ranks:
            assert a.total == res.finish_time  # exactness survives faults
        cp = critical_path(res)
        _assert_tiling(cp, res.finish_time)
        # the modeled checkpoint reload dominates this run's path
        assert cp.by_category().get("recovery", 0.0) > 0.0
        assert cp.straggler_phase == "recovery"

    def test_worker_crash_run_stays_exact(self):
        res = simulate_training(
            _fault_job(
                fault_plan=FaultPlan(events=(NodeCrash(rank=13, at=0.09),)),
                fault_policy=self.POLICY,
            )
        )
        att = res.attribution()
        for a in att.ranks:
            assert a.total == res.finish_time
        _assert_tiling(critical_path(res), res.finish_time)


class TestCounterFlowRows:
    def test_worker_sample_is_deterministic_and_in_range(self):
        s = worker_sample(64)
        assert s == worker_sample(64)
        assert len(s) == 16 and all(1 <= r <= 63 for r in s)
        assert worker_sample(8, sample=16) == [1, 2, 3, 4, 5, 6, 7]

    def test_mean_label_totals_matches_single_rank(self):
        res = simulate_training(_cfg("8-1-16"), vector=False)
        one = mean_label_totals(res.tracer, [3])
        totals = res.tracer.totals("rank3")
        assert set(one) == set(totals)
        for k, v in one.items():
            assert v == pytest.approx(totals[k], rel=1e-12)

    def test_rows_cover_both_roles_with_valid_kinds(self):
        res = simulate_training(_cfg("64-4-16"))
        rows = phase_flow_rows(res.tracer, 64)
        roles = {r["role"] for r in rows}
        assert roles == {"master", "worker_mean"}
        assert all(r["kind"] in ("compute", "comm", "recovery") for r in rows)
        assert all(math.isfinite(r["seconds"]) and r["seconds"] >= 0 for r in rows)

    def test_obs_snapshot_carries_phase_seconds(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        res = simulate_training(_cfg("64-4-16"), obs=reg)
        recs = [
            r for r in reg.snapshot() if r["metric"] == "train.phase_seconds"
        ]
        assert recs
        assert all(r["labels"]["shape"] == "64-4-16" for r in recs)
        rows = phase_flow_rows(res.tracer, 64)
        assert len(recs) == len(rows)
