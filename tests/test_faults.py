"""Fault injection and recovery: plans, kills, timeouts, goldens.

Three layers of pinning:

* **Mechanism units** — plan JSON round trip and validation, seeded
  sampling, :meth:`Engine.kill` semantics, injector hooks (straggler
  windows, drop determinism), and the stale-Get-expiry regression the
  fault work flushed out of the DES core.
* **Zero-cost guarantee** — a config with no plan and no policy must be
  bit-identical whether the fault machinery exists or not; an *empty*
  plan must behave exactly like no plan.
* **Determinism goldens** — the fault-policy protocol and the committed
  64-rank crash plan (``examples/faults/crash_64.json``) are pinned to
  exact virtual times and recovery logs, recorded from the initial
  implementation.  A mismatch means fault handling changed observably:
  treat like any other golden break.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bgq import LinuxJitter, RunShape
from repro.dist import (
    IterationScript,
    ModelGeometry,
    SimJobConfig,
    SimWorkload,
    simulate_training,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    LinkDegrade,
    MessageDrop,
    NodeCrash,
    NodeSlowdown,
)
from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer
from repro.nn import DNN, CrossEntropyLoss
from repro.sim.engine import DeadlockError, Engine, Get
from repro.vmpi import RecvTimeoutError, ZeroCostNetwork, run_spmd

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = REPO_ROOT / "examples" / "faults"


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def _mixed(self) -> FaultPlan:
        return FaultPlan(
            seed=11,
            events=(
                NodeCrash(rank=13, at=0.25),
                NodeSlowdown(rank=7, start=0.1, end=0.4, factor=3.0),
                LinkDegrade(
                    start=0.2, end=0.5, bandwidth_factor=0.5,
                    latency_factor=2.0, nodes=(5, 3, 4),
                ),
                MessageDrop(start=0.0, end=0.1, probability=0.05),
            ),
        )

    def test_json_roundtrip_all_kinds(self):
        plan = self._mixed()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        # nodes are normalized to a sorted tuple on construction
        assert again.events[2].nodes == (3, 4, 5)

    def test_save_and_from_file(self, tmp_path):
        plan = self._mixed()
        path = plan.save(tmp_path / "sub" / "plan.json")
        assert FaultPlan.from_file(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            FaultPlan.from_json('{"events": [{"kind": "gamma_ray"}]}')

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="end must be > start"):
            NodeSlowdown(rank=1, start=0.5, end=0.5)
        with pytest.raises(ValueError, match="probability"):
            MessageDrop(start=0.0, end=1.0, probability=0.0)
        with pytest.raises(ValueError, match="factor"):
            NodeSlowdown(rank=1, start=0.0, end=1.0, factor=0.5)
        with pytest.raises(ValueError, match="events\\[0\\]"):
            FaultPlan.from_json('{"events": [{"kind": "node_crash", "z": 1}]}')

    def test_validate_ranks(self):
        plan = FaultPlan(events=(NodeCrash(rank=13, at=0.1),))
        plan.validate_ranks(14)
        with pytest.raises(ValueError, match="rank 13"):
            plan.validate_ranks(13)

    def test_empty_and_crash_time(self):
        assert FaultPlan().empty
        plan = self._mixed()
        assert not plan.empty
        assert plan.crash_time(13) == 0.25
        assert plan.crash_time(0) is None

    def test_sample_is_deterministic_and_spares(self):
        a = FaultPlan.sample(5, 64, crash_rate=0.3, slowdown_rate=0.2, horizon=10.0)
        b = FaultPlan.sample(5, 64, crash_rate=0.3, slowdown_rate=0.2, horizon=10.0)
        assert a == b
        assert a.events  # the rates are high enough to draw something
        for ev in a.events:
            assert ev.rank != 0  # rank 0 spared by default
            if isinstance(ev, NodeCrash):
                assert 1.0 <= ev.at <= 9.0  # middle 80% of the horizon
        c = FaultPlan.sample(6, 64, crash_rate=0.3, slowdown_rate=0.2, horizon=10.0)
        assert a != c


# ---------------------------------------------------------------- engine kill
class TestEngineKill:
    def test_kill_blocked_process_runs_finally(self):
        eng = Engine()
        store = eng.new_store("s")
        cleaned: list[str] = []

        def waiter():
            try:
                yield Get(store)
            finally:
                cleaned.append("closed")

        proc = eng.process(waiter(), "victim")
        eng.schedule(1.5, lambda: eng.kill(proc))
        eng.run()
        assert cleaned == ["closed"]
        assert proc.finished and proc.killed and proc.value is None

    def test_kill_finished_process_is_noop(self):
        eng = Engine()

        def quick():
            return 42
            yield  # pragma: no cover - makes this a generator

        proc = eng.process(quick(), "quick")
        eng.run()
        assert proc.value == 42
        assert eng.kill(proc) is False
        assert not proc.killed


# ------------------------------------------------------------- injector hooks
class TestInjector:
    def test_slowdown_window_scaling(self):
        plan = FaultPlan(events=(NodeSlowdown(rank=2, start=1.0, end=2.0, factor=3.0),))
        inj = FaultInjector(plan)
        assert inj.scale_compute(2, 0.5, now=1.5) == 1.5
        assert inj.scale_compute(2, 0.5, now=0.5) == 0.5  # before the window
        assert inj.scale_compute(2, 0.5, now=2.0) == 0.5  # end is exclusive
        assert inj.scale_compute(3, 0.5, now=1.5) == 0.5  # other rank untouched
        assert inj.counts["slowdown"] == 1

    def test_drop_draws_are_seeded(self):
        plan = FaultPlan(
            seed=3, events=(MessageDrop(start=0.0, end=1.0, probability=0.4),)
        )
        inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [inj_a.drop_message(0, 1, now=0.5) for _ in range(10)]
        seq_b = [inj_b.drop_message(0, 1, now=0.5) for _ in range(10)]
        assert seq_a == seq_b
        assert True in seq_a and False in seq_a  # p=0.4 over 10 draws

    def test_messages_to_crashed_rank_always_drop(self):
        plan = FaultPlan(events=(NodeCrash(rank=1, at=0.5),))
        inj = FaultInjector(plan)
        assert not inj.drop_message(0, 1, now=0.4)
        assert inj.drop_message(0, 1, now=0.5)
        assert not inj.drop_message(1, 0, now=0.6)  # only the *inbox* is dead

    def test_spared_rank_is_not_killed_but_drops(self):
        plan = FaultPlan(events=(NodeCrash(rank=0, at=0.5),))
        inj = FaultInjector(plan, spare=(0,))
        assert inj.master_crash_time() == 0.5
        assert inj.drop_message(1, 0, now=0.6) is False  # spared rank keeps inbox


# ------------------------------------------- vmpi timeout + stale-expiry fixes
class TestRecvTimeout:
    def test_timeout_error_carries_source_and_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                return None
            try:
                yield from ctx.recv(source=0, tag=9, timeout=0.25)
            except RecvTimeoutError as err:
                return (err.rank, err.source, err.tag, err.timeout, err.at)
            return None

        res = run_spmd(2, prog, network=ZeroCostNetwork())
        rank, source, tag, timeout, at = res.values[1]
        assert (rank, source, tag, timeout) == (1, 0, 9, 0.25)
        assert at == pytest.approx(0.25)

    def test_stale_expiry_does_not_cancel_later_recv(self):
        """Regression: a satisfied timed recv leaves its expiry event in
        the heap; a later recv by the same rank for the same (source,
        tag) parks an *equal* mailbox entry, and the stale expiry must
        not cancel it (it must wait its own full timeout)."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(0.1)
                yield from ctx.send(1, "late", tag=7)
                return None
            msg = yield from ctx.recv(source=0, tag=7, timeout=0.2)
            # stale expiry for this satisfied recv is still scheduled at 0.2
            try:
                yield from ctx.recv(source=0, tag=7, timeout=0.5)
            except RecvTimeoutError as err:
                return (msg.payload, err.at)
            return (msg.payload, None)

        res = run_spmd(2, prog, network=ZeroCostNetwork())
        payload, err_at = res.values[1]
        assert payload == "late"
        # second recv parks at ~0.1 and must expire at ~0.6, not at the
        # stale 0.2 event
        assert err_at == pytest.approx(0.6)

    def test_satisfied_timer_does_not_inflate_end_time(self):
        """Stale expiry events draining from the heap must not count as
        simulated time: the run ends when the last rank finishes."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, "x", tag=1)
                return None
            yield from ctx.recv(source=0, tag=1, timeout=3600.0)
            return None

        res = run_spmd(2, prog, network=ZeroCostNetwork())
        assert res.time < 1.0


# --------------------------------------------------------- trainer fault runs
def _job(ranks: int = 64, **kw) -> SimJobConfig:
    return SimJobConfig(
        shape=RunShape(ranks, 1, 16),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 128, 128, 50)),
            train_frames=200_000,
            heldout_frames=20_000,
        ),
        script=IterationScript((6, 8), (3, 4), represented_iterations=20),
        seed=1,
        **kw,
    )


def _fingerprint(cfg: SimJobConfig) -> tuple[str, str, int]:
    res = simulate_training(cfg)
    return (
        repr(res.load_data_seconds),
        repr(res.iteration_seconds),
        res.total_messages,
    )


class TestZeroCost:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        base = _fingerprint(_job(ranks=8))
        with_empty = _fingerprint(_job(ranks=8, fault_plan=FaultPlan()))
        assert with_empty == base

    def test_crash_without_policy_is_detected_as_deadlock(self):
        """A plan with no policy injects into the plain collective
        protocol: the crash is *detected* (the run cannot complete), not
        recovered.  The crash must land after load_data — a crash during
        the load collective also deadlocks, but that is not the
        documented behavior under test here."""
        cfg = _job(ranks=8, fault_plan=FaultPlan(events=(NodeCrash(rank=3, at=0.05),)))
        with pytest.raises(DeadlockError):
            simulate_training(cfg)


class TestPolicyGoldens:
    """Pinned virtual times for the fault-policy protocol.

    Recorded from the initial implementation by running this module as a
    script (``PYTHONPATH=src python tests/test_faults.py``).  The policy
    changes the communication pattern even fault-free, so it gets its
    own goldens, separate from ``test_sim_determinism``.
    """

    POLICY = FaultPolicy(recv_timeout=0.05, max_retries=2)

    GOLDEN_POLICY_LOAD = "0.0016161819999999994"
    GOLDEN_POLICY_ITERS = "0.10852749049766179"
    GOLDEN_CRASH_ITERS = "1.8585687344976376"

    def test_policy_only_pinned(self):
        res = simulate_training(_job(fault_policy=self.POLICY))
        assert repr(res.load_data_seconds) == self.GOLDEN_POLICY_LOAD
        assert repr(res.iteration_seconds) == self.GOLDEN_POLICY_ITERS
        assert res.recovery is not None and res.recovery.events == []
        assert res.excluded_ranks == ()

    def test_committed_crash_plan_recovers_and_replays(self):
        """The committed 64-rank example: rank 13 dies at the CG midpoint
        of iteration 1; the CG quorum collects proceed partial and the
        next strict phase excludes the rank and renormalizes."""
        plan = FaultPlan.from_file(EXAMPLES / "crash_64.json")
        assert plan.events == (NodeCrash(rank=13, at=0.09791785658422164),)

        def run():
            return simulate_training(
                _job(fault_plan=plan, fault_policy=self.POLICY)
            )

        res = run()
        assert repr(res.iteration_seconds) == self.GOLDEN_CRASH_ITERS
        assert res.excluded_ranks == (13,)
        assert res.recovery.counts() == {
            "timeout": 15, "retry": 10, "partial": 4,
            "exclude": 1, "renormalize": 1,
        }
        again = run()
        assert repr(again.iteration_seconds) == repr(res.iteration_seconds)
        assert again.recovery.describe() == res.recovery.describe()

    def test_mixed_example_plan_loads(self):
        plan = FaultPlan.from_file(EXAMPLES / "mixed_64.json")
        plan.validate_ranks(64)
        kinds = {type(ev).__name__ for ev in plan.events}
        assert kinds == {
            "NodeCrash", "NodeSlowdown", "LinkDegrade", "MessageDrop",
        }

    def test_obs_counters_surface_faults_and_recoveries(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        plan = FaultPlan.from_file(EXAMPLES / "crash_64.json")
        simulate_training(
            _job(fault_plan=plan, fault_policy=self.POLICY), obs=reg
        )
        snap = reg.snapshot()
        injected = {
            r["labels"]["kind"]: r["value"]
            for r in snap if r["metric"] == "faults.injected"
        }
        assert injected["crash"] == 1
        assert injected["drop"] >= 1  # sends to the dead rank are dropped
        by_metric = {r["metric"]: r for r in snap if not r["labels"]}
        assert by_metric["train.recoveries"]["value"] > 0
        assert by_metric["train.excluded_ranks"]["value"] == 1


def _sampled(seed: int) -> FaultPlan:
    return FaultPlan.sample(
        seed, 64, crash_rate=0.05, slowdown_rate=0.1, horizon=0.12
    )


class TestFaultTolerantGoldens:
    """The fault-tolerant path pinned config by config: the master
    checkpoint-restart charge, a crash/slowdown/degrade/drop mix, eight
    sampled plans, and the policy crossed with the options that reshape
    the fault-free protocol.  Recorded before the rank programs were
    folded onto the shared phase table (``dist/script.py``); a mismatch
    means recovery changed observably."""

    POLICY = TestPolicyGoldens.POLICY

    # name -> (job kwargs, repr(finish_time), recovery.counts(), excluded)
    CASES = {
        "mixed_64": (
            {"fault_plan": FaultPlan.from_file(EXAMPLES / "mixed_64.json")},
            "0.47104864700253835",
            {"timeout": 3, "retry": 2, "exclude": 1, "renormalize": 1},
            (13,),
        ),
        "master_crash": (
            {"fault_plan": FaultPlan(events=(NodeCrash(rank=0, at=0.05),))},
            "30.110143672498218",
            {"master_restart": 1},
            (),
        ),
        "sample_0": (
            {"fault_plan": _sampled(0)},
            "0.4599079924976755",
            {"timeout": 3, "retry": 2, "exclude": 2, "renormalize": 1},
            (20, 25),
        ),
        "sample_1": (
            {"fault_plan": _sampled(1)},
            "2.910008156497542",
            {"timeout": 24, "retry": 16, "exclude": 4, "renormalize": 2, "partial": 6},
            (38, 9, 13, 24),
        ),
        "sample_2": (
            {"fault_plan": _sampled(2)},
            "0.819744032969396",
            {"timeout": 6, "retry": 4, "partial": 1, "exclude": 3, "renormalize": 1},
            (31, 38, 47),
        ),
        "sample_3": (
            {"fault_plan": _sampled(3)},
            "2.9100433129769403",
            {"timeout": 24, "retry": 16, "exclude": 3, "renormalize": 2, "partial": 6},
            (54, 34, 37),
        ),
        "sample_4": (
            {"fault_plan": _sampled(4)},
            "0.4599372569770613",
            {"timeout": 3, "retry": 2, "exclude": 2, "renormalize": 1},
            (22, 54),
        ),
        "sample_5": (
            {"fault_plan": _sampled(5)},
            "0.8254913727135429",
            {"timeout": 6, "retry": 4, "exclude": 3, "renormalize": 2},
            (29, 27, 63),
        ),
        "sample_6": (
            {"fault_plan": _sampled(6)},
            "2.213925421134191",
            {"timeout": 18, "retry": 12, "partial": 5, "exclude": 3, "renormalize": 1},
            (5, 40, 47),
        ),
        "sample_7": (
            {"fault_plan": _sampled(7)},
            "2.910037420976941",
            {"timeout": 24, "retry": 16, "exclude": 4, "renormalize": 2, "partial": 6},
            (54, 3, 21, 28),
        ),
        "overlap": (
            {"overlap_gradient": True},
            "0.11014367249766178", {}, (),
        ),
        "serial_jitter": (
            {"bcast_algorithm": "serial", "noise": LinuxJitter()},
            "0.11740249854674878", {}, (),
        ),
        "staged": (
            {"load_data_mode": "staged", "load_data_fanout": 8},
            "0.1117653976733418", {}, (),
        ),
        "auto_48": (
            {"ranks": 48, "collective_selection": "auto"},
            "0.14169319004438125", {}, (),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned_and_replays(self, name):
        kwargs, finish, counts, excluded = self.CASES[name]
        cfg = _job(fault_policy=self.POLICY, **kwargs)
        # completing at all is the no-DeadlockError assertion
        res = simulate_training(cfg)
        assert repr(res.finish_time) == finish
        assert res.recovery.counts() == counts
        assert res.excluded_ranks == excluded
        # the master's attribution, where every recovery charge lands; a
        # mostly idle worker's tracked time can sit on a round-to-even tie
        # that no `wait` closes (DESIGN §7, "Attribution model"), so
        # workers are not asserted
        assert res.attribution([0]).rank(0).total == res.finish_time
        again = simulate_training(cfg)
        assert repr(again.finish_time) == finish
        assert again.recovery.describe() == res.recovery.describe()


# ------------------------------------------------------------ fault sweeps
class TestFaultSweep:
    def test_sweep_degrades_and_replays(self):
        from repro.harness import run_fault_sweep

        def sweep():
            return run_fault_sweep(
                spec="32-1-16", hours=0.05, crash_rates=(0.0, 0.3), seed=2
            )

        points = sweep()
        assert [p.crash_rate for p in points] == [0.0, 0.3]
        base, faulty = points
        assert base.recoveries == 0 and base.excluded_ranks == ()
        assert faulty.recoveries > 0 and len(faulty.excluded_ranks) >= 1
        assert faulty.total_seconds > base.total_seconds
        again = sweep()
        assert [repr(p.total_seconds) for p in again] == [
            repr(p.total_seconds) for p in points
        ]


# ------------------------------------------------- real optimizer: checkpoints
def _toy_source(seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, 6)) * 2.0
    labels = rng.integers(0, 4, 400)
    x = centers[labels] + rng.standard_normal((400, 6)) * 0.8
    h_labels = rng.integers(0, 4, 100)
    hx = centers[h_labels] + rng.standard_normal((100, 6)) * 0.8
    net = DNN([6, 16, 4])
    return net, FrameSource(
        net, CrossEntropyLoss(), x, labels, hx, h_labels, curvature_fraction=0.1
    )


class TestCheckpointRestart:
    def test_attached_policy_is_bit_identical(self, tmp_path):
        net, src = _toy_source()
        theta0 = net.init_params(0)
        plain = HessianFreeOptimizer(src, HFConfig(max_iterations=3)).run(theta0)
        pol = FaultPolicy(checkpoint_path=str(tmp_path / "ck.npz"))
        ckpt = HessianFreeOptimizer(
            src, HFConfig(max_iterations=3), fault_policy=pol
        ).run(theta0)
        assert ckpt.heldout_trajectory == plain.heldout_trajectory
        assert np.array_equal(ckpt.theta, plain.theta)

    def test_resume_matches_uninterrupted_tail(self, tmp_path):
        net, src = _toy_source()
        theta0 = net.init_params(0)
        full = HessianFreeOptimizer(src, HFConfig(max_iterations=5)).run(theta0)

        path = tmp_path / "ck.npz"
        pol = FaultPolicy(checkpoint_path=str(path), checkpoint_every=1)
        HessianFreeOptimizer(
            src, HFConfig(max_iterations=2), fault_policy=pol
        ).run(theta0)
        resumed = HessianFreeOptimizer(
            src, HFConfig(max_iterations=5), fault_policy=pol
        ).run(theta0, resume_from=path)

        # the resumed result covers iterations 3..5; it must be the exact
        # tail of the uninterrupted run (sample_seed parity via the
        # checkpointed attempt counter)
        assert resumed.heldout_trajectory == full.heldout_trajectory[2:]
        assert np.array_equal(resumed.theta, full.theta)


if __name__ == "__main__":  # pragma: no cover - golden (re)recording aid
    pol = TestPolicyGoldens.POLICY
    res = simulate_training(_job(fault_policy=pol))
    print("policy-only load  =", repr(res.load_data_seconds))
    print("policy-only iters =", repr(res.iteration_seconds))
    plan = FaultPlan.from_file(EXAMPLES / "crash_64.json")
    res = simulate_training(_job(fault_plan=plan, fault_policy=pol))
    print("crash iters       =", repr(res.iteration_seconds))
    print("crash counts      =", res.recovery.counts())
