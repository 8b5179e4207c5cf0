"""Simulated distributed training on the virtual BG/Q (small scales, so
the full DES — including real collective algorithms — executes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import LinuxJitter, RunShape
from repro.dist import (
    GEOMETRY_50HR,
    IterationScript,
    ModelGeometry,
    SimJobConfig,
    SimWorkload,
    calibrate_script,
    default_script,
    simulate_training,
)
from repro.dist.simulated import (
    CURVATURE_JITTER,
    _build_plan,
    _draw_utterance_lengths,
)
from repro.speech import HmmSpec
from repro.util.rng import spawn

SMALL_GEOM = ModelGeometry((40, 128, 128, 50))


def small_workload(**kw):
    defaults = dict(
        geometry=SMALL_GEOM, train_frames=200_000, heldout_frames=20_000
    )
    defaults.update(kw)
    return SimWorkload(**defaults)


def small_config(ranks=8, rpn=1, tpr=16, **kw):
    defaults = dict(
        shape=RunShape(ranks, rpn, tpr),
        workload=small_workload(),
        script=IterationScript((6, 8), (3, 4), represented_iterations=20),
        seed=1,
    )
    defaults.update(kw)
    return SimJobConfig(**defaults)


class TestSimulateTraining:
    def test_runs_and_reports(self):
        res = simulate_training(small_config())
        assert res.load_data_seconds > 0
        assert res.iteration_seconds > 0
        assert res.simulated_iterations == 2
        assert res.represented_total_seconds > res.iteration_seconds
        assert res.total_messages > 0

    def test_deterministic(self):
        a = simulate_training(small_config())
        b = simulate_training(small_config())
        assert a.iteration_seconds == b.iteration_seconds
        assert a.total_messages == b.total_messages

    def test_more_ranks_less_worker_compute(self):
        t8 = simulate_training(small_config(ranks=8)).mean_worker_breakdown()
        t32 = simulate_training(small_config(ranks=32)).mean_worker_breakdown()
        assert t32.compute["gradient_loss"] < t8.compute["gradient_loss"]

    def test_master_breakdown_structure(self):
        res = simulate_training(small_config())
        mb = res.master_breakdown()
        assert "load_data" in mb.p2p
        assert "sync_weights_master" in mb.collective
        assert "reduce_gradient" in mb.collective
        assert "cg_minimize" in mb.compute
        # the master does no gradient math
        assert "gradient_loss" not in mb.compute

    def test_worker_breakdown_structure(self):
        res = simulate_training(small_config())
        wb = res.worker_breakdown(3)
        assert "gradient_loss" in wb.compute
        assert "worker_curvature_product" in wb.compute
        assert "heldout_loss" in wb.compute
        assert "load_data" in wb.p2p

    def test_curvature_product_varies_across_workers(self):
        """The paper's Fig 3 remark: the random curvature sample makes
        worker_curvature_product vary across workers."""
        res = simulate_training(small_config(ranks=16))
        times = [
            res.worker_breakdown(r).compute["worker_curvature_product"]
            for r in range(1, 16)
        ]
        assert max(times) > min(times)

    def test_utterance_sampling_has_more_variance_than_frame(self):
        wl = small_workload(curvature_fraction=0.02)
        kw = dict(ranks=16, workload=wl)

        def spread(mode):
            res = simulate_training(
                small_config(curvature_sampling=mode, **kw)
            )
            t = np.array(
                [
                    res.worker_breakdown(r).compute["worker_curvature_product"]
                    for r in range(1, 16)
                ]
            )
            return t.max() / max(t.mean(), 1e-12)

        assert spread("utterance") > spread("frame")

    def test_naive_partition_slower_than_balanced(self):
        """The LB ablation (Section V-C): unbalanced shards inflate the
        synchronized gradient phase."""
        hmm = HmmSpec(length_sigma=0.8)
        t_bal = simulate_training(
            small_config(ranks=32, partitioner="balanced", hmm=hmm)
        ).iteration_seconds
        t_naive = simulate_training(
            small_config(ranks=32, partitioner="naive", hmm=hmm)
        ).iteration_seconds
        assert t_naive > t_bal

    def test_serial_bcast_slower_than_binomial(self):
        """The COMM ablation (Section V-B): sockets -> MPI_Bcast.  The
        O(P) root injection penalty needs a real model size to bite, so
        this uses a ~4 M-parameter geometry."""
        wl = small_workload(geometry=ModelGeometry((360, 1024, 1024, 1024, 500)))
        t_tree = simulate_training(
            small_config(ranks=64, workload=wl, bcast_algorithm="binomial")
        ).iteration_seconds
        t_serial = simulate_training(
            small_config(ranks=64, workload=wl, bcast_algorithm="serial")
        ).iteration_seconds
        assert t_serial > t_tree

    def test_jitter_inflates_runtime(self):
        quiet = simulate_training(small_config(ranks=16)).iteration_seconds
        noisy = simulate_training(
            small_config(ranks=16, noise=LinuxJitter(0.02, 0.05))
        ).iteration_seconds
        assert noisy > quiet

    def test_validation(self):
        with pytest.raises(ValueError, match="master"):
            small_config(ranks=1)
        with pytest.raises(ValueError, match="partitioner"):
            small_config(partitioner="random")
        with pytest.raises(ValueError, match="bcast"):
            small_config(bcast_algorithm="gossip")
        with pytest.raises(ValueError, match="curvature_sampling"):
            small_config(curvature_sampling="byte")


class TestIterationScript:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationScript((), ())
        with pytest.raises(ValueError):
            IterationScript((5,), (1, 2))
        with pytest.raises(ValueError):
            IterationScript((0,), (1,))
        with pytest.raises(ValueError):
            IterationScript((5, 5), (1, 1), represented_iterations=1)

    def test_scale_factor(self):
        s = IterationScript((5, 5), (2, 2), represented_iterations=30)
        assert s.scale_factor == 15.0

    def test_truncated(self):
        s = IterationScript((5, 6, 7), (1, 2, 3), represented_iterations=30)
        t = s.truncated(2)
        assert t.cg_iters == (5, 6)
        assert t.represented_iterations == 30
        with pytest.raises(ValueError):
            s.truncated(0)

    def test_default_script_plausible(self):
        s = default_script(n_iterations=4, seed=3)
        assert s.n_iterations == 4
        assert all(5 <= c <= 40 for c in s.cg_iters)
        assert all(h >= 1 for h in s.heldout_evals)

    def test_calibrate_from_real_run(self):
        from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer
        from repro.nn import DNN, CrossEntropyLoss

        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 5))
        y = rng.integers(0, 3, 200)
        hx, hy = x[:50], y[:50]
        net = DNN([5, 8, 3])
        src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)
        result = HessianFreeOptimizer(src, HFConfig(max_iterations=2)).run(
            net.init_params(0)
        )
        script = calibrate_script(result, represented_iterations=25)
        assert script.n_iterations == 2
        assert script.cg_iters == tuple(
            it.cg_iterations for it in result.iterations
        )
        assert script.represented_iterations == 25


class TestSimWorkload:
    def test_theta_bytes(self):
        wl = SimWorkload(GEOMETRY_50HR, 1000, 100)
        assert wl.theta_bytes == GEOMETRY_50HR.n_params * 4

    def test_geometry_presets_match_paper(self):
        assert 10e6 < GEOMETRY_50HR.n_params < 50e6
        from repro.dist import GEOMETRY_400HR

        assert GEOMETRY_400HR.n_params > 100e6  # "over 100M parameters"

    def test_phase_times_scale_with_frames(self):
        wl = small_workload()
        assert wl.gradient_seconds(2000, 4, 4) > wl.gradient_seconds(1000, 4, 4)
        assert wl.gradient_seconds(0, 4, 4) == 0.0

    def test_gradient_costs_more_than_forward(self):
        wl = small_workload()
        assert wl.gradient_seconds(1000, 4, 4) > 2.5 * wl.heldout_seconds(1000, 4, 4)

    def test_curvature_product_between(self):
        wl = small_workload()
        g = wl.gradient_seconds(1000, 4, 4)
        c = wl.curvature_product_seconds(1000, 4, 4)
        f = wl.heldout_seconds(1000, 4, 4)
        assert f < g < c  # 1 < 3 < 4 GEMMs per layer

    def test_sequence_surcharge(self):
        plain = small_workload()
        seq = small_workload(sequence_states=100)
        assert seq.gradient_seconds(1000, 4, 4) > plain.gradient_seconds(1000, 4, 4)

    def test_framework_efficiency_scales_time(self):
        fast = small_workload(framework_efficiency=1.0)
        slow = small_workload(framework_efficiency=0.5)
        assert slow.gradient_seconds(1000, 4, 4) == pytest.approx(
            2.0 * fast.gradient_seconds(1000, 4, 4)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SimWorkload(SMALL_GEOM, 0, 10)
        with pytest.raises(ValueError):
            SimWorkload(SMALL_GEOM, 10, 10, curvature_fraction=2.0)
        with pytest.raises(ValueError):
            SimWorkload(SMALL_GEOM, 10, 10, framework_efficiency=0.0)
        with pytest.raises(ValueError):
            ModelGeometry((5,))


class TestLoadDataModes:
    def test_staged_does_not_relieve_master_egress(self):
        """The DATA ablation's negative result at test scale."""
        direct = simulate_training(small_config(ranks=32, load_data_mode="master"))
        staged = simulate_training(
            small_config(ranks=32, load_data_mode="staged", load_data_fanout=8)
        )
        m_direct = direct.master_breakdown().p2p["load_data"]
        m_staged = staged.master_breakdown().p2p["load_data"]
        assert m_staged > 0.7 * m_direct

    def test_parallel_io_removes_master_p2p(self):
        res = simulate_training(
            small_config(ranks=16, load_data_mode="parallel_io")
        )
        assert "load_data" not in res.master_breakdown().p2p
        wb = res.worker_breakdown(3)
        assert wb.compute["load_data"] > 0

    def test_staged_workers_all_receive(self):
        """Staged relay must not deadlock and every worker gets data
        (non-leader workers wait on their leader)."""
        res = simulate_training(
            small_config(ranks=16, load_data_mode="staged", load_data_fanout=4)
        )
        for r in range(1, 16):
            assert res.worker_breakdown(r).p2p["load_data"] >= 0

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="load_data_mode"):
            small_config(load_data_mode="carrier_pigeon")
        with pytest.raises(ValueError, match="fanout"):
            small_config(load_data_fanout=1)


# ---------------------------------------------------------------- the plan
def _plan_reference(cfg):
    """``_build_plan`` one worker at a time, from the utterance lists."""
    lengths = _draw_utterance_lengths(cfg).tolist()
    w = cfg.n_workers
    if len(lengths) < w:
        lengths += [cfg.hmm.min_length] * (w - len(lengths) + 1)
    if cfg.partitioner == "naive":
        owned = [list(range(wi, len(lengths), w)) for wi in range(w)]
    else:
        owned = [[] for _ in range(w)]
        for u in sorted(range(len(lengths)), key=lambda u: (-lengths[u], u)):
            lightest = min(range(w), key=lambda wi: sum(lengths[v] for v in owned[wi]))
            owned[lightest].append(u)
        owned = [sorted(utts) for utts in owned]
    grad = [sum(lengths[u] for u in utts) for utts in owned]
    held = cfg.workload.heldout_frames
    frac = cfg.workload.curvature_fraction
    curv = []
    for it in range(cfg.script.n_iterations):
        rng = spawn(cfg.seed, "sim-curv", it)
        if cfg.curvature_sampling == "frame":
            jitter = np.clip(rng.normal(1.0, CURVATURE_JITTER, size=w), 0.5, 1.5)
            curv.append(
                [max(1, round(max(1, round(frac * f)) * j)) for f, j in zip(grad, jitter)]
            )
        else:  # whole utterances from a random start until the share is reached
            frames = []
            for utts, f in zip(owned, grad):
                start = int(rng.integers(0, len(utts)))
                target, got = max(1, round(frac * f)), 0
                for u in utts[start:] + utts[:start]:
                    got += lengths[u]
                    if got >= target:
                        break
                frames.append(got)
            curv.append(frames)
    return {
        "lengths": lengths,
        "owned": owned,
        "grad_frames": grad,
        "heldout_frames": [held // w + (wi < held % w) for wi in range(w)],
        "curv_frames": curv,
        "shard_bytes": [cfg.workload.shard_bytes(f) for f in grad],
    }


@settings(max_examples=25, deadline=None)
@given(
    ranks=st.integers(2, 24),
    train_frames=st.integers(100, 30_000),
    seed=st.integers(0, 2**16),
    partitioner=st.sampled_from(["balanced", "naive"]),
    sampling=st.sampled_from(["frame", "utterance"]),
)
def test_build_plan_matches_per_worker_reference(
    ranks, train_frames, seed, partitioner, sampling
):
    cfg = small_config(
        ranks=ranks,
        workload=small_workload(train_frames=train_frames, heldout_frames=train_frames // 7),
        seed=seed,
        partitioner=partitioner,
        curvature_sampling=sampling,
    )
    plan, ref = _build_plan(cfg), _plan_reference(cfg)
    assert plan.grad_frames.tolist() == ref["grad_frames"]
    assert plan.heldout_frames.tolist() == ref["heldout_frames"]
    assert [c.tolist() for c in plan.curv_frames] == ref["curv_frames"]
    assert plan.shard_bytes.tolist() == ref["shard_bytes"]
    assert plan.grad_frames.sum() == sum(ref["lengths"])
    for arr in (plan.grad_frames, plan.heldout_frames, plan.shard_bytes, *plan.curv_frames):
        assert arr.dtype == np.int64 and arr.shape == (cfg.n_workers,)


@pytest.mark.parametrize("partitioner", ["balanced", "naive"])
def test_build_plan_pads_tiny_workloads_to_one_utterance_per_worker(partitioner):
    cfg = small_config(
        ranks=33,
        workload=small_workload(train_frames=300),
        partitioner=partitioner,
        curvature_sampling="utterance",
    )
    assert len(_draw_utterance_lengths(cfg)) < cfg.n_workers  # the padded path
    plan, ref = _build_plan(cfg), _plan_reference(cfg)
    assert sorted(len(utts) for utts in ref["owned"]) == [1] * 31 + [2]
    assert plan.grad_frames.tolist() == ref["grad_frames"]
    assert plan.grad_frames.min() >= cfg.hmm.min_length
