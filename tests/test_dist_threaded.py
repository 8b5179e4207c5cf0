"""Distributed HF on real threads: the paper's accuracy-parity claim.

"Results on large-scale speech tasks show that the performance on BG/Q
scales linearly up to 4096 processes with no loss in accuracy" — here we
assert the strong version: the distributed optimizer follows the serial
reference trajectory to float tolerance, for several worker counts and
both training criteria.
"""

from collections import Counter

import numpy as np
import pytest

from repro.dist import (
    MasterSource,
    ShardWorker,
    global_frame_sample,
    make_frame_shards,
    make_sequence_shards,
    naive_partition,
    train_threaded_hf,
)
from repro.dist.protocol import FrameShard, sample_size
from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer, SequenceSource
from repro.nn import DNN, CrossEntropyLoss, SequenceMMILoss
from repro.obs import MetricsRegistry
from repro.speech import CorpusConfig, build_corpus
from repro.vmpi import run_threaded
from tests.test_vmpi_backend_parity import recorded_traffic

CFG = CorpusConfig(hours=50, scale=8e-5, context=1, seed=11)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CFG)


@pytest.fixture(scope="module")
def frame_setup(corpus):
    x, y = corpus.frame_data()
    hx, hy = corpus.heldout_frame_data()
    net = DNN([CFG.input_dim, 24, corpus.n_states])
    return corpus, net, x, y, hx, hy


def _serial(frame_setup, hf_config, fraction=0.05, seed=9):
    corpus, net, x, y, hx, hy = frame_setup
    src = FrameSource(
        net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=fraction, seed=seed
    )
    return HessianFreeOptimizer(src, hf_config).run(net.init_params(0))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_distributed_matches_serial_trajectory(frame_setup, workers):
    corpus, net, x, y, hx, hy = frame_setup
    hf_config = HFConfig(max_iterations=3)
    serial = _serial(frame_setup, hf_config)
    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, workers)
    dist = train_threaded_hf(
        net, CrossEntropyLoss(), shards, net.init_params(0), hf_config,
        curvature_fraction=0.05, seed=9,
    )
    assert np.allclose(
        serial.heldout_trajectory, dist.heldout_trajectory, rtol=1e-9, atol=1e-9
    )
    assert np.allclose(serial.theta, dist.theta, atol=1e-8)


def test_partitioner_choice_does_not_change_results(frame_setup):
    """Load balancing is a performance feature; the math is identical."""
    corpus, net, x, y, hx, hy = frame_setup
    hf_config = HFConfig(max_iterations=2)
    lens = [u.n_frames for u in corpus.train_utts]
    runs = []
    for part in (None, naive_partition):
        kwargs = {} if part is None else {"partitioner": part}
        shards = make_frame_shards(x, y, hx, hy, lens, 3, **kwargs)
        runs.append(
            train_threaded_hf(
                net, CrossEntropyLoss(), shards, net.init_params(0), hf_config,
                curvature_fraction=0.05, seed=9,
            )
        )
    assert np.allclose(
        runs[0].heldout_trajectory, runs[1].heldout_trajectory, rtol=1e-9
    )


def test_sequence_distributed_matches_serial(corpus):
    xs, spans = corpus.sequence_data()
    hxs, hspans = corpus.heldout_sequence_data()
    net = DNN([CFG.input_dim, 16, corpus.n_states])
    loss = SequenceMMILoss(
        corpus.sampler.log_transitions(), corpus.sampler.log_initial(), kappa=0.7
    )
    hf_config = HFConfig(max_iterations=2)
    src = SequenceSource(
        net, loss, xs, spans, hxs, hspans, curvature_fraction=0.2, seed=4
    )
    serial = HessianFreeOptimizer(src, hf_config).run(net.init_params(1))
    shards = make_sequence_shards(xs, spans, hxs, hspans, 2)
    dist = train_threaded_hf(
        net, loss, shards, net.init_params(1), hf_config,
        curvature_fraction=0.2, seed=4,
    )
    assert np.allclose(
        serial.heldout_trajectory, dist.heldout_trajectory, rtol=1e-7
    )


def _mmi_setup(corpus):
    xs, spans = corpus.sequence_data()
    hxs, hspans = corpus.heldout_sequence_data()
    net = DNN([CFG.input_dim, 16, corpus.n_states])
    loss = SequenceMMILoss(
        corpus.sampler.log_transitions(), corpus.sampler.log_initial(), kappa=0.7
    )
    return net, loss, (xs, spans, hxs, hspans)


def _threaded_series(net, loss, shards, curvature_total, fraction, seed, theta0):
    """``hf.gn_sample_size`` of a 2-iteration run on MasterSource."""
    reg = MetricsRegistry()

    def master(comm):
        source = MasterSource(comm, sum(s.n_frames for s in shards))
        try:
            HessianFreeOptimizer(source, HFConfig(max_iterations=2), obs=reg).run(theta0)
        finally:
            source.stop()

    workers = [
        ShardWorker(net, loss, s, fraction, curvature_total, seed).serve for s in shards
    ]
    run_threaded(len(shards) + 1, [master] + workers, timeout=120)
    return reg.series("hf.gn_sample_size").values


def _serial_series(source, theta0):
    reg = MetricsRegistry()
    HessianFreeOptimizer(source, HFConfig(max_iterations=2), obs=reg).run(theta0)
    return reg.series("hf.gn_sample_size").values


def test_threaded_gn_sample_size_is_the_serial_one(frame_setup, corpus):
    """The threaded operator reports the reduced sampled-frame count as
    ``sample_size``, so the per-iteration metric is the serial run's."""
    _, net, x, y, hx, hy = frame_setup
    shards = make_frame_shards(
        x, y, hx, hy, [u.n_frames for u in corpus.train_utts], 2
    )
    serial = _serial_series(
        FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.05, seed=9),
        net.init_params(0),
    )
    threaded = _threaded_series(
        net, CrossEntropyLoss(), shards, x.shape[0], 0.05, 9, net.init_params(0)
    )
    assert serial and min(serial) > 0
    assert threaded == serial

    net, loss, (xs, spans, hxs, hspans) = _mmi_setup(corpus)
    serial = _serial_series(
        SequenceSource(net, loss, xs, spans, hxs, hspans, curvature_fraction=0.2, seed=4),
        net.init_params(1),
    )
    threaded = _threaded_series(
        net, loss, make_sequence_shards(xs, spans, hxs, hspans, 2), len(spans),
        0.2, 4, net.init_params(1),
    )
    assert serial and min(serial) > 0
    assert threaded == serial


def test_real_trainer_traffic_is_the_phase_table(frame_setup, corpus, monkeypatch):
    """One bcast down and one reduce up per master call (gradient, CG
    product, held-out evaluation), plus the stop broadcast: with 2
    workers every binomial edge is master <-> worker, and there is no
    curvature-setup round trip."""
    _, net, x, y, hx, hy = frame_setup
    shards = make_frame_shards(
        x, y, hx, hy, [u.n_frames for u in corpus.train_utts], 2
    )
    calls = Counter()
    gradient, heldout, curvature = (
        MasterSource.gradient, MasterSource.heldout_loss, MasterSource.curvature_operator
    )

    def counted_curvature(self, theta, lam, sample_seed):
        op = curvature(self, theta, lam, sample_seed)

        def counted_op(v):
            calls["cg"] += 1
            return op(v)

        return counted_op

    def counted(name, fn):
        def method(self, theta):
            calls[name] += 1
            return fn(self, theta)

        return method

    monkeypatch.setattr(MasterSource, "gradient", counted("gradient", gradient))
    monkeypatch.setattr(MasterSource, "heldout_loss", counted("heldout", heldout))
    monkeypatch.setattr(MasterSource, "curvature_operator", counted_curvature)
    with recorded_traffic() as rows:
        train_threaded_hf(
            net, CrossEntropyLoss(), shards, net.init_params(0),
            HFConfig(max_iterations=2), curvature_fraction=0.05, seed=9,
        )
    n = sum(calls.values())
    assert calls["gradient"] and calls["cg"] and calls["heldout"]
    assert Counter((src, dst) for src, dst, _tag, _nbytes in rows) == {
        (0, 1): n + 1, (0, 2): n + 1, (1, 0): n, (2, 0): n,
    }


def test_curvature_needs_the_gradient_theta(frame_setup, corpus):
    """Workers build curvature at the last gradient's theta, so the
    master refuses any other theta rather than assume it."""
    _, net, x, y, hx, hy = frame_setup
    shards = make_frame_shards(
        x, y, hx, hy, [u.n_frames for u in corpus.train_utts], 1
    )
    theta = net.init_params(0)

    def master(comm):
        source = MasterSource(comm, x.shape[0])
        try:
            with pytest.raises(ValueError, match="last gradient"):
                source.curvature_operator(theta, 1.0, sample_seed=1)
            source.gradient(theta)
            source.curvature_operator(theta.copy(), 1.0, sample_seed=1)
            with pytest.raises(ValueError, match="last gradient"):
                source.curvature_operator(theta + 1e-12, 1.0, sample_seed=1)
        finally:
            source.stop()

    worker = ShardWorker(net, CrossEntropyLoss(), shards[0], 0.05, x.shape[0], 9)
    run_threaded(2, [master, worker.serve], timeout=60)


def test_shard_construction_invariants(frame_setup):
    corpus, net, x, y, hx, hy = frame_setup
    lens = [u.n_frames for u in corpus.train_utts]
    shards = make_frame_shards(x, y, hx, hy, lens, 4)
    assert sum(s.n_frames for s in shards) == x.shape[0]
    all_ids = np.concatenate([s.global_ids for s in shards])
    assert sorted(all_ids.tolist()) == list(range(x.shape[0]))
    assert sum(s.heldout_x.shape[0] for s in shards) == hx.shape[0]


def test_shard_length_mismatch_rejected(frame_setup):
    corpus, net, x, y, hx, hy = frame_setup
    with pytest.raises(ValueError, match="lengths"):
        make_frame_shards(x, y, hx, hy, [1, 2, 3], 2)


def test_global_sample_partition_invariant(frame_setup):
    """Union of worker sample intersections == the global sample —
    regardless of worker count."""
    corpus, net, x, y, hx, hy = frame_setup
    lens = [u.n_frames for u in corpus.train_utts]
    total = x.shape[0]
    sample = global_frame_sample(total, 0.05, base_seed=9, sample_seed=3)
    for workers in (2, 5):
        shards = make_frame_shards(x, y, hx, hy, lens, workers)
        rows = np.concatenate(
            [s.global_ids[s.sample_rows(sample)] for s in shards]
        )
        assert sorted(rows.tolist()) == sorted(sample.tolist())


def test_sample_size_formula():
    assert sample_size(1000, 0.02) == 20
    assert sample_size(10, 0.001) == 1  # floor at 1
    with pytest.raises(ValueError):
        sample_size(0, 0.5)
    with pytest.raises(ValueError):
        sample_size(10, 0.0)


def test_frame_shard_validation():
    with pytest.raises(ValueError, match="align"):
        FrameShard(
            x=np.zeros((3, 2)),
            targets=np.zeros(2),
            global_ids=np.arange(3),
            heldout_x=np.zeros((0, 2)),
            heldout_targets=np.zeros(0),
        )
