"""Extension baselines: L-BFGS, parallel SGD schemes, layer-wise
pre-training (the paper's Section II landscape, made runnable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    DNN,
    CrossEntropyLoss,
    LBFGSConfig,
    PretrainConfig,
    SGDConfig,
    lbfgs_minimize,
    lbfgs_train,
    parameter_averaging_sgd,
    pretrain_layerwise,
    sgd_train,
    sync_sgd_comm_cost,
    synchronous_minibatch_sgd,
)


def _problem(seed=0, n=400, d=6, c=4, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d)) * 2
    y = rng.integers(0, c, n)
    x = centers[y] + rng.standard_normal((n, d)) * spread
    return x, y


class TestLBFGS:
    def test_solves_quadratic_exactly_in_n_steps(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        a = a @ a.T + np.eye(8)
        b = rng.standard_normal(8)

        def oracle(x):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        res = lbfgs_minimize(oracle, np.zeros(8), LBFGSConfig(max_iterations=60, tolerance=1e-6))
        assert np.allclose(res.theta, np.linalg.solve(a, b), atol=1e-5)
        assert res.converged

    def test_rosenbrock(self):
        def oracle(v):
            x, y = v
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array(
                [-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)]
            )
            return float(f), g

        res = lbfgs_minimize(
            oracle, np.array([-1.2, 1.0]), LBFGSConfig(max_iterations=200, tolerance=1e-7)
        )
        assert np.allclose(res.theta, [1.0, 1.0], atol=1e-3)

    def test_losses_monotone_nonincreasing(self):
        x, y = _problem(1)
        net = DNN([6, 12, 4])
        res = lbfgs_train(net, net.init_params(0), x, y, CrossEntropyLoss(),
                          LBFGSConfig(max_iterations=10))
        assert all(b <= a + 1e-12 for a, b in zip(res.losses, res.losses[1:]))

    def test_beats_sgd_at_matched_passes_on_smooth_problem(self):
        x, y = _problem(2)
        net = DNN([6, 12, 4])
        theta0 = net.init_params(0)
        lb = lbfgs_train(net, theta0, x, y, CrossEntropyLoss(),
                         LBFGSConfig(max_iterations=25))
        sgd = sgd_train(net, theta0, x, y, CrossEntropyLoss(),
                        SGDConfig(epochs=5, learning_rate=0.05))
        assert lb.losses[-1] < sgd.epoch_losses[-1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LBFGSConfig(max_iterations=0)
        with pytest.raises(ValueError):
            LBFGSConfig(history=0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_property_never_increases_from_start(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        a = a @ a.T + 0.1 * np.eye(5)
        b = rng.standard_normal(5)

        def oracle(x):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        res = lbfgs_minimize(oracle, rng.standard_normal(5), LBFGSConfig(max_iterations=10))
        assert res.losses[-1] <= res.losses[0] + 1e-12


class TestParallelSGD:
    def test_parameter_averaging_runs_and_learns_something(self):
        x, y = _problem(3, n=600)
        net = DNN([6, 12, 4])
        theta0 = net.init_params(0)
        v0, _ = net.loss_and_grad(theta0, x, CrossEntropyLoss(), y)
        res = parameter_averaging_sgd(
            net, theta0, x, y, CrossEntropyLoss(), 4, SGDConfig(epochs=3)
        )
        assert res.epoch_losses[-1] < v0 / len(y)

    def test_averaging_degrades_vs_serial(self):
        """The paper's Section II point: one-shot averaging of non-convex
        models loses to serial SGD at the same total work."""
        x, y = _problem(4, n=800)
        net = DNN([6, 16, 4])
        theta0 = net.init_params(0)
        serial = sgd_train(net, theta0, x, y, CrossEntropyLoss(),
                           SGDConfig(epochs=3, learning_rate=0.1))
        averaged = parameter_averaging_sgd(
            net, theta0, x, y, CrossEntropyLoss(), 8,
            SGDConfig(epochs=3, learning_rate=0.1),
        )
        assert averaged.epoch_losses[-1] > serial.epoch_losses[-1]

    def test_sync_sgd_equals_big_batch(self):
        x, y = _problem(5)
        net = DNN([6, 8, 4])
        theta0 = net.init_params(0)
        sync = synchronous_minibatch_sgd(
            net, theta0, x, y, CrossEntropyLoss(), 4,
            SGDConfig(epochs=2, batch_size=32, seed=9),
        )
        big = sgd_train(net, theta0, x, y, CrossEntropyLoss(),
                        SGDConfig(epochs=2, batch_size=128, seed=9))
        assert np.array_equal(sync.theta, big.theta)

    def test_comm_cost_ratio_is_huge(self):
        """Quantifies 'large communications costs in passing the gradient
        vectors from worker machines back to the master'."""
        cc = sync_sgd_comm_cost(
            n_params=41_000_000, n_frames=18_000_000, batch_size=512
        )
        assert cc.ratio > 100
        assert cc.sgd_reductions > 1000 * 1  # tens of thousands of reductions
        assert cc.hf_reductions < 50

    def test_validation(self):
        x, y = _problem(6, n=20)
        net = DNN([6, 8, 4])
        with pytest.raises(ValueError):
            parameter_averaging_sgd(net, net.init_params(0), x, y,
                                    CrossEntropyLoss(), 0)
        with pytest.raises(ValueError):
            sync_sgd_comm_cost(0, 10, 10)


class TestPretrain:
    def test_shapes_and_finiteness(self):
        x, _ = _problem(7, n=300)
        net = DNN([6, 10, 8, 4])
        theta = pretrain_layerwise(net, x, PretrainConfig(epochs_per_layer=2))
        assert theta.shape == (net.n_params,)
        assert np.all(np.isfinite(theta))

    def test_hidden_layers_changed_output_layer_glorot(self):
        x, _ = _problem(8, n=300)
        net = DNN([6, 10, 4])
        cfg = PretrainConfig(epochs_per_layer=2, seed=5)
        theta_pre = pretrain_layerwise(net, x, cfg)
        # rebuild the reference init with the same rng consumption order
        from repro.util.rng import make_rng

        theta_ref = net.init_params(make_rng(5))
        (w_pre, _), _ = net.split_params(theta_pre)[0], None
        (w_ref, _), _ = net.split_params(theta_ref)[0], None
        assert not np.allclose(w_pre, w_ref)  # hidden layer was trained

    def test_pretraining_reduces_reconstruction_style_loss(self):
        """Pre-trained features should make early supervised training at
        least as good as random init on this small task (weak check: the
        pipeline composes and trains)."""
        x, y = _problem(9, n=400)
        net = DNN([6, 12, 4])
        theta_pre = pretrain_layerwise(
            net, x, PretrainConfig(epochs_per_layer=3, seed=1)
        )
        res = sgd_train(net, theta_pre, x, y, CrossEntropyLoss(),
                        SGDConfig(epochs=2, learning_rate=0.1))
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(epochs_per_layer=0)
        with pytest.raises(ValueError):
            PretrainConfig(noise_std=-0.1)


class TestGradientBuckets:
    def test_bucket_bytes_partition_exactly(self):
        from repro.nn.parallel_sgd import GradientBucketPlan

        layers = [1000, 2000, 3000, 500, 700]
        plan = GradientBucketPlan.from_layers(layers, cap_bytes=2500)
        assert plan.total_bytes == sum(layers)
        assert all(b >= 1 for b in plan.bucket_bytes)

    def test_backward_order_coalescing(self):
        from repro.nn.parallel_sgd import GradientBucketPlan

        # backprop emits the last layer first: [30, 20, 10] reversed,
        # cap 50 -> [30+20, 10]
        plan = GradientBucketPlan.from_layers([10, 20, 30], cap_bytes=50)
        assert plan.bucket_bytes == (50, 10)
        assert len(plan) == 2

    def test_oversized_layer_gets_own_bucket(self):
        from repro.nn.parallel_sgd import GradientBucketPlan

        plan = GradientBucketPlan.from_layers([5, 1000, 5], cap_bytes=100)
        assert 1000 in plan.bucket_bytes
        assert plan.total_bytes == 1010

    def test_single_bucket_when_cap_large(self):
        from repro.nn.parallel_sgd import GradientBucketPlan

        plan = GradientBucketPlan.from_layers([10, 20, 30], cap_bytes=10**9)
        assert plan.bucket_bytes == (60,)

    def test_validation(self):
        from repro.nn.parallel_sgd import GradientBucketPlan

        with pytest.raises(ValueError):
            GradientBucketPlan.from_layers([], cap_bytes=100)
        with pytest.raises(ValueError):
            GradientBucketPlan.from_layers([0, 10], cap_bytes=100)
        with pytest.raises(ValueError):
            GradientBucketPlan.from_layers([10], cap_bytes=0)
        with pytest.raises(ValueError):
            GradientBucketPlan(bucket_bytes=())


class TestOverlapSchedule:
    def test_comm_fully_hidden_when_compute_dominates(self):
        from repro.nn.parallel_sgd import overlap_schedule

        # each comm chunk finishes before the next compute chunk does:
        # only the final comm chunk is exposed
        total, exposed = overlap_schedule([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        assert total == pytest.approx(3.1)
        assert exposed == pytest.approx(0.1)

    def test_comm_bound_pipeline(self):
        from repro.nn.parallel_sgd import overlap_schedule

        # comm dominates: the single comm stream serializes after the
        # first compute chunk -> total = c0 + sum(comm)
        total, exposed = overlap_schedule([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])
        assert total == pytest.approx(0.1 + 3.0)
        assert exposed == pytest.approx(3.1 - 0.3)

    def test_serial_equivalence_single_bucket(self):
        from repro.nn.parallel_sgd import overlap_schedule

        total, exposed = overlap_schedule([2.0], [0.5])
        assert total == pytest.approx(2.5)
        assert exposed == pytest.approx(0.5)

    def test_zero_comm_is_free(self):
        from repro.nn.parallel_sgd import overlap_schedule

        total, exposed = overlap_schedule([1.0, 2.0], [0.0, 0.0])
        assert total == pytest.approx(3.0)
        assert exposed == pytest.approx(0.0)

    def test_validation(self):
        from repro.nn.parallel_sgd import overlap_schedule

        with pytest.raises(ValueError):
            overlap_schedule([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            overlap_schedule([-1.0], [0.5])

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, compute, data):
        from repro.nn.parallel_sgd import overlap_schedule

        comm = data.draw(
            st.lists(
                st.floats(0.0, 10.0),
                min_size=len(compute),
                max_size=len(compute),
            )
        )
        total, exposed = overlap_schedule(compute, comm)
        assert total >= max(sum(compute), sum(comm)) - 1e-9
        assert total <= sum(compute) + sum(comm) + 1e-9
        assert 0.0 <= exposed + 1e-9
        assert exposed == pytest.approx(total - sum(compute))
