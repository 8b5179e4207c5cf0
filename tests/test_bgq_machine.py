"""A2 core, node/run-shape validation, memory hierarchy, cycle model,
network cost model, partition bookkeeping, and OS-noise models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import (
    BGQ_CORE,
    BGQ_MEMORY,
    BGQ_NODE,
    CnkNoise,
    CycleModel,
    LinuxJitter,
    Partition,
    RunShape,
    TorusNetworkModel,
    expected_sync_inflation,
)
from repro.util.rng import spawn


class TestA2Core:
    def test_peak_numbers_match_paper(self):
        # "the floating point peak of a core is 8 x 1.6 = 12.8 GFLOPS,
        #  thus the theoretical peak ... of a node is 204.8 GFLOPS"
        assert BGQ_CORE.peak_gflops == pytest.approx(12.8)
        assert BGQ_NODE.peak_gflops == pytest.approx(204.8)

    def test_issue_efficiency_monotone_in_threads(self):
        effs = [BGQ_CORE.issue_efficiency(t) for t in (1, 2, 3, 4)]
        assert effs == sorted(effs)
        assert effs[0] < 0.7 < effs[-1]

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            BGQ_CORE.issue_efficiency(5)

    def test_cycles_for_seconds(self):
        assert BGQ_CORE.cycles_for_seconds(1.0) == 1.6e9
        with pytest.raises(ValueError):
            BGQ_CORE.cycles_for_seconds(-1.0)


class TestRunShape:
    @pytest.mark.parametrize(
        "spec,nodes,tpc",
        [
            ("1024-1-64", 1024, 4),
            ("2048-2-32", 1024, 4),
            ("4096-4-16", 1024, 4),
            ("8192-4-16", 2048, 4),
            ("1024-1-16", 1024, 1),
            ("1024-1-32", 1024, 2),
        ],
    )
    def test_paper_configs(self, spec, nodes, tpc):
        s = RunShape.parse(spec)
        assert s.nodes == nodes
        assert s.threads_per_core == tpc
        assert s.label() == spec

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError, match="oversubscribes"):
            RunShape(1024, 1, 128)

    def test_indivisible_ranks_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            RunShape(10, 4, 16)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            RunShape.parse("1024-1")
        with pytest.raises(ValueError):
            RunShape.parse("a-b-c")

    def test_derived_quantities(self):
        s = RunShape.parse("2048-2-32")
        assert s.cores_per_rank == 8.0
        assert s.threads_per_node == 64
        assert s.node_utilization == 1.0


class TestMemory:
    def test_level_selection(self):
        assert BGQ_MEMORY.level_for_working_set(1000) == "L1"
        assert BGQ_MEMORY.level_for_working_set(1 << 20) == "L2"
        assert BGQ_MEMORY.level_for_working_set(1 << 30) == "DDR"

    def test_bandwidth_ordering(self):
        # L1 is per-core (x16 for the node aggregate); L2/DDR are per-node.
        assert BGQ_MEMORY.stream_bandwidth("L1") * 16 > BGQ_MEMORY.stream_bandwidth("L2")
        assert BGQ_MEMORY.stream_bandwidth("L2") > BGQ_MEMORY.stream_bandwidth("DDR")

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            BGQ_MEMORY.stream_bandwidth("L9")


class TestCycleModel:
    def test_split_conserves_cycles(self):
        cm = CycleModel()
        for kclass in ("gemm", "elementwise", "control", "mpi_wait", "io"):
            c = cm.split(2.0, kclass, 4)
            assert c.total == pytest.approx(2.0 * 1.6e9, rel=1e-6)

    def test_gemm_stalls_shrink_with_threads(self):
        cm = CycleModel()
        one = cm.split(1.0, "gemm", 1)
        four = cm.split(1.0, "gemm", 4)
        assert four.axu_dep_stall < one.axu_dep_stall
        assert four.committed > one.committed

    def test_mpi_wait_is_mostly_iu_empty(self):
        c = CycleModel().split(1.0, "mpi_wait", 4)
        assert c.iu_empty > 0.8 * c.total

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="kernel class"):
            CycleModel().split(1.0, "quantum", 4)

    def test_ledger_split(self):
        cm = CycleModel()
        out = cm.split_ledger(
            {"gradient_loss": 2.0, "mystery": 1.0},
            {"gradient_loss": "gemm"},
            threads_per_core=4,
        )
        assert set(out) == {"gradient_loss", "mystery"}

    def test_addition(self):
        cm = CycleModel()
        a = cm.split(1.0, "gemm", 4)
        b = cm.split(1.0, "gemm", 4)
        assert (a + b).total == pytest.approx(2 * a.total)


class TestTorusNetworkModel:
    def test_same_rank_free(self):
        m = TorusNetworkModel(nodes=32)
        assert m.p2p_time(3, 3, 1 << 20) == 0.0

    def test_on_node_cheaper_than_off_node(self):
        m = TorusNetworkModel(nodes=32, ranks_per_node=4)
        on = m.p2p_time(0, 1, 1 << 20)  # same node
        off = m.p2p_time(0, 127, 1 << 20)
        assert on < off

    def test_more_hops_cost_more(self):
        m = TorusNetworkModel(nodes=512)
        near = m.p2p_time(0, 1, 0)
        far_node = max(range(512), key=lambda n: m.torus.hops(0, n))
        far = m.p2p_time(0, far_node, 0)
        assert far > near

    def test_congestion_derates_bandwidth(self):
        small = TorusNetworkModel(nodes=32)
        big = TorusNetworkModel(nodes=2048)
        assert big.p2p_time(0, 1, 1 << 24) > small.p2p_time(0, 1, 1 << 24)

    def test_collective_params(self):
        alpha, bw = TorusNetworkModel(nodes=1024).collective_params()
        assert alpha > 0 and 0 < bw <= 2e9

    def test_rank_mapping(self):
        m = TorusNetworkModel(nodes=4, ranks_per_node=4)
        assert m.node_of(0) == 0
        assert m.node_of(15) == 3
        with pytest.raises(ValueError):
            m.node_of(16)


class TestPartition:
    def test_rack_arithmetic(self):
        p = Partition(2048)
        assert p.racks == 2.0
        assert p.midplanes == 4.0
        assert p.peak_gflops == pytest.approx(2048 * 204.8)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Partition(1000)

    def test_for_run_picks_smallest(self):
        shape = RunShape.parse("4096-4-16")
        assert Partition.for_run(shape).nodes == 1024

    def test_shape_for(self):
        p = Partition(1024)
        s = p.shape_for(4, 16)
        assert s.ranks == 4096


class TestNoise:
    def test_cnk_is_noiseless(self):
        rng = np.random.default_rng(0)
        assert CnkNoise().perturb(5.0, rng) == 5.0
        assert CnkNoise().expected_factor(10_000) == 1.0

    def test_linux_jitter_inflates(self):
        rng = np.random.default_rng(0)
        j = LinuxJitter(mean_fraction=0.01, tail_scale=0.02)
        samples = [j.perturb(1.0, rng) for _ in range(200)]
        assert all(s > 1.0 for s in samples)
        assert np.mean(samples) == pytest.approx(1.03, abs=0.01)

    def test_jitter_amplifies_with_scale(self):
        j = LinuxJitter()
        f1 = expected_sync_inflation(j, 1)
        f96 = expected_sync_inflation(j, 96)
        f4096 = expected_sync_inflation(j, 4096)
        assert f1 < f96 < f4096

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            LinuxJitter(mean_fraction=-0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            LinuxJitter().perturb(-1.0, rng)
        with pytest.raises(ValueError):
            LinuxJitter().perturb_series(np.array([1.0, -1.0]), rng)

    # The two identities the vector replay of a jittered run rests on
    # (DESIGN.md §6e "noise streams"): if a numpy upgrade ever changed
    # how a sized draw consumes its stream, these fail — loudly, instead
    # of Table I's Xeon column drifting between execution paths.
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        worker=st.integers(0, 4095),
        scale=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        n=st.integers(0, 200),
    )
    def test_sized_exponential_draw_is_n_scalar_draws(self, seed, worker, scale, n):
        sized = spawn(seed, "noise", worker).exponential(scale, size=n)
        rng = spawn(seed, "noise", worker)
        one_by_one = np.array([rng.exponential(scale) for _ in range(n)])
        assert sized.tobytes() == one_by_one.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        noise=st.one_of(
            st.just(CnkNoise()),
            st.builds(
                LinuxJitter,
                mean_fraction=st.floats(0.0, 0.5),
                tail_scale=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
            ),
        ),
        seed=st.integers(0, 2**31 - 1),
        charges=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e4)), max_size=60
        ),
    )
    def test_perturb_series_is_a_loop_of_perturb(self, noise, seed, charges):
        series = noise.perturb_series(np.array(charges), spawn(seed, "noise", 3))
        rng = spawn(seed, "noise", 3)
        looped = np.array([noise.perturb(c, rng) for c in charges])
        assert series.tobytes() == looped.tobytes()
