"""Differential harness: generated configs, scalar scheduler vs default path.

Inside DESIGN.md §6e's eligibility matrix the default execution must be
the vector replay and agree with ``vector=False`` bit for bit — finish
time, every rank's end time and span totals, load time, message and byte
totals, and the metric snapshot minus the documented exclusions.
Outside it the run must name a fallback slug and take the scalar path:
a fallback, never a wrong answer.

The generator covers the territory Table I's Xeon arm opened: mostly
non-power-of-two communicators (9…144 ranks), all three priced network
models, per-worker jitter streams (zero scales included), the serial
broadcast, both vectorizable load modes — crossed with the auto policy
and gradient overlap the replay already covered.  A handful of examples
run in tier-1; ``CI=1`` runs it at depth.
"""

import os

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bgq import CnkNoise, LinuxJitter, RunShape
from repro.cluster import EthernetNetworkModel
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.dist.vectorized import vector_fallback_reason
from repro.harness import scaling, speedup
from repro.harness.scaling import default_workload
from repro.obs import MetricsRegistry
from repro.vmpi.costmodel import UniformNetwork
from tests.test_sim_vector import _assert_scalar_equals_vector, _metric_index

EXAMPLES = 300 if os.environ.get("CI") else 20


_fractions = st.one_of(st.just(0.0), st.floats(0.0, 0.2))


@st.composite
def _eligible_configs(draw):
    nodes = draw(st.integers(1, 12))
    rpn = draw(st.sampled_from([4, 12]))
    assume(nodes * rpn > 8)
    shape = RunShape(
        ranks=nodes * rpn,
        ranks_per_node=rpn,
        threads_per_rank=draw(st.sampled_from([1, 4])),
    )
    network = draw(
        st.sampled_from(
            [
                EthernetNetworkModel(nodes=nodes, ranks_per_node=rpn),
                None,  # the torus default for the shape
                UniformNetwork(),
            ]
        )
    )
    noise = draw(
        st.one_of(
            st.just(CnkNoise()),
            st.builds(LinuxJitter, mean_fraction=_fractions, tail_scale=_fractions),
        )
    )
    n_iterations = draw(st.integers(1, 2))
    counts = st.tuples(*[st.integers(1, 3)] * n_iterations)
    return SimJobConfig(
        shape=shape,
        workload=default_workload(draw(st.sampled_from([0.5, 2.0]))),
        script=IterationScript(draw(counts), draw(counts), represented_iterations=30),
        seed=draw(st.integers(0, 2**31 - 1)),
        network=network,
        noise=noise,
        bcast_algorithm=draw(st.sampled_from(["binomial", "serial"])),
        load_data_mode=draw(st.sampled_from(["master", "parallel_io"])),
        collective_selection=draw(st.sampled_from(["fixed", "auto"])),
        # jitter under overlap is outside the matrix (slug noise_model)
        overlap_gradient=type(noise) is CnkNoise and draw(st.booleans()),
    )


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_eligible_configs())
def test_generated_configs_scalar_equals_vector(cfg):
    _assert_scalar_equals_vector(cfg, cfg)


class _OtherNoise(LinuxJitter):
    """A subclass may use its rng any way it likes: not replayed."""


class _OtherNetwork(UniformNetwork):
    """Costs of an unknown model are not known to be class-pure."""


@st.composite
def _ineligible_configs(draw):
    slug, kwargs = draw(
        st.sampled_from(
            [
                ("staged_load", {"load_data_mode": "staged"}),
                ("noise_model", {"noise": _OtherNoise()}),
                ("noise_model", {"noise": LinuxJitter(), "overlap_gradient": True}),
                ("network_model", {"network": _OtherNetwork()}),
                ("segmented_control", {"segment_bytes": 8}),
            ]
        )
    )
    nodes = draw(st.integers(3, 12))
    cfg = SimJobConfig(
        shape=RunShape(ranks=nodes * 4, ranks_per_node=4, threads_per_rank=16),
        workload=default_workload(0.5),
        script=IterationScript((1,), (1,), represented_iterations=30),
        seed=draw(st.integers(0, 2**31 - 1)),
        bcast_algorithm=draw(st.sampled_from(["binomial", "serial"])),
        **kwargs,
    )
    return slug, cfg


@settings(max_examples=EXAMPLES, deadline=None)
@given(_ineligible_configs())
def test_generated_configs_outside_the_matrix_fall_back(case):
    slug, cfg = case
    reg = MetricsRegistry()
    res = simulate_training(cfg, obs=reg)
    assert res.execution_path == "scalar"
    assert vector_fallback_reason(cfg, cfg.network, False) == slug
    key = ("sim.vector.fallback", f'{{"reason": "{slug}"}}')
    assert _metric_index(reg)[key]["value"] == 1


# ------------------------------------------------------------ pinned examples
def test_table1_xeon_arm_is_a_vector_run():
    """``xeon_hours``'s own configs (cross-entropy and sequence): 96
    ranks, serial broadcast, Ethernet, Linux jitter — four retired or
    narrowed slugs at once."""
    script = IterationScript((2,), (2,), represented_iterations=30)
    for sequence in (False, True):
        cfg = speedup.xeon_config(script, 5.0, sequence)
        assert cfg.shape.ranks == 96
        _a, b = _assert_scalar_equals_vector(cfg, sequence)
        assert b.represented_total_hours == speedup.xeon_hours(script, 5.0, sequence)
        # the load and five chains (3 weight syncs, 2 CG broadcasts) of 95
        # messages; 3 reductions' sync + go stub trees; 2 loss reductions
        assert b.total_messages == 95 * (1 + 5 + 2 * 3 + 2)


def test_overlap_ablation_serial_leg_is_a_vector_run(monkeypatch):
    """``run_overlap_ablation``'s 1024-rank serial baseline (427 MB theta
    down a 1023-message chain), the config ``repro perf`` and the comm
    ablation benchmark run."""
    seen = []

    def spy(cfg, *args, **kwargs):
        seen.append(cfg)
        return simulate_training(cfg, *args, **kwargs)

    monkeypatch.setattr(scaling, "simulate_training", spy)
    scaling.run_overlap_ablation()
    serial = [c for c in seen if c.bcast_algorithm == "serial"]
    assert len(serial) == 1 and serial[0].shape.ranks == 1024
    _assert_scalar_equals_vector(serial[0])
