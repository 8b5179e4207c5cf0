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
and gradient overlap the replay already covered.  A second generator
draws power-of-two communicators (16…256 ranks, binomial) and adds the
sharded leg: ``shards`` 2 and 4 against the single-shard replay.  Both
executors interpret one phase table (``dist.script.Schedule``); a third
property checks that each one's span labels are that table's, in order.
A handful of examples run in tier-1; ``CI=1`` runs it at depth.
"""

import multiprocessing
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bgq import CnkNoise, LinuxJitter, RunShape, TorusNetworkModel
from repro.cluster import EthernetNetworkModel
from repro.dist import IterationScript, SimJobConfig, simulate_training
from repro.dist.script import Schedule
from repro.dist.simulated import _build_plan
from repro.dist.vectorized import vector_fallback_reason
from repro.harness import scaling, speedup
from repro.harness.scaling import default_workload
from repro.obs import MetricsRegistry
from repro.vmpi.costmodel import UniformNetwork
from tests.test_sim_vector import (
    _assert_runs_match,
    _assert_scalar_equals_vector,
    _metric_index,
)

EXAMPLES = 300 if os.environ.get("CI") else 20


_fractions = st.one_of(st.just(0.0), st.floats(0.0, 0.2))


@st.composite
def _eligible_configs(draw, pow2=False):
    """A config inside the matrix; ``pow2`` restricts it to what the
    sharded engine splits (power-of-two ranks, binomial broadcast)."""
    if pow2:
        rpn = 4
        nodes = draw(st.sampled_from([4, 8, 16, 32, 64]))
    else:
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
        bcast_algorithm=(
            "binomial" if pow2 else draw(st.sampled_from(["binomial", "serial"]))
        ),
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


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs fork-capable multiprocessing",
)
@settings(
    max_examples=max(EXAMPLES // 4, 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_eligible_configs(pow2=True))
def test_generated_pow2_configs_scalar_equals_vector_equals_sharded(cfg):
    _scalar, single = _assert_scalar_equals_vector(cfg, cfg)
    for shards in (2, 4):
        sharded = simulate_training(cfg, shards=shards)
        assert sharded.execution_path == "vector+sharded", cfg
        _assert_runs_match(single, sharded, (shards, cfg))


@settings(max_examples=max(EXAMPLES // 2, 5), deadline=None)
@given(_eligible_configs())
def test_both_executors_walk_the_phase_table(cfg):
    """Span labels, in order: the vector replay's phase log is the load
    plus every phase's worker-side labels and master charge; the scalar
    master's spans are the load plus its side of every phase."""
    network = cfg.network or TorusNetworkModel(
        nodes=cfg.shape.nodes, ranks_per_node=cfg.shape.ranks_per_node
    )
    phases = Schedule(cfg, _build_plan(cfg), network).phases
    script = cfg.script
    assert len(phases) == sum(
        1 + c + h for c, h in zip(script.cg_iters, script.heldout_evals)
    )
    charges = [[ph.master_label] if ph.master_label else [] for ph in phases]
    vector = simulate_training(cfg)
    load, *replayed = [lbl for lbl, _end, _rank in vector.phase_log]
    assert load.endswith(".load_data")
    assert replayed == [
        lbl
        for ph, charge in zip(phases, charges)
        for lbl in (ph.bcast_labels[1], ph.compute_label, ph.reduce_label, *charge)
    ]
    scalar = simulate_training(cfg, vector=False)
    master = [s.label for s in scalar.tracer.spans_by_process()["rank0"]]
    if cfg.load_data_mode == "master":
        assert master.pop(0) == "p2p.load_data"
    assert master == [
        lbl
        for ph, charge in zip(phases, charges)
        for lbl in (ph.bcast_labels[0], ph.reduce_label, *charge)
    ]


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
