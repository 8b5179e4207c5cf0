"""Layer seams, per-layer metric names and how each is derived.

``PER_LAYER`` is the single list of per-layer metrics: ``BENCHMARK.json``
declares the same names and ``test_bench.py`` checks the two agree.
``seam_specs`` names every public name the traced run rebinds.  The
``extras_*`` functions are the parts of a traced run that are not plain
passes: obs-attached passes, the engine micro-kernels, the speculative
and single-shard comparison runs, the paper-scale pass.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Callable

import repro.dist as dist
import repro.dist.partition
import repro.dist.simulated
import repro.dist.vectorized
import repro.harness.scaling
import repro.harness.serving
import repro.harness.speedup
import repro.serve.arrivals
import repro.serve.scenario
from repro.dist.threaded import MasterSource
from repro.faults import FaultInjector, FaultPlan
from repro.harness import perf
from repro.hf import HessianFreeOptimizer
from repro.obs import MetricsRegistry, attribute_run, critical_path, write_metrics_jsonl
from repro.obs.attrib import worker_sample
from repro.sim.engine import Engine
from repro.sim.shard import ShardPool
from repro.vmpi.algoselect import CollectivePolicy
from repro.vmpi.comm import VComm

import workloads as wl_mod
from tracing import ROOT_LAYER, SpanRecorder

# (name, unit, better) — times are self seconds per traced pass (median
# over passes) unless the name says otherwise; counts are per pass
PER_LAYER: list[tuple[str, str, str]] = [
    ("dist.partition.busy_s", "s", "lower"),
    ("dist.partition.calls", "count", "lower"),
    ("dist.partition.items", "count", "lower"),
    ("dist.simulated.self_s", "s", "lower"),
    ("vmpi.comm.build_s", "s", "lower"),
    ("vmpi.comm.ranks_built", "count", "lower"),
    ("vmpi.comm.spawn_s", "s", "lower"),
    ("vmpi.algoselect.busy_s", "s", "lower"),
    ("vmpi.algoselect.calls", "count", "lower"),
    ("dist.vectorized.busy_s", "s", "lower"),
    ("dist.vectorized.phases", "count", "lower"),
    ("dist.vectorized.fallbacks", "count", "lower"),
    ("sim.shard.busy_s", "s", "lower"),
    ("sim.shard.window_stalls", "count", "lower"),
    ("sim.shard.rollbacks", "count", "lower"),
    ("sim.shard.kernel_ops", "count", "lower"),
    ("sim.shard.spec_wall_s", "s", "lower"),
    ("sim.shard.speedup", "ratio", "higher"),
    ("sim.engine.run_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("sim.engine.storm_s", "s", "lower"),
    ("vmpi.comm.ping_ring_s", "s", "lower"),
    ("vmpi.collectives.bcast_fanout_s", "s", "lower"),
    ("vmpi.collectives.sweep_s", "s", "lower"),
    ("faults.plan.sample_s", "s", "lower"),
    ("faults.inject.build_s", "s", "lower"),
    ("faults.recoveries", "count", "lower"),
    ("faults.excluded_ranks", "count", "lower"),
    ("serve.arrivals.busy_s", "s", "lower"),
    ("serve.arrivals.requests", "count", "lower"),
    ("serve.scenario.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("cluster.xeon.busy_s", "s", "lower"),
    ("harness.paper_err_max", "ratio", "lower"),
    ("harness.paper_err_ce_speedup", "ratio", "lower"),
    ("harness.paper_err_seq_speedup", "ratio", "lower"),
    ("harness.paper_err_hours_400h", "ratio", "lower"),
    ("harness.paper_pass_s", "s", "lower"),
    ("obs.attach_ratio", "ratio", "lower"),
    ("obs.metrics.snapshot_s", "s", "lower"),
    ("obs.metrics.records", "count", "lower"),
    ("obs.attrib.busy_s", "s", "lower"),
    ("obs.critpath.busy_s", "s", "lower"),
    ("obs.export.busy_s", "s", "lower"),
    ("hf.optimizer.self_s", "s", "lower"),
    ("hf.cg.iters", "count", "lower"),
    ("nn.grad_s", "s", "lower"),
    ("nn.gv_s", "s", "lower"),
    ("nn.heldout_s", "s", "lower"),
    ("dist.threaded.master_wait_s", "s", "lower"),
    ("host.gc_s", "s", "lower"),
    ("host.gc_collections", "count", "lower"),
    ("host.import_s", "s", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.wall_per_calib", "ratio", "lower"),
    ("host.unattributed_s", "s", "lower"),
    ("host.traced_wall_s", "s", "lower"),
    ("host.trace_overhead", "ratio", "lower"),
]

# span name -> the metric that reports its self time (GC spans take part
# in the partition too; host.gc_s is their total over every thread)
SELF_TIME_METRIC = {
    "dist.partition": "dist.partition.busy_s",
    "dist.simulated": "dist.simulated.self_s",
    "vmpi.comm.build": "vmpi.comm.build_s",
    "vmpi.comm.spawn": "vmpi.comm.spawn_s",
    "vmpi.algoselect": "vmpi.algoselect.busy_s",
    "dist.vectorized": "dist.vectorized.busy_s",
    "sim.shard": "sim.shard.busy_s",
    "sim.engine.run": "sim.engine.run_s",
    "faults.plan.sample": "faults.plan.sample_s",
    "faults.inject.build": "faults.inject.build_s",
    "serve.arrivals": "serve.arrivals.busy_s",
    "serve.scenario": "serve.scenario.self_s",
    "harness": "harness.self_s",
    "cluster.xeon": "cluster.xeon.busy_s",
    "hf.optimizer": "hf.optimizer.self_s",
    "nn.grad": "nn.grad_s",
    "nn.gv": "nn.gv_s",
    "nn.heldout": "nn.heldout_s",
    ROOT_LAYER: "host.unattributed_s",
}

# the scalar engine loop is a layer of its own; inside the vector replay
# Engine.run only sequences the phases, so its time stays with the replay
SUPPRESS_INSIDE = {"sim.engine.run": "dist.vectorized"}


# ---------------------------------------------------------------- hooks
def _count_partition(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("dist.partition.calls")
    rec.count("dist.partition.items", len(args[0] if args else kwargs["lengths"]))


def _count_ranks(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("vmpi.comm.ranks_built", args[1] if len(args) > 1 else kwargs["size"])


def _count_algoselect(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("vmpi.algoselect.calls")


def _count_requests(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("serve.arrivals.requests", len(result))


def _wrap_curvature_op(rec: SpanRecorder, args: tuple, kwargs: dict, op: Callable) -> Callable:
    """Every application of the returned operator is curvature time too."""

    def traced_op(v: Any) -> Any:
        idx = rec.begin("nn.gv")
        try:
            return op(v)
        finally:
            rec.end(idx)

    traced_op.__dict__.update(getattr(op, "__dict__", {}))
    return traced_op


def seam_specs() -> list[tuple[str, Any, str, Callable | None]]:
    """``(layer, owner, attribute, hook)`` for every rebound public name."""
    return [
        ("dist.partition", repro.dist.partition, "balanced_partition", _count_partition),
        ("dist.simulated", repro.dist.simulated, "simulate_training", None),
        ("vmpi.comm.build", VComm, "__init__", _count_ranks),
        ("vmpi.comm.spawn", VComm, "run", None),
        ("vmpi.algoselect", CollectivePolicy, "from_network", _count_algoselect),
        ("dist.vectorized", repro.dist.vectorized, "run_vectorized", None),
        ("sim.shard", ShardPool, "__init__", None),
        ("sim.shard", ShardPool, "run_op", None),
        ("sim.shard", ShardPool, "drain", None),
        ("sim.shard", ShardPool, "close", None),
        ("sim.engine.run", Engine, "run", None),
        ("faults.plan.sample", FaultPlan, "sample", None),
        ("faults.inject.build", FaultInjector, "__init__", None),
        ("faults.inject.build", FaultInjector, "wrap_network", None),
        ("serve.arrivals", repro.serve.arrivals, "generate_arrivals", _count_requests),
        ("serve.scenario", repro.serve.scenario, "simulate_serving", None),
        ("harness", repro.harness.speedup, "run_table1", None),
        ("harness", repro.harness.scaling, "run_fig1b", None),
        ("harness", repro.harness.scaling, "run_fault_sweep", None),
        ("harness", repro.harness.serving, "run_saturation_sweep", None),
        ("harness", repro.harness.serving, "run_batching_tradeoff", None),
        ("cluster.xeon", repro.harness.speedup, "xeon_hours", None),
        ("hf.optimizer", HessianFreeOptimizer, "run", None),
        ("nn.grad", MasterSource, "gradient", None),
        ("nn.gv", MasterSource, "curvature_operator", _wrap_curvature_op),
        ("nn.heldout", MasterSource, "heldout_loss", None),
        # the gather wait sits inside the three spans above: an overlay
        ("+dist.threaded.master_wait_s", MasterSource, "_collect", None),
    ]


# --------------------------------------------------------------- derive
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: SpanRecorder, n_passes: int) -> dict[str, float]:
    """Per-pass medians of self time per layer, per-pass counts, and the
    partition check value (``partition_gap``: the largest relative gap
    between a pass wall and the sum of its self times)."""
    per_run = rec.self_times()
    walls = rec.pass_walls()
    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRIC.items():
        out[metric] = _median([per_run[r].get(span_name, 0.0) for r in sorted(walls)])
    gap = 0.0
    for r, wall in walls.items():
        gap = max(gap, abs(sum(per_run[r].values()) - wall) / wall)
    out["partition_gap"] = gap
    out["host.traced_wall_s"] = _median(list(walls.values()))
    for name, total in rec.counts.items():
        out[name] = total / max(n_passes, 1)
    return out


# --------------------------------------------------------------- extras
def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _snapshot_value(snapshot: list[dict[str, Any]], name: str) -> float:
    return float(sum(r.get("value", 0) for r in snapshot if r["metric"] == name))


def _counter_value(reg: MetricsRegistry, name: str, **labels: Any) -> float:
    """A counter read straight off the registry: a snapshot of a
    65536-rank run materialises every per-rank record and takes seconds."""
    metric = reg.get(name, **labels)
    return float(metric.value) if metric is not None else 0.0


def obs_section(
    cfgs: list[Any], sim_kwargs: dict[str, Any], out_dir: str, rounds: int = 2
) -> tuple[dict[str, float], dict[str, bool], list[list[dict[str, Any]]]]:
    """Interleaved plain / obs-attached passes over ``cfgs``, then the
    cost of reading the result out: snapshot, attribution, critical path
    and the JSONL export.  Observability must be passive: the attached
    run's virtual outputs equal the plain run's.  Returns the metrics,
    the passivity checks and the last round's snapshots."""
    plain_walls, obs_walls = [], []
    checks: dict[str, bool] = {}
    regs: list[MetricsRegistry] = []
    last: list[Any] = []
    for _ in range(rounds):
        regs = [MetricsRegistry() for _ in cfgs]
        t_plain, plain = _timed(
            lambda: [dist.simulate_training(c, **sim_kwargs) for c in cfgs]
        )
        t_obs, last = _timed(
            lambda: [
                dist.simulate_training(c, obs=reg, **sim_kwargs)
                for c, reg in zip(cfgs, regs)
            ]
        )
        plain_walls.append(t_plain)
        obs_walls.append(t_obs)
        for i, (a, b) in enumerate(zip(plain, last)):
            checks[f"obs.passive.{i}"] = wl_mod.sim_fingerprint(
                "x", a
            ) == wl_mod.sim_fingerprint("x", b)
    metrics = {"obs.attach_ratio": _median(obs_walls) / _median(plain_walls)}
    snap_s, records, attrib_s, crit_s, export_s = 0.0, 0, 0.0, 0.0, 0.0
    snapshots = []
    for i, (res, reg) in enumerate(zip(last, regs)):
        t, snap = _timed(reg.snapshot)
        snapshots.append(snap)
        snap_s += t
        records += len(snap)
        ranks = [0] + worker_sample(res.config.shape.ranks)
        attrib_s += _timed(lambda: attribute_run(res, ranks))[0]
        crit_s += _timed(lambda: critical_path(res))[0]
        path = os.path.join(out_dir, f"obs_metrics_{i}.jsonl")
        export_s += _timed(lambda: write_metrics_jsonl(reg, path))[0]
    metrics.update(
        {
            "obs.metrics.snapshot_s": snap_s,
            "obs.metrics.records": records,
            "obs.attrib.busy_s": attrib_s,
            "obs.critpath.busy_s": crit_s,
            "obs.export.busy_s": export_s,
        }
    )
    return metrics, checks, snapshots


def extras_vec(inputs: dict[str, Any], spec: dict[str, Any]) -> tuple[dict, dict]:
    metrics, checks, snaps = obs_section([inputs["auto_cfg"]], {}, spec["out"])
    metrics["dist.vectorized.phases"] = _snapshot_value(snaps[0], "sim.vector_phases")
    metrics["dist.vectorized.fallbacks"] = _snapshot_value(
        snaps[0], "sim.vector.fallback"
    )
    return metrics, checks


def extras_scalar(inputs: dict[str, Any], spec: dict[str, Any]) -> tuple[dict, dict]:
    metrics, checks, snaps = obs_section(
        [inputs["plain_cfg"], inputs["auto_cfg"]], {"vector": False}, spec["out"]
    )
    metrics["sim.engine.events"] = sum(_snapshot_value(s, "sim.events") for s in snaps)
    # the engine, the mailboxes and the collectives, each on its own: the
    # only outside view that separates them
    for name, fn in (
        ("sim.engine.storm_s", perf.bench_timeout_storm),
        ("vmpi.comm.ping_ring_s", perf.bench_ping_ring),
        ("vmpi.collectives.bcast_fanout_s", perf.bench_bcast_fanout),
        ("vmpi.collectives.sweep_s", lambda: perf.bench_collectives("256-4-16")),
    ):
        metrics[name] = _median([_timed(fn)[0] for _ in range(3)])
    return metrics, checks


def extras_shards(inputs: dict[str, Any], spec: dict[str, Any]) -> tuple[dict, dict]:
    """One conservative pass with a registry (window counters), one
    speculative pass and one single-shard pass (the speed-up's base)."""
    cfg, shards = inputs["plain_cfg"], inputs["shards"]
    reg = MetricsRegistry()
    cons = dist.simulate_training(cfg, shards=shards, obs=reg)
    spec_reg = MetricsRegistry()
    t_spec, speculative = _timed(
        lambda: dist.simulate_training(cfg, shards=shards, speculate=True, obs=spec_reg)
    )
    t_single, single = _timed(lambda: dist.simulate_training(cfg))
    t_plain, plain = _timed(lambda: dist.simulate_training(cfg, shards=shards))
    ref = wl_mod.sim_fingerprint("x", single)
    ref.pop("x.execution_path")

    def same(res: Any) -> bool:
        fp = wl_mod.sim_fingerprint("x", res)
        fp.pop("x.execution_path")
        return fp == ref

    checks = {
        "shards.conservative_equals_single": same(cons) and same(plain),
        "shards.speculative_equals_single": same(speculative),
        "shards.speculative_path": speculative.execution_path == "speculative",
    }
    metrics = {
        "sim.shard.window_stalls": _counter_value(reg, "sim.shard.window_stalls"),
        "sim.shard.kernel_ops": sum(
            _counter_value(reg, "sim.shard.kernel_ops", shard=q) for q in range(shards)
        ),
        "sim.shard.rollbacks": _counter_value(spec_reg, "sim.shard.rollbacks"),
        "sim.shard.spec_wall_s": t_spec,
        "sim.shard.speedup": t_single / t_plain,
    }
    return metrics, checks


def extras_paper(inputs: dict[str, Any], spec: dict[str, Any]) -> tuple[dict, dict]:
    """The one paper-scale pass: the source of ``paper_err_max``.  Its
    inputs do not depend on the seed, so its outputs always have a golden."""
    if spec["size"] != "full":
        return {}, {}  # --quick: the tests do not wait for paper scale
    paper = wl_mod.WORKLOADS["paper_figs"]
    inputs = dict(wl_mod.SIZES["paper_figs"]["paper"])
    t, out = _timed(lambda: paper.run(inputs))
    with open(spec["goldens"]) as fh:
        golden = json.load(fh)["workloads"]["paper_figs@paper"]
    errs = wl_mod.paper_errors(out)
    metrics = {
        "harness.paper_err_max": max(errs.values()),
        "harness.paper_err_ce_speedup": errs["ce_speedup"],
        "harness.paper_err_seq_speedup": errs["seq_speedup"],
        "harness.paper_err_hours_400h": errs["hours_400h_two_racks"],
        "harness.paper_pass_s": t,
    }
    return metrics, {"paper_scale.equals_golden": paper.fingerprint(inputs, out) == golden}


EXTRAS: dict[str, Callable[[dict[str, Any], dict[str, Any]], tuple[dict, dict]]] = {
    "vec_65k": extras_vec,
    "scalar_512": extras_scalar,
    "shards2_65k": extras_shards,
    "paper_figs": extras_paper,
}


def result_counts(name: str, outputs: Any) -> dict[str, float]:
    """Per-layer counts read off a pass's own outputs."""
    if name == "faults_256":
        return {
            "faults.recoveries": sum(pt.recoveries for pt in outputs),
            "faults.excluded_ranks": sum(len(pt.excluded_ranks) for pt in outputs),
        }
    if name == "hf_real":
        return {"hf.cg.iters": sum(it.cg_iterations for it in outputs.iterations)}
    return {}
