"""The seven benchmark workloads: inputs, one pass, outputs to check.

Each workload is a closed loop of identical passes over inputs generated
once from the seed; the program under test only ever sees those inputs.
``SIZES`` holds the published sizes and the ``--quick`` sizes the
benchmark's own tests use.  The published sizes are chosen so one pass
takes 0.5-0.9 s on a 2-core host: the driver allows about 20 s for a
whole run including three set-ups, so a run needs a dozen passes for a
steady median (see README.md, "Sizing").

A pass returns the program's outputs; :meth:`Workload.fingerprint`
flattens them to ``{check name: value}``.  Every value is compared, pass
against pass and process against process, and against ``goldens.json``
when the seed and size are the recorded ones.

Seam functions are called through their module (``dist.simulate_training``,
``speedup.run_table1``) so the traced run's rebinding reaches these call
sites too.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.dist as dist
from repro.bgq import RunShape
from repro.dist import (
    IterationScript,
    SimJobConfig,
    make_frame_shards,
    train_threaded_hf,
)
from repro.dist.protocol import sample_size
from repro.harness import scaling, serving, speedup
from repro.hf import FrameSource, HessianFreeOptimizer, HFConfig
from repro.nn import DNN, CrossEntropyLoss
from repro.speech import CorpusConfig, build_corpus

DEFAULT_SEED = 7

PAPER_SCRIPT = IterationScript((15,), (5,), represented_iterations=30)
"""``benchmarks/common.py``'s script: the one EXPERIMENTS.md's Table I and
Fig 1(b) numbers were produced with."""
MACRO_SCRIPT = IterationScript((10,), (3,), represented_iterations=30)
"""``repro perf``'s macro-leg script (``harness.perf.bench_macro``)."""

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")) as _fh:
    PAPER_REFERENCE: dict[str, dict[str, Any]] = json.load(_fh)["paper_reference"]
"""Published values ``paper_err_max`` is measured against, with sources."""

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "paper_figs": {
        # corpus hours at a tenth of the paper's (50 h -> 5 h, 400 h -> 40 h);
        # rank shapes are the paper's.  "paper" is the true scale, run once
        # in the traced run for paper_err_max.
        "full": {"table_hours": 5.0, "fig1b_hours": 40.0},
        "quick": {"table_hours": 1.0, "fig1b_hours": 4.0},
        "paper": {"table_hours": 50.0, "fig1b_hours": 400.0},
    },
    "vec_65k": {
        "full": {"plain": "65536-4-16", "auto": "8192-4-16", "hours": 12.5},
        "quick": {"plain": "4096-4-16", "auto": "1024-4-16", "hours": 1.0},
    },
    "shards2_65k": {
        "full": {"plain": "65536-4-16", "hours": 12.5, "shards": 2},
        "quick": {"plain": "4096-4-16", "hours": 1.0, "shards": 2},
    },
    "scalar_512": {
        "full": {"plain": "512-4-16", "auto": "128-4-16", "hours": 12.5},
        "quick": {"plain": "64-4-16", "auto": "32-4-16", "hours": 1.0},
    },
    "faults_256": {
        "full": {"spec": "256-4-16", "hours": 5.0},
        "quick": {"spec": "32-4-16", "hours": 0.5},
    },
    "serve_sweep": {
        "full": {"replicas": 8, "sat_horizon": 60.0, "batch_horizon": 30.0},
        "quick": {"replicas": 4, "sat_horizon": 8.0, "batch_horizon": 4.0},
    },
    "hf_real": {
        "full": {"scale": 5e-4, "hidden": 256, "iterations": 3},
        "quick": {"scale": 1e-4, "hidden": 32, "iterations": 1},
    },
}


def sim_fingerprint(prefix: str, res: Any) -> dict[str, Any]:
    """The virtual invariants of one ``SimRunResult``."""
    ends = np.asarray(res.rank_end_times, dtype=np.float64)
    return {
        f"{prefix}.finish_time": res.finish_time,
        f"{prefix}.total_messages": res.total_messages,
        f"{prefix}.total_bytes": res.total_bytes,
        f"{prefix}.rank_end_sha256": hashlib.sha256(ends.tobytes()).hexdigest(),
        f"{prefix}.execution_path": res.execution_path,
    }


def macro_config(spec: str, hours: float, seed: int, auto: bool = False) -> SimJobConfig:
    extra = {"collective_selection": "auto", "overlap_gradient": True} if auto else {}
    return SimJobConfig(
        shape=RunShape.parse(spec),
        workload=scaling.default_workload(hours),
        script=MACRO_SCRIPT,
        seed=seed,
        **extra,
    )


@dataclass
class Workload:
    """One benchmark workload.

    ``setup(seed, size)`` makes the inputs; ``run(inputs)`` is one pass;
    ``fingerprint(inputs, outputs)`` names every output that is checked;
    ``work(inputs, outputs)`` is the exact work count of the pass.
    ``static`` maps check names to the value they must have at any seed
    (intended execution paths, conservation laws).  ``approx`` names the
    checks compared to goldens with ``rtol=1e-9`` rather than bit for
    bit (real floating-point training, reduction order varies with BLAS).
    """

    name: str
    work_unit: str
    setup: Callable[[int, dict[str, Any]], Any]
    run: Callable[[Any], Any]
    fingerprint: Callable[[Any, Any], dict[str, Any]]
    work: Callable[[Any, Any], int]
    static: Callable[[Any], dict[str, Any]] = lambda inputs: {}
    approx: tuple[str, ...] = ()
    cross_check: Callable[[Any, dict[str, Any]], dict[str, bool]] | None = None
    """Post-timing check against another execution path (child 0 only):
    returns ``{check name: passed}``."""


# ----------------------------------------------------------------- paper_figs
def _paper_setup(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    # the paper drivers pin SimJobConfig.seed themselves: inputs are
    # the same at every benchmark seed
    return dict(size)


def _paper_run(inp: dict[str, Any]) -> dict[str, Any]:
    rows = speedup.run_table1(PAPER_SCRIPT, hours=inp["table_hours"])
    points = scaling.run_fig1b(
        PAPER_SCRIPT, hours=inp["fig1b_hours"], configs=("8192-4-16",)
    )
    return {"rows": rows, "point": points[0]}


def _paper_fp(inp: dict[str, Any], out: dict[str, Any]) -> dict[str, Any]:
    fp: dict[str, Any] = {}
    for key, row in zip(("ce", "seq"), out["rows"]):
        fp[f"table1.{key}.xeon_hours"] = row.xeon_hours
        fp[f"table1.{key}.bgq_hours"] = row.bgq_hours
    fp["fig1b.hours"] = out["point"].hours
    fp.update(sim_fingerprint("fig1b", out["point"].result))
    return fp


def paper_errors(out: dict[str, Any]) -> dict[str, float]:
    """Relative error of each measured row against the published value
    (meaningful at the ``paper`` size only)."""
    measured = {
        "ce_speedup": out["rows"][0].speedup,
        "seq_speedup": out["rows"][1].speedup,
        "hours_400h_two_racks": out["point"].hours,
    }
    return {
        k: abs(measured[k] - ref["published"]) / ref["published"]
        for k, ref in PAPER_REFERENCE.items()
    }


_PAPER_RANKS = 2 * (96 + 4096) + 8192


# ------------------------------------------------------- vec / shards / scalar
def _macro_setup(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    inp = dict(size)
    inp["plain_cfg"] = macro_config(size["plain"], size["hours"], seed)
    if "auto" in size:
        inp["auto_cfg"] = macro_config(size["auto"], size["hours"], seed, auto=True)
    return inp


def _vec_run(inp: dict[str, Any]) -> dict[str, Any]:
    return {
        "plain": dist.simulate_training(inp["plain_cfg"]),
        "auto": dist.simulate_training(inp["auto_cfg"]),
    }


def _scalar_run(inp: dict[str, Any]) -> dict[str, Any]:
    return {
        "plain": dist.simulate_training(inp["plain_cfg"], vector=False),
        "auto": dist.simulate_training(inp["auto_cfg"], vector=False),
    }


def _shards_run(inp: dict[str, Any]) -> dict[str, Any]:
    return {"plain": dist.simulate_training(inp["plain_cfg"], shards=inp["shards"])}


def _legs_fp(inp: dict[str, Any], out: dict[str, Any]) -> dict[str, Any]:
    fp: dict[str, Any] = {}
    for leg in sorted(out):
        fp.update(sim_fingerprint(leg, out[leg]))
    return fp


def _legs_messages(inp: dict[str, Any], out: dict[str, Any]) -> int:
    return sum(out[leg].total_messages for leg in sorted(out))


def _shards_cross(inp: dict[str, Any], ref_fp: dict[str, Any]) -> dict[str, bool]:
    """The sharded run must equal the single-shard vector run bit for bit."""
    single = sim_fingerprint("plain", dist.simulate_training(inp["plain_cfg"]))
    return {
        f"cross.{k}": single[k] == ref_fp[k]
        for k in sorted(single)
        if not k.endswith("execution_path")
    }


# --------------------------------------------------------------------- faults
def _faults_setup(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    return {**size, "seed": seed}


def _faults_run(inp: dict[str, Any]) -> list[Any]:
    return scaling.run_fault_sweep(
        inp["spec"],
        hours=inp["hours"],
        crash_rates=(0.0, 0.05),
        slowdown_rate=0.05,
        seed=inp["seed"],
    )


def _faults_fp(inp: dict[str, Any], out: list[Any]) -> dict[str, Any]:
    fp: dict[str, Any] = {}
    for i, pt in enumerate(out):
        fp[f"rate{i}.total_seconds"] = pt.total_seconds
        fp[f"rate{i}.per_iteration_seconds"] = pt.per_iteration_seconds
        fp[f"rate{i}.recoveries"] = pt.recoveries
        fp[f"rate{i}.excluded_ranks"] = list(pt.excluded_ranks)
        fp.update(sim_fingerprint(f"rate{i}", pt.result))
    return fp


# ---------------------------------------------------------------------- serve
def _serve_setup(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    return {**size, "seed": seed}


def _serve_run(inp: dict[str, Any]) -> dict[str, list[Any]]:
    return {
        "sat": serving.run_saturation_sweep(
            replicas=inp["replicas"], horizon_s=inp["sat_horizon"], seed=inp["seed"]
        ),
        "batch": serving.run_batching_tradeoff(
            replicas=inp["replicas"], horizon_s=inp["batch_horizon"], seed=inp["seed"]
        ),
    }


def _serve_points(out: dict[str, list[Any]]) -> list[tuple[str, Any]]:
    return [
        (f"{sweep}{i}", pt.result)
        for sweep in ("sat", "batch")
        for i, pt in enumerate(out[sweep])
    ]


def _serve_fp(inp: dict[str, Any], out: dict[str, list[Any]]) -> dict[str, Any]:
    fp: dict[str, Any] = {}
    for key, r in _serve_points(out):
        fp[f"{key}.invariants"] = r.invariants()
        # a run drains, so nothing is in flight at the end
        fp[f"{key}.conserved"] = (
            r.generated == r.admitted + r.dropped
            and r.admitted == r.completed + r.timed_out + r.failed
        )
    return fp


def _serve_static(inp: dict[str, Any]) -> dict[str, Any]:
    n_sat = len(serving.DEFAULT_SWEEP_LOADS)
    keys = [f"sat{i}" for i in range(n_sat)] + [f"batch{i}" for i in range(12)]
    return {f"{k}.conserved": True for k in keys}


def _serve_requests(inp: dict[str, Any], out: dict[str, list[Any]]) -> int:
    return sum(r.generated for _, r in _serve_points(out))


# ------------------------------------------------------------------------- hf
HF_CORPUS_SEED = 3
HF_CURVATURE_FRACTION = 0.03
HF_WORKERS = 2


def _hf_setup(seed: int, size: dict[str, Any]) -> dict[str, Any]:
    config = CorpusConfig(
        hours=50, scale=size["scale"], context=4, seed=HF_CORPUS_SEED
    )
    corpus = build_corpus(config)
    x, y = corpus.frame_data()
    hx, hy = corpus.heldout_frame_data()
    net = DNN([config.input_dim, size["hidden"], size["hidden"], corpus.n_states])
    lengths = [u.n_frames for u in corpus.train_utts]
    return {
        "net": net,
        "data": (x, y, hx, hy),
        "shards": make_frame_shards(x, y, hx, hy, lengths, HF_WORKERS),
        "theta0": net.init_params(0),
        "hf": HFConfig(max_iterations=size["iterations"]),
        "seed": seed,
    }


def _hf_run(inp: dict[str, Any]) -> Any:
    return train_threaded_hf(
        inp["net"],
        CrossEntropyLoss(),
        inp["shards"],
        inp["theta0"],
        inp["hf"],
        curvature_fraction=HF_CURVATURE_FRACTION,
        seed=inp["seed"],
    )


def _hf_fp(inp: dict[str, Any], out: Any) -> dict[str, Any]:
    return {
        "heldout_trajectory": list(out.heldout_trajectory),
        "cg_iterations": [it.cg_iterations for it in out.iterations],
        "local.theta_sha256": hashlib.sha256(
            np.ascontiguousarray(out.theta).tobytes()
        ).hexdigest(),
    }


def _hf_frames(inp: dict[str, Any], out: Any) -> int:
    """Frames pushed through the network: one full gradient, one
    curvature product per CG iteration (plus the model-value product) on
    the sampled frames, and every held-out evaluation, per accepted
    outer iteration, plus the initial held-out evaluation."""
    x, _, hx, _ = inp["data"]
    train, heldout = x.shape[0], hx.shape[0]
    sample = sample_size(train, HF_CURVATURE_FRACTION)
    frames = heldout
    for it in out.iterations:
        frames += train + (it.cg_iterations + 1) * sample + it.heldout_evals * heldout
    return frames


def _hf_cross(inp: dict[str, Any], ref_fp: dict[str, Any]) -> dict[str, bool]:
    """The paper's "no loss in accuracy": the threaded trajectory must
    follow the serial optimizer's (tests/test_dist_threaded.py's bar)."""
    x, y, hx, hy = inp["data"]
    source = FrameSource(
        inp["net"], CrossEntropyLoss(), x, y, hx, hy,
        curvature_fraction=HF_CURVATURE_FRACTION, seed=inp["seed"],
    )
    serial = HessianFreeOptimizer(source, inp["hf"]).run(inp["theta0"])
    return {
        "cross.serial_trajectory": bool(
            np.allclose(
                serial.heldout_trajectory,
                ref_fp["heldout_trajectory"],
                rtol=1e-9,
                atol=1e-9,
            )
        )
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_figs", "simulated ranks", _paper_setup, _paper_run, _paper_fp,
            lambda inp, out: _PAPER_RANKS,
            static=lambda inp: {"fig1b.execution_path": "vector"},
        ),
        Workload(
            "vec_65k", "simulated messages", _macro_setup, _vec_run, _legs_fp,
            _legs_messages,
            static=lambda inp: {
                "plain.execution_path": "vector",
                "auto.execution_path": "vector",
            },
        ),
        Workload(
            "shards2_65k", "simulated messages", _macro_setup, _shards_run,
            _legs_fp, _legs_messages,
            static=lambda inp: {"plain.execution_path": "vector+sharded"},
            cross_check=_shards_cross,
        ),
        Workload(
            "scalar_512", "simulated messages", _macro_setup, _scalar_run,
            _legs_fp, _legs_messages,
            static=lambda inp: {
                "plain.execution_path": "scalar",
                "auto.execution_path": "scalar",
            },
        ),
        Workload(
            "faults_256", "simulated messages", _faults_setup, _faults_run,
            _faults_fp,
            lambda inp, out: sum(pt.result.total_messages for pt in out),
            static=lambda inp: {
                "rate0.execution_path": "scalar",
                "rate1.execution_path": "scalar",
            },
        ),
        Workload(
            "serve_sweep", "simulated requests", _serve_setup, _serve_run,
            _serve_fp, _serve_requests, static=_serve_static,
        ),
        Workload(
            "hf_real", "trained frames", _hf_setup, _hf_run, _hf_fp, _hf_frames,
            approx=("heldout_trajectory",),
            cross_check=_hf_cross,
        ),
    )
}
