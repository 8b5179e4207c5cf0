"""Per-function breakdown drivers: Figures 2, 3, 4, and 5.

The paper profiles the three one-rack configurations (1024-1-64,
2048-2-32, 4096-4-16) and plots, for master and workers separately,
(i) cycles split into committed / IU-empty / AXU / FXU categories per
function (Figs 2-3) and (ii) MPI time split into collective and
point-to-point per function (Figs 4-5).  These drivers rerun the
simulated trainer per configuration and organize the tracer output into
exactly those views; :func:`cycles_breakdown` maps a rank's compute
labels through the BG/Q cycle model into counter categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgq.cycles import CycleCategories, CycleModel
from repro.bgq.node import RunShape
from repro.dist.script import IterationScript
from repro.dist.simulated import SimJobConfig, SimRunResult, simulate_training
from repro.dist.workload import SimWorkload
from repro.obs.attrib import RankBreakdown, ordered_sum, worker_sample

__all__ = ["BREAKDOWN_CONFIGS", "ConfigBreakdown", "cycles_breakdown", "run_breakdowns"]

BREAKDOWN_CONFIGS = ("1024-1-64", "2048-2-32", "4096-4-16")
"""The three panels of each of Figures 2-5."""

# function label -> BG/Q kernel class for cycle accounting
COMPUTE_KERNEL_CLASS: dict[str, str] = {
    "gradient_loss": "gemm",
    "worker_curvature_product": "gemm",
    "heldout_loss": "gemm",
    "cg_minimize": "elementwise",  # master's vector arithmetic
    "hf_master": "control",
    "load_data": "io",
}


def cycles_breakdown(
    breakdown: RankBreakdown,
    threads_per_core: int,
    model: CycleModel | None = None,
) -> dict[str, CycleCategories]:
    """Per-function hardware-counter categories (Figs 2-3).

    Compute functions classify per :data:`COMPUTE_KERNEL_CLASS`; all MPI
    time (collective + p2p) classifies as ``mpi_wait`` under its function
    name prefixed ``mpi:`` so the figure can stack them side by side.
    """
    model = model or CycleModel()
    out: dict[str, CycleCategories] = {}
    for fn, secs in breakdown.compute.items():
        kclass = COMPUTE_KERNEL_CLASS.get(fn, "control")
        out[fn] = model.split(secs, kclass, threads_per_core)
    for source in (breakdown.collective, breakdown.p2p):
        for fn, secs in source.items():
            key = f"mpi:{fn}"
            cats = model.split(secs, "mpi_wait", threads_per_core)
            out[key] = out[key] + cats if key in out else cats
    return out


@dataclass
class ConfigBreakdown:
    """All four figure views for one configuration."""

    label: str
    master: RankBreakdown
    worker_mean: RankBreakdown
    worker_spread: dict[str, tuple[float, float]]
    """Per compute function: (min, max) seconds across sampled workers —
    the visible variance of Fig 3's worker_curvature_product."""
    master_cycles: dict[str, CycleCategories]
    worker_cycles: dict[str, CycleCategories]
    result: SimRunResult = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def master_collective_total(self) -> float:
        return ordered_sum(self.master.collective)

    @property
    def master_p2p_total(self) -> float:
        return ordered_sum(self.master.p2p)


def _worker_spread(res: SimRunResult) -> dict[str, tuple[float, float]]:
    lows: dict[str, float] = {}
    highs: dict[str, float] = {}
    for r in worker_sample(res.config.shape.ranks, 32):
        b = res.breakdown(r)
        for fn, secs in b.compute.items():
            lows[fn] = min(lows.get(fn, secs), secs)
            highs[fn] = max(highs.get(fn, secs), secs)
    return {fn: (lows[fn], highs[fn]) for fn in lows}


def run_breakdowns(
    workload: SimWorkload,
    script: IterationScript,
    configs: tuple[str, ...] = BREAKDOWN_CONFIGS,
    cycle_model: CycleModel | None = None,
    **overrides: object,
) -> list[ConfigBreakdown]:
    """Produce the Figs 2-5 data for each configuration."""
    cycle_model = cycle_model or CycleModel()
    out: list[ConfigBreakdown] = []
    for spec in configs:
        shape = RunShape.parse(spec)
        cfg = SimJobConfig(shape=shape, workload=workload, script=script, **overrides)  # type: ignore[arg-type]
        res = simulate_training(cfg)
        master = res.master_breakdown()
        worker = res.mean_worker_breakdown()
        out.append(
            ConfigBreakdown(
                label=spec,
                master=master,
                worker_mean=worker,
                worker_spread=_worker_spread(res),
                master_cycles=cycles_breakdown(
                    master, shape.threads_per_core, cycle_model
                ),
                worker_cycles=cycles_breakdown(
                    worker, shape.threads_per_core, cycle_model
                ),
                result=res,
            )
        )
    return out
