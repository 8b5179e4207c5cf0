"""Experiment harness: one driver per paper table/figure.

* :mod:`~repro.harness.scaling` — Fig 1(a)/(b) and the linear-scaling
  claim;
* :mod:`~repro.harness.breakdown` — Figs 2-5 cycle and MPI breakdowns;
* :mod:`~repro.harness.speedup` — Table I (BG/Q vs Xeon cluster);
* :mod:`~repro.harness.calibrate` — real-run control-flow extraction
  feeding the simulator;
* :mod:`~repro.harness.report` — text renderers matching the paper's
  rows/series;
* :mod:`~repro.harness.counterflow` — the Fig-4 per-phase
  compute-vs-comm sweep across partition sizes;
* :mod:`~repro.harness.runreport` — self-contained markdown run
  reports (``repro report``);
* :mod:`~repro.harness.serving` — the inference-serving saturation
  sweep and batching tradeoff (``repro serve`` / ``repro perf
  --serve``).
"""

from repro.harness.breakdown import BREAKDOWN_CONFIGS, ConfigBreakdown, run_breakdowns
from repro.harness.calibrate import CalibrationRun, calibrated_script
from repro.harness.counterflow import (
    DEFAULT_COUNTERFLOW_RANKS,
    counterflow_from_dumps,
    counterflow_records,
    render_counterflow,
    run_counterflow,
)
from repro.harness.runreport import build_run_report, report_records
from repro.harness.export import (
    export_breakdowns_json,
    export_scaling_csv,
    export_scaling_json,
    export_table1_json,
)
from repro.harness.report import render_cycles, render_mpi_split, render_series, render_table
from repro.harness.scaling import (
    FIG1A_CONFIGS,
    FIG1B_CONFIGS,
    FaultSweepPoint,
    OverlapAblation,
    ScalingPoint,
    collective_crossover,
    default_workload,
    efficiencies,
    run_config,
    run_fault_sweep,
    run_fig1a,
    run_fig1b,
    run_overlap_ablation,
    run_scaling_claim,
)
from repro.harness.serving import (
    DEFAULT_SWEEP_LOADS,
    SweepPoint,
    capacity_rps,
    render_batching,
    render_saturation,
    run_batching_tradeoff,
    run_saturation_sweep,
    serve_payload,
)
from repro.harness.speedup import (
    SpeedupRow,
    bgq_hours,
    run_table1,
    xeon_config,
    xeon_hours,
)

__all__ = [
    "BREAKDOWN_CONFIGS",
    "ConfigBreakdown",
    "run_breakdowns",
    "CalibrationRun",
    "calibrated_script",
    "export_breakdowns_json",
    "export_scaling_csv",
    "export_scaling_json",
    "export_table1_json",
    "render_cycles",
    "render_mpi_split",
    "render_series",
    "render_table",
    "FIG1A_CONFIGS",
    "FIG1B_CONFIGS",
    "FaultSweepPoint",
    "OverlapAblation",
    "ScalingPoint",
    "collective_crossover",
    "run_overlap_ablation",
    "default_workload",
    "efficiencies",
    "run_config",
    "run_fault_sweep",
    "run_fig1a",
    "run_fig1b",
    "run_scaling_claim",
    "SpeedupRow",
    "bgq_hours",
    "run_table1",
    "xeon_config",
    "xeon_hours",
    "DEFAULT_COUNTERFLOW_RANKS",
    "counterflow_from_dumps",
    "counterflow_records",
    "render_counterflow",
    "run_counterflow",
    "build_run_report",
    "report_records",
    "DEFAULT_SWEEP_LOADS",
    "SweepPoint",
    "capacity_rps",
    "render_batching",
    "render_saturation",
    "run_batching_tradeoff",
    "run_saturation_sweep",
    "serve_payload",
]
