"""Fig-4 counter-flow: per-phase compute-vs-comm across partition sizes.

The paper's Fig. 4 message is a *counter-flow*: as the number of data
partitions grows, per-rank compute time per phase shrinks (each rank
owns fewer frames) while communication time grows (deeper trees, more
synchronization) — and the crossover bounds useful scaling.  This
driver runs one simulated configuration per rank count, folds each
run's span totals into the per-phase ``(role, kind, seconds)`` rows of
:func:`repro.obs.attrib.phase_flow_rows`, and renders the sweep as a
markdown table (phases x rank counts) plus JSONL records that
``repro obs diff`` can gate across runs.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "DEFAULT_COUNTERFLOW_RANKS",
    "run_counterflow",
    "counterflow_records",
    "render_counterflow",
]

DEFAULT_COUNTERFLOW_RANKS = (64, 512, 4096)
"""Partition-size sweep of the Fig-4 recipe (EXPERIMENTS.md)."""


def run_counterflow(
    ranks: tuple[int, ...] = DEFAULT_COUNTERFLOW_RANKS,
    script: Any | None = None,
    hours: float = 50.0,
    seed: int = 0,
    sample: int = 16,
) -> list[dict[str, Any]]:
    """Simulate one run per rank count and collect its phase rows.

    Returns one point per rank count:
    ``{"spec", "ranks", "finish_time", "rows"}`` with ``rows`` from
    :func:`repro.obs.attrib.phase_flow_rows`.  Shapes follow the perf
    harness convention (``<ranks>-4-16``).
    """
    from repro.bgq import RunShape
    from repro.dist import IterationScript, SimJobConfig, simulate_training
    from repro.harness.scaling import default_workload
    from repro.obs.attrib import phase_flow_rows

    if script is None:
        script = IterationScript((10,), (3,), represented_iterations=30)
    points: list[dict[str, Any]] = []
    for p in ranks:
        spec = f"{p}-4-16"
        cfg = SimJobConfig(
            shape=RunShape.parse(spec),
            workload=default_workload(hours),
            script=script,
            seed=seed,
        )
        res = simulate_training(cfg)
        points.append(
            {
                "spec": spec,
                "ranks": p,
                "finish_time": res.finish_time,
                "rows": phase_flow_rows(res.tracer, p, sample=sample),
            }
        )
    return points


def counterflow_records(points: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Sweep points -> flat ``train.phase_seconds`` gauge records.

    The JSONL form of the table: one record per (shape, phase, role,
    kind), alignable by ``repro obs diff`` against a committed baseline.
    """
    from repro.obs.metrics import gauge_record

    out: list[dict[str, Any]] = []
    for pt in points:
        for row in pt["rows"]:
            out.append(
                gauge_record(
                    "train.phase_seconds",
                    row["seconds"],
                    shape=pt["spec"],
                    phase=row["phase"],
                    role=row["role"],
                    kind=row["kind"],
                )
            )
    return out


def render_counterflow(points: list[dict[str, Any]]) -> str:
    """Markdown table of the sweep: one row per (phase, role, kind),
    one column per rank count — the compute column shrinking while the
    comm column grows is the counter-flow read directly."""
    from repro.obs.attrib import PHASES

    specs = [pt["spec"] for pt in points]
    cells: dict[tuple[str, str, str], dict[str, float]] = {}
    for pt in points:
        for row in pt["rows"]:
            key = (row["phase"], row["role"], row["kind"])
            cells.setdefault(key, {})[pt["spec"]] = row["seconds"]
    header = "| phase | role | kind | " + " | ".join(specs) + " |"
    sep = "|" + "---|" * (3 + len(specs))
    lines = [header, sep]
    role_order = {"master": 0, "worker_mean": 1}
    kind_order = {"compute": 0, "comm": 1, "recovery": 2}
    phase_order = {p: i for i, p in enumerate(PHASES)}
    for phase, role, kind in sorted(
        cells,
        key=lambda k: (
            phase_order.get(k[0], len(phase_order)),
            role_order.get(k[1], 9),
            kind_order.get(k[2], 9),
        ),
    ):
        vals = cells[(phase, role, kind)]
        rendered = " | ".join(
            f"{vals[s]:.4f}" if s in vals else "-" for s in specs
        )
        lines.append(f"| {phase} | {role} | {kind} | {rendered} |")
    return "\n".join(lines)
