"""Simulator invariant sweep — the ``repro perf`` harness.

Every benchmark here reports *virtual* results only: finish times,
message / byte / event totals, the selected collective algorithms and
the serving sweep.  Those are bit-identical on any host, so the
committed ``BENCH_sim_vmpi.json`` is a baseline a fresh run must
reproduce exactly — a changed number is a timeline change, never noise.
Host time is measured in one place only, ``python bench/run.py`` (which
binds the micro benchmarks below as per-layer extras).

Benchmarks
----------
micro
    ``timeout_storm`` — pure engine: heap + ready-deque churn with no
    message traffic; ``p2p_ping_ring`` — send/recv matching through the
    indexed mailboxes; ``bcast_fanout`` — binomial-tree fan-out, the
    collective building block.
macro
    ``simulate_training`` at 1024 to 262144 ranks with the standard
    50-hour workload, each shape also as a ``+auto+overlap`` leg (the
    paper configuration).
collectives, serve
    the algorithm-selection crossover with the bucketed-overlap
    ablation, and the serving saturation sweep.

Protocol
--------
Each leg runs twice and the two results must be equal.  For macro
shapes up to :data:`METRICS_MAX_RANKS` the second run carries a
:class:`~repro.obs.metrics.MetricsRegistry` and fills the ``metrics``
block (event counts, peak queue depths), so the one rerun checks both
repeat determinism and that attached observability is passive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Generator

__all__ = [
    "run_perf",
    "write_bench_json",
    "bench_timeout_storm",
    "bench_ping_ring",
    "bench_bcast_fanout",
    "bench_collectives",
    "bench_macro",
    "bench_macro_obs",
    "registry_metrics_block",
    "dump_obs_metrics",
    "BENCH_FILENAME",
]

BENCH_FILENAME = "BENCH_sim_vmpi.json"

MACRO_SHAPES = ("1024-4-16", "4096-4-16")
LARGE_MACRO_SHAPES = ("16384-4-16", "65536-4-16", "262144-4-16")
"""Vector-fast-path scale points: only reachable in reasonable wall time
because the SPMD executor replays whole phases as array ops."""
QUICK_MACRO_SHAPES = ("256-4-16",)

METRICS_MAX_RANKS = 16384
"""Largest macro shape whose rerun carries a metrics registry; beyond it
both runs are plain (passivity is already checked on the smaller
shapes, and per-rank metric materialization at 65k+ ranks would
dominate the sweep)."""


# --------------------------------------------------------------------- micro
def bench_timeout_storm(procs: int = 512, timeouts: int = 64) -> dict[str, Any]:
    """Engine-only event churn: ``procs`` generators each sleep through
    ``timeouts`` staggered delays (a third of them zero-delay, to
    exercise the ready-deque fast path)."""
    from repro.sim.engine import Engine

    def sleeper(i: int) -> Generator:
        for j in range(timeouts):
            yield float((i * 7 + j * 13) % 3) * 1e-6

    eng = Engine()
    for i in range(procs):
        eng.process(sleeper(i), name=f"p{i}")
    t = eng.run()
    return {"virtual_finish": t, "events": procs * timeouts}


def bench_ping_ring(ranks: int = 256, rounds: int = 32) -> dict[str, Any]:
    """p2p matching pressure: every rank sends around a ring and receives
    from its predecessor, ``rounds`` times — one exact-match recv per
    message through the indexed mailboxes."""
    from repro.bgq.network import TorusNetworkModel
    from repro.vmpi.comm import VComm
    from repro.vmpi.costmodel import PayloadStub

    comm = VComm(
        ranks,
        network=TorusNetworkModel(nodes=ranks // 4, ranks_per_node=4),
        trace_p2p=False,
    )
    payload = PayloadStub(1024, "ping")

    def program(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for r in range(rounds):
            yield from ctx.send(right, payload, tag=r)
            yield from ctx.recv(source=left, tag=r)

    t, _ = comm.run(program)
    return {
        "virtual_finish": t,
        "messages": comm.total_sends,
        "bytes": comm.total_bytes,
    }


def bench_bcast_fanout(ranks: int = 256, rounds: int = 16) -> dict[str, Any]:
    """Binomial-tree fan-out: ``rounds`` broadcasts from rank 0 over the
    full communicator — log-depth waves of send/recv pairs."""
    from repro.bgq.network import TorusNetworkModel
    from repro.vmpi.collectives import bcast
    from repro.vmpi.comm import VComm
    from repro.vmpi.costmodel import PayloadStub

    comm = VComm(
        ranks,
        network=TorusNetworkModel(nodes=ranks // 4, ranks_per_node=4),
        trace_p2p=False,
    )
    payload = PayloadStub(4096, "weights")

    def program(ctx):
        for _ in range(rounds):
            yield from bcast(ctx, payload if ctx.rank == 0 else None, root=0)

    t, _ = comm.run(program)
    return {
        "virtual_finish": t,
        "messages": comm.total_sends,
        "bytes": comm.total_bytes,
    }


# --------------------------------------------------------------------- macro
def bench_macro(
    shape: str = "4096-4-16",
    obs: Any | None = None,
    vector: bool | None = None,
    shards: int = 1,
    speculate: bool = False,
    auto_overlap: bool = False,
) -> dict[str, Any]:
    """One full simulated training run — the acceptance-criterion
    configuration (one outer iteration standing for 30).  ``obs`` is an
    optional :class:`~repro.obs.metrics.MetricsRegistry` to attach;
    ``vector``/``shards``/``speculate`` select the SPMD fast path /
    sharded engine / optimistic shard windows exactly as on
    :func:`~repro.dist.simulated.simulate_training` (the virtual
    invariants are identical on every path — the reported ``path``
    names which executor produced them).  ``auto_overlap`` switches the
    config to ``collective_selection="auto"`` with the bucketed
    gradient-overlap pipeline — the paper-configuration macro leg."""
    from repro.bgq import RunShape
    from repro.dist import IterationScript, SimJobConfig, simulate_training
    from repro.harness.scaling import default_workload

    cfg = SimJobConfig(
        shape=RunShape.parse(shape),
        workload=default_workload(50.0),
        script=IterationScript((10,), (3,), represented_iterations=30),
        seed=7,
        **(
            {"collective_selection": "auto", "overlap_gradient": True}
            if auto_overlap
            else {}
        ),
    )
    res = simulate_training(
        cfg, obs=obs, vector=vector, shards=shards, speculate=speculate
    )
    return {
        "virtual_finish": res.load_data_seconds + res.iteration_seconds,
        "messages": res.total_messages,
        "path": res.execution_path,
    }


def bench_collectives(spec: str = "1024-4-16", hours: float = 2.0) -> dict[str, Any]:
    """Collectives sweep: the algorithm-selection crossover table plus
    the bucketed-overlap ablation on a large-payload gradient phase.

    The virtual outputs (gradsync seconds, selected algorithms) double
    as determinism invariants, and the committed ``win_vs_binomial`` is
    the evidence behind the PR's >= 20 % acceptance criterion.
    """
    from repro.harness.scaling import collective_crossover, run_overlap_ablation

    ab = run_overlap_ablation(spec, hours=hours)
    return {
        "spec": spec,
        "gradsync_binomial_s": ab.binomial_seconds,
        "gradsync_serial_s": ab.serial_seconds,
        "gradsync_overlap_s": ab.overlap_seconds,
        "win_vs_binomial": ab.win_vs_binomial,
        "win_vs_serial": ab.win_vs_serial,
        "crossover": [
            {
                "nbytes": row["nbytes"],
                "bcast": row["bcast"]["algo"],  # type: ignore[index]
                "allreduce": row["allreduce"]["algo"],  # type: ignore[index]
                "reduce": row["reduce"]["algo"],  # type: ignore[index]
            }
            for row in collective_crossover(spec)
        ],
    }


def registry_metrics_block(reg: Any) -> dict[str, Any]:
    """Condense an obs snapshot into the BENCH json ``metrics`` block."""
    events: dict[str, int] = {}
    block: dict[str, Any] = {}
    for rec in reg.snapshot():
        name = rec["metric"]
        if name == "sim.events":
            events[rec["labels"]["kind"]] = rec["value"]
        elif name == "sim.heap_depth":
            block["peak_heap_depth"] = rec["peak"]
        elif name == "sim.ready_depth":
            block["peak_ready_depth"] = rec["peak"]
        elif name == "comm.outstanding_hwm":
            block["outstanding_hwm"] = rec["value"]
    block["events"] = events
    block["events_total"] = sum(events[k] for k in sorted(events))
    return block


def bench_macro_obs(
    shape: str,
    registry_sink: list[Any] | None = None,
    shards: int = 1,
    vector: bool | None = None,
    speculate: bool = False,
    auto_overlap: bool = False,
) -> dict[str, Any]:
    """:func:`bench_macro` with a fresh metrics registry attached — the
    instrumented engine loop and comm hooks.

    Only the *simulation* runs here: snapshot folding is left to the
    caller, so a timed call measures hot-path overhead, not the one-time
    export cost.  ``registry_sink``, if given, receives the attached
    registry (via ``append``) for later inspection.
    ``vector``/``shards`` pass through to :func:`bench_macro`, so the
    passivity checks cover the SPMD fast path and the sharded engine too.
    """
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    result = bench_macro(
        shape,
        obs=reg,
        vector=vector,
        shards=shards,
        speculate=speculate,
        auto_overlap=auto_overlap,
    )
    if registry_sink is not None:
        registry_sink.append(reg)
    return result


def dump_obs_metrics(path: str | Path, quick: bool = False) -> Path:
    """One obs-attached macro run -> JSONL metrics dump at ``path``
    (the ``repro perf --obs`` backend)."""
    from repro.obs import MetricsRegistry, write_metrics_jsonl

    shape = (QUICK_MACRO_SHAPES if quick else MACRO_SHAPES)[0]
    reg = MetricsRegistry()
    result = bench_macro(shape, obs=reg)
    return write_metrics_jsonl(
        reg, path, extra_records=[{"record": "run", "shape": shape, **result}]
    )


# ------------------------------------------------------------------- driver
def _rerun(
    name: str,
    fn: Callable[[], dict[str, Any]],
    again: Callable[[], dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Run ``fn``, then ``again`` (default: ``fn`` once more), and
    require both to report the same virtual result."""
    first = fn()
    second = (again or fn)()
    if second != first:
        raise AssertionError(
            f"{name}: the rerun changed the virtual result: {second} != {first}"
        )
    return first


def run_perf(
    quick: bool = False,
    ranks: list[int] | None = None,
    shards: int = 1,
    speculate: bool = False,
) -> dict[str, Any]:
    """Run every benchmark; returns the ``BENCH_sim_vmpi.json`` payload.

    ``quick`` shrinks the workloads for smoke-testing the harness itself
    (CI); the published baseline uses the default sizes.  ``ranks``
    replaces the macro shape list with ``<r>-4-16`` entries (the ``repro
    perf --ranks 16384,65536,262144`` sweep); ``shards`` runs the macro
    legs on the sharded engine and ``speculate`` switches its shard
    windows to the optimistic rollback protocol (virtual results are
    the same on every executor).  Every macro shape also gets an
    ``<shape>+auto+overlap`` leg — the paper configuration
    (auto-selected collectives + bucketed gradient overlap) on the same
    executor.
    """
    if quick:
        micro = {
            "timeout_storm": lambda: bench_timeout_storm(procs=64, timeouts=16),
            "p2p_ping_ring": lambda: bench_ping_ring(ranks=32, rounds=4),
            "bcast_fanout": lambda: bench_bcast_fanout(ranks=32, rounds=4),
        }
        shapes = QUICK_MACRO_SHAPES
        coll_spec = QUICK_MACRO_SHAPES[0]
    else:
        micro = {
            "timeout_storm": bench_timeout_storm,
            "p2p_ping_ring": bench_ping_ring,
            "bcast_fanout": bench_bcast_fanout,
        }
        shapes = MACRO_SHAPES + LARGE_MACRO_SHAPES
        coll_spec = MACRO_SHAPES[0]
    if ranks:
        shapes = tuple(f"{r}-4-16" for r in ranks)
    payload: dict[str, Any] = {
        "benchmark": "sim_vmpi",
        "micro": {name: _rerun(f"micro/{name}", fn) for name, fn in micro.items()},
        "macro": {},
        "collectives": {
            "sweep": _rerun(
                "collectives/sweep", lambda: bench_collectives(coll_spec)
            )
        },
    }
    for shape in shapes:
        metered = int(shape.split("-")[0]) <= METRICS_MAX_RANKS
        for name, auto_overlap in ((shape, False), (f"{shape}+auto+overlap", True)):
            kw = dict(shards=shards, speculate=speculate, auto_overlap=auto_overlap)
            sink: list[Any] = []
            entry = _rerun(
                name,
                lambda: bench_macro(shape, **kw),
                (lambda: bench_macro_obs(shape, sink, **kw)) if metered else None,
            )
            if sink:
                entry["metrics"] = registry_metrics_block(sink[-1])
            payload["macro"][name] = entry
    from repro.harness.serving import serve_payload

    payload["serve"] = serve_payload(quick=quick)
    return payload


def write_bench_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Write the benchmark payload as stable, indented JSON."""
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def render_perf_text(payload: dict[str, Any]) -> str:
    """Render the benchmark payload's virtual results as text lines."""
    lines = ["sim/vmpi invariants (each leg run twice, results equal):"]
    for section in ("micro", "macro"):
        for name, r in payload.get(section, {}).items():
            fields = ", ".join(
                f"{k}={r[k]!r}"
                for k in ("virtual_finish", "messages", "events", "bytes", "path")
                if k in r
            )
            lines.append(f"  {section}/{name}: {fields}")
            if "metrics" in r:
                lines.append(
                    f"    metrics: events={r['metrics']['events_total']}, "
                    f"peak_heap={r['metrics']['peak_heap_depth']:g}"
                )
    for name, r in payload.get("collectives", {}).items():
        lines.append(
            f"  collectives/{name} ({r['spec']}): "
            f"gradsync {r['gradsync_binomial_s']:.3f}s -> "
            f"{r['gradsync_overlap_s']:.3f}s, "
            f"win {100 * r['win_vs_binomial']:.1f}% vs binomial, "
            f"{100 * r['win_vs_serial']:.1f}% vs serial"
        )
    serve = payload.get("serve")
    if serve:
        lines.append(
            f"serve saturation ({serve['replicas']} replicas, "
            f"capacity {serve['capacity_rps']:.2f} rps):"
        )
        for row in serve["saturation"]:
            lines.append(
                f"  load {row['load']:.2f}: {row['completed']} done, "
                f"{row['dropped']} drop, {row['timed_out']} t/o, "
                f"thru {row['throughput_rps']:.2f} rps, "
                f"p50 {1e3 * row['p50_s']:.0f} ms, "
                f"p99 {1e3 * row['p99_s']:.0f} ms, "
                f"p99.9 {1e3 * row['p999_s']:.0f} ms"
            )
    return "\n".join(lines)
