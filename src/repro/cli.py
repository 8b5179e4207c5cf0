"""Command-line entry points: run paper experiments from the shell.

    python -m repro.cli train            # quick HF training on synthetic speech
    python -m repro.cli fig1a            # Figure 1(a) configuration sweep
    python -m repro.cli fig1b            # Figure 1(b) with the second rack
    python -m repro.cli breakdown        # Figures 2-5 per-function views
    python -m repro.cli table1           # Table I speedups
    python -m repro.cli scaling          # the linear-to-4096 claim
    python -m repro.cli calibrate        # extract an IterationScript from a real run
    python -m repro.cli lint             # static rank-program verifier
    python -m repro.cli perf             # DES/vmpi virtual-invariant sweep
    python -m repro.cli serve            # inference serving under load
    python -m repro.cli trace 4096-4-16 --out trace.json   # Perfetto export
    python -m repro.cli report 1024-4-16 --out report.md   # markdown run report
    python -m repro.cli obs diff a.jsonl b.jsonl           # regression gate

Flags of general interest: ``--hours`` (corpus size), ``--iters``
(simulated HF iterations), ``--seed``.  ``lint`` takes paths plus
``--json`` / ``--select`` / ``--rules`` and exits 1 on findings.
``perf --json`` writes ``BENCH_sim_vmpi.json`` at the current directory;
``perf --faults`` runs the fault-injection sweep instead; ``perf
--serve`` runs the serving saturation sweep and batching tradeoff.
``serve`` simulates the inference-serving scenario (arrival process,
bounded admission queue, dynamic batching, optional autoscaler and
fault plan) and prints its latency/throughput summary.
``--obs PATH`` on ``train`` / ``perf`` dumps a JSONL metrics snapshot;
``trace`` takes a run shape (or a known example script) and writes a
Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.
``--fault-plan PATH`` on ``train`` / ``trace`` injects a JSON fault plan
(see ``examples/faults/``).  ``report`` renders one simulated run as a
self-contained markdown document (configuration, exact time
attribution, critical path, Fig-4 per-phase breakdown) and with
``--counterflow 64,512,4096`` appends the partition-size sweep;
``obs diff`` aligns two JSONL metric dumps and exits 1 when any metric
regresses past the relative threshold.
"""

from __future__ import annotations

import argparse
import sys

from repro.dist import IterationScript


class _InputError(Exception):
    """A file or spec named on the command line that cannot be used;
    ``str()`` is ``<path or spec>: <reason>`` and :func:`main` turns it
    into one ``repro <cmd>: ...`` line and exit code 2."""


def _load_fault_plan(path: str):
    """The fault plan at ``path`` (``--fault-plan``)."""
    from repro.faults import FaultPlan

    try:
        return FaultPlan.from_file(path)
    except (OSError, ValueError) as exc:  # unreadable; not JSON, unknown kind
        reason = getattr(exc, "strerror", None) or exc
        raise _InputError(f"{path}: {reason}") from None


def _parse_shape(spec: str):
    """The :class:`~repro.bgq.RunShape` a ``ranks-rpn-threads`` spec names."""
    from repro.bgq import RunShape

    try:
        return RunShape.parse(spec)
    except ValueError as exc:
        raise _InputError(f"{spec}: {exc}") from None


def _script(args: argparse.Namespace) -> IterationScript:
    from repro.util.rng import spawn

    rng = spawn(args.seed, "cli-script")
    n = max(1, args.iters)
    return IterationScript(
        cg_iters=tuple(int(c) for c in rng.integers(12, 20, size=n)),
        heldout_evals=tuple(int(h) for h in rng.integers(4, 7, size=n)),
        represented_iterations=30,
    )


def cmd_train(args: argparse.Namespace) -> None:
    """Run HF training on the synthetic speech task and print the
    held-out trajectory."""
    from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer
    from repro.nn import DNN, CrossEntropyLoss, frame_error_count
    from repro.speech import CorpusConfig, build_corpus
    from repro.util import RunLog

    config = CorpusConfig(hours=args.hours, scale=args.scale, context=2, seed=args.seed)
    corpus = build_corpus(config)
    x, y = corpus.frame_data()
    hx, hy = corpus.heldout_frame_data()
    net = DNN([config.input_dim, args.hidden, args.hidden, corpus.n_states])
    print(net.describe())
    source = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.03)
    obs = None
    if args.obs:
        from repro.obs import MetricsRegistry

        obs = MetricsRegistry()
    if args.fault_plan:
        result = _train_with_faults(args, source, net, obs)
    else:
        result = HessianFreeOptimizer(
            source, HFConfig(max_iterations=args.iters), log=RunLog.to_stdout(), obs=obs
        ).run(net.init_params(args.seed))
    err = frame_error_count(net.logits(result.theta, hx), hy) / len(hy)
    traj = result.heldout_trajectory
    final = f"{traj[-1]:.4f}" if traj else "n/a (no accepted iterations)"
    print(f"final held-out loss {final}, frame error {err:.1%}")
    if obs is not None:
        print(f"wrote metrics dump {obs.to_jsonl(args.obs)}")


def _train_with_faults(args, source, net, obs):
    """Checkpoint-restart demo: a rank-0 crash in the plan marks the HF
    iteration at which the master dies (``at`` is read as an iteration
    index); training runs to that point, "crashes", and resumes from the
    last checkpoint to completion."""
    import tempfile
    from pathlib import Path

    from repro.faults import FaultPolicy
    from repro.hf import HFConfig, HessianFreeOptimizer
    from repro.util import RunLog

    plan = _load_fault_plan(args.fault_plan)
    crash_at = plan.crash_time(0)
    theta0 = net.init_params(args.seed)
    if crash_at is None:
        print(f"fault plan {args.fault_plan}: no rank-0 crash; training normally")
        pol = FaultPolicy()
        return HessianFreeOptimizer(
            source, HFConfig(max_iterations=args.iters),
            log=RunLog.to_stdout(), obs=obs, fault_policy=pol,
        ).run(theta0)
    if args.iters < 2:
        print("fault plan ignored: need --iters >= 2 to crash and resume")
        return HessianFreeOptimizer(
            source, HFConfig(max_iterations=args.iters),
            log=RunLog.to_stdout(), obs=obs, fault_policy=FaultPolicy(),
        ).run(theta0)
    crash_iter = max(1, min(int(crash_at), args.iters - 1))
    ckpt = Path(tempfile.mkdtemp(prefix="repro-train-")) / "hf.npz"
    pol = FaultPolicy(checkpoint_path=str(ckpt), checkpoint_every=1)
    HessianFreeOptimizer(
        source, HFConfig(max_iterations=crash_iter),
        log=RunLog.to_stdout(), obs=obs, fault_policy=pol,
    ).run(theta0)
    print(f"-- simulated master crash after iteration {crash_iter}; "
          f"resuming from {ckpt} --")
    return HessianFreeOptimizer(
        source, HFConfig(max_iterations=args.iters),
        log=RunLog.to_stdout(), obs=obs, fault_policy=pol,
    ).run(theta0, resume_from=ckpt)


def cmd_fig1a(args: argparse.Namespace) -> None:
    """Reproduce Fig. 1a: GEMM GFLOP/s vs matrix size."""
    from repro.harness import render_series, run_fig1a

    points = run_fig1a(_script(args), hours=args.hours)
    print(
        render_series(
            [p.label for p in points],
            [p.hours for p in points],
            title=f"Fig 1(a): {args.hours:g}-hour training time",
            unit="h",
        )
    )


def cmd_fig1b(args: argparse.Namespace) -> None:
    """Reproduce Fig. 1b: GEMM scaling across thread counts."""
    from repro.harness import render_series, run_fig1b

    hours = args.hours if args.hours != 50.0 else 400.0
    points = run_fig1b(_script(args), hours=hours)
    print(
        render_series(
            [p.label for p in points],
            [p.hours for p in points],
            title=f"Fig 1(b): {hours:g}-hour training time",
            unit="h",
        )
    )


def cmd_breakdown(args: argparse.Namespace) -> None:
    """Print the per-phase time breakdown for one simulated run."""
    from repro.harness import (
        default_workload,
        render_cycles,
        render_mpi_split,
        run_breakdowns,
    )

    for cb in run_breakdowns(default_workload(args.hours), _script(args)):
        print(render_cycles(cb.master_cycles, title=f"Fig 2 [{cb.label}] master cycles"))
        print()
        print(render_cycles(cb.worker_cycles, title=f"Fig 3 [{cb.label}] worker cycles"))
        print()
        print(render_mpi_split(cb.master.collective, cb.master.p2p,
                               title=f"Fig 4 [{cb.label}] master MPI (s)"))
        print()
        print(render_mpi_split(cb.worker_mean.collective, cb.worker_mean.p2p,
                               title=f"Fig 5 [{cb.label}] worker MPI (s)"))
        print()


def cmd_table1(args: argparse.Namespace) -> None:
    """Reproduce Table 1: end-to-end times across rack counts."""
    from repro.harness import render_table, run_table1

    rows = run_table1(_script(args), hours=args.hours)
    print(
        render_table(
            ["Training data", "Xeon 96 (hrs)", "BG/Q 4096 (hrs)", "Speed Up", "Freq Adj"],
            [[r.criterion, r.xeon_hours, r.bgq_hours, r.speedup, r.frequency_adjusted]
             for r in rows],
            title="Table I",
        )
    )


def cmd_scaling(args: argparse.Namespace) -> None:
    """Run the strong-scaling sweep and print speedup/efficiency."""
    from repro.harness import efficiencies, render_table, run_scaling_claim

    points = run_scaling_claim(_script(args), hours=args.hours)
    effs = efficiencies(points)
    print(
        render_table(
            ["config", "per-iter (s)", "efficiency"],
            [[p.label, p.per_iteration_seconds, e] for p, e in zip(points, effs)],
            title="Scaling: linear to 4096, sub-linear beyond",
        )
    )


def cmd_calibrate(args: argparse.Namespace) -> None:
    """Fit cost-model constants against the published anchors."""
    from repro.harness import calibrated_script

    run = calibrated_script(iterations=args.iters, seed=args.seed)
    s = run.script
    print(f"calibrated script from a real {args.iters}-iteration HF run:")
    print(f"  cg_iters        = {s.cg_iters}")
    print(f"  heldout_evals   = {s.heldout_evals}")
    print(f"  represented     = {s.represented_iterations}")
    print("held-out trajectory of the calibration run:",
          [f"{v:.4f}" for v in run.hf_result.heldout_trajectory])


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static rank-program verifier (see :mod:`repro.analysis`)."""
    from pathlib import Path

    from repro.analysis import all_rules, lint_paths
    from repro.analysis.cache import LintCache
    from repro.analysis.report import (
        apply_baseline,
        load_baseline,
        render_stats,
        to_sarif,
        write_baseline,
    )

    if args.rules:
        for rule in all_rules():
            info = rule.info
            print(f"{info.id} [{info.severity.value}] {info.name}: {info.rationale}")
        return 0
    select = (
        [r.strip() for r in args.select.split(",") if r.strip()]
        if args.select
        else None
    )
    fmt = args.format or ("json" if args.json else "text")
    cache = None if args.no_cache else LintCache.default(Path.cwd(), select)
    try:
        report = lint_paths(args.paths, rule_ids=select, cache=cache)
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if cache is not None:
        cache.save()
    if args.write_baseline:
        n = write_baseline(report, args.write_baseline)
        print(f"wrote baseline {args.write_baseline} ({n} finding(s))")
        return 0
    if args.baseline:
        try:
            apply_baseline(report, load_baseline(args.baseline))
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro lint: bad baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    if fmt == "json":
        output = report.to_json()
    elif fmt == "sarif":
        output = to_sarif(report)
    else:
        output = report.render_text()
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    if args.stats:
        # keep machine formats parseable on stdout
        print(render_stats(report), file=sys.stderr if fmt != "text" else sys.stdout)
    return report.exit_code


def _parse_ranks(spec: str) -> list[int]:
    """The rank counts a ``--ranks R1,R2,...`` list names; each must
    make a valid ``<r>-4-16`` macro shape."""
    ranks = []
    for item in spec.split(","):
        if not (item.isascii() and item.isdigit()) or int(item) == 0:
            raise _InputError(f"--ranks {spec}: {item!r} is not a positive rank count")
        ranks.append(_parse_shape(f"{item}-4-16").ranks)
    return ranks


def cmd_perf(args: argparse.Namespace) -> int:
    """Check the simulator's virtual invariants against
    ``BENCH_sim_vmpi.json`` (see :mod:`repro.harness.perf`)."""
    from repro.harness.perf import (
        BENCH_FILENAME,
        dump_obs_metrics,
        render_perf_text,
        run_perf,
        write_bench_json,
    )

    if args.faults:
        return _perf_faults(args)
    if args.serve:
        return _perf_serve(args)
    ranks = _parse_ranks(args.ranks) if args.ranks is not None else None
    if args.speculate and args.shards < 2:
        raise _InputError("--speculate: needs --shards N with N >= 2")
    try:
        payload = run_perf(
            quick=args.quick,
            ranks=ranks,
            shards=args.shards,
            speculate=args.speculate,
        )
    except ValueError as exc:  # a shard count the engine rejects
        raise _InputError(f"--shards {args.shards}: {exc}") from None
    if args.json:
        out = write_bench_json(payload, args.out or BENCH_FILENAME)
        print(f"wrote {out}")
    else:
        print(render_perf_text(payload))
    if args.obs:
        print(f"wrote metrics dump {dump_obs_metrics(args.obs, quick=args.quick)}")
    return 0


def _perf_faults(args: argparse.Namespace) -> int:
    """``repro perf --faults``: time-to-converge vs injected crash rate
    under the recovery policy (see :func:`repro.harness.scaling.
    run_fault_sweep`)."""
    from repro.harness import render_table, run_fault_sweep

    hours = 0.05 if args.quick else 0.25
    points = run_fault_sweep(
        spec="64-1-16",
        hours=hours,
        crash_rates=(0.0, 0.05, 0.1, 0.2),
        obs_dir=args.obs or None,
    )
    base = points[0].total_seconds
    print(
        render_table(
            ["crash rate", "total (s)", "x fault-free", "recoveries", "excluded"],
            [
                [
                    f"{p.crash_rate:g}",
                    p.total_seconds,
                    p.total_seconds / base,
                    p.recoveries,
                    len(p.excluded_ranks),
                ]
                for p in points
            ],
            title=f"Fault sweep: 64-1-16, {hours:g} h corpus",
        )
    )
    if args.obs:
        print(f"wrote per-rate metrics dumps under {args.obs}/")
    return 0


def _perf_serve(args: argparse.Namespace) -> int:
    """``repro perf --serve``: the serving saturation sweep and batching
    tradeoff (see :mod:`repro.harness.serving`).  With ``--json``,
    updates only the ``serve`` section of the BENCH file, leaving the
    other sections untouched."""
    import json
    from pathlib import Path

    from repro.harness.serving import (
        render_batching,
        render_saturation,
        run_batching_tradeoff,
        run_saturation_sweep,
        serve_payload,
    )
    from repro.harness.perf import BENCH_FILENAME, write_bench_json

    if args.json:
        target = Path(args.out or BENCH_FILENAME)
        payload = {}
        if target.exists():
            try:
                payload = json.loads(target.read_text())
            except (OSError, ValueError) as exc:  # unreadable; not JSON
                reason = getattr(exc, "strerror", None) or exc
                raise _InputError(f"{target}: {reason}") from None
            if not isinstance(payload, dict):
                raise _InputError(f"{target}: not a JSON object")
        payload["serve"] = serve_payload(quick=args.quick)
        out = write_bench_json(payload, target)
        print(f"updated serve section of {out}")
        return 0
    sat = run_saturation_sweep(quick=args.quick)
    print("saturation sweep (fixed cluster, offered load x capacity):")
    print(render_saturation(sat))
    print()
    trade = run_batching_tradeoff(quick=args.quick)
    print("batching tradeoff (fixed load, max-batch x max-wait grid):")
    print(render_batching(trade))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulate inference serving under load (see :mod:`repro.serve`)."""
    from repro.serve import (
        ArrivalSpec,
        AutoscalePolicy,
        BatchPolicy,
        ServeConfig,
        simulate_serving,
    )

    fault_plan = None
    if args.fault_plan:
        fault_plan = _load_fault_plan(args.fault_plan)
        try:
            # rank 0 is the frontend, so the job has replicas + 1 ranks
            fault_plan.validate_ranks(args.replicas + 1)
        except ValueError as exc:
            raise SystemExit(
                f"repro serve: fault plan {args.fault_plan!r} does not fit "
                f"the job ({exc}); raise --replicas or edit the plan"
            ) from None
    obs = None
    if args.obs:
        from repro.obs import MetricsRegistry

        obs = MetricsRegistry()
    try:
        autoscale = None
        if args.autoscale:
            autoscale = AutoscalePolicy(
                min_replicas=args.min_replicas, warmup_s=args.warmup_s
            )
        cfg = ServeConfig(
            replicas=args.replicas,
            arrivals=ArrivalSpec(kind=args.arrival, rate=args.rate),
            horizon_s=args.horizon,
            seed=args.seed,
            queue_capacity=args.queue_cap,
            # 0 (or less) disables the deadline; NaN is left to be rejected
            request_timeout_s=None if args.timeout_s <= 0 else args.timeout_s,
            batch=BatchPolicy(
                max_batch=args.max_batch, max_wait_ms=args.max_wait_ms
            ),
            autoscale=autoscale,
            fault_plan=fault_plan,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}") from None
    result = simulate_serving(cfg, obs=obs, trace=bool(args.trace))
    print(result.summary())
    if args.trace:
        from repro.obs import write_chrome_trace

        out = write_chrome_trace(result.tracer, args.trace)
        print(f"wrote {out} ({len(result.tracer.spans)} spans)")
    if obs is not None:
        print(f"wrote metrics dump {obs.to_jsonl(args.obs)}")
    return 0


#: Example scripts ``repro trace`` accepts in place of a run-shape spec,
#: mapped to the (first) configuration each one simulates.
TRACEABLE_EXAMPLES = {"simulate_bgq.py": "1024-1-64"}


def _resolve_trace_target(target: str) -> str:
    """A ``ranks-rpn-threads`` spec, or a known example script's shape."""
    from pathlib import Path

    from repro.bgq import RunShape

    name = Path(target).name
    if name in TRACEABLE_EXAMPLES:
        return TRACEABLE_EXAMPLES[name]
    try:
        RunShape.parse(target)
    except ValueError:
        known = ", ".join(sorted(TRACEABLE_EXAMPLES))
        raise SystemExit(
            f"repro trace: {target!r} is neither a shape spec "
            f"('ranks-rpn-threads') nor a known example ({known})"
        ) from None
    return target


def _sim_config(args: argparse.Namespace, spec: str):
    """Build a :class:`SimJobConfig` from shared CLI flags, sizing the
    failure detector off a fault-free anchor run when a plan is given
    (the timeout must exceed the slowest honest phase; one full
    iteration is a safe upper bound on any single phase)."""
    from repro.dist import SimJobConfig, simulate_training
    from repro.harness import default_workload

    shape = _parse_shape(spec)
    workload = default_workload(args.hours)
    script = _script(args)
    fault_plan = None
    fault_policy = None
    if args.fault_plan:
        from repro.faults import FaultPolicy

        fault_plan = _load_fault_plan(args.fault_plan)
        anchor = simulate_training(
            SimJobConfig(
                shape=shape, workload=workload, script=script, seed=args.seed,
                fault_policy=FaultPolicy(recv_timeout=3600.0),
            )
        )
        fault_policy = FaultPolicy(
            recv_timeout=max(anchor.per_iteration_seconds, 1e-6)
        )
    return SimJobConfig(
        shape=shape,
        workload=workload,
        script=script,
        seed=args.seed,
        fault_plan=fault_plan,
        fault_policy=fault_policy,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """Export a simulated run as Chrome trace-event JSON (Perfetto)."""
    from repro.dist import simulate_training
    from repro.obs import MetricsRegistry, write_chrome_trace, write_metrics_jsonl

    spec = _resolve_trace_target(args.target)
    cfg = _sim_config(args, spec)
    reg = MetricsRegistry()
    # the export wants per-rank spans, which the vector fast path never
    # materialises — force the scalar scheduler (timeline identical)
    res = simulate_training(cfg, obs=reg, trace_p2p=args.p2p, vector=False)
    if res.recovery is not None and res.recovery.events:
        print("recovery log:")
        for line in res.recovery.describe().splitlines():
            print(f"  {line}")
    out = write_chrome_trace(res.tracer, args.out)
    print(
        f"wrote {out} ({len(res.tracer.spans)} spans, {cfg.shape.ranks} ranks, "
        f"virtual finish {res.load_data_seconds + res.iteration_seconds:.1f} s)"
    )
    algo_counts = [
        (rec["labels"]["op"], rec["labels"]["algo"], rec["value"])
        for rec in reg.snapshot()
        if rec["metric"] == "comm.coll.algo"
    ]
    if algo_counts:
        print("collective algorithms:")
        for op, algo, n in sorted(algo_counts):
            print(f"  {op}/{algo}: {n}")
    if args.metrics:
        mout = write_metrics_jsonl(
            reg,
            args.metrics,
            extra_records=[
                {
                    "record": "run",
                    "shape": spec,
                    "seed": args.seed,
                    "hours": args.hours,
                    "messages": res.total_messages,
                }
            ],
        )
        print(f"wrote {mout}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Build a self-contained markdown run report (attribution,
    critical path, per-phase breakdown, comm pairs, fault summary)."""
    import json
    from pathlib import Path

    from repro.dist import simulate_training
    from repro.harness import (
        build_run_report,
        counterflow_records,
        render_counterflow,
        report_records,
        run_counterflow,
    )
    from repro.obs import MetricsRegistry

    sweep_ranks = (
        tuple(int(r) for r in args.counterflow.split(",") if r)
        if args.counterflow
        else None
    )
    points = None
    if sweep_ranks:
        points = run_counterflow(
            sweep_ranks, script=_script(args), hours=args.hours, seed=args.seed
        )
    if args.target is None and points is not None:
        # sweep-only mode: no single-run section, just the Fig-4 table
        doc = "# Counter-flow sweep\n\n" + render_counterflow(points) + "\n"
        records = counterflow_records(points)
    else:
        spec = args.target or "1024-4-16"
        cfg = _sim_config(args, spec)
        reg = MetricsRegistry()
        res = simulate_training(cfg, obs=reg)
        doc = build_run_report(
            res, reg, title=f"Simulated run report: {spec}",
            counterflow_points=points,
        )
        records = report_records(res, reg)
        if points is not None:
            records.extend(counterflow_records(points))
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(doc, end="")
    if args.json:
        with Path(args.json).open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Diff two JSONL metric dumps; exit 1 when any metric regresses."""
    import json

    from repro.obs import diff_files

    try:
        report = diff_files(args.a, args.b, threshold=args.threshold)
    except OSError as exc:
        print(f"repro obs diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with all subcommands."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--hours", type=float, default=50.0, help="corpus hours")
    shared.add_argument("--scale", type=float, default=2e-4,
                        help="materialized fraction for real-math commands")
    shared.add_argument("--iters", type=int, default=2,
                        help="HF iterations (real or simulated)")
    shared.add_argument("--hidden", type=int, default=48, help="hidden width (train)")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="write a JSONL metrics dump to PATH (train, serve; ignored elsewhere)",
    )
    shared.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan (see examples/faults/): train demos "
        "checkpoint-restart from a rank-0 crash; trace injects the plan "
        "into the simulated run under the recovery policy",
    )
    parser = argparse.ArgumentParser(
        prog="repro", description="BG/Q Hessian-free DNN training reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, parents=[shared])
        p.set_defaults(func=fn)
    lint = sub.add_parser(
        "lint",
        help="static verifier for rank programs (exit 1 on findings)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples", "benchmarks"],
        help="files or directories to lint (default: src examples benchmarks)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (alias for --format json)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default: text; sarif is SARIF 2.1.0 for CI upload)",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="ignore findings recorded in this baseline file (exit code "
        "reflects only new findings)",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="snapshot current findings as the accepted baseline and exit 0",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule timing and cache hit/miss counters",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-hash lint cache (.repro_lint_cache.json)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit"
    )
    lint.set_defaults(func=cmd_lint, command="lint")
    perf = sub.add_parser(
        "perf",
        help="run the simulator's micro + macro benchmarks twice each and "
        "print their virtual results (host time: python bench/run.py)",
    )
    perf.add_argument(
        "--quick",
        action="store_true",
        help="shrunk workloads (for smoke tests; not the baseline)",
    )
    perf.add_argument(
        "--json",
        action="store_true",
        help="write results to BENCH_sim_vmpi.json instead of printing",
    )
    perf.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path for --json (default: ./BENCH_sim_vmpi.json)",
    )
    perf.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="also write a JSONL metrics dump from one obs-attached macro run "
        "(with --faults: a directory receiving one dump per crash rate)",
    )
    perf.add_argument(
        "--faults",
        action="store_true",
        help="run the fault-injection sweep (time-to-converge vs crash rate) "
        "instead of the hot-path benchmarks",
    )
    perf.add_argument(
        "--serve",
        action="store_true",
        help="run the serving saturation sweep + batching tradeoff instead "
        "of the hot-path benchmarks (--json updates only the BENCH file's "
        "serve section)",
    )
    perf.add_argument(
        "--ranks",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated rank counts for the macro sweep "
        "(e.g. 16384,65536,262144), replacing the default shape list",
    )
    perf.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run macro legs on the sharded engine with N OS processes "
        "(power of two; a rank count that is not a power of two runs in "
        "one process; virtual results are identical to --shards 1)",
    )
    perf.add_argument(
        "--speculate",
        action="store_true",
        help="with --shards: optimistic shard windows (checkpoint + "
        "rollback) instead of the two-barrier protocol; virtual results "
        "are identical, window stalls drop to actual rollbacks",
    )
    perf.set_defaults(func=cmd_perf, command="perf")
    serve = sub.add_parser(
        "serve",
        help="simulate inference serving under heavy user traffic",
        parents=[shared],
    )
    serve.add_argument(
        "--replicas", type=int, default=8, help="replica pool size (default 8)"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=10.0,
        help="mean offered load, requests/second (default 10)",
    )
    serve.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "diurnal"),
        default="poisson",
        help="arrival process (default poisson)",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=30.0,
        help="arrival window, simulated seconds (default 30)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, help="dynamic-batching size cap"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=20.0,
        help="dynamic-batching wait cap, milliseconds",
    )
    serve.add_argument(
        "--queue-cap",
        type=int,
        default=256,
        help="admission queue bound; arrivals beyond it are shed",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=10.0,
        help="per-request admission deadline, seconds (0 disables)",
    )
    serve.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the reactive autoscaler (starts at --min-replicas)",
    )
    serve.add_argument(
        "--min-replicas",
        type=int,
        default=2,
        help="autoscaler floor (with --autoscale; default 2)",
    )
    serve.add_argument(
        "--warmup-s",
        type=float,
        default=2.0,
        help="autoscaler warm-up delay before a new replica takes work",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace (decode spans, fault/exclusion windows)",
    )
    serve.set_defaults(func=cmd_serve, command="serve")
    trace = sub.add_parser(
        "trace",
        help="export a simulated run as Chrome trace JSON (Perfetto)",
        parents=[shared],
    )
    trace.add_argument(
        "target",
        help="run shape ('ranks-rpn-threads', e.g. 4096-4-16) or a known "
        "example script (e.g. examples/simulate_bgq.py)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        metavar="PATH",
        help="Chrome trace output path (default: ./trace.json)",
    )
    trace.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also write the run's JSONL metrics dump",
    )
    trace.add_argument(
        "--p2p",
        action="store_true",
        help="record one span per p2p message (large traces; timeline unchanged)",
    )
    trace.set_defaults(func=cmd_trace, command="trace")
    report = sub.add_parser(
        "report",
        help="self-contained markdown report of a simulated run "
        "(attribution, critical path, Fig-4 breakdown)",
        parents=[shared],
    )
    report.add_argument(
        "target",
        nargs="?",
        default=None,
        help="run shape ('ranks-rpn-threads'; default 1024-4-16). With "
        "--counterflow and no target, only the sweep table is built",
    )
    report.add_argument(
        "--counterflow",
        default=None,
        metavar="R1,R2,...",
        help="also run the Fig-4 counter-flow sweep over these rank "
        "counts (e.g. 64,512,4096) and append its table",
    )
    report.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the markdown report to PATH instead of stdout",
    )
    report.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the run's metric records as JSONL (the "
        "'repro obs diff' input)",
    )
    report.set_defaults(func=cmd_report, command="report")
    obs = sub.add_parser(
        "obs",
        help="observability utilities (currently: cross-run metric diff)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    odiff = obs_sub.add_parser(
        "diff",
        help="diff two JSONL metric dumps; exit 1 on regression",
    )
    odiff.add_argument("a", help="baseline metrics JSONL")
    odiff.add_argument("b", help="candidate metrics JSONL")
    odiff.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative-increase threshold flagged as regression "
        "(default 0.05 = 5%%)",
    )
    odiff.add_argument(
        "--json",
        action="store_true",
        help="machine-readable diff report on stdout",
    )
    odiff.set_defaults(func=cmd_obs_diff, command="obs")
    return parser


COMMANDS = {
    "train": cmd_train,
    "fig1a": cmd_fig1a,
    "fig1b": cmd_fig1b,
    "breakdown": cmd_breakdown,
    "table1": cmd_table1,
    "scaling": cmd_scaling,
    "calibrate": cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except _InputError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    return int(rc) if rc is not None else 0


if __name__ == "__main__":
    sys.exit(main())
