"""The repo benchmark: seven host-time workloads, one command.

    python bench/run.py                       # all workloads, end-to-end metrics
    python bench/run.py --trace               # all workloads, per-layer metrics
    python bench/run.py --workload vec_65k --seed 11 --seconds 8 --trace 0

Each workload runs in fresh single Python processes (``worker.py``) with
BLAS/OpenMP pinned to one thread and the garbage collector left on.  An
untraced run sets the workload up in three processes, one after another,
and splits the timed seconds between them: ``setup_s`` is then a median
of three set-ups and ``wall_s`` a median over passes from three
processes.  A traced run is one process that alternates plain and
traced passes.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it is
for people.  Results are also written under ``--out`` (default
``.bench_out/`` at the checkout root, which ``.gitignore`` names) in the
form ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
SETUPS_PER_RUN = 3
RUN_DEADLINE_S = 170.0
"""The driver gives one run 180 s; children share what is left of this."""
CALIB_TOLERANCE = 0.15


def load_manifest() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- host
def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def calibrate() -> float:
    """A fixed numpy-sort + pure-Python-heap kernel, best of seven: the
    per-machine divisor that makes ``wall_s`` comparable across hosts,
    and the before/after probe for a disturbed measurement.  The kernel
    is short and cache-resident and the minimum is taken, so only a
    slow-down that lasts the whole 0.1 s moves it."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    keys = [(i * 7919) % 10007 for i in range(30_000)]
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        np.sort(data)
        heap: list[int] = []
        for k in keys:
            heapq.heappush(heap, k)
        while heap:
            heapq.heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_header(calib_s: float) -> dict[str, Any]:
    import numpy as np

    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "calib_s": calib_s,
    }


# ------------------------------------------------------------- children
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict[str, Any], timeout: float) -> dict[str, Any]:
    """Run one worker process; a crash or a hang is a failed result."""
    spec = {**spec, "t_spawn": time.time()}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,  # so a hung pass's shard workers die with it
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
        error = None if proc.returncode == 0 else f"worker exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"worker hung for {timeout:.0f} s"
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the session
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if error is None:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "worker printed no result"
    return {"error": error, "attempted": 1, "failed": 1, "failures": [error]}


def quartiles(values: list[float]) -> dict[str, float]:
    n = len(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "n": n,
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool, size: str, out: str,
    calib_before: float,
) -> dict[str, Any]:
    """One run of one workload: its row of the results file.
    ``calib_before`` is the calibration taken just before this call; the
    one taken after is returned as ``calib_after`` for the next workload."""
    base = {
        "workload": name, "seed": seed, "trace": trace, "size": size,
        "out": out, "goldens": GOLDENS,
    }
    n_children = 1 if trace else SETUPS_PER_RUN
    t_start = time.monotonic()
    children = []
    for i in range(n_children):
        left = RUN_DEADLINE_S - (time.monotonic() - t_start)
        children.append(
            run_child(
                {**base, "seconds": seconds / n_children, "cross_check": i == 0},
                # a hung pass: ten times what the child should need
                timeout=max(5.0, min(left / (n_children - i), 30 + 10 * seconds / n_children)),
            )
        )
    calib_after = calibrate()
    calib_s = (calib_before + calib_after) / 2

    ok = [c for c in children if "error" not in c]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c.get("failures", [])]
    # the same inputs in another process must give the same outputs
    for c in ok[1:]:
        attempted += 1
        if c["reference"] != ok[0]["reference"]:
            failed += 1
            failures.append("reference outputs differ between processes")
    row: dict[str, Any] = {
        "seed": seed,
        "size": size,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:8],
        "disturbed": abs(calib_after - calib_before) / calib_s > CALIB_TOLERANCE,
        "calib_s": calib_s,
        "calib_after": calib_after,
    }
    walls = [w for c in ok for w in c["walls_s"]]
    if not walls:
        return row
    work = ok[0]["work"]
    row.update(work=work, work_unit=ok[0]["work_unit"])
    if trace:
        layers = dict(ok[0]["layers"])
        layers["host.calib_s"] = calib_s
        layers["host.wall_per_calib"] = statistics.median(walls) / calib_s
        if layers.get("sim.engine.events") and layers.get("sim.engine.run_s"):
            layers["sim.engine.events_per_s"] = (
                layers["sim.engine.events"] / layers["sim.engine.run_s"]
            )
        row["per_layer"] = layers
        row["trace_events"] = ok[0]["trace_events"]
    else:
        row["end_to_end"] = {
            "wall_s": quartiles(walls),
            "work_per_s": quartiles([work / w for w in walls]),
            "setup_s": quartiles([c["setup_s"] for c in ok]),
            "peak_rss_mb": quartiles([c["peak_rss_mb"] for c in ok]),
        }
        row["wall_per_calib"] = statistics.median(walls) / calib_s
    return row


# -------------------------------------------------------------- output
def driver_line(row: dict[str, Any], manifest: dict[str, Any], trace: bool) -> str:
    """The contract's last line: every declared metric, by name."""
    metrics = {}
    if trace:
        for m in manifest["per_layer"]:
            value = row.get("per_layer", {}).get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in manifest["end_to_end"]:
            metrics[m["name"]] = {
                "value": row["end_to_end"][m["name"]]["value"], "unit": m["unit"]
            }
    return json.dumps(
        {
            "correct": row["failed"] == 0,
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": metrics,
        }
    )


def print_row(name: str, row: dict[str, Any], manifest: dict[str, Any]) -> None:
    fail_rate = row["failed"] / max(row["attempted"], 1)
    flag = "  ** DISTURBED: calibration moved, do not publish **" if row["disturbed"] else ""
    print(f"\n== {name}  (seed {row['seed']}, size {row['size']}){flag}")
    print(f"  {'fail_rate':<34}{fail_rate:>14.6g} ratio  "
          f"({row['failed']} of {row['attempted']} checks failed)")
    for message in row["failures"]:
        print(f"    ! {message}")
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    for metric, q in row.get("end_to_end", {}).items():
        print(f"  {metric:<34}{q['value']:>14.6g} {units[metric]:<6} "
              f"n={q['n']} min={q['min']:.6g} q1={q['q1']:.6g} q3={q['q3']:.6g}")
    if "wall_per_calib" in row:
        print(f"  {'wall_s / host.calib_s':<34}{row['wall_per_calib']:>14.6g} ratio")
    if "work" in row:
        print(f"  {'work per pass':<34}{row['work']:>14d} {row['work_unit']}")
    layers = row.get("per_layer", {})
    for m in manifest["per_layer"]:
        if m["name"] in layers:
            print(f"  {m['name']:<34}{layers[m['name']]:>14.6g} {m['unit']}")


def write_results(path: str, header: dict[str, Any], rows: dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"header": header, "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -------------------------------------------------------------- regold
def regold(names: list[str], seed: int) -> int:
    """Rewrite goldens.json from this checkout's outputs.  A worker's
    passes are each checked bit for bit against its first, so a worker
    with no failed check has at least two consecutive passes that agree."""
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    recorded: dict[str, Any] = {}
    jobs = [(n, "full") for n in names] + [(n, "quick") for n in names]
    if "paper_figs" in names:
        jobs.append(("paper_figs", "paper"))
    for name, size in jobs:
        c = run_child(
            {"workload": name, "seed": seed, "trace": False, "size": size,
             "out": "", "goldens": "", "seconds": 0.0,
             "cross_check": True},
            timeout=RUN_DEADLINE_S,
        )
        if c["failed"] or "error" in c:
            print(f"regold refused: {name}@{size}: {c['failures']}", file=sys.stderr)
            return 1
        recorded[f"{name}@{size}"] = {
            k: v for k, v in c["reference"].items() if not k.startswith("local.")
        }
        print(f"recorded {name}@{size}: {len(recorded[f'{name}@{size}'])} values")
    goldens["seed"] = seed
    goldens.setdefault("workloads", {}).update(recorded)
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, help="timed seconds per run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="1: the traced, per-layer run")
    ap.add_argument("--out", help="directory for result and trace files "
                    "(default: .bench_out/ at the checkout root)")
    ap.add_argument("--quick", action="store_true",
                    help="the small sizes bench/test_bench.py uses")
    ap.add_argument("--regold", action="store_true",
                    help="rewrite bench/goldens.json for --seed")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if usable_cores() < 2:
        print("bench: fewer than 2 usable cores: shards2_65k and hf_real "
              "would time contention, not the program", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    if args.regold:
        return regold(selected, args.seed)

    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    out = os.path.abspath(args.out) if args.out else os.path.join(ROOT, ".bench_out")
    trace = bool(args.trace)
    size = "quick" if args.quick else "full"
    calib = calibrate()
    header = host_header(calib)
    print("host: " + ", ".join(f"{k}={v}" for k, v in header.items()))
    rows = {}
    for name in selected:
        rows[name] = measure(name, args.seed, seconds, trace, size, out, calib)
        calib = rows[name]["calib_after"]
        print_row(name, rows[name], manifest)
        if rows[name]["disturbed"]:
            print(f"bench: {name}: host.calib_s moved by more than "
                  f"{CALIB_TOLERANCE:.0%} across the run: disturbed", file=sys.stderr)
    stem = args.workload or "results"
    write_results(
        os.path.join(out, f"{stem}{'.traced' if trace else ''}.json"), header, rows
    )
    if args.workload:
        row = rows[args.workload]
        if "end_to_end" not in row and "per_layer" not in row:
            print(f"bench: {args.workload}: no pass completed", file=sys.stderr)
            return 1
        print(driver_line(row, manifest, trace))
        return 0
    return 1 if any(r["failed"] for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
