"""One workload in one fresh process: set-up, warm-up, timed passes, checks.

Started by ``run.py`` as ``python bench/worker.py '<json spec>'`` and
answers with one JSON line on standard output.  The garbage collector is
left as the program runs it — on — because every CLI user pays for it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any

WARMUP_PASSES = 2


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (forked shard workers), in MiB.

    The process's own peak is ``VmHWM``, which starts at zero on exec;
    ``ru_maxrss`` does not — it carries over the parent's resident set at
    fork, so under ``run.py`` it would never read below the parent's size.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
                    break
    except OSError:  # not Linux: ru_maxrss is the best there is
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + children_kib) / 1024.0


def _matches(got: Any, want: Any, approx: bool) -> bool:
    if not approx:
        return got == want
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            _matches(g, w, True) for g, w in zip(got, want)
        )
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


class Checker:
    """Counts checks attempted and failed over a run.

    The first warm-up pass is the reference: every later pass must equal
    it bit for bit.  The reference itself must carry the workload's
    static expectations and, when a golden exists for this seed and
    size, equal the golden (``local.*`` checks are host-specific and
    never in the goldens)."""

    def __init__(self, static: dict[str, Any], golden: dict[str, Any] | None,
                 approx: tuple[str, ...]) -> None:
        self.static = static
        self.golden = golden
        self.approx = approx
        self.reference: dict[str, Any] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)

    def check(self, fp: dict[str, Any]) -> None:
        if self.reference is None:
            self.reference = fp
        for key in sorted(fp):
            self.attempted += 1
            got = fp[key]
            if key not in self.reference or got != self.reference[key]:
                self._fail(f"{key}: pass differs from the first pass: {got!r}")
            elif key in self.static and got != self.static[key]:
                self._fail(f"{key}: {got!r}, expected {self.static[key]!r}")
            elif (
                self.golden is not None
                and not key.startswith("local.")
                and (
                    key not in self.golden
                    or not _matches(got, self.golden[key], key in self.approx)
                )
            ):
                self._fail(f"{key}: {got!r}, golden {self.golden.get(key)!r}")

    def check_flags(self, flags: dict[str, bool]) -> None:
        for key in sorted(flags):
            self.attempted += 1
            if not flags[key]:
                self._fail(f"{key}: failed")

    def fail_pass(self, message: str) -> None:
        """An exception in a pass fails every check the pass would make."""
        n = len(self.reference) if self.reference else 1
        self.attempted += n
        self.failed += n
        if len(self.failures) < 8:
            self.failures.append(message)


def load_golden(goldens_path: str, name: str, seed: int, size_key: str) -> dict | None:
    if not goldens_path:  # --regold: nothing to compare with yet
        return None
    with open(goldens_path) as fh:
        goldens = json.load(fh)
    if seed != goldens.get("seed"):
        return None
    return goldens.get("workloads", {}).get(f"{name}@{size_key}")


def run(spec: dict[str, Any]) -> dict[str, Any]:
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (what every CLI user imports)

    import_s = time.perf_counter() - t0
    import layers
    import workloads
    from tracing import Seams, SpanRecorder

    name, seed, trace = spec["workload"], spec["seed"], spec["trace"]
    size_key = spec["size"]
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, workloads.SIZES[name][size_key])
    checker = Checker(
        wl.static(inputs),
        load_golden(spec["goldens"], name, seed, size_key),
        wl.approx,
    )
    outputs = None
    for _ in range(WARMUP_PASSES):
        outputs = wl.run(inputs)
        checker.check(wl.fingerprint(inputs, outputs))
    setup_s = time.time() - spec["t_spawn"]

    budget = spec["seconds"]
    walls: list[float] = []
    work = 0
    errors = 0
    rec = SpanRecorder()
    t_loop = time.perf_counter()
    while not (walls or errors) or time.perf_counter() - t_loop < budget:
        try:
            t = time.perf_counter()
            outputs = wl.run(inputs)
            walls.append(time.perf_counter() - t)
            work = wl.work(inputs, outputs)
            checker.check(wl.fingerprint(inputs, outputs))
            if trace:
                with Seams(rec, layers.seam_specs(), layers.SUPPRESS_INSIDE), \
                        rec.traced_pass():
                    outputs = wl.run(inputs)
                checker.check(wl.fingerprint(inputs, outputs))
        except Exception:
            checker.fail_pass(traceback.format_exc(limit=4))
            errors += 1
            if errors >= 3:
                break

    result: dict[str, Any] = {
        "workload": name,
        "work_unit": wl.work_unit,
        "work": work,
        "walls_s": walls,
        "setup_s": setup_s,
        "import_s": import_s,
    }
    if trace:
        os.makedirs(spec["out"], exist_ok=True)
        n_traced = len(rec.pass_walls())
        metrics = layers.layer_metrics(rec, n_traced)
        metrics.update(layers.result_counts(name, outputs))
        if name in layers.EXTRAS:
            extra_metrics, flags = layers.EXTRAS[name](inputs, spec)
            metrics.update(extra_metrics)
            checker.check_flags(flags)
        metrics["host.import_s"] = import_s
        metrics["host.trace_overhead"] = metrics["host.traced_wall_s"] / statistics.median(walls)
        result["layers"] = metrics
        result["trace_events"] = rec.write_chrome_trace(
            os.path.join(spec["out"], f"trace_{name}.json")
        )
    result["peak_rss_mb"] = _peak_rss_mb()  # before the cross-path run adds its own
    if spec["cross_check"] and wl.cross_check is not None:
        checker.check_flags(wl.cross_check(inputs, checker.reference))
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        reference=checker.reference,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
