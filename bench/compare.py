"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base, B the candidate.  Every (end-to-end metric, workload)
pair is its own row and is judged by the metric's own bound from
``BENCHMARK.json``: B's median may be worse than A's by at most that
share of A's median.  Where either side's own spread (the distance
between its quartiles over its median) is wider than the bound, the row
is *unresolved* — unless every sample of B reads better than every
sample of A — and is never reported as unchanged.  Every ratio is
printed with its base.  Per-layer metrics of traced result files are
listed side by side without a verdict: they have no bound.

Exit status is non-zero when a row regressed, when a workload's
``fail_rate`` rose, or when work counts differ (the two files then did
not measure the same program on the same inputs).
"""

from __future__ import annotations

import json
import sys
from typing import Any

from run import load_manifest


def load(path: str) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def spread(q: dict[str, float]) -> float:
    return (q["q3"] - q["q1"]) / q["value"] if q["value"] else 0.0


def judge(a: dict[str, float], b: dict[str, float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is the share of A's median by
    which B's median is worse (negative when B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    b_all_better = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    if max(spread(a), spread(b)) > bound and not b_all_better:
        return "unresolved", worsening
    if worsening > bound:
        return "REGRESSED", worsening
    return "ok", worsening


def fail_rate(row: dict[str, Any]) -> float:
    return row["failed"] / max(row["attempted"], 1)


def compare(a: dict[str, Any], b: dict[str, Any], manifest: dict[str, Any]) -> int:
    status = 0
    print(f"A: {a['header']}\nB: {b['header']}")
    header = (f"{'workload':<13}{'metric':<13}{'A median [q1, q3]':>34}"
              f"{'B median [q1, q3]':>34}{'B/A':>8}{'worse by':>10}{'bound':>7}  verdict")
    print(header)
    for wl in manifest["workloads"]:
        name = wl["name"]
        ra, rb = a["rows"].get(name), b["rows"].get(name)
        if ra is None or rb is None:
            print(f"{name:<13}missing from {'A' if ra is None else 'B'}")
            status = 1
            continue
        for side, row in (("A", ra), ("B", rb)):
            if row.get("disturbed"):
                print(f"{name:<13}{side} was disturbed (host.calib_s moved): "
                      f"its rows are unresolved at best")
        fa, fb = fail_rate(ra), fail_rate(rb)
        verdict = "ok" if fb <= fa else "REGRESSED"
        print(f"{name:<13}{'fail_rate':<13}{fa:>34.6g}{fb:>34.6g}{'':>8}{'':>10}{0:>7}  {verdict}")
        if fb > fa:
            status = 1
        if ra.get("work") != rb.get("work"):
            print(f"{name:<13}work count differs: A {ra.get('work')} vs B {rb.get('work')} "
                  f"{ra.get('work_unit', '')}")
            status = 1
        for m in manifest["end_to_end"]:
            qa = ra.get("end_to_end", {}).get(m["name"])
            qb = rb.get("end_to_end", {}).get(m["name"])
            if qa is None or qb is None:
                print(f"{name:<13}{m['name']:<13}not measured")
                status = 1
                continue
            verdict, worse = judge(qa, qb, m["better"], m["bound"])
            if ra.get("disturbed") or rb.get("disturbed"):
                verdict = "unresolved" if verdict == "ok" else verdict
            cell_a = f"{qa['value']:.6g} [{qa['q1']:.6g}, {qa['q3']:.6g}]"
            cell_b = f"{qb['value']:.6g} [{qb['q1']:.6g}, {qb['q3']:.6g}]"
            print(f"{name:<13}{m['name']:<13}{cell_a:>34}{cell_b:>34}"
                  f"{qb['value'] / qa['value']:>8.3f}{worse:>+10.1%}{m['bound']:>7.0%}  {verdict}")
            if verdict == "REGRESSED":
                status = 1
        # per-layer metrics have no bound: shown to locate a change, not to judge it
        la, lb = ra.get("per_layer", {}), rb.get("per_layer", {})
        for m in manifest["per_layer"]:
            va, vb = la.get(m["name"]), lb.get(m["name"])
            if va or vb:
                ratio = f"{vb / va:>8.3f}" if va and vb is not None else f"{'':>8}"
                print(f"{name:<13}{m['name']:<34}{va or 0:>13.6g}{vb or 0:>34.6g}{ratio} {m['unit']}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]), load_manifest())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
