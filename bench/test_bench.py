"""Tests of the benchmark itself; run with ``PYTHONPATH=src pytest bench/``.

Outside ``testpaths`` on purpose: the tier-1 suite does not pay for it.
Everything runs at the ``--quick`` sizes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import run as bench_run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = bench_run.load_manifest()
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def _spec(name: str, tmp_path, **over):
    spec = {
        "workload": name, "seed": 7, "trace": False, "size": "quick",
        "out": str(tmp_path), "goldens": bench_run.GOLDENS, "seconds": 0.2,
        "cross_check": True,
    }
    spec.update(over)
    return spec


def test_names_match_the_manifest():
    import layers
    import workloads

    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(workloads.SIZES)
    declared = [m["name"] for m in MANIFEST["per_layer"]]
    assert declared == [name for name, _, _ in layers.PER_LAYER]
    end_to_end = [m["name"] for m in MANIFEST["end_to_end"]]
    assert "setup_s" in end_to_end
    names = WORKLOAD_NAMES + declared + end_to_end
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    # every self-time span reports into a declared metric
    assert set(layers.SELF_TIME_METRIC.values()) <= set(declared)


def test_quick_run_of_every_workload(tmp_path):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"), "--quick",
         "--seconds", "0.6", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, f"quick run took {elapsed:.1f} s"
    rows = json.loads((tmp_path / "results.json").read_text())["rows"]
    assert set(rows) == set(WORKLOAD_NAMES)
    for name, row in rows.items():
        assert row["failed"] == 0 and row["attempted"] > 0, (name, row["failures"])
        assert set(row["end_to_end"]) == {m["name"] for m in MANIFEST["end_to_end"]}
        assert row["end_to_end"]["wall_s"]["n"] >= 3
        assert row["work"] > 0


def test_driver_line_has_exactly_the_declared_metrics(tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"), "--quick",
             "--workload", "serve_sweep", "--seed", "11", "--seconds", "0.3",
             "--trace", str(trace), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in MANIFEST[section]]


def test_corrupted_golden_fails_checks(tmp_path):
    goldens = json.loads(open(bench_run.GOLDENS).read())
    goldens["workloads"]["scalar_512@quick"]["plain.total_messages"] += 1
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(goldens))
    result = bench_run.run_child(_spec("scalar_512", tmp_path, goldens=str(bad)), 60)
    assert result["failed"] > 0
    assert any("plain.total_messages" in f for f in result["failures"])
    good = bench_run.run_child(_spec("scalar_512", tmp_path), 60)
    assert good["failed"] == 0 and good["attempted"] > 0


def test_a_silent_fallback_fails_checks(tmp_path, monkeypatch):
    """The intended execution path is a check at any seed."""
    monkeypatch.setenv("REPRO_SIM_VECTOR", "0")
    result = bench_run.run_child(_spec("vec_65k", tmp_path, seed=11), 60)
    assert result["failed"] > 0
    assert any("execution_path" in f for f in result["failures"])


@pytest.mark.parametrize("name", ["scalar_512", "shards2_65k", "faults_256", "hf_real"])
def test_traced_run_partitions_the_pass_and_removes_its_seams(name, tmp_path):
    import worker

    def bindings():
        import repro  # noqa: F401

        found = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, val in vars(mod).items():
                if callable(val):
                    found[(mod_name, key)] = val
                if isinstance(val, type) and val.__module__.startswith("repro"):
                    for attr, raw in vars(val).items():
                        found[(mod_name, key, attr)] = raw
        return found

    import layers  # noqa: F401  (imports every module a seam lives in)

    before = bindings()
    result = worker.run(
        {**_spec(name, tmp_path, trace=True, seconds=0.3), "t_spawn": time.time()}
    )
    after = bindings()
    assert result["failed"] == 0, result["failures"]
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"still rebound after the traced run: {changed}"
    assert not __import__("gc").callbacks
    # self times + host.unattributed_s add up to the traced pass wall
    assert result["layers"]["partition_gap"] < 0.01
    trace = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert trace["traceEvents"] and all(
        {"name", "ts", "dur", "ph"} <= set(e) for e in trace["traceEvents"]
    )


def test_compare_flags_regressions(tmp_path):
    import compare

    def results(wall, failed=0):
        q = lambda v: {"value": v, "n": 9, "min": v * 0.99, "max": v * 1.01,
                       "q1": v * 0.995, "q3": v * 1.005}
        row = {
            "attempted": 10, "failed": failed, "disturbed": False, "work": 100,
            "work_unit": "u",
            "end_to_end": {"wall_s": q(wall), "work_per_s": q(100 / wall),
                           "setup_s": q(1.0), "peak_rss_mb": q(50.0)},
        }
        return {"header": {}, "rows": {name: dict(row) for name in WORKLOAD_NAMES}}

    assert compare.compare(results(1.0), results(1.05), MANIFEST) == 0
    assert compare.compare(results(1.0), results(1.3), MANIFEST) == 1
    assert compare.compare(results(1.0), results(1.0, failed=1), MANIFEST) == 1
    noisy = results(1.0)
    for row in noisy["rows"].values():
        row["end_to_end"]["wall_s"].update(q1=0.8, q3=1.2, min=0.7, max=1.4)
    # a spread wider than the bound is unresolved, never a regression
    assert compare.compare(noisy, results(1.3), MANIFEST) == 1  # work_per_s still regresses
    assert compare.judge(
        noisy["rows"]["hf_real"]["end_to_end"]["wall_s"],
        results(1.3)["rows"]["hf_real"]["end_to_end"]["wall_s"], "lower", 0.2,
    )[0] == "unresolved"
