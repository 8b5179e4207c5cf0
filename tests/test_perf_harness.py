"""``repro perf``'s payload: virtual results only, byte-identical reruns."""

import pytest

from repro.harness.perf import run_perf, write_bench_json

HOST_TIME_KEYS = {
    "best_s",
    "walls_s",
    "obs_best_s",
    "obs_walls_s",
    "obs_ratio",
    "protocol",
    "shard_windows",
    "shard_metrics",
}


def _keys(node):
    """Every dict key at any depth of a JSON-shaped value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


@pytest.fixture(scope="module")
def payloads():
    return run_perf(quick=True), run_perf(quick=True)


def test_two_quick_runs_write_byte_identical_files(tmp_path, payloads):
    first = write_bench_json(payloads[0], tmp_path / "a.json").read_bytes()
    second = write_bench_json(payloads[1], tmp_path / "b.json").read_bytes()
    assert first == second


def test_payload_carries_no_host_time(payloads):
    assert not HOST_TIME_KEYS & set(_keys(payloads[0]))


def test_payload_keeps_the_virtual_sections(payloads):
    payload = payloads[0]
    assert set(payload) == {"benchmark", "micro", "macro", "collectives", "serve"}
    leg = payload["macro"]["256-4-16"]
    assert leg["path"] == "vector" and leg["metrics"]["events_total"] > 0
