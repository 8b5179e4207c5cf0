"""CLI entry points (fast paths only)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_has_all_commands():
    parser = build_parser()
    for cmd in ("train", "fig1a", "fig1b", "breakdown", "table1", "scaling", "calibrate"):
        args = parser.parse_args([cmd])
        assert args.command == cmd
        assert callable(args.func)


def test_parser_has_trace_command():
    parser = build_parser()
    args = parser.parse_args(["trace", "4096-4-16"])
    assert args.command == "trace" and args.target == "4096-4-16"
    assert args.out == "trace.json" and args.metrics is None and not args.p2p
    args = parser.parse_args(
        ["trace", "8-1-16", "--out", "t.json", "--metrics", "m.jsonl", "--p2p"]
    )
    assert (args.out, args.metrics, args.p2p) == ("t.json", "m.jsonl", True)
    with pytest.raises(SystemExit):
        parser.parse_args(["trace"])  # target is required


def test_perf_and_train_take_obs_flag():
    parser = build_parser()
    assert parser.parse_args(["perf", "--obs", "m.jsonl"]).obs == "m.jsonl"
    assert parser.parse_args(["train", "--obs", "m.jsonl"]).obs == "m.jsonl"
    assert parser.parse_args(["train"]).obs is None


def test_shared_flags_after_subcommand():
    parser = build_parser()
    args = parser.parse_args(["train", "--iters", "3", "--hours", "5", "--seed", "9"])
    assert args.iters == 3 and args.hours == 5.0 and args.seed == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1a", "--hours", "0"],
        ["fig1b", "--hours", "-1"],
        ["breakdown", "--hours", "nan"],
        ["train", "--iters", "0"],
        ["train", "--hidden", "-3"],
        ["table1", "--scale", "-1"],
        ["scaling", "--hidden", "0"],
        ["calibrate", "--hours", "inf"],
    ],
)
def test_shared_numbers_are_validated_at_parse_time(capsys, argv):
    """The first five used to end in a traceback with exit 1 (``--hours
    nan``: "cannot convert float NaN to integer"); the last three ran
    with exit 0."""
    cmd, flag, value = argv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"repro {cmd}: error: argument {flag}: must be finite and > 0, got {value}"
    )


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_train_command_runs(capsys):
    rc = main(["train", "--iters", "1", "--scale", "5e-5", "--hidden", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final held-out loss" in out


def test_calibrate_command_runs(capsys):
    rc = main(["calibrate", "--iters", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cg_iters" in out


@pytest.mark.parametrize(
    "shards,message",
    [("0", "shards must be >= 1, got 0"), ("3", "power of two")],
)
def test_perf_rejects_a_bad_shard_count_in_one_line(capsys, shards, message):
    """``--shards 0`` used to print a single-shard row as if asked for,
    and ``--shards 3`` exited 1 where every other bad input exits 2."""
    assert main(["perf", "--quick", "--shards", shards]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro perf: --shards {shards}: ") and message in err
    assert err.count("\n") == 1


def test_perf_rejects_speculate_without_shards(capsys):
    """``--speculate`` alone used to run one process and report
    ``path='vector'``: there are no shard windows to speculate on."""
    assert main(["perf", "--quick", "--speculate"]) == 2
    err = capsys.readouterr().err
    assert err == "repro perf: --speculate: needs --shards N with N >= 2\n"


@pytest.mark.parametrize(
    "ranks,bad", [("abc", "'abc'"), ("-4", "'-4'"), ("0", "'0'"), ("4,,x", "''")]
)
def test_perf_rejects_a_bad_rank_list_in_one_line(capsys, ranks, bad):
    """``--ranks abc`` used to be a traceback, and ``--ranks=-4`` said
    only "invalid literal for int() with base 10: ''"."""
    assert main(["perf", "--quick", f"--ranks={ranks}"]) == 2
    err = capsys.readouterr().err
    assert err == f"repro perf: --ranks {ranks}: {bad} is not a positive rank count\n"


def test_perf_repeats_flag_is_gone():
    """``repro perf`` measures no host time, so there is nothing to repeat."""
    with pytest.raises(SystemExit) as exc:
        main(["perf", "--repeats", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "content,reason", [("not json", "Expecting value"), ("[1, 2]", "not a JSON object")]
)
def test_perf_serve_json_rejects_an_unusable_target(tmp_path, capsys, content, reason):
    """``--serve --json --out F`` over a non-JSON or non-object ``F``
    used to end in a ``JSONDecodeError`` traceback."""
    target = tmp_path / "bench.json"
    target.write_text(content)
    assert main(["perf", "--serve", "--json", "--quick", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro perf: {target}: ") and reason in err
    assert err.count("\n") == 1
    assert target.read_text() == content


@pytest.mark.parametrize(
    "content,reason",
    [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('{"events": [{"kind": "crash"}]}', "events[0]: unknown kind 'crash'"),
    ],
)
@pytest.mark.parametrize("cmd", ["trace", "report", "serve", "train"])
def test_unusable_fault_plan_is_one_line_and_exit_2(tmp_path, capsys, cmd, content, reason):
    """A missing, non-JSON or unknown-kind plan used to be a traceback."""
    plan = tmp_path / "plan.json"
    if content is not None:
        plan.write_text(content)
    target = ["64-4-16"] if cmd in ("trace", "report") else []
    assert main([cmd, *target, "--fault-plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {cmd}: {plan}: ") and reason in err
    assert err.count("\n") == 1


def test_report_rejects_a_bad_shape_in_one_line(capsys):
    """``repro report 63-4-16`` used to traceback out of ``RunShape``."""
    assert main(["report", "63-4-16"]) == 2
    assert capsys.readouterr().err == (
        "repro report: 63-4-16: ranks (63) not divisible by ranks_per_node (4)\n"
    )


@pytest.mark.parametrize("rule", ["VMPI006", "VMPI007"])
def test_lint_select_of_a_retired_rule_exits_2(tmp_path, capsys, monkeypatch, rule):
    """The static payload/orphan pairing rules were retired; selecting
    one is a usage error, not a silently empty run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.py").write_text("X = 1\n")
    assert main(["lint", "--select", rule, "m.py"]) == 2
    assert f"unknown rule id(s): ['{rule}']" in capsys.readouterr().err


def test_python_dash_m_repro_is_the_cli():
    """``python -m repro`` used to fail with "No module named
    repro.__main__"."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: repro lint")


@pytest.mark.parametrize(
    "extra", [[], ["--autoscale", "--min-replicas", "1"]], ids=["fixed", "autoscaled"]
)
def test_serve_with_every_replica_lost_prints_the_result(tmp_path, capsys, extra):
    """A plan that crashes both replicas used to end ``repro serve`` in a
    ``DeadlockError`` traceback, or, with ``--autoscale``, never end."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "events": [{"kind": "node_crash", "rank": r, "at": 0.5} for r in (1, 2)]
    }))
    argv = ["serve", "--replicas", "2", "--horizon", "2", "--fault-plan", str(plan)]
    assert main(argv + extra) == 0
    out = capsys.readouterr().out
    counts = re.search(
        r"requests: (\d+) generated, (\d+) admitted, (\d+) completed, "
        r"(\d+) dropped, (\d+) timed out, (\d+) failed",
        out,
    )
    assert counts, out
    generated, admitted, completed, dropped, timed_out, failed = map(int, counts.groups())
    assert failed > 0
    assert generated == admitted + dropped
    assert admitted == completed + timed_out + failed
    assert "excluded replicas: r" in out
    assert "latency: n/a (no request completed)" in out
    assert "nan" not in out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--autoscale", "--min-replicas", "0"], "min_replicas must be >= 1, got 0"),
        (["--autoscale", "--warmup-s", "-1"], "warmup_s must be finite and >= 0"),
        (["--horizon", "nan"], "horizon_s must be finite and > 0, got nan"),
        (["--timeout-s", "nan"], "request_timeout_s must be finite"),
    ],
)
def test_serve_rejects_bad_flags_in_one_line(flags, message):
    """Bad autoscale flags used to print a ``ValueError`` traceback;
    ``--horizon nan`` ran and reported NaN latencies with exit 0, and
    ``--timeout-s nan`` silently meant "no deadline"."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *flags],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith(f"repro serve: {message}")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr
