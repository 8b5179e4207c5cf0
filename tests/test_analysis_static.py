"""Unit tests for the static rank-program verifier."""

import json
import textwrap

import pytest

from repro.analysis import all_rules, lint_paths, lint_source
from repro.analysis.findings import Severity
from repro.cli import main


def lint(code, **kw):
    return lint_source(textwrap.dedent(code), **kw)


# ------------------------------------------------------- VMPI001 unconsumed
class TestUnconsumedComm:
    def test_bare_send_flagged_with_location(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(1, "payload", tag=7)
            """
        )
        (f,) = report.findings
        assert f.rule == "VMPI001"
        assert f.severity is Severity.ERROR
        assert f.line == 3
        assert "yield from" in f.hint

    def test_yield_from_is_clean(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.send(1, "x")
                msg = yield from ctx.recv(source=1)
                return msg
            """
        )
        assert report.findings == []

    def test_plain_yield_flagged(self):
        report = lint(
            """\
            def program(ctx):
                yield ctx.send(1, "x")
            """
        )
        (f,) = report.findings
        assert f.rule == "VMPI001" and "generator object" in f.message

    def test_assignment_without_yield_from_flagged(self):
        report = lint(
            """\
            def program(ctx):
                msg = ctx.recv(source=0)
                yield from ctx.send(1, msg)
            """
        )
        assert any(f.rule == "VMPI001" and f.line == 2 for f in report.findings)

    def test_return_of_comm_call_in_generator_flagged(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.send(1, "x")
                return ctx.recv(source=1)
            """
        )
        assert any(f.rule == "VMPI001" and f.line == 3 for f in report.findings)

    def test_collective_function_bare_call_flagged(self):
        report = lint(
            """\
            def program(ctx):
                bcast(ctx, "w", root=0)
                yield from barrier(ctx)
            """
        )
        assert any(f.rule == "VMPI001" and f.line == 2 for f in report.findings)

    def test_thread_backend_blocking_calls_not_flagged(self):
        # the thread communicator is blocking, not a generator: its
        # conventional receiver name `comm` is exempt
        report = lint(
            """\
            def program(comm):
                comm.send(1, "x")
                return comm.recv(source=1)
            """
        )
        assert report.findings == []

    def test_delegation_wrapper_not_flagged(self):
        # a non-generator helper returning the sub-generator for the
        # caller to `yield from` is legitimate delegation
        report = lint(
            """\
            def ping(ctx):
                return ctx.send(1, "x", tag=3)
            """,
        )
        assert report.findings == []


# ------------------------------------------------- VMPI002 rank-branch coll
class TestRankBranchCollective:
    def test_one_sided_collective_flagged(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=0)
                else:
                    yield from ctx.recv(source=0)
            """
        )
        (f,) = report.findings
        assert f.rule == "VMPI002"
        assert "bcast" in f.message

    def test_matching_collectives_clean(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=0)
                else:
                    yield from bcast(ctx, None, root=0)
            """
        )
        assert report.findings == []

    def test_p2p_asymmetry_is_fine(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from ctx.send(1, "x")
                else:
                    yield from ctx.recv(source=0)
            """
        )
        assert report.findings == []

    def test_non_rank_branch_ignored(self):
        report = lint(
            """\
            def program(ctx, mode):
                if mode == "fast":
                    yield from bcast(ctx, "w", root=0)
                else:
                    yield from barrier(ctx)
            """
        )
        assert report.findings == []


# ------------------------------------------------ VMPI005 root consistency
class TestCollectiveRootMismatch:
    def test_diverging_roots_flagged(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=0)
                else:
                    yield from bcast(ctx, None, root=1)
            """
        )
        (f,) = report.findings
        assert f.rule == "VMPI005"
        assert f.severity is Severity.WARNING
        assert "root=0" in f.message and "root=1" in f.message
        assert f.line == 3

    def test_omitted_root_is_literal_zero(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from reduce(ctx, x)
                else:
                    yield from reduce(ctx, x, "sum", 2)
            """
        )
        (f,) = report.findings
        assert f.rule == "VMPI005"
        assert "root=0" in f.message and "root=2" in f.message

    def test_matching_roots_clean(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from gather(ctx, x, root=3)
                else:
                    yield from gather(ctx, x, root=3)
            """
        )
        assert report.findings == []

    def test_dynamic_root_skipped(self):
        report = lint(
            """\
            def program(ctx, leader):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=leader)
                else:
                    yield from bcast(ctx, None, root=0)
            """
        )
        assert report.findings == []

    def test_rootless_collectives_skipped(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from allreduce(ctx, 1.0)
                else:
                    yield from allreduce(ctx, 0.0)
            """
        )
        assert report.findings == []

    def test_schedule_divergence_left_to_vmpi002(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=0)
                else:
                    yield from reduce(ctx, x, root=1)
            """
        )
        assert [f.rule for f in report.findings] == ["VMPI002"]

    def test_noqa_suppresses(self):
        report = lint(
            """\
            def program(ctx):
                if ctx.rank == 0:
                    yield from bcast(ctx, "w", root=0)  # repro: noqa(VMPI005)
                else:
                    yield from bcast(ctx, None, root=1)
            """
        )
        assert not any(f.rule == "VMPI005" for f in report.findings)
        assert any(s.rule == "VMPI005" for s in report.suppressed)


# ------------------------------------------------------ VMPI003 wildcard recv
class TestWildcardRecv:
    def test_wildcard_and_tagged_in_loop_flagged(self):
        report = lint(
            """\
            def program(ctx):
                for _ in range(8):
                    msg = yield from ctx.recv()
                    ack = yield from ctx.recv(source=msg.src, tag=5)
            """,
        )
        (f,) = report.findings
        assert f.rule == "VMPI003" and f.line == 3

    def test_tagged_wildcard_source_ok(self):
        report = lint(
            """\
            def program(ctx):
                for _ in range(8):
                    msg = yield from ctx.recv(source=ANY_SOURCE, tag=9)
                    ack = yield from ctx.recv(source=msg.src, tag=5)
            """,
        )
        assert report.findings == []

    def test_single_wildcard_recv_loop_ok(self):
        report = lint(
            """\
            def program(ctx):
                for _ in range(8):
                    msg = yield from ctx.recv()
            """
        )
        assert report.findings == []


# ------------------------------------------------------------ DET rules
class TestDeterminismRules:
    def test_direct_default_rng_flagged(self):
        report = lint("rng = np.random.default_rng(3)\n")
        (f,) = report.findings
        assert f.rule == "DET001" and "spawn" in f.hint

    def test_stdlib_random_flagged(self):
        report = lint("import random\nx = random.random()\n")
        assert any(f.rule == "DET001" for f in report.findings)

    def test_spawn_is_clean(self):
        report = lint("from repro.util.rng import spawn\nrng = spawn(0, 'w', 3)\n")
        assert report.findings == []

    def test_tests_dir_exempt_from_det_rules(self):
        report = lint(
            "rng = np.random.default_rng(3)\n", path="tests/test_x.py"
        )
        assert report.findings == []

    def test_sum_over_set_flagged(self):
        report = lint("total = sum({0.1, 0.2, 0.7})\n")
        (f,) = report.findings
        assert f.rule == "DET002"

    def test_sum_over_dict_values_flagged(self):
        report = lint("total = sum(d.values())\n")
        (f,) = report.findings
        assert f.rule == "DET002"

    def test_sum_over_sorted_clean(self):
        report = lint("total = sum(d[k] for k in sorted(d))\n")
        assert report.findings == []

    def test_sum_over_list_clean(self):
        report = lint("total = sum([0.1, 0.2])\n")
        assert report.findings == []


# -------------------------------------------------------------- suppression
class TestSuppression:
    def test_noqa_moves_finding_to_suppressed(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(1, "x")  # repro: noqa(VMPI001) intentional for test
            """
        )
        assert report.findings == []
        (s,) = report.suppressed
        assert s.rule == "VMPI001"

    def test_noqa_other_rule_does_not_suppress(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(1, "x")  # repro: noqa(DET001)
            """
        )
        assert any(f.rule == "VMPI001" for f in report.findings)

    def test_noqa_star_suppresses_everything(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(1, "x")  # repro: noqa(*) test fixture
            """
        )
        assert report.findings == []

    # spelled in pieces so the self-lint of this file sees no live noqa
    NOQA = "# repro: " + "noqa"

    def test_unknown_rule_in_noqa_is_reported(self):
        report = lint(f"x = 1  {self.NOQA}(VMPI099) typo\n")
        (f,) = report.findings
        assert (f.rule, f.line, f.severity) == ("NOQA000", 1, Severity.WARNING)
        assert "'VMPI099'" in f.message

    def test_retired_rule_in_noqa_is_reported(self):
        report = lint(f"x = 1  {self.NOQA}(DET001, VMPI006)\n")
        assert [(f.rule, f.message) for f in report.findings] == [
            ("NOQA000", "suppression names unknown rule 'VMPI006'")
        ]

    def test_known_rule_outside_select_is_not_stale(self):
        report = lint(f"x = 1  {self.NOQA}(VMPI001) fine\n", rule_ids=["DET001"])
        assert report.findings == []

    def test_stale_noqa_fails_the_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.py").write_text(f"x = 1  {self.NOQA}(VMPI099)\n")
        assert main(["lint", "--no-cache", "m.py"]) == 1
        assert "NOQA000" in capsys.readouterr().out


# ------------------------------------------------------ VMPI004 tag collision
class TestTagCollision:
    def test_reserved_band_constant_flagged(self):
        report = lint(
            "ACK_TAG = 1_000_008\n", path="src/proto.py", rule_ids=["VMPI004"]
        )
        (f,) = report.findings
        assert f.rule == "VMPI004"
        assert "reserved" in f.message
        assert f.severity is Severity.WARNING

    def test_reserved_band_literal_tag_argument_flagged(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.send(1, "x", tag=2_000_000)
            """,
            path="src/proto.py",
        )
        assert any(
            f.rule == "VMPI004" and "tag=2000000" in f.message
            for f in report.findings
        )

    def test_below_band_constant_clean(self):
        report = lint("TAG_DATA = 77\n", path="src/proto.py")
        assert [f for f in report.findings if f.rule == "VMPI004"] == []

    def test_non_tag_name_ignored(self):
        # 'vintage' contains the letters t-a-g but is not a tag segment
        report = lint("VINTAGE = 1_500_000\nSTAGE_LIMIT = 3_000_000\n")
        assert [f for f in report.findings if f.rule == "VMPI004"] == []

    def test_cross_module_collision_reported_once_per_later_module(self, tmp_path):
        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        (tmp_path / "b_proto.py").write_text("ACK_TAG = 55\n")
        report = lint_paths([tmp_path], rule_ids=["VMPI004"])
        (f,) = report.findings
        assert f.rule == "VMPI004"
        assert "collides" in f.message
        assert f.path.endswith("b_proto.py")
        assert "a_proto.py" in f.message

    def test_distinct_values_across_modules_clean(self, tmp_path):
        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        (tmp_path / "b_proto.py").write_text("ACK_TAG = 56\n")
        report = lint_paths([tmp_path], rule_ids=["VMPI004"])
        assert report.findings == []

    def test_same_module_duplicate_not_a_collision(self, tmp_path):
        # two names for one value inside one module is a local style
        # choice, not cross-protocol cross-talk
        (tmp_path / "a_proto.py").write_text("TAG_A = 55\nTAG_B = 55\n")
        report = lint_paths([tmp_path], rule_ids=["VMPI004"])
        assert report.findings == []

    def test_collision_suppressible_at_site(self, tmp_path):
        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        (tmp_path / "b_proto.py").write_text(
            "ACK_TAG = 55  # repro: noqa(VMPI004) shares a_proto's stream\n"
        )
        report = lint_paths([tmp_path], rule_ids=["VMPI004"])
        assert report.findings == []
        (s,) = report.suppressed
        assert s.rule == "VMPI004"

    def test_tests_dir_exempt(self):
        report = lint("SCRATCH_TAG = 9_999_999\n", path="tests/test_x.py")
        assert report.findings == []

    def test_runs_are_independent(self, tmp_path):
        # state from one lint run must not leak collisions into the next
        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        lint_paths([tmp_path], rule_ids=["VMPI004"])
        report = lint("OTHER_TAG = 55\n", path="src/other.py")
        assert [f for f in report.findings if f.rule == "VMPI004"] == []


# ------------------------------------------------------------ infrastructure
class TestInfrastructure:
    def test_registry_has_the_five_seed_rules(self):
        ids = {r.info.id for r in all_rules()}
        assert {"VMPI001", "VMPI002", "VMPI003", "DET001", "DET002"} <= ids

    def test_registry_has_vmpi004(self):
        ids = {r.info.id for r in all_rules()}
        assert "VMPI004" in ids

    def test_syntax_error_becomes_parse_finding(self):
        report = lint("def broken(:\n")
        (f,) = report.findings
        assert f.rule == "PARSE000" and f.severity is Severity.ERROR

    def test_rule_selection(self):
        code = """\
        def program(ctx):
            yield from ctx.recv(source=0)
            ctx.send(1, "x")
            rng = np.random.default_rng()
        """
        only_det = lint(code, rule_ids=["DET001"])
        assert {f.rule for f in only_det.findings} == {"DET001"}
        with pytest.raises(KeyError):
            lint(code, rule_ids=["NOPE999"])

    def test_lint_paths_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])

    def test_rule_constants_track_the_collectives_module(self):
        """The rules restate two facts of ``vmpi.collectives`` — its
        reserved tag band (VMPI004) and its public function names
        (VMPI001/002/005); a rename there must not silently drop coverage."""
        from repro.analysis.astutil import COLLECTIVE_FUNCTIONS
        from repro.analysis.tag_rules import RESERVED_TAG_BASE
        from repro.vmpi import collectives

        assert RESERVED_TAG_BASE == collectives._COLL_TAG_BASE
        assert COLLECTIVE_FUNCTIONS == set(collectives.__all__) - {"binomial_levels"}


# ----------------------------------------------------------------- CLI gate
class TestLintCli:
    def seeded_violation(self, tmp_path):
        bad = tmp_path / "bad_program.py"
        bad.write_text(
            "def program(ctx):\n"
            "    yield from ctx.recv(source=0)\n"
            "    ctx.send(1, 'x', tag=7)\n"
        )
        return bad

    def test_exit_1_with_rule_id_and_location(self, tmp_path, capsys):
        bad = self.seeded_violation(tmp_path)
        rc = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "VMPI001" in out
        assert f"{bad.name}:3" in out

    def test_clean_file_exits_0(self, tmp_path, capsys):
        good = tmp_path / "good_program.py"
        good.write_text(
            "def program(ctx):\n    yield from ctx.send(1, 'x')\n"
        )
        assert main(["lint", str(good)]) == 0

    def test_json_output(self, tmp_path, capsys):
        bad = self.seeded_violation(tmp_path)
        rc = main(["lint", "--json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["exit_code"] == 1
        assert payload["findings"][0]["rule"] == "VMPI001"
        assert payload["findings"][0]["line"] == 3

    def test_rule_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "VMPI001" in out and "DET002" in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        assert main(["lint", "--select", "NOPE999", str(tmp_path)]) == 2


# --------------------------------------------------- DOC001 docstring coverage
class TestDocstringCoverage:
    """DOC001 only fires on paths under ``src/`` (the library tree)."""

    def doc_lint(self, code, path="src/repro/mod.py"):
        return lint(code, path=path, rule_ids=["DOC001"])

    def test_missing_module_class_and_function_docstrings(self):
        report = self.doc_lint(
            """\
            import os


            class Widget:
                def render(self):
                    a = 1
                    return a


            def helper(x):
                y = x + 1
                return y
            """
        )
        got = {(f.line, f.message.split("'")[1] if "'" in f.message else "<module>")
               for f in report.findings}
        assert got == {(1, "<module>"), (4, "Widget"), (5, "render"), (10, "helper")}
        assert all(f.severity is Severity.WARNING for f in report.findings)

    def test_documented_tree_is_clean(self):
        report = self.doc_lint(
            '''\
            """Module docstring."""


            class Widget:
                """A documented class."""

                def render(self):
                    """Render it."""
                    a = 1
                    return a
            '''
        )
        assert report.findings == []

    def test_private_nested_and_trivial_exempt(self):
        report = self.doc_lint(
            '''\
            """Module docstring."""


            def _private(x):
                y = x + 1
                return y


            def delegate(x):
                return _private(x)


            class _Hidden:
                def inside_private_class(self):
                    a = 1
                    return a


            def factory():
                """Build a closure (its body is implementation detail)."""
                def nested(x):
                    y = x * 2
                    return y
                return nested
            '''
        )
        assert report.findings == []

    def test_paths_outside_src_are_exempt(self):
        report = self.doc_lint("import os\n", path="tests/test_mod.py")
        assert report.findings == []

    def test_inline_suppression(self):
        report = self.doc_lint(
            '''\
            """Module docstring."""


            def bare(x):  # repro: noqa(DOC001) - signature is the doc
                y = x + 1
                return y
            '''
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DOC001"]


# ------------------------------------------------- DOC002 live paths in docs
class TestDocPaths:
    """DOC002 over a fixture checkout: a tree and a markdown text."""

    @pytest.fixture
    def root(self, tmp_path):
        for rel in ("src/repro/dist/script.py", "src/repro/dist/simulated.py",
                    "tests/test_faults.py", "examples/faults/crash.json"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("")
        return tmp_path

    def test_live_paths_pass(self, root):
        from repro.analysis.doc_rules import stale_doc_paths

        text = (
            "The table lives in `dist/script.py` (`src/repro/dist/`),\n"
            "pinned by `tests/test_faults.py::TestPolicyGoldens`; see\n"
            "`dist/{script,gone}.py`, `examples/faults/*.json`, and\n"
            "`compute/comm` ratios, `src/…` and `Engine.run` are not paths.\n"
        )
        assert stale_doc_paths(text, root) == []

    def test_stale_paths_are_located(self, root):
        from repro.analysis.doc_rules import stale_doc_paths

        text = (
            "`dist/master.py` went away;\n"
            "so did `src/repro/dist/engine.py` and `tests/test_*_gone.py`.\n"
        )
        assert stale_doc_paths(text, root) == [
            (1, "dist/master.py"),
            (2, "src/repro/dist/engine.py"),
            (2, "tests/test_*_gone.py"),
        ]

    def test_rule_reports_into_this_checkouts_documents(self, monkeypatch):
        """Every lint run reads DESIGN.md and README.md, which are clean."""
        from repro.analysis import doc_rules

        assert lint("x = 1\n", rule_ids=["DOC002"]).findings == []
        monkeypatch.setattr(
            doc_rules, "stale_doc_paths", lambda text, root: [(3, "dist/gone.py")]
        )
        found = lint("x = 1\n", rule_ids=["DOC002"]).findings
        assert [(f.path, f.line) for f in found] == [("DESIGN.md", 3), ("README.md", 3)]


# ------------------------------------------------ DET003 wall-clock in DES
class TestWallClock:
    def wlint(self, code, path="src/repro/sim/mod.py"):
        return lint(code, path=path, rule_ids=["DET003"])

    def test_des_package_module_flagged(self):
        report = self.wlint(
            """\
            import time

            def stamp():
                return time.time()
            """
        )
        (f,) = report.findings
        assert f.rule == "DET003"
        assert "time.time" in f.message and f.line == 4

    def test_rank_program_outside_des_dirs_flagged(self):
        report = self.wlint(
            """\
            import time

            def program(ctx):
                t0 = time.perf_counter()
                yield from ctx.send(1, "x")
                return time.perf_counter() - t0
            """,
            path="src/repro/dist/prog.py",
        )
        assert len(report.findings) == 2
        assert all("perf_counter" in f.message for f in report.findings)

    def test_plain_function_outside_des_dirs_clean(self):
        # harness-side benchmarking measures the simulator from outside
        report = self.wlint(
            """\
            import time

            def bench():
                return time.perf_counter()
            """,
            path="src/repro/harness/bench.py",
        )
        assert report.findings == []

    def test_virtual_time_clean(self):
        report = self.wlint(
            """\
            def program(ctx):
                t0 = ctx.now
                yield from ctx.send(1, "x")
                ctx.record_span("phase", t0)
            """,
            path="src/repro/dist/prog.py",
        )
        assert report.findings == []

    def test_tests_dir_exempt(self):
        report = self.wlint(
            "import time\nT0 = time.time()\n", path="tests/sim/test_x.py"
        )
        assert report.findings == []

    def test_suppressed(self):
        report = self.wlint(
            """\
            import time

            def stamp():
                return time.time()  # repro: noqa(DET003) host timestamp for log files only
            """
        )
        assert report.findings == []
        (s,) = report.suppressed
        assert s.rule == "DET003"


# ----------------------------------------- DET004 per-rank loop in SPMD code
class TestSpmdRankLoop:
    def slint(self, code, path="src/repro/dist/vec.py"):
        return lint(code, path=path, rule_ids=["DET004"])

    def test_range_over_rank_count_in_marked_function(self):
        report = self.slint(
            """\
            def charge(engine, costs):
                # repro: spmd-vectorized
                for r in range(engine.ranks):
                    costs[r] += 1.0
            """
        )
        (f,) = report.findings
        assert f.rule == "DET004"
        assert "range(engine.ranks)" in f.message and f.line == 3

    def test_direct_iteration_over_ranks_in_marked_module(self):
        report = self.slint(
            """\
            # repro: spmd-vectorized

            def drain(engine):
                for r in engine.ranks:
                    r.flush()
            """
        )
        (f,) = report.findings
        assert f.rule == "DET004" and "engine.ranks" in f.message

    def test_marker_above_def_scopes_to_that_function_only(self):
        report = self.slint(
            """\
            # repro: spmd-vectorized
            def fast(run):
                for r in range(run.size):
                    pass

            def slow(run):
                for r in range(run.size):
                    pass
            """
        )
        (f,) = report.findings
        assert f.line == 3  # only the marked function's loop

    def test_level_and_class_loops_clean(self):
        # O(log p) / O(classes) loops are exactly what marked code keeps
        report = self.slint(
            """\
            # repro: spmd-vectorized

            def sweep(run):
                for level in run.levels:
                    pass
                for i in range(run.n_iterations):
                    pass
            """
        )
        assert report.findings == []

    def test_unmarked_code_exempt(self):
        report = self.slint(
            """\
            def scalar(engine):
                for r in range(engine.ranks):
                    pass
            """
        )
        assert report.findings == []

    def test_tests_dir_exempt(self):
        report = self.slint(
            """\
            # repro: spmd-vectorized
            def check(engine):
                for r in range(engine.ranks):
                    pass
            """,
            path="tests/test_vec.py",
        )
        assert report.findings == []

    def test_suppressed(self):
        report = self.slint(
            """\
            # repro: spmd-vectorized

            def debug_dump(engine):
                for r in range(engine.ranks):  # repro: noqa(DET004) cold diagnostic path
                    print(r)
            """
        )
        assert report.findings == []
        (s,) = report.suppressed
        assert s.rule == "DET004"


class TestSpmdMarkerAudit:
    """Audit of the real SPMD fast-path modules: they must carry the
    module-wide ``# repro: spmd-vectorized`` marker, lint clean under
    DET004, and — the fixture half — an unmarked per-rank loop slipped
    into any of them must be caught."""

    MODULES = (
        "src/repro/dist/vectorized.py",
        "src/repro/sim/shard.py",
    )

    @staticmethod
    def _read(rel):
        import pathlib

        return (pathlib.Path(__file__).resolve().parents[1] / rel).read_text()

    @pytest.mark.parametrize("rel", MODULES)
    def test_fast_path_module_marked_and_clean(self, rel):
        src = self._read(rel)
        assert "# repro: spmd-vectorized" in src, rel
        report = lint_source(src, path=rel, rule_ids=["DET004"])
        assert report.findings == [], rel

    @pytest.mark.parametrize("rel", MODULES)
    def test_unmarked_rank_loop_in_fast_path_module_caught(self, rel):
        probe = (
            "\n\ndef _audit_probe(engine, costs):\n"
            "    for r in range(engine.ranks):\n"
            "        costs[r] += 1.0\n"
        )
        report = lint_source(self._read(rel) + probe, path=rel, rule_ids=["DET004"])
        (f,) = report.findings
        assert f.rule == "DET004" and "range(engine.ranks)" in f.message, rel


# -------------------------------------------------------- multi-line noqa
class TestMultilineNoqa:
    def test_noqa_on_any_physical_line_of_statement(self):
        # the finding is reported at the call's opening line; the noqa
        # sits on the closing-paren line — regression for the span fix
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(
                    1,
                    "payload",
                )  # repro: noqa(VMPI001) fixture: multi-line statement
            """
        )
        assert report.findings == []
        (s,) = report.suppressed
        assert s.rule == "VMPI001" and s.line == 3

    def test_noqa_on_interior_argument_line(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(
                    1,  # repro: noqa(VMPI001) fixture: interior line
                    "payload",
                )
            """
        )
        assert report.findings == []
        assert [s.rule for s in report.suppressed] == ["VMPI001"]

    def test_compound_header_noqa_does_not_blanket_body(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                if True:  # repro: noqa(VMPI001) header-scoped only
                    ctx.send(1, "x")
            """
        )
        assert any(f.rule == "VMPI001" and f.line == 4 for f in report.findings)

    def test_wrong_rule_on_other_line_still_no_suppress(self):
        report = lint(
            """\
            def program(ctx):
                yield from ctx.recv(source=0)
                ctx.send(
                    1,
                    "payload",
                )  # repro: noqa(DET001)
            """
        )
        assert any(f.rule == "VMPI001" for f in report.findings)


# ------------------------------------------------------------- lint cache
class TestLintCache:
    def fresh_cache(self, tmp_path, rule_ids=None):
        from repro.analysis.cache import LintCache, analysis_signature

        return LintCache(tmp_path / "cache.json", analysis_signature(rule_ids))

    def test_warm_run_replays_identical_report(self, tmp_path):
        from repro.analysis.cache import LintCache, analysis_signature

        target = tmp_path / "prog.py"
        target.write_text(
            "def program(ctx):\n"
            "    yield from ctx.recv(source=0)\n"
            "    ctx.send(1, 'x')  # repro: noqa(VMPI001) fixture\n"
        )
        sig = analysis_signature(None)
        cache_file = tmp_path / "cache.json"
        c1 = LintCache(cache_file, sig)
        r1 = lint_paths([target], cache=c1)
        c1.save()
        c2 = LintCache(cache_file, sig)
        r2 = lint_paths([target], cache=c2)
        assert c2.hits == 1 and c2.misses == 0
        assert [f.to_dict() for f in r2.findings] == [f.to_dict() for f in r1.findings]
        assert [f.to_dict() for f in r2.suppressed] == [f.to_dict() for f in r1.suppressed]

    def test_edited_file_invalidates_its_entry(self, tmp_path):
        from repro.analysis.cache import LintCache, analysis_signature

        target = tmp_path / "prog.py"
        target.write_text("def program(ctx):\n    yield from ctx.send(1, 'x')\n")
        sig = analysis_signature(None)
        cache_file = tmp_path / "cache.json"
        c1 = LintCache(cache_file, sig)
        assert lint_paths([target], cache=c1).findings == []
        c1.save()
        # introduce a violation: the re-lint must pick it up, not replay
        target.write_text(
            "def program(ctx):\n"
            "    yield from ctx.recv(source=0)\n"
            "    ctx.send(1, 'x')\n"
        )
        c2 = LintCache(cache_file, sig)
        report = lint_paths([target], cache=c2)
        assert c2.misses == 1
        assert [f.rule for f in report.findings] == ["VMPI001"]

    def test_cross_module_findings_survive_full_cache_replay(self, tmp_path):
        # run-level rules (tag collisions, protocol pairing) must stay
        # exact when every file is served from the cache
        from repro.analysis.cache import LintCache, analysis_signature

        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        (tmp_path / "b_proto.py").write_text("ACK_TAG = 55\n")
        sig = analysis_signature(["VMPI004"])
        cache_file = tmp_path / "cache.json"
        c1 = LintCache(cache_file, sig)
        r1 = lint_paths([tmp_path], rule_ids=["VMPI004"], cache=c1)
        c1.save()
        c2 = LintCache(cache_file, sig)
        r2 = lint_paths([tmp_path], rule_ids=["VMPI004"], cache=c2)
        assert c2.misses == 0 and c2.hits == 2
        assert [f.to_dict() for f in r1.findings] == [f.to_dict() for f in r2.findings]
        assert any("collides" in f.message for f in r2.findings)

    def test_cached_suppressions_apply_to_finish_run_findings(self, tmp_path):
        from repro.analysis.cache import LintCache, analysis_signature

        (tmp_path / "a_proto.py").write_text("TAG_RESULT = 55\n")
        (tmp_path / "b_proto.py").write_text(
            "ACK_TAG = 55  # repro: noqa(VMPI004) shares a_proto's stream\n"
        )
        sig = analysis_signature(["VMPI004"])
        cache_file = tmp_path / "cache.json"
        c1 = LintCache(cache_file, sig)
        lint_paths([tmp_path], rule_ids=["VMPI004"], cache=c1)
        c1.save()
        c2 = LintCache(cache_file, sig)
        report = lint_paths([tmp_path], rule_ids=["VMPI004"], cache=c2)
        assert report.findings == []
        assert [s.rule for s in report.suppressed] == ["VMPI004"]

    def test_analyzer_edit_invalidates_signature(self, tmp_path):
        from repro.analysis.cache import LintCache

        target = tmp_path / "prog.py"
        target.write_text("X = 1\n")
        cache_file = tmp_path / "cache.json"
        c1 = LintCache(cache_file, "signature-one")
        lint_paths([target], cache=c1)
        c1.save()
        c2 = LintCache(cache_file, "signature-two")
        lint_paths([target], cache=c2)
        assert c2.hits == 0 and c2.misses == 1

    def test_version_1_cache_is_discarded_and_rewritten(self, tmp_path):
        # version-1 entries carry findings and summaries of the retired
        # VMPI006/VMPI007 rules: a matching signature must not replay them
        from repro.analysis.cache import LintCache, content_hash

        (tmp_path / "prog.py").write_text("X = 1\n")
        cache_file = tmp_path / "cache.json"
        stale = {
            "rule": "VMPI006", "severity": "warning", "path": "prog.py",
            "line": 1, "message": "stale", "hint": "",
        }
        cache_file.write_text(json.dumps({
            "version": 1,
            "signature": "sig",
            "files": {"prog.py": {
                "sha": content_hash("X = 1\n"),
                "findings": [stale],
                "suppressed": [],
                "suppressions": {},
                "summaries": {"VMPI006": {"endpoints": []}},
            }},
        }))
        cache = LintCache(cache_file, "sig")
        report = lint_paths(["prog.py"], root=tmp_path, cache=cache)
        assert report.findings == []
        assert cache.hits == 0 and cache.misses == 1
        cache.save()
        data = json.loads(cache_file.read_text())
        assert data["version"] == 2
        assert data["files"]["prog.py"]["findings"] == []
        assert "VMPI006" not in data["files"]["prog.py"]["summaries"]
        warm = LintCache(cache_file, "sig")
        lint_paths(["prog.py"], root=tmp_path, cache=warm)
        assert warm.hits == 1

    def test_corrupt_cache_file_degrades_to_full_lint(self, tmp_path):
        from repro.analysis.cache import LintCache

        target = tmp_path / "prog.py"
        target.write_text("X = 1\n")
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json at all")
        cache = LintCache(cache_file, "sig")
        report = lint_paths([target], cache=cache)
        assert report.files_checked == 1
        cache.save()  # must rewrite a valid file
        assert LintCache(cache_file, "sig").lookup is not None

    def test_warm_cache_at_least_3x_faster_over_src(self, tmp_path):
        # acceptance criterion: warm-cache lint over src/ >= 3x cold
        import time as _time
        from pathlib import Path

        from repro.analysis.cache import LintCache, analysis_signature

        repo_root = Path(__file__).resolve().parents[1]
        sig = analysis_signature(None)
        cache_file = tmp_path / "cache.json"
        t0 = _time.perf_counter()
        c1 = LintCache(cache_file, sig)
        r1 = lint_paths(["src"], root=repo_root, cache=c1)
        c1.save()
        cold = _time.perf_counter() - t0
        t1 = _time.perf_counter()
        c2 = LintCache(cache_file, sig)
        r2 = lint_paths(["src"], root=repo_root, cache=c2)
        warm = _time.perf_counter() - t1
        assert c2.misses == 0 and c2.hits == r2.files_checked
        assert [f.to_dict() for f in r1.findings] == [f.to_dict() for f in r2.findings]
        assert warm * 3 <= cold, f"warm {warm:.3f}s not 3x faster than cold {cold:.3f}s"


# --------------------------------------------------- CI-grade reporting
class TestReporting:
    def seeded_violation(self, tmp_path):
        bad = tmp_path / "bad_program.py"
        bad.write_text(
            "def program(ctx):\n"
            "    yield from ctx.recv(source=0)\n"
            "    ctx.send(1, 'x', tag=7)\n"
        )
        return bad

    def test_sarif_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self.seeded_violation(tmp_path)
        rc = main(["lint", "--format", "sarif", str(bad)])
        log = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"VMPI004", "DET003"} <= rule_ids
        (res,) = [r for r in run["results"] if r["ruleId"] == "VMPI001"]
        assert res["level"] == "error"
        assert res["locations"][0]["physicalLocation"]["region"]["startLine"] == 3

    def test_sarif_to_file_with_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self.seeded_violation(tmp_path)
        out = tmp_path / "lint.sarif"
        rc = main(["lint", "--format", "sarif", "--out", str(out), str(bad)])
        assert rc == 1
        assert json.loads(out.read_text())["version"] == "2.1.0"

    def test_baseline_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self.seeded_violation(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        assert main(["lint", "--write-baseline", str(baseline), str(bad)]) == 0
        capsys.readouterr()
        # baselined findings no longer fail the run ...
        rc = main(["lint", "--baseline", str(baseline), str(bad)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 baselined" in out
        # ... but a new finding still does
        bad.write_text(
            bad.read_text() + "\n\ndef extra(ctx):\n"
            "    yield from ctx.recv(source=0)\n"
            "    ctx.send(2, 'y', tag=8)\n"
        )
        rc = main(["lint", "--baseline", str(baseline), str(bad)])
        assert rc == 1

    def test_stats_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("def program(ctx):\n    yield from ctx.send(1, 'x')\n")
        rc = main(["lint", "--stats", str(good)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rule timings" in out
        assert "VMPI004" in out and "cache:" in out

    def test_cli_cache_used_across_invocations(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("def program(ctx):\n    yield from ctx.send(1, 'x')\n")
        assert main(["lint", str(good)]) == 0
        assert (tmp_path / ".repro_lint_cache.json").exists()
        capsys.readouterr()
        assert main(["lint", "--stats", str(good)]) == 0
        assert "1 hit(s)" in capsys.readouterr().out

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("def program(ctx):\n    yield from ctx.send(1, 'x')\n")
        assert main(["lint", "--no-cache", str(good)]) == 0
        assert not (tmp_path / ".repro_lint_cache.json").exists()


class TestNewRuleRegistry:
    def test_registry_has_the_protocol_and_wallclock_rules(self):
        ids = {r.info.id for r in all_rules()}
        assert {"VMPI004", "VMPI005", "DET003"} <= ids
        assert not {"VMPI006", "VMPI007"} & ids
