"""Unit tests for the CI reporting layer (repro.analysis.report)."""

import json
import textwrap

from repro.analysis import lint_source
from repro.analysis.findings import Severity
from repro.analysis.report import (
    apply_baseline,
    load_baseline,
    render_stats,
    to_sarif,
    write_baseline,
)

BAD_PROGRAM = textwrap.dedent(
    """\
    def program(ctx):
        yield from ctx.recv(source=0)
        ctx.send(1, "x", tag=7)
    """
)


def bad_report(**kw):
    return lint_source(BAD_PROGRAM, **kw)


class TestSarif:
    def test_log_structure(self):
        log = json.loads(to_sarif(bad_report()))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {r["id"] for r in driver["rules"]}
        # every registered rule is described, firing or not
        assert {"VMPI001", "VMPI004", "DET003", "DOC001"} <= rule_ids
        for r in driver["rules"]:
            assert r["fullDescription"]["text"]
            assert r["defaultConfiguration"]["level"] in ("error", "warning")

    def test_result_location_and_level(self):
        log = json.loads(to_sarif(bad_report(rule_ids=["VMPI001"])))
        (res,) = log["runs"][0]["results"]
        assert res["ruleId"] == "VMPI001"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "<memory>"
        assert loc["region"]["startLine"] == 3

    def test_hint_folded_into_message(self):
        log = json.loads(to_sarif(bad_report(rule_ids=["VMPI001"])))
        (res,) = log["runs"][0]["results"]
        assert "(fix:" in res["message"]["text"]

    def test_clean_report_has_empty_results(self):
        report = lint_source("X = 1\n", rule_ids=["VMPI001"])
        log = json.loads(to_sarif(report))
        assert log["runs"][0]["results"] == []


class TestBaseline:
    def test_write_load_roundtrip(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        assert write_baseline(report, path) == 1
        baseline = load_baseline(path)
        assert sum(baseline.values()) == 1
        ((rule, fpath, _msg),) = baseline
        assert rule == "VMPI001" and fpath == "<memory>"

    def test_apply_moves_matches_to_baselined(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        fresh = bad_report(rule_ids=["VMPI001"])
        matched = apply_baseline(fresh, load_baseline(path))
        assert len(matched) == 1
        assert fresh.findings == []
        assert fresh.baselined == matched
        assert fresh.exit_code == 0

    def test_matching_ignores_line_number(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        # same defect shifted down two lines by an unrelated edit
        shifted = lint_source("# hdr\n# hdr\n" + BAD_PROGRAM, rule_ids=["VMPI001"])
        assert apply_baseline(shifted, load_baseline(path))
        assert shifted.findings == []

    def test_duplicated_defect_is_not_pardoned_twice(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        # a second copy of the same dead send: one occurrence is
        # baselined, the duplicate must still fail
        doubled = lint_source(
            BAD_PROGRAM + "\n\n"
            + BAD_PROGRAM.replace("def program", "def program2"),
            rule_ids=["VMPI001"],
        )
        apply_baseline(doubled, load_baseline(path))
        assert len(doubled.findings) == 1
        assert len(doubled.baselined) == 1

    def test_baselined_findings_in_json_output(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        fresh = bad_report(rule_ids=["VMPI001"])
        apply_baseline(fresh, load_baseline(path))
        payload = json.loads(fresh.to_json())
        assert payload["findings"] == []
        (entry,) = payload["baselined"]
        assert entry["rule"] == "VMPI001"

    def test_render_text_counts_baselined(self, tmp_path):
        report = bad_report(rule_ids=["VMPI001"])
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        fresh = bad_report(rule_ids=["VMPI001"])
        apply_baseline(fresh, load_baseline(path))
        assert "1 baselined" in fresh.render_text()


class TestStats:
    def test_per_rule_timings_listed(self):
        report = bad_report()
        out = render_stats(report)
        assert "rule timings" in out
        assert "VMPI001" in out and "VMPI004" in out
        assert "ms" in out

    def test_cache_counters(self):
        report = bad_report()
        assert "cache: disabled" in render_stats(report)
        report.cache_hits = 3
        report.cache_misses = 1
        assert "3 hit(s), 1 miss(es)" in render_stats(report)

    def test_severity_enum_is_closed(self):
        # SARIF levels depend on the two-member severity enum
        assert {s.value for s in Severity} == {"error", "warning"}
