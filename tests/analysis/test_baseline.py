"""Baseline suppression workflow and SARIF export, library and CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import cli
from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.passes import Violation
from repro.analysis.sarif import to_sarif
from repro.analysis.passes import select_passes
from repro.errors import ReproError


def v(path="src/repro/x.py", lineno=10, code="CC003", message="boom"):
    return Violation(path=path, lineno=lineno, code=code, message=message)


class TestApplyBaseline:
    def test_matching_finding_suppressed(self):
        entries = [BaselineEntry(path="src/repro/x.py", code="CC003", message="boom")]
        result = apply_baseline([v()], entries)
        assert result.remaining == []
        assert result.suppressed == 1
        assert result.stale == []
        assert result.clean

    def test_line_moves_do_not_invalidate(self):
        entries = [BaselineEntry(path="src/repro/x.py", code="CC003", message="boom")]
        result = apply_baseline([v(lineno=99)], entries)
        assert result.clean

    def test_count_budget_exposes_new_duplicate(self):
        entries = [
            BaselineEntry(
                path="src/repro/x.py", code="CC003", message="boom", count=1
            )
        ]
        result = apply_baseline([v(lineno=10), v(lineno=50)], entries)
        assert len(result.remaining) == 1
        assert result.suppressed == 1
        assert not result.stale

    def test_stale_entry_reported(self):
        entries = [
            BaselineEntry(path="src/repro/x.py", code="CC003", message="boom"),
            BaselineEntry(path="src/repro/gone.py", code="LIN001", message="old"),
        ]
        result = apply_baseline([v()], entries)
        assert result.remaining == []
        assert [e.path for e in result.stale] == ["src/repro/gone.py"]
        assert not result.clean

    def test_suffix_path_matching_absolute_vs_relative(self):
        entries = [BaselineEntry(path="src/repro/x.py", code="CC003", message="boom")]
        absolute = v(path="/ci/checkout/src/repro/x.py")
        assert apply_baseline([absolute], entries).clean
        # and the reverse: absolute baseline, relative finding
        entries = [
            BaselineEntry(
                path="/dev/box/src/repro/x.py", code="CC003", message="boom"
            )
        ]
        assert apply_baseline([v()], entries).clean

    def test_different_code_or_message_not_suppressed(self):
        entries = [BaselineEntry(path="src/repro/x.py", code="CC003", message="boom")]
        assert apply_baseline([v(code="CC001")], entries).remaining
        assert apply_baseline([v(message="other")], entries).remaining


class TestBaselineFile:
    def test_write_then_load_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        count = write_baseline(target, [v(), v(lineno=50), v(code="LIN002")])
        assert count == 2  # two distinct fingerprints, one with count 2
        entries = load_baseline(target)
        by_code = {e.code: e for e in entries}
        assert by_code["CC003"].count == 2
        assert by_code["LIN002"].count == 1
        assert apply_baseline([v(), v(lineno=50), v(code="LIN002")], entries).clean

    def test_malformed_json_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_baseline(target)

    def test_wrong_version_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ReproError, match="unsupported version"):
            load_baseline(target)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_baseline(tmp_path / "nope.json")


class TestSarif:
    def test_log_shape_and_rule_binding(self):
        passes = select_passes(select=["CC"])
        log = to_sarif([v()], passes)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["CC001", "CC003"]
        (result,) = run["results"]
        assert result["ruleId"] == "CC003"
        assert result["ruleIndex"] == rule_ids.index("CC003")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/x.py"
        assert location["region"]["startLine"] == 10


GUARDED = """
import threading

_lock = threading.Lock()
_jobs = []  # repro: guarded-by(_lock)


def enqueue(job):
    _jobs.append(job)
"""


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "guarded.py").write_text(textwrap.dedent(GUARDED))
    return tmp_path


class TestCliBaselineWorkflow:
    def test_update_baseline_then_gate_is_clean(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "analysis-baseline.json"
        assert (
            cli.main(
                [
                    "--baseline", str(baseline), "--update-baseline",
                    str(dirty_tree / "guarded.py"),
                ]
            )
            == cli.EXIT_CLEAN
        )
        assert "updated" in capsys.readouterr().out
        assert (
            cli.main(
                ["--baseline", str(baseline), str(dirty_tree / "guarded.py")]
            )
            == cli.EXIT_CLEAN
        )
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out

    def test_stale_entry_fails_gate(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "analysis-baseline.json"
        cli.main(
            [
                "--baseline", str(baseline), "--update-baseline",
                str(dirty_tree / "guarded.py"),
            ]
        )
        # fix the finding: the baseline entry goes stale
        (dirty_tree / "guarded.py").write_text(
            textwrap.dedent(GUARDED).replace(
                "    _jobs.append(job)",
                "    with _lock:\n        _jobs.append(job)",
            )
        )
        capsys.readouterr()
        assert (
            cli.main(["--baseline", str(baseline), str(dirty_tree / "guarded.py")])
            == cli.EXIT_VIOLATIONS
        )
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "--update-baseline" in err

    def test_new_finding_fails_gate_despite_baseline(
        self, dirty_tree, tmp_path, capsys
    ):
        baseline = tmp_path / "analysis-baseline.json"
        cli.main(
            [
                "--baseline", str(baseline), "--update-baseline",
                str(dirty_tree / "guarded.py"),
            ]
        )
        source = (dirty_tree / "guarded.py").read_text()
        (dirty_tree / "guarded.py").write_text(
            source
            + textwrap.dedent(
                """

                def enqueue_front(job):
                    _jobs.insert(0, job)
                """
            )
        )
        capsys.readouterr()
        assert (
            cli.main(["--baseline", str(baseline), str(dirty_tree / "guarded.py")])
            == cli.EXIT_VIOLATIONS
        )
        out = capsys.readouterr().out
        assert "enqueue_front" not in out  # message text, not function name
        assert "CC001" in out

    def test_update_without_baseline_path_is_usage_error(self, dirty_tree, capsys):
        assert (
            cli.main(["--update-baseline", str(dirty_tree / "guarded.py")])
            == cli.EXIT_ERROR
        )
        assert "--baseline" in capsys.readouterr().err

    def test_malformed_baseline_is_analysis_error(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "broken.json"
        baseline.write_text("[]")
        assert (
            cli.main(["--baseline", str(baseline), str(dirty_tree / "guarded.py")])
            == cli.EXIT_ERROR
        )


class TestCliSarifAndFilters:
    def test_sarif_format_to_stdout(self, dirty_tree, capsys):
        assert (
            cli.main(["--format", "sarif", str(dirty_tree / "guarded.py")])
            == cli.EXIT_VIOLATIONS
        )
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "CC001"

    def test_sarif_output_file(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "report.sarif"
        assert (
            cli.main(
                [
                    "--format", "sarif", "--output", str(report),
                    str(dirty_tree / "guarded.py"),
                ]
            )
            == cli.EXIT_VIOLATIONS
        )
        assert "report written" in capsys.readouterr().out
        log = json.loads(report.read_text())
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_family_prefix_select(self, dirty_tree, capsys):
        assert (
            cli.main(["--select", "CC", str(dirty_tree / "guarded.py")])
            == cli.EXIT_VIOLATIONS
        )
        out = capsys.readouterr().out
        assert "CC001" in out
        assert (
            cli.main(["--select", "LIN", str(dirty_tree / "guarded.py")])
            == cli.EXIT_CLEAN
        )

    def test_family_prefix_ignore(self, dirty_tree, capsys):
        assert (
            cli.main(["--ignore", "CC", str(dirty_tree / "guarded.py")])
            == cli.EXIT_CLEAN
        )

    def test_unknown_family_prefix_is_usage_error(self, dirty_tree, capsys):
        assert (
            cli.main(["--select", "ZZ", str(dirty_tree / "guarded.py")])
            == cli.EXIT_ERROR
        )
        assert "ZZ" in capsys.readouterr().err
