"""The end-to-end fault matrix (marked ``faults``: slower than unit tests)."""

from __future__ import annotations

import inspect

import pytest

from repro.bulkload import bulk_import
from repro.cli import main
from repro.faults import cli as faults_cli
from repro.faults.matrix import MatrixReport, FaultScenario, run_fault_matrix, store_fingerprint
from repro.storage.store import DocumentStore


@pytest.fixture(scope="module")
def small_matrix():
    return run_fault_matrix(
        scale=0.002, limit=64, spill_threshold=256, max_crash_points=3, max_flip_pages=3
    )


@pytest.mark.faults
class TestMatrix:
    def test_all_scenarios_pass(self, small_matrix):
        assert small_matrix.ok, small_matrix.summary()

    def test_covers_crash_flip_and_torn(self, small_matrix):
        names = [s.name for s in small_matrix.scenarios]
        assert any(n.startswith("crash@bulkload.spill") for n in names)
        assert any(n.startswith("crash@bulkload.finalize") for n in names)
        assert any(n.startswith("bitflip@") for n in names)
        assert any(n.startswith("torn@") for n in names)

    def test_summary_mentions_every_scenario(self, small_matrix):
        summary = small_matrix.summary()
        for scenario in small_matrix.scenarios:
            assert scenario.name in summary

    def test_cli_smoke(self, capsys):
        assert main(["faults", "--crash-points", "1", "--flip-pages", "1", "--scale", "0.002"]) == 0
        assert "scenarios passed" in capsys.readouterr().out


class TestCliScale:
    """``--scale`` reaches the matrix as given; without it each matrix
    keeps its own default document size."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("run_fault_matrix", "run_update_crash_matrix"):
            real = getattr(faults_cli, name)

            def fake(*args, _real=real, **kwargs):
                bound = inspect.signature(_real).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.append((_real.__name__, bound.arguments["scale"]))
                return MatrixReport()

            monkeypatch.setattr(faults_cli, name, fake)
        return seen

    def test_explicit_default_scale_reaches_update_matrix(self, calls, capsys):
        assert main(["faults", "--updates", "--scale", "0.004"]) == 0
        assert calls == [("run_update_crash_matrix", 0.004)]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ([], ("run_fault_matrix", 0.004)),
            (["--updates"], ("run_update_crash_matrix", 0.002)),
            (["--scale", "0.002"], ("run_fault_matrix", 0.002)),
        ],
    )
    def test_scale_per_mode(self, calls, capsys, argv, expected):
        assert main(["faults", *argv]) == 0
        assert calls == [expected]


class TestReportModel:
    def test_failed_report_is_not_ok(self):
        report = MatrixReport(
            scenarios=[
                FaultScenario("a", "page.read:bitflip", True),
                FaultScenario("b", "page.write:torn", False, "boom"),
            ]
        )
        assert not report.ok
        assert report.passed == 1
        assert report.failed == 1
        assert [s.name for s in report.failures()] == ["b"]
        assert "boom" in report.summary()


class TestStoreFingerprint:
    def test_identical_builds_have_equal_fingerprints(self):
        first = bulk_import("<a><b>text</b><c/></a>", limit=8)
        second = bulk_import("<a><b>text</b><c/></a>", limit=8)
        fp1 = store_fingerprint(DocumentStore.build(first.tree, first.partitioning))
        fp2 = store_fingerprint(DocumentStore.build(second.tree, second.partitioning))
        assert fp1 == fp2

    def test_different_documents_differ(self):
        first = bulk_import("<a><b>text</b></a>", limit=8)
        second = bulk_import("<a><b>texU</b></a>", limit=8)
        fp1 = store_fingerprint(DocumentStore.build(first.tree, first.partitioning))
        fp2 = store_fingerprint(DocumentStore.build(second.tree, second.partitioning))
        assert fp1 != fp2
