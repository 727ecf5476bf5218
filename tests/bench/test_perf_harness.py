"""The perf-baseline harness and the committed BENCH_PR5.json baseline."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
HARNESS = REPO_ROOT / "benchmarks" / "harness.py"
BASELINE = REPO_ROOT / "BENCH_PR5.json"

SCHEMA = "repro-bench/1"
SCENARIOS = {"table1_table2", "table3", "bulkload", "overhead"}
TABLE_ALGORITHMS = {"dhw", "ghdw", "ekm", "rs", "dfs", "km", "bfs"}


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        assert BASELINE.exists(), "committed baseline BENCH_PR5.json missing"
        return json.loads(BASELINE.read_text())

    def test_schema_and_scenarios(self, baseline):
        assert baseline["schema"] == SCHEMA
        # the committed file predates the single kernel: it also carries
        # the retired kernel-vs-reference scenario
        assert set(baseline["scenarios"]) == SCENARIOS | {"fastpath"}
        assert baseline["quick"] is False

    def test_environment_fingerprint(self, baseline):
        env = baseline["environment"]
        for key in ("repro_version", "python", "platform", "timestamp_utc"):
            assert key in env

    def test_table_scenarios_cover_corpus_and_algorithms(self, baseline):
        docs = baseline["scenarios"]["table1_table2"]["documents"]
        assert len(docs) == 6  # the whole paper corpus
        for doc in docs:
            assert set(doc["algorithms"]) == TABLE_ALGORITHMS
            for name, cell in doc["algorithms"].items():
                assert cell["seconds"] > 0
                assert cell["partitions"] >= 1
                assert cell["root_weight"] >= 1
                assert 0.0 <= cell["buffer"]["hit_ratio"] <= 1.0
            # the DP algorithms carry their table sizes
            assert doc["algorithms"]["dhw"]["dp_cells"] > 0
            assert doc["algorithms"]["ghdw"]["dp_cells"] > 0

    def test_table3_has_buffer_stats_per_layout(self, baseline):
        t3 = baseline["scenarios"]["table3"]
        assert set(t3["buffer"]) == {"km", "ekm"}
        for stats in t3["buffer"].values():
            assert 0.0 <= stats["hit_ratio"] <= 1.0
        assert t3["queries"]

    def test_disabled_overhead_under_three_percent(self, baseline):
        overhead = baseline["scenarios"]["overhead"]
        assert overhead["overhead_fraction"] < 0.03
        assert overhead["bare_seconds"] > 0
        assert overhead["repeats"] >= 10


class TestHarnessQuickRun:
    @pytest.fixture(scope="class")
    def quick_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "quick.json"
        proc = subprocess.run(
            [sys.executable, str(HARNESS), "--quick", "--check", "--output", str(out)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return proc, json.loads(out.read_text())

    def test_check_validates_committed_baseline(self, quick_run):
        proc, _ = quick_run
        assert "baseline BENCH_PR5.json OK" in proc.stderr

    def test_quick_output_shape(self, quick_run):
        _, data = quick_run
        assert data["schema"] == SCHEMA
        assert data["quick"] is True
        assert set(data["scenarios"]) == SCENARIOS

    def test_quick_table_cells_measured(self, quick_run):
        _, data = quick_run
        for doc in data["scenarios"]["table1_table2"]["documents"]:
            for cell in doc["algorithms"].values():
                assert cell["seconds"] > 0
                assert cell["partitions"] >= 1

    def test_bulkload_spill_rows(self, quick_run):
        _, data = quick_run
        runs = data["scenarios"]["bulkload"]["runs"]
        unbounded = next(r for r in runs if r["spill_threshold"] is None)
        bounded = next(r for r in runs if r["spill_threshold"] is not None)
        assert unbounded["spills"] == 0
        assert bounded["spills"] >= 0
        assert bounded["peak_resident_weight"] <= unbounded["peak_resident_weight"]
