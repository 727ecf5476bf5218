"""The bench regression gate (``benchmarks/compare.py``)."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def make_baseline() -> dict:
    """A small synthetic baseline covering every scenario shape."""
    return {
        "schema": compare.SCHEMA,
        "quick": False,
        "scenarios": {
            "table1_table2": {
                "scale": 0.25,
                "limit": 256,
                "documents": [
                    {
                        "document": "doc.xml",
                        "nodes": 100,
                        "total_weight": 500,
                        "algorithms": {
                            "ekm": {
                                "seconds": 0.1,
                                "partitions": 5,
                                "root_weight": 20,
                            },
                            "dhw": {
                                "seconds": 1.0,
                                "partitions": 4,
                                "root_weight": 18,
                                "dp_cells": 1234,
                            },
                        },
                    }
                ],
            },
            "table3": {
                "scale": 0.02,
                "nodes": 1000,
                "partitions": {"km": 50, "ekm": 30},
                "queries": {
                    "Q1": {
                        "km": {"cost": 10.0, "results": 7, "cross_ratio": 0.2},
                        "ekm": {"cost": 6.0, "results": 7, "cross_ratio": 0.1},
                    }
                },
            },
            "bulkload": {
                "scale": 0.25,
                "runs": [
                    {
                        "spill_threshold": None,
                        "seconds": 0.2,
                        "partitions": 100,
                        "peak_resident_weight": 5000,
                        "spills": 0,
                        "events": 9000,
                    }
                ],
            },
            "overhead": {
                "nodes": 4000,
                "overhead_fraction": 0.01,
            },
            "recovery": {
                "seed": 2006,
                "scale": 0.01,
                "limit": 64,
                "batches": 5,
                "ops_per_batch": 120,
                "repeats": 5,
                "nodes": 27000,
                "plain_seconds": 0.5,
                "wal_seconds": 0.52,
                "overhead_fraction": 0.04,
                "identical_bytes": True,
                "recovery": {
                    "seconds": 0.7,
                    "records_redone": 123,
                    "replayed_transactions": [5],
                    "recovered_identical": True,
                },
                "crash_matrix": {
                    "scenarios": 15,
                    "passed": 15,
                    "ok": True,
                    "failures": [],
                },
            },
        },
    }


class TestSyntheticBaselines:
    def test_identical_baselines_pass(self):
        base = make_baseline()
        cmp = compare.compare_baselines(base, copy.deepcopy(base))
        assert cmp.regressions == []

    def test_timing_regression_over_threshold_fails(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        cell = new["scenarios"]["table1_table2"]["documents"][0]["algorithms"]["dhw"]
        cell["seconds"] = 2.0  # +100% over a 0.60 threshold
        cmp = compare.compare_baselines(base, new)
        assert any("dhw.seconds" in r for r in cmp.regressions)

    def test_timing_below_absolute_floor_ignored(self):
        base = make_baseline()
        cell = base["scenarios"]["table1_table2"]["documents"][0]["algorithms"]["ekm"]
        cell["seconds"] = 0.001
        new = copy.deepcopy(base)
        new["scenarios"]["table1_table2"]["documents"][0]["algorithms"]["ekm"][
            "seconds"
        ] = 0.004  # +300%, but within the 5ms jitter floor
        cmp = compare.compare_baselines(base, new)
        assert cmp.regressions == []

    def test_timing_improvement_passes(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        cell = new["scenarios"]["table1_table2"]["documents"][0]["algorithms"]["dhw"]
        cell["seconds"] = 0.1
        cmp = compare.compare_baselines(base, new)
        assert cmp.regressions == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (
                lambda s: s["table1_table2"]["documents"][0]["algorithms"]["ekm"]
                .__setitem__("partitions", 6),
                "ekm.partitions",
            ),
            (
                lambda s: s["table1_table2"]["documents"][0]["algorithms"]["dhw"]
                .__setitem__("dp_cells", 9999),
                "dhw.dp_cells",
            ),
            (
                lambda s: s["table3"]["queries"]["Q1"]["ekm"].__setitem__("cost", 7.5),
                "ekm.cost",
            ),
            (
                lambda s: s["bulkload"]["runs"][0].__setitem__("spills", 3),
                "spills",
            ),
        ],
    )
    def test_deterministic_metric_drift_fails(self, mutate, fragment):
        base = make_baseline()
        new = copy.deepcopy(base)
        mutate(new["scenarios"])
        cmp = compare.compare_baselines(base, new)
        assert any(fragment in r for r in cmp.regressions), cmp.regressions

    def test_overhead_budget_enforced_on_new_baseline_only(self):
        base = make_baseline()
        base["scenarios"]["overhead"]["overhead_fraction"] = 0.5  # old may be bad
        new = copy.deepcopy(base)
        new["scenarios"]["overhead"]["overhead_fraction"] = 0.031
        cmp = compare.compare_baselines(base, new)
        assert any("overhead_fraction" in r for r in cmp.regressions)
        new["scenarios"]["overhead"]["overhead_fraction"] = 0.02
        cmp = compare.compare_baselines(base, new)
        assert cmp.regressions == []

    def test_quick_full_mix_is_not_comparable(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        new["quick"] = True
        with pytest.raises(compare.NotComparable):
            compare.compare_baselines(base, new)

    def test_missing_scenario_is_not_comparable(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        del new["scenarios"]["bulkload"]
        with pytest.raises(compare.NotComparable):
            compare.compare_baselines(base, new)


class TestMainExitCodes:
    def write(self, tmp_path, name, payload) -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_ok_exit_zero(self, tmp_path, capsys):
        base = make_baseline()
        old = self.write(tmp_path, "old.json", base)
        new = self.write(tmp_path, "new.json", base)
        assert compare.main([str(old), str(new)]) == 0
        assert "no regressions" in capsys.readouterr().err

    def test_regression_exit_one(self, tmp_path, capsys):
        base = make_baseline()
        worse = copy.deepcopy(base)
        worse["scenarios"]["table3"]["queries"]["Q1"]["ekm"]["cost"] = 9.0
        old = self.write(tmp_path, "old.json", base)
        new = self.write(tmp_path, "new.json", worse)
        assert compare.main([str(old), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_schema_mismatch_exit_two(self, tmp_path, capsys):
        base = make_baseline()
        foreign = copy.deepcopy(base)
        foreign["schema"] = "something-else/9"
        old = self.write(tmp_path, "old.json", base)
        new = self.write(tmp_path, "new.json", foreign)
        assert compare.main([str(old), str(new)]) == 2
        assert "not comparable" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        base = self.write(tmp_path, "old.json", make_baseline())
        assert compare.main([str(base), str(tmp_path / "absent.json")]) == 2


class TestRecoveryGate:
    def test_wal_overhead_budget_enforced_on_full_baselines(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["overhead_fraction"] = 0.12
        cmp = compare.compare_baselines(base, new)
        assert any("overhead_fraction" in r and "budget" in r for r in cmp.regressions)

    def test_quick_baselines_skip_the_overhead_budget(self):
        base = make_baseline()
        base["quick"] = True
        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["overhead_fraction"] = 0.25
        cmp = compare.compare_baselines(base, new)
        assert cmp.regressions == []

    def test_crash_safety_invariants_gate_even_quick_runs(self):
        base = make_baseline()
        base["quick"] = True
        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["identical_bytes"] = False
        cmp = compare.compare_baselines(base, new)
        assert any("identical_bytes" in r for r in cmp.regressions)

        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["recovery"]["recovered_identical"] = False
        cmp = compare.compare_baselines(base, new)
        assert any("recovered_identical" in r for r in cmp.regressions)

        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["crash_matrix"]["ok"] = False
        new["scenarios"]["recovery"]["crash_matrix"]["passed"] = 14
        cmp = compare.compare_baselines(base, new)
        assert any("crash_matrix" in r for r in cmp.regressions)

    def test_redo_drift_is_deterministic_metric_drift(self):
        base = make_baseline()
        new = copy.deepcopy(base)
        new["scenarios"]["recovery"]["recovery"]["records_redone"] = 99
        cmp = compare.compare_baselines(base, new)
        assert any("records_redone" in r for r in cmp.regressions)

    def test_gate_runs_even_when_old_lacks_the_scenario(self):
        base = make_baseline()
        del base["scenarios"]["recovery"]  # e.g. comparing against PR7
        new = make_baseline()
        new["scenarios"]["recovery"]["crash_matrix"]["ok"] = False
        cmp = compare.compare_baselines(base, new)
        assert any("crash_matrix.ok" in r for r in cmp.regressions)


class TestCommittedBaselines:
    def test_pr2_to_pr4_gate_passes(self):
        old = json.loads((REPO_ROOT / "BENCH_PR2.json").read_text())
        new = json.loads((REPO_ROOT / "BENCH_PR4.json").read_text())
        cmp = compare.compare_baselines(old, new)
        assert cmp.regressions == [], cmp.regressions

    def test_pr4_to_pr5_gate_passes(self):
        old = json.loads((REPO_ROOT / "BENCH_PR4.json").read_text())
        new = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
        cmp = compare.compare_baselines(old, new)
        assert cmp.regressions == [], cmp.regressions

    def test_committed_new_baseline_meets_overhead_budget(self):
        new = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
        fraction = new["scenarios"]["overhead"]["overhead_fraction"]
        assert fraction < compare.OVERHEAD_BUDGET

    def test_committed_baseline_clears_fastpath_floors(self):
        # History: BENCH_PR5 is the last baseline with a reference path to
        # time the kernel against (dhw >= 2x on the duplicated-subtree
        # document, >= 1.3x on the corpus); later harness runs have no
        # such scenario and compare.py no longer gates one.
        new = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
        rows = new["scenarios"]["fastpath"]["rows"]
        assert rows, "committed baseline must include fastpath rows"
        for row in rows:
            assert row["identical"], row
            if row["algorithm"] == "dhw":
                floor = 2.0 if row["workload"] == "duplicated_subtrees" else 1.3
                assert row["speedup"] >= floor, row

    def test_committed_recovery_baseline_passes_its_gate(self):
        assert compare.check_recovery_baseline(REPO_ROOT / "BENCH_PR8.json") == 0

    def test_committed_recovery_baseline_meets_wal_budget(self):
        new = json.loads((REPO_ROOT / "BENCH_PR8.json").read_text())
        scenario = new["scenarios"]["recovery"]
        assert scenario["overhead_fraction"] < compare.WAL_OVERHEAD_BUDGET
        assert scenario["identical_bytes"]
        assert scenario["recovery"]["recovered_identical"]
        matrix = scenario["crash_matrix"]
        assert matrix["ok"] and matrix["passed"] == matrix["scenarios"]
