"""Benchmark harness: experiments run, formats render, CLI works."""

import pytest

from repro.bench.experiments import (
    format_table1,
    format_table2,
    run_partitioning_experiment,
)
from repro.bench.table3 import format_table3, run_query_experiment
from repro.bench.ablations import (
    format_gap,
    format_k_sweep,
    format_memoization,
    format_spill,
    run_gap_ablation,
    run_k_sweep,
    run_memoization_ablation,
    run_spill_ablation,
)
from repro.bench.figures import format_figures
from repro.datasets.registry import PAPER_DOCUMENTS


FAST_ALGOS = ("ghdw", "ekm", "rs", "dfs", "km", "bfs")


class TestTables12:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_partitioning_experiment(
            algorithms=FAST_ALGOS, scale=0.05, documents=PAPER_DOCUMENTS[:3]
        )

    def test_rows_complete(self, rows):
        assert len(rows) == 3
        for row in rows:
            assert set(row.cells) == set(FAST_ALGOS)
            assert row.weight_over_k >= 1

    def test_counts_at_least_lower_bound(self, rows):
        for row in rows:
            for cell in row.cells.values():
                assert cell.partitions >= row.weight_over_k

    def test_paper_reference_attached(self, rows):
        for row in rows:
            assert row.cells["ekm"].paper_partitions is not None
            assert row.cells["ekm"].paper_seconds is not None

    def test_table1_shape_matches_paper(self, rows):
        """Qualitative Table 1 orderings: sibling algorithms beat KM and
        BFS on every document; GHDW is never worse than RS."""
        for row in rows:
            cells = row.cells
            for sibling in ("ghdw", "ekm", "rs"):
                assert cells[sibling].partitions < cells["km"].partitions
                assert cells[sibling].partitions < cells["bfs"].partitions
            assert cells["ghdw"].partitions <= cells["rs"].partitions

    def test_formatting(self, rows):
        t1 = format_table1(rows)
        t2 = format_table2(rows)
        assert "Table 1" in t1 and "SigmodRecord.xml" in t1
        assert "Table 2" in t2
        assert "Paper reference" in t1


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_query_experiment(scale=0.004)

    def test_ekm_wins_all_queries(self, result):
        for qid in result.runs:
            assert result.speedup(qid) > 1.0, qid

    def test_result_counts_positive(self, result):
        for qid, runs in result.runs.items():
            assert runs["km"].result_count > 0

    def test_formatting(self, result):
        text = format_table3(result)
        assert "Q1" in text and "Q7" in text
        assert "disk space" in text.lower()


class TestAblations:
    def test_k_sweep(self):
        rows = run_k_sweep(document="sigmod", limits=(64, 256), scale=0.2)
        assert [r.limit for r in rows] == [64, 256]
        for row in rows:
            for count in row.partitions.values():
                assert count >= row.lower_bound
            # sibling packing tracks the capacity bound within a small
            # factor at every K; KM's parent-child-only model trails it
            assert row.partitions["ekm"] <= 2.1 * row.lower_bound
            assert row.partitions["km"] >= row.partitions["ekm"]
        # more capacity -> fewer partitions
        assert rows[1].partitions["ekm"] <= rows[0].partitions["ekm"]
        assert "A1" in format_k_sweep(rows, "sigmod")

    def test_memoization(self):
        rows = run_memoization_ablation(documents=("sigmod",), scale=0.2, include_dhw=False)
        (row,) = rows
        assert row.algorithm == "ghdw"
        # the memoized table touches a tiny fraction of the O(n·K) cell
        # space — the paper's Sec. 3.3.6 observation
        assert 0 < row.occupancy < 0.25
        assert row.avg_s_values < 40
        assert "A2" in format_memoization(rows)

    def test_gap(self):
        rows = run_gap_ablation(documents=("sigmod",), scale=0.1)
        (row,) = rows
        assert row.optimal >= 1
        for name, count in row.partitions.items():
            assert count >= row.optimal, name
        # paper Sec. 6.2: GHDW within 4% of optimal, EKM close behind
        assert row.gap("ghdw") <= 0.08
        assert row.gap("ekm") <= 0.12
        assert row.gap("km") > row.gap("ekm")
        assert "A3" in format_gap(rows)

    def test_spill(self):
        rows = run_spill_ablation(
            document="sigmod", thresholds=(None, 1024), scale=0.2
        )
        assert rows[0].spills == 0
        assert rows[0].peak_fraction >= rows[1].peak_fraction
        assert rows[1].peak_fraction < 1.0
        assert "A4" in format_spill(rows, "sigmod", "ekm")


class TestFiguresAndCli:
    def test_figures_render(self):
        text = format_figures()
        assert "Fig. 6" in text and "Fig. 9" in text
        assert "GHDW" in text

    def test_cli_figures(self, capsys):
        from repro.bench.cli import main

        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_cli_table1_skip_dhw(self, capsys):
        from repro.bench.cli import main

        assert main(["table1", "--skip-dhw", "--scale", "0.05"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_cli_rejects_unknown(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["nonsense"])
