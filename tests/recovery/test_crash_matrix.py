"""Property tests driven by the chaos crash-matrix.

:func:`run_update_crash_matrix` is the executable form of the WAL's
contract: kill a logged update workload at every sampled record
boundary, recover from page images + log alone, and demand the result
be byte-identical to a state the uninterrupted control actually passed
through — then resume the workload and demand the *final* bytes and
partitioning match the control exactly. These tests run the matrix
small (smoke) and exhaustively (every boundary on a tiny workload) and
require every cell to pass.
"""

from __future__ import annotations

from repro.faults.matrix import _update_script, run_update_crash_matrix
from tests.recovery.conftest import XML, build_store

#: scenario-name fragments the matrix must cover — one per crash shape
#: the ISSUE's gate names (boundaries, torn tail, bit-flip, double crash,
#: lying log)
EXPECTED_SHAPES = (
    "updates.flush",
    "wal.append",
    "wal.fsync",
    "+torn-tail",
    "+page-bitflip",
    "+crash-in-recovery",
    "wal-interior-bitflip",
)


def _failures(report) -> str:
    return "; ".join(f"{s.name}: {s.detail}" for s in report.failures())


class TestCrashMatrix:
    def test_smoke_matrix_every_cell_passes(self):
        report = run_update_crash_matrix(
            source=XML, limit=32, batches=2, ops_per_batch=6, max_crash_points=3
        )
        assert report.ok, _failures(report)
        assert report.passed == len(report.scenarios) >= len(EXPECTED_SHAPES)

    def test_matrix_covers_every_crash_shape(self):
        report = run_update_crash_matrix(
            source=XML, limit=32, batches=2, ops_per_batch=6, max_crash_points=3
        )
        names = [s.name for s in report.scenarios]
        for shape in EXPECTED_SHAPES:
            assert any(shape in name for name in names), (
                f"matrix never exercised {shape!r}: {names}"
            )
        # every cell reports *why* it passed, not a bare boolean
        assert all(s.detail for s in report.scenarios)

    def test_exhaustive_boundary_sweep_on_a_tiny_workload(self):
        # max_crash_points far beyond any hit count: every WAL record
        # boundary and every page-apply boundary gets its own crash
        report = run_update_crash_matrix(
            source=XML,
            limit=32,
            batches=2,
            ops_per_batch=4,
            max_crash_points=10_000,
        )
        assert report.ok, _failures(report)
        # exhaustive means strictly more cells than the smoke sample:
        # 2 batches log at least BEGIN+IMAGE+COMMIT each, plus the
        # damage/double-crash/interior cells
        assert len(report.scenarios) > len(EXPECTED_SHAPES)
        assert "passed" in report.summary()

    def test_scripts_mix_front_inserts_with_appends(self):
        # the shape `make chaos-smoke` runs (2 batches of 8 ops): a front
        # insert renumbers siblings stored in other records, and only a
        # crash + recovery shows whether those records were logged
        script = _update_script(build_store().tree, 2006, 2, 8)
        positions = [op[3] for ops in script for op in ops if op[0] == "insert"]
        assert 0 in positions and None in positions

    def test_matrix_is_deterministic(self):
        first = run_update_crash_matrix(
            source=XML, limit=32, batches=2, ops_per_batch=4, max_crash_points=2
        )
        second = run_update_crash_matrix(
            source=XML, limit=32, batches=2, ops_per_batch=4, max_crash_points=2
        )
        assert [(s.name, s.rule, s.passed) for s in first.scenarios] == [
            (s.name, s.rule, s.passed) for s in second.scenarios
        ]
