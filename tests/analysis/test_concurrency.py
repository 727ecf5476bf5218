"""The CC rule family against the seeded concurrency fixture."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.passes import run_lint

from tests.analysis.conftest import FIXTURES, seed_lines

CC_CODES = ["CC001", "CC003"]


@pytest.fixture(scope="module")
def cc_result():
    return run_lint([FIXTURES], select=CC_CODES)


@pytest.fixture(scope="module")
def tags():
    return seed_lines(FIXTURES / "seeded_concurrency.py")


def found(result, code):
    return [
        v
        for v in result.violations
        if v.code == code and v.path.endswith("seeded_concurrency.py")
    ]


class TestGuardedWrites:
    def test_unlocked_writes_reported_in_all_shapes(self, cc_result, tags):
        lines = {v.lineno for v in found(cc_result, "CC001")}
        assert lines == {
            tags["CC001-module-mutcall"],
            tags["CC001-module-store"],
            tags["CC001-attr-subscript"],
            tags["CC001-attr-mutcall"],
        }

    def test_with_lock_holds_and_init_are_clean(self, cc_result, tags):
        # the fixture's locked/holds()/constructor writes must not appear
        flagged = {v.lineno for v in found(cc_result, "CC001")}
        assert tags["CC001-module-mutcall"] in flagged  # sanity: seeds do fire
        source = (FIXTURES / "seeded_concurrency.py").read_text().splitlines()
        clean_lines = {
            lineno
            for lineno, line in enumerate(source, start=1)
            if "clean" in line
        }
        assert not flagged & clean_lines

    def test_guard_annotation_survives_reassignment_checks(self, tmp_path):
        module = tmp_path / "guarded.py"
        module.write_text(
            textwrap.dedent(
                """
                import threading

                _door = threading.Lock()
                _jobs = []  # repro: guarded-by(_door)


                def enqueue(job):
                    _jobs.append(job)


                def enqueue_safely(job):
                    with _door:
                        _jobs.append(job)
                """
            )
        )
        result = run_lint([module], select=["CC001"])
        assert [v.lineno for v in result.violations] == [9]


class TestNonAtomicUpdates:
    def test_rmw_reported_on_global_and_shared_attrs(self, cc_result, tags):
        lines = {v.lineno for v in found(cc_result, "CC003")}
        assert lines == {
            tags["CC003-global"],
            tags["CC003-attr"],
            tags["CC003-attr-float"],
        }

    def test_locked_rmw_and_private_class_are_clean(self, cc_result):
        messages = [v.message for v in found(cc_result, "CC003")]
        assert not any("locked_count" in m for m in messages)
        assert not any("`n`" in m for m in messages)  # Scratch is never shared

    def test_all_caps_module_constant_not_classified(self, cc_result):
        assert not any(
            "MAX_RETRIES" in v.message for v in found(cc_result, "CC003")
        )

    def test_skip_pragma_suppresses(self, tmp_path):
        module = tmp_path / "counts.py"
        module.write_text(
            textwrap.dedent(
                """
                seen = 0


                def bump():
                    global seen
                    seen += 1  # repro-lint: skip=CC003 single-threaded CLI
                """
            )
        )
        result = run_lint([module], select=["CC003"])
        assert result.clean
