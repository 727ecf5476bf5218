"""The LIN rule family against the seeded linearity fixture."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.passes import run_lint

from tests.analysis.conftest import FIXTURES, seed_lines

LIN_CODES = ["LIN001", "LIN002"]


@pytest.fixture(scope="module")
def lin_result():
    return run_lint([FIXTURES], select=LIN_CODES)


@pytest.fixture(scope="module")
def tags():
    return seed_lines(FIXTURES / "seeded_linearity.py")


def found(result, code, filename="seeded_linearity.py"):
    return [
        v
        for v in result.violations
        if v.code == code and v.path.endswith(filename)
    ]


class TestQuadraticSweeps:
    def test_independent_nested_sweeps_reported(self, lin_result, tags):
        lines = {v.lineno for v in found(lin_result, "LIN001")}
        assert lines == {tags["LIN001-direct"], tags["LIN001-range"]}

    def test_handshake_and_alias_patterns_are_clean(self, lin_result, tags):
        # `for child in node.children` and the `children = node.children`
        # alias are O(n) total and must not be flagged
        flagged = {v.lineno for v in found(lin_result, "LIN001")}
        assert flagged == {tags["LIN001-direct"], tags["LIN001-range"]}

    def test_outside_kernel_modules_is_quiet(self, lin_result):
        assert not found(lin_result, "LIN001", "seeded_concurrency.py")
        assert not found(lin_result, "LIN002", "seeded_concurrency.py")

    def test_prefix_module_is_kernel_scope(self, tmp_path):
        package = tmp_path / "repro" / "tree"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "flat.py").write_text(
            textwrap.dedent(
                """
                def all_pairs(nodes):
                    out = 0
                    for u in nodes:
                        for v in nodes:
                            out += u is v
                    return out
                """
            )
        )
        result = run_lint([package / "flat.py"], select=["LIN001"])
        assert len(result.violations) == 1
        assert result.violations[0].code == "LIN001"


class TestLinearPrimitives:
    def test_list_primitives_reported_in_all_shapes(self, lin_result, tags):
        lines = {v.lineno for v in found(lin_result, "LIN002")}
        assert lines == {
            tags["LIN002-insert"],
            tags["LIN002-pop0"],
            tags["LIN002-in"],
        }

    def test_set_membership_and_end_pop_are_clean(self, lin_result, tags):
        flagged = {v.lineno for v in found(lin_result, "LIN002")}
        source = (FIXTURES / "seeded_linearity.py").read_text().splitlines()
        clean_lines = {
            lineno
            for lineno, line in enumerate(source, start=1)
            if "clean" in line
        }
        assert not flagged & clean_lines

    def test_skip_pragma_suppresses(self, tmp_path):
        package = tmp_path / "repro" / "partition"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "brutish.py").write_text(
            textwrap.dedent(
                """
                def exhaustive(nodes):
                    pairs = []
                    for u in nodes:
                        for v in nodes:  # repro-lint: skip=LIN001 reference oracle
                            pairs.append((u, v))
                    return pairs
                """
            )
        )
        result = run_lint([package / "brutish.py"], select=LIN_CODES)
        assert result.clean
