"""The gate: the shipped source tree must lint clean.

Every change to ``src/repro`` runs under the analyzer via this test —
a new unbounded recursion cycle, swallowed exception, unguarded shared
write or any other finding anywhere in the package fails the suite.
This is the one lint gate: there is no baseline of accepted findings.
"""

from __future__ import annotations

import re

from repro.analysis import cli
from repro.analysis.passes import available_passes, run_lint

from tests.analysis.conftest import REPO_SRC


def test_source_tree_exists():
    assert (REPO_SRC / "__init__.py").is_file()


def test_repro_lint_src_repro_is_clean():
    result = run_lint([REPO_SRC])
    assert result.passes_run >= 6
    assert result.files_checked >= 50
    assert result.clean, "\n" + "\n".join(v.render() for v in result.violations)


def test_cli_gate_exits_zero(capsys):
    assert cli.main([str(REPO_SRC)]) == cli.EXIT_CLEAN
    assert "clean" in capsys.readouterr().out


def test_rule_catalog_documents_every_registered_code():
    catalog = (REPO_SRC.parents[1] / "docs" / "ANALYSIS.md").read_text()
    documented = set(re.findall(r"^\| ([A-Z]+\d{3}) +\|", catalog, re.MULTILINE))
    assert documented == {cls.code for cls in available_passes()}
