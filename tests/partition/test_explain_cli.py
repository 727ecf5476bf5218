"""The ``repro explain`` verb."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.tree.builders import tree_from_spec
from repro.xmlio import write_xml

from tests.conftest import FIG6_SPEC


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("explain") / "fig6.xml"
    write_xml(tree_from_spec(FIG6_SPEC), path)
    return str(path)


class TestExplainCli:
    def test_default_algorithm_text_report(self, doc, capsys):
        assert main(["explain", doc, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "ekm:" in out
        assert "fill-ratio histogram" in out
        assert "heaviest" in out

    def test_two_algorithms_append_a_diff(self, doc, capsys):
        assert main(["explain", doc, "--limit", "5", "--alg", "dhw", "--alg", "ghdw"]) == 0
        out = capsys.readouterr().out
        assert "dhw:" in out and "ghdw:" in out
        assert "dhw vs ghdw" in out
        assert "partitions:" in out and "shared" in out

    def test_three_algorithms_no_diff_section(self, doc, capsys):
        assert (
            main(["explain", doc, "--limit", "5", "--alg", "dhw", "--alg", "ghdw", "--alg", "ekm"])
            == 0
        )
        assert " vs " not in capsys.readouterr().out

    def test_json_output(self, doc, capsys):
        assert main(["explain", doc, "--limit", "5", "--alg", "dhw", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["limit"] == 5
        (explain,) = payload["explains"]
        assert explain["algorithm"] == "dhw"
        assert explain["cardinality"] == len(explain["entries"]) >= 1
        for entry in explain["entries"]:
            assert 0.0 < entry["fill"] <= 1.0

    def test_top_limits_heaviest_listing(self, doc, capsys):
        assert main(["explain", doc, "--limit", "5", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "heaviest 1 partitions" in out

    def test_missing_document_exits_one(self, capsys):
        assert main(["explain", "/no/such/file.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm_exits_one(self, doc, capsys):
        assert main(["explain", doc, "--alg", "nope"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_invalid_limit_exits_one(self, doc, capsys):
        assert main(["explain", doc, "--limit", "0"]) == 1
        assert "error:" in capsys.readouterr().err
