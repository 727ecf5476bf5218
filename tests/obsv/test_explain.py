"""Decision provenance: collection, joining and rendering."""

from __future__ import annotations

import json

import pytest

from repro.obsv import explain_partition, explain_scope, format_diff, format_explain
from repro.obsv import explain as explain_mod
from repro.partition import available_algorithms, get_algorithm
from repro.tree.builders import flat_tree, tree_from_spec

from tests.conftest import FIG3_SPEC, FIG6_SPEC

#: algorithms that record their own decision kinds
HOOKED = {
    "ghdw": "ghdw-dp",
    "dhw": "dhw-dp",
    "km": "km-cut",
    "ekm": "ekm-cut",
    "rs": "rs-pack",
    "dfs": "dfs-new",
    "bfs": "bfs-new",
    "lukes": "lukes-cut",
}


class TestCollection:
    def test_not_explaining_by_default(self):
        assert not explain_mod.explaining()
        # hooks are no-ops without a scope
        explain_mod.decision(0, "noop")
        explain_mod.note("k", 1)
        explain_mod.add_note("n")

    def test_scope_activates_and_restores(self):
        with explain_scope() as collector:
            assert explain_mod.explaining()
            with explain_scope() as inner:
                assert inner is not collector
            assert explain_mod.explaining()
        assert not explain_mod.explaining()

    def test_every_algorithm_produces_an_explain(self, fig3_tree):
        for name in available_algorithms():
            if name in ("brute", "fdw", "fallback"):
                continue
            with explain_scope() as collector:
                result = get_algorithm(name).partition(fig3_tree, 5)
            explain = collector.explain_for(name)
            assert explain is not None, name
            assert explain.algorithm == name
            assert explain.limit == 5
            assert explain.cardinality == result.cardinality
            assert {e.interval for e in explain.entries} == {
                (iv.left, iv.right) for iv in result.intervals
            }

    @pytest.mark.parametrize("name, kind", sorted(HOOKED.items()))
    def test_hooked_algorithms_attribute_their_cuts(self, fig3_tree, name, kind):
        with explain_scope() as collector:
            get_algorithm(name).partition(fig3_tree, 5)
        explain = collector.explain_for(name)
        kinds = explain.decision_kinds()
        assert kind in kinds, kinds
        # every partition is attributed: its own decision or the root fallback
        assert sum(kinds.values()) == explain.cardinality

    def test_ekm_root_cut_is_attributed(self):
        # the root's first-child chain is cut after the root closes, by
        # the EKM strategy's finish step — which must record it too
        explain = explain_partition(flat_tree(4, [2]), 5, "ekm")
        decisions = {e.interval: e.decision for e in explain.entries}
        assert decisions[(1, 1)].kind == "ekm-cut"
        assert decisions[(1, 1)].detail == {
            "parent": 0,
            "edge": "first-child",
            "cut_weight": 2,
            "rest": 4,
        }

    def test_result_is_identical_with_and_without_explaining(self, fig3_tree):
        for name in ("ekm", "dhw", "ghdw", "rs"):
            bare = get_algorithm(name).partition(fig3_tree, 5)
            with explain_scope():
                explained = get_algorithm(name).partition(fig3_tree, 5)
            assert bare == explained, name

    def test_entry_facts_are_consistent(self, fig3_tree):
        explain = explain_partition(fig3_tree, 5, "ekm")
        total = sum(e.weight for e in explain.entries)
        assert total == explain.total_weight == fig3_tree.total_weight()
        for entry in explain.entries:
            assert 0 < entry.weight <= 5
            assert entry.fill == entry.weight / 5
            assert entry.members >= 1
            assert entry.depth >= 0
        roots = [e for e in explain.entries if e.depth == 0]
        assert len(roots) == 1
        assert roots[0].decision is not None
        assert roots[0].decision.kind in ("root-interval", "ekm-cut")

    def test_dhw_notes_record_dp_statistics(self, fig3_tree):
        explain = explain_partition(fig3_tree, 5, "dhw")
        assert explain.notes["dhw.dp_cells"] > 0
        assert explain.notes["dhw.nearly_optimal_exists"] >= 0

    def test_chained_runs_explain_separately(self, fig3_tree):
        with explain_scope() as collector:
            get_algorithm("ekm").partition(fig3_tree, 5)
            get_algorithm("km").partition(fig3_tree, 5)
        assert len(collector.explains) == 2
        assert collector.explain_for("ekm").decision_kinds().get("km-cut") is None
        assert collector.explain_for("km").decision_kinds().get("ekm-cut") is None

    def test_explain_for_returns_most_recent(self, fig3_tree):
        with explain_scope() as collector:
            get_algorithm("ekm").partition(fig3_tree, 5)
            get_algorithm("ekm").partition(fig3_tree, 4)
        assert collector.explain_for("ekm").limit == 4
        assert collector.explain_for("missing") is None


class TestAggregates:
    def test_fill_histogram_sums_to_cardinality(self, fig3_tree):
        explain = explain_partition(fig3_tree, 5, "ghdw")
        for buckets in (1, 4, 10):
            counts = explain.fill_histogram(buckets)
            assert len(counts) == buckets
            assert sum(counts) == explain.cardinality

    def test_full_fill_lands_in_last_bucket(self, fig3_tree):
        explain = explain_partition(fig3_tree, 5, "dhw")
        full = sum(1 for e in explain.entries if e.fill == 1.0)
        assert explain.fill_histogram(10)[-1] >= full

    def test_as_dict_is_json_safe_and_sorted(self, fig3_tree):
        explain = explain_partition(fig3_tree, 5, "dhw")
        payload = explain.as_dict()
        text = json.dumps(payload)
        reloaded = json.loads(text)
        assert reloaded["algorithm"] == "dhw"
        assert reloaded["cardinality"] == explain.cardinality
        assert list(payload["notes"]) == sorted(payload["notes"])


class TestRendering:
    def test_fig6_diff_shows_ghdw_suboptimality(self):
        tree = tree_from_spec(FIG6_SPEC)
        dhw = explain_partition(tree, 5, "dhw")
        ghdw = explain_partition(tree, 5, "ghdw")
        assert (dhw.cardinality, ghdw.cardinality) == (3, 4)
        text = format_diff(dhw, ghdw)
        assert "3 vs 4 (+1)" in text
        assert "only-dhw" in text and "only-ghdw" in text
        assert "fill-ratio histogram" in text

    def test_format_explain_mentions_decisions_and_notes(self):
        tree = tree_from_spec(FIG3_SPEC)
        explain = explain_partition(tree, 5, "dhw")
        text = format_explain(explain)
        assert "dhw:" in text
        assert "dhw-dp" in text
        assert "dhw.dp_cells" in text
        assert "heaviest" in text

    def test_format_explain_top_zero_hides_partitions(self):
        tree = tree_from_spec(FIG3_SPEC)
        explain = explain_partition(tree, 5, "ekm")
        assert "heaviest" not in format_explain(explain, top=0)

    def test_rendering_is_deterministic(self):
        tree = tree_from_spec(FIG3_SPEC)
        first = format_explain(explain_partition(tree, 5, "ekm"))
        second = format_explain(explain_partition(tree, 5, "ekm"))
        assert first == second
