"""Property-based end-to-end tests: random documents through the full
serialize → parse → stream-import pipeline."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bulkload import bulk_import
from repro.partition import evaluate_partitioning
from repro.tree.node import NodeKind, Tree
from repro.xmlio import parse_tree, tree_to_xml

from tests.partition.oracles import HEURISTIC_ORACLES

_NAMES = ("a", "b", "item", "x_1", "long-name")
_TEXTS = ("", "t", "some text", "x" * 30, "ümläut <&> text")


@st.composite
def xml_documents(draw, max_nodes: int = 40):
    """A random well-formed document tree with the slot weight model."""
    from repro.xmlio.weights import SlotWeightModel

    wm = SlotWeightModel()
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = Tree(draw(st.sampled_from(_NAMES)), wm.element_weight(), NodeKind.ELEMENT)
    elements = [tree.root]
    for _ in range(n - 1):
        parent = elements[draw(st.integers(0, len(elements) - 1))]
        kind = draw(st.sampled_from([NodeKind.ELEMENT, NodeKind.TEXT, NodeKind.ATTRIBUTE]))
        if kind is NodeKind.ELEMENT:
            elements.append(
                tree.add_child(parent, draw(st.sampled_from(_NAMES)), wm.element_weight(), kind)
            )
        elif kind is NodeKind.TEXT:
            text = draw(st.sampled_from(_TEXTS))
            if not text.strip():
                continue  # whitespace-only text is dropped by the parser
            # adjacent text nodes merge on reparse; only add after non-text
            if parent.children and parent.children[-1].kind is NodeKind.TEXT:
                continue
            tree.add_child(parent, "#text", wm.text_weight(text), kind, text)
        else:
            # attributes must precede content children and be unique per
            # element; enforce both
            name = draw(st.sampled_from(_NAMES))
            existing = {
                c.label for c in parent.children if c.kind is NodeKind.ATTRIBUTE
            }
            if name in existing or any(
                c.kind is not NodeKind.ATTRIBUTE for c in parent.children
            ):
                continue
            value = draw(st.sampled_from(_TEXTS))
            tree.add_child(parent, name, wm.attribute_weight(value), kind, value)
    return tree


class TestPipelineProperties:
    @settings(max_examples=60, deadline=None)
    @given(xml_documents())
    def test_serialize_parse_roundtrip(self, tree):
        from repro.tree.traversal import iter_preorder

        text = tree_to_xml(tree)
        again = parse_tree(text)
        assert len(again) == len(tree)
        # The generator attaches nodes to arbitrary earlier parents, so
        # creation order is not document order — compare in preorder.
        original = [
            (n.label, n.kind, n.weight, n.content) for n in iter_preorder(tree)
        ]
        reparsed = [
            (n.label, n.kind, n.weight, n.content) for n in iter_preorder(again)
        ]
        assert reparsed == original

    @settings(max_examples=40, deadline=None)
    @given(xml_documents(), st.sampled_from(["km", "rs", "ekm"]))
    def test_streaming_import_equals_batch(self, tree, algorithm):
        text = tree_to_xml(tree)
        limit = max(16, tree.max_node_weight())
        result = bulk_import(text, algorithm=algorithm, limit=limit)
        batch = HEURISTIC_ORACLES[algorithm]().partition(result.tree, limit)
        assert result.partitioning == batch
        report = evaluate_partitioning(result.tree, result.partitioning, limit)
        assert report.feasible

    @settings(max_examples=30, deadline=None)
    @given(xml_documents(), st.integers(min_value=16, max_value=64))
    def test_spilled_import_feasible(self, tree, threshold):
        text = tree_to_xml(tree)
        limit = max(16, tree.max_node_weight())
        result = bulk_import(
            text, algorithm="ekm", limit=limit, spill_threshold=max(threshold, limit)
        )
        report = evaluate_partitioning(result.tree, result.partitioning, limit)
        assert report.feasible
