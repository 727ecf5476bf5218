"""Property: serialize → parse is the identity on documents whose text
and attribute values use the characters XML treats specially."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.tree.node import NodeKind, Tree
from repro.xmlio import SlotWeightModel, parse_tree, tree_to_xml

from tests.conftest import tree_signature

_NAMES = ("a", "b", "item", "x_1", "long-name")
#: every character with its own escaping or normalization rule: CR / LF /
#: TAB (end-of-line and attribute-value normalization), the markup
#: characters, and the CDATA terminator
_VALUES = st.lists(
    st.sampled_from(["\r", "\n", "\t", "&", "<", ">", "]]>", '"', "'", " ", "x", "ü", "word"]),
    min_size=1,
    max_size=6,
).map("".join)


@st.composite
def documents(draw, max_steps: int = 40):
    """A document built in document order (ids are preorder ranks, as the
    parser assigns them), never with two adjacent text nodes."""
    wm = SlotWeightModel()
    tree = Tree(draw(st.sampled_from(_NAMES)), wm.element_weight())

    def attributes(element):
        for name in draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3)):
            value = draw(_VALUES)
            tree.add_child(
                element, name, wm.attribute_weight(value), NodeKind.ATTRIBUTE, value
            )

    attributes(tree.root)
    open_elements = [tree.root]
    for _ in range(draw(st.integers(0, max_steps))):
        current = open_elements[-1]
        step = draw(st.sampled_from(["open", "text", "close"]))
        if step == "open":
            child = tree.add_child(current, draw(st.sampled_from(_NAMES)), wm.element_weight())
            attributes(child)
            open_elements.append(child)
        elif step == "text":
            if current.children and current.children[-1].kind is NodeKind.TEXT:
                continue  # adjacent runs would merge on reparse
            text = draw(_VALUES)
            tree.add_child(current, "#text", wm.text_weight(text), NodeKind.TEXT, text)
        elif len(open_elements) > 1:
            open_elements.pop()
    return tree


class TestSerializerRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_signature_and_weights_survive(self, tree):
        again = parse_tree(tree_to_xml(tree), strip_whitespace=False)
        assert tree_signature(again) == tree_signature(tree)
