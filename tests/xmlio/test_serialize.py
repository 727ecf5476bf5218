"""Serializer round-trip tests."""

import io

from repro.xmlio import parse_tree, tree_to_xml, write_xml


ROUND_TRIPS = [
    "<a/>",
    '<a x="1" y="two"/>',
    "<a><b>text</b><c/><d>more</d></a>",
    "<a>mixed <b>bold</b> tail</a>",
    '<site><regions><item id="i0">desc</item></regions></site>',
    "<a>&lt;escaped&gt; &amp; fine</a>",
    '<a attr="with &quot;quotes&quot;"/>',
]


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_points(self):
        for doc in ROUND_TRIPS:
            tree = parse_tree(doc)
            text = tree_to_xml(tree, declaration=False)
            again = parse_tree(text)
            assert [(n.label, n.kind, n.weight, n.content) for n in again] == [
                (n.label, n.kind, n.weight, n.content) for n in tree
            ], doc

    def test_generated_corpus_round_trips(self, tiny_xmark):
        text = tree_to_xml(tiny_xmark)
        again = parse_tree(text)
        assert len(again) == len(tiny_xmark)
        assert [n.weight for n in again] == [n.weight for n in tiny_xmark]
        assert again.total_weight() == tiny_xmark.total_weight()

    def test_declaration_prefix(self):
        tree = parse_tree("<a/>")
        assert tree_to_xml(tree).startswith("<?xml")
        assert not tree_to_xml(tree, declaration=False).startswith("<?xml")

    def test_write_to_stream_and_path(self, tmp_path):
        tree = parse_tree("<a><b>x</b></a>")
        buffer = io.StringIO()
        write_xml(tree, buffer)
        assert "<a>" in buffer.getvalue()
        path = tmp_path / "out.xml"
        write_xml(tree, path)
        assert parse_tree(str(path)).total_weight() == tree.total_weight()

    def test_deep_tree_serializes_iteratively(self):
        from repro.tree.builders import chain_tree
        from repro.tree.node import NodeKind

        tree = chain_tree([1] * 10_000)
        for node in tree:
            node.kind = NodeKind.ELEMENT
        text = tree_to_xml(tree, declaration=False)
        assert len(parse_tree(text)) == 10_000


#: sha256 of ``tree_to_xml(generator(size, seed=7))`` taken on the commit
#: before the serializer walked each child list once (PR 20): the rewrite
#: must not move a byte of any benchmark or corpus input
GENERATOR_DIGESTS = {
    "sigmod": (2, "2413cb77bb14f2c6a2567d7fc540c4a4247a21f5acb9a135a2b147306654809b"),
    "mondial": (2, "ae8069c8ac81024ce707c09ec07310fe203501cf5de88174d675a8185d5a77ef"),
    "partsupp": (30, "59a65f19ffcc59b22c2c153491da5ed6311000bcda9ba021ba3b031238917218"),
    "uwm": (20, "93f678aea4ad0bc43a812d50aab818701dd529d9760fef73355161546086e788"),
    "orders": (30, "f7217e107910e2c756f2721b2a89627d086f79cbe272a17d8f388079a1bbba91"),
    "xmark": (0.002, "172fafbe65452ac42d42829bff1f6c6c384a11d55fb885bd1a2e6f4ec5d329e6"),
}


class TestSerializerOutputPinned:
    def test_every_generator_serializes_to_the_same_bytes(self):
        import hashlib

        from repro.datasets import (
            mondial_document,
            orders_document,
            partsupp_document,
            sigmod_record_document,
            uwm_document,
            xmark_document,
        )

        builders = {
            "sigmod": lambda size: sigmod_record_document(issues=size, seed=7),
            "mondial": lambda size: mondial_document(countries=size, seed=7),
            "partsupp": lambda size: partsupp_document(rows=size, seed=7),
            "uwm": lambda size: uwm_document(courses=size, seed=7),
            "orders": lambda size: orders_document(rows=size, seed=7),
            "xmark": lambda size: xmark_document(scale=size, seed=7),
        }
        for name, (size, digest) in GENERATOR_DIGESTS.items():
            xml = tree_to_xml(builders[name](size)).encode("utf-8")
            assert hashlib.sha256(xml).hexdigest() == digest, name


class TestFanOut:
    def test_flat_tree_serializes_in_linear_time(self):
        # the serializer used to rebuild the parent's filtered child list
        # on every return to its frame: O(m^2) for m children, 49 s for
        # 20 000. One walk per child list takes milliseconds.
        from time import perf_counter

        from repro.tree.node import Tree

        from tests.conftest import tree_signature

        tree = Tree("r", 1)
        for _ in range(50_000):
            tree.add_child(tree.root, "c", 1)
        start = perf_counter()
        text = tree_to_xml(tree, declaration=False)
        assert perf_counter() - start < 5.0
        assert text == "<r>" + "<c/>" * 50_000 + "</r>"
        assert tree_signature(parse_tree(text)) == tree_signature(tree)


class TestCarriageReturns:
    def test_text_carriage_return_survives_the_round_trip(self):
        from repro.tree.node import NodeKind, Tree
        from repro.xmlio import SlotWeightModel

        wm = SlotWeightModel()
        text = "line1\r\nline2\rend"
        tree = Tree("a", 1)
        tree.add_child(tree.root, "v", wm.attribute_weight(text), NodeKind.ATTRIBUTE, text)
        tree.add_child(tree.root, "#text", wm.text_weight(text), NodeKind.TEXT, text)
        again = parse_tree(tree_to_xml(tree), strip_whitespace=False)
        assert [(n.content, n.weight) for n in again] == [
            (n.content, n.weight) for n in tree
        ]
