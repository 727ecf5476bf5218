"""FlatTree: structure-of-arrays layout and exact round trips."""

import random

from repro.datasets.random_trees import duplicated_subtree_tree, random_tree, star_tree
from repro.tree.builders import chain_tree, tree_from_spec
from repro.tree.flat import FlatTree
from repro.tree.measure import subtree_weights
from repro.tree.node import NodeKind, Tree

from tests.conftest import FIG3_SPEC, tree_signature


class TestFromTree:
    def test_fig3_arrays(self):
        tree = tree_from_spec(FIG3_SPEC)
        ft = FlatTree.from_tree(tree)
        # Creation order: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7.
        assert ft.n == len(tree) == 8
        assert ft.parent == [-1, 0, 0, 2, 2, 0, 0, 0]
        assert ft.weight == [3, 2, 1, 2, 2, 1, 1, 2]
        assert ft.subtree_weight == [14, 2, 5, 2, 2, 1, 1, 2]
        assert ft.first_child == [1, -1, 3, -1, -1, -1, -1, -1]
        assert ft.next_sibling == [-1, 2, 5, 4, -1, 6, 7, -1]
        assert ft.children(0) == [1, 2, 5, 6, 7]
        assert ft.children(2) == [3, 4]
        assert ft.children(3) == []

    def test_subtree_weights_match_measure(self):
        rng = random.Random(5)
        for _ in range(25):
            tree = random_tree(rng.randint(1, 60), rng=rng, attach_bias=rng.random())
            ft = FlatTree.from_tree(tree)
            assert ft.subtree_weight == subtree_weights(tree)

    def test_csr_matches_children(self):
        tree = random_tree(80, seed=11)
        ft = FlatTree.from_tree(tree)
        for node in tree:
            assert ft.children(node.node_id) == [c.node_id for c in node.children]

    def test_payload_columns(self):
        tree = Tree("doc", 1)
        tree.add_child(tree.root, "id", 1, NodeKind.ATTRIBUTE, "42")
        tree.add_child(tree.root, "#text", 2, NodeKind.TEXT, "hello")
        ft = FlatTree.from_tree(tree)
        assert ft.labels == ["doc", "id", "#text"]
        assert [NodeKind(k) for k in ft.kinds] == [
            NodeKind.ELEMENT,
            NodeKind.ATTRIBUTE,
            NodeKind.TEXT,
        ]
        assert ft.contents == [None, "42", "hello"]

    def test_len(self):
        assert len(FlatTree.from_tree(chain_tree([1, 2, 3]))) == 3


class TestRoundTrip:
    def roundtrip(self, tree):
        rebuilt = FlatTree.from_tree(tree).to_tree()
        assert tree_signature(rebuilt) == tree_signature(tree)

    def test_random_trees(self):
        rng = random.Random(99)
        for _ in range(30):
            self.roundtrip(
                random_tree(rng.randint(1, 70), rng=rng, attach_bias=rng.random())
            )

    def test_shapes(self):
        self.roundtrip(tree_from_spec(FIG3_SPEC))
        self.roundtrip(chain_tree([1] * 50))
        self.roundtrip(star_tree(200))
        self.roundtrip(duplicated_subtree_tree(10, template_size=12, seed=3))

    def test_insert_child_scrambled_order(self):
        # insert_child breaks id-order == sibling-order, exercising the
        # positional-insertion branch of to_tree.
        rng = random.Random(7)
        for _ in range(20):
            tree = Tree("r", 1)
            for i in range(rng.randint(1, 40)):
                parent = tree.nodes[rng.randrange(len(tree.nodes))]
                if parent.children and rng.random() < 0.5:
                    pos = rng.randint(0, len(parent.children))
                    tree.insert_child(parent, pos, f"i{i}", rng.randint(1, 5))
                else:
                    tree.add_child(parent, f"a{i}", rng.randint(1, 5))
            self.roundtrip(tree)

    def test_document_payload_round_trip(self):
        from repro.datasets import sigmod_record_document

        self.roundtrip(sigmod_record_document(issues=1, seed=7))
