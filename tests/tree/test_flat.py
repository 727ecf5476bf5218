"""FlatWeights: the columnar tree every partitioner reads."""

import random

from repro.datasets.random_trees import random_tree
from repro.tree.builders import chain_tree, tree_from_spec
from repro.tree.flat import FlatWeights
from repro.tree.measure import subtree_weights
from repro.tree.node import Tree
from repro.tree.traversal import iter_preorder

from tests.conftest import FIG3_SPEC


class TestFromTree:
    def test_fig3_arrays(self):
        tree = tree_from_spec(FIG3_SPEC)
        ft = FlatWeights(tree)
        # Creation order: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7.
        assert ft.n == len(tree) == 8
        assert ft.parent == [-1, 0, 0, 2, 2, 0, 0, 0]
        assert ft.weight == [3, 2, 1, 2, 2, 1, 1, 2]
        assert ft.subtree_weight == [14, 2, 5, 2, 2, 1, 1, 2]
        assert ft.children(0) == [1, 2, 5, 6, 7]
        assert ft.children(2) == [3, 4]
        assert ft.children(3) == []

    def test_subtree_weights_match_measure(self):
        # ``subtree_weights`` is the flat column; pin both against a
        # direct sum over each subtree.
        rng = random.Random(5)
        for _ in range(25):
            tree = random_tree(rng.randint(1, 60), rng=rng, attach_bias=rng.random())
            direct = [sum(n.weight for n in iter_preorder(v)) for v in tree]
            assert FlatWeights(tree).subtree_weight == direct
            assert subtree_weights(tree) == direct

    def test_csr_matches_children(self):
        tree = random_tree(80, seed=11)
        ft = FlatWeights(tree)
        for node in tree:
            assert ft.children(node.node_id) == [c.node_id for c in node.children]

    def test_csr_keeps_sibling_order_after_inserts(self):
        # insert_child breaks id order == sibling order; the CSR lists
        # follow the sibling order and parents still precede children.
        rng = random.Random(7)
        for _ in range(20):
            tree = Tree("r", 1)
            for i in range(rng.randint(1, 40)):
                parent = tree.nodes[rng.randrange(len(tree.nodes))]
                pos = rng.randint(0, len(parent.children))
                tree.insert_child(parent, pos, f"i{i}", rng.randint(1, 5))
            ft = FlatWeights(tree)
            for node in tree:
                assert ft.children(node.node_id) == [c.node_id for c in node.children]
            assert ft.subtree_weight[0] == tree.total_weight()

    def test_len(self):
        assert len(FlatWeights(chain_tree([1, 2, 3]))) == 3
