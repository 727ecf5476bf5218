"""The in-memory driver of the streaming cut strategies, and the
left-child / right-sibling (binary) view that EKM's columns carry.

EKM works on the binary view of the tree (paper Fig. 8): a node's binary
children are its first child and its next sibling. The view exists only
as the ``first_child`` / ``first_chain_end`` / ``res_first`` / ``residual``
columns :class:`EKMStreamStrategy` fills, so the view is checked through
them: with ``K`` at the total weight nothing is cut, and every binary
residual is the node's binary subtree weight.
"""

import pytest

from repro.partition import get_algorithm
from repro.partition.interval import SiblingInterval
from repro.partition.streaming import (
    EKMPartitioner,
    EKMStreamStrategy,
    KMPartitioner,
    KMStreamStrategy,
    RSPartitioner,
    RSStreamStrategy,
    StreamingPartitioner,
)
from repro.tree import Tree, tree_from_spec
from tests.bulkload.test_strategies import with_nodes
from tests.partition.oracles import _lcrs_postorder


def ekm_columns(tree):
    """The EKM strategy after an uncut run (``K`` = total weight), whose
    columns hold every node's binary view, and the closed elements in
    close order with their children's ids as the driver passed them."""
    strategies: list[EKMStreamStrategy] = []
    closes: list[tuple[int, list[int]]] = []

    class Recording(EKMStreamStrategy):
        def __init__(self, limit, emit):
            super().__init__(limit, emit)
            strategies.append(self)

        def close(self, node_id, children):
            closes.append((node_id, list(children)))
            super().close(node_id, children)

    class RecordingEKM(EKMPartitioner):
        strategy = Recording

    partitioning = RecordingEKM().partition(tree, tree.total_weight())
    assert partitioning.cardinality == 1
    (strategy,) = strategies
    return strategy, closes


class TestBinaryView:
    def test_fig8_binary_shape(self, fig6_tree):
        # Paper Fig. 8 is the binary representation of the Fig. 6 tree:
        # a's left child is b, and b's right chain runs on to c and f;
        # c's left child is d, whose right sibling is e.
        ekm, _ = ekm_columns(fig6_tree)
        assert (ekm.first_child[0], ekm.first_chain_end[0]) == (1, 5)
        assert (ekm.first_child[2], ekm.first_chain_end[2]) == (3, 4)
        for leaf in (1, 3, 4, 5):
            assert ekm.first_child[leaf] == -1

    def test_root_binary_residual_is_total(self, fig3_tree):
        ekm, _ = ekm_columns(fig3_tree)
        assert ekm.residual[0] == fig3_tree.total_weight()

    def test_binary_residual_includes_right_siblings(self, fig3_tree):
        ekm, _ = ekm_columns(fig3_tree)
        # binary subtree of b = b + c-subtree + f + g + h = 2+5+1+1+2
        assert ekm.residual[1] == 11
        # binary subtree of d = d + e
        assert ekm.residual[3] == 4
        # c's first-child chain is d, e
        assert ekm.res_first[2] == 4

    def test_flat_tree(self):
        tree = tree_from_spec(("r", 1, [("x", 2), ("y", 3), ("z", 4)]))
        ekm, _ = ekm_columns(tree)
        assert [ekm.residual[i] for i in (1, 2, 3)] == [9, 7, 4]


class TestReferencePostorder:
    """The oracle's binary postorder, which ``ReferenceEKM`` walks."""

    def test_visits_every_node_once(self, fig3_tree):
        seen = [n.node_id for n in _lcrs_postorder(fig3_tree)]
        assert sorted(seen) == list(range(len(fig3_tree)))

    def test_binary_children_before_binary_parent(self, fig3_tree):
        position = {n.node_id: i for i, n in enumerate(_lcrs_postorder(fig3_tree))}
        for node in fig3_tree:
            binary_children = [node.next_sibling()]
            if node.children:
                binary_children.append(node.children[0])
            for child in binary_children:
                if child is not None:
                    assert position[child.node_id] < position[node.node_id]


class TestDriver:
    def test_closes_list_children_in_sibling_order(self):
        # Inserted at the front: sibling order (3, 2, 1) is not id order.
        tree = Tree("r", 1)
        for i in (1, 2, 3):
            tree.insert_child(tree.root, 0, f"n{i}", 1)
        tree.insert_child(tree.node(2), 0, "n4", 1)
        _, closes = ekm_columns(tree)
        # Descending ids: node 2 closes (with its child 4) before the root.
        assert closes == [(2, [4]), (0, [3, 2, 1])]

    @pytest.mark.parametrize(
        "name, cls",
        [("km", KMPartitioner), ("rs", RSPartitioner), ("ekm", EKMPartitioner)],
    )
    def test_registered_under_strategy_name(self, name, cls):
        partitioner = get_algorithm(name)
        assert type(partitioner) is cls
        assert isinstance(partitioner, StreamingPartitioner)
        assert partitioner.strategy.name == name

    def test_single_node_tree(self):
        tree = Tree("r", 3)
        for name in ("km", "rs", "ekm"):
            partitioning = get_algorithm(name).partition(tree, 3)
            assert partitioning.intervals == {SiblingInterval(0, 0)}


class TestFinish:
    @pytest.mark.parametrize("cls", [KMStreamStrategy, RSStreamStrategy])
    def test_noop_outside_ekm(self, cls):
        strategy, emitted = with_nodes(cls, 5, [3])
        strategy.residual[0] = 9
        strategy.finish(0)
        assert emitted == []

    @staticmethod
    def closed_root(limit):
        """Root 0 (weight 3) closed over children 1, 2 (weight 2 each):
        its first-child chain is (1, 2) with binary residual 4."""
        strategy, emitted = with_nodes(EKMStreamStrategy, limit, [3, 2, 2])
        strategy.close(0, [1, 2])
        assert (strategy.res_first[0], strategy.residual[0], emitted) == (4, 7, [])
        return strategy, emitted

    def test_ekm_cuts_root_chain_over_limit(self):
        strategy, emitted = self.closed_root(5)
        strategy.finish(0)
        assert emitted == [(SiblingInterval(1, 2), 4)]

    def test_ekm_keeps_root_chain_within_limit(self):
        strategy, emitted = self.closed_root(7)
        strategy.finish(0)
        assert emitted == []
