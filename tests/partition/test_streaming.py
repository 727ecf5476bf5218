"""The in-memory driver of the streaming cut strategies, and the
left-child / right-sibling (binary) view that EKM's summaries carry.

EKM works on the binary view of the tree (paper Fig. 8): a node's binary
children are its first child and its next sibling. The view exists only
as the ``first_child`` / ``first_chain_end`` / ``res_first`` / ``residual``
fields of the summaries :class:`EKMStreamStrategy` computes, so the view
is checked through them: with ``K`` at the total weight nothing is cut,
and every binary residual is the node's binary subtree weight.
"""

import pytest

from repro.partition import get_algorithm
from repro.partition.interval import SiblingInterval
from repro.partition.streaming import (
    ChildSummary,
    EKMPartitioner,
    EKMStreamStrategy,
    KMPartitioner,
    KMStreamStrategy,
    RSPartitioner,
    RSStreamStrategy,
    StreamingPartitioner,
)
from repro.tree import Tree, tree_from_spec
from tests.partition.oracles import _lcrs_postorder


def ekm_summaries(tree):
    """Every node's EKM summary after an uncut run (``K`` = total
    weight), keyed by node id, and the ids of the frames in close order
    with their children's ids in frame order."""
    summaries: dict[int, ChildSummary] = {}
    closes: list[tuple[int, list[int]]] = []

    class Recording(EKMStreamStrategy):
        def close(self, frame):
            closes.append((frame.node_id, [c.node_id for c in frame.children]))
            summary = super().close(frame)
            for child in frame.children:
                summaries[child.node_id] = child
            summaries[frame.node_id] = summary
            return summary

    class RecordingEKM(EKMPartitioner):
        strategy = Recording

    partitioning = RecordingEKM().partition(tree, tree.total_weight())
    assert partitioning.cardinality == 1
    return summaries, closes


class TestBinaryView:
    def test_fig8_binary_shape(self, fig6_tree):
        # Paper Fig. 8 is the binary representation of the Fig. 6 tree:
        # a's left child is b, and b's right chain runs on to c and f;
        # c's left child is d, whose right sibling is e.
        summaries, _ = ekm_summaries(fig6_tree)
        a, c = summaries[0], summaries[2]
        assert (a.first_child, a.first_chain_end) == (1, 5)
        assert (c.first_child, c.first_chain_end) == (3, 4)
        for leaf in (1, 3, 4, 5):
            assert summaries[leaf].first_child == -1

    def test_root_binary_residual_is_total(self, fig3_tree):
        summaries, _ = ekm_summaries(fig3_tree)
        assert summaries[0].residual == fig3_tree.total_weight()

    def test_binary_residual_includes_right_siblings(self, fig3_tree):
        summaries, _ = ekm_summaries(fig3_tree)
        # binary subtree of b = b + c-subtree + f + g + h = 2+5+1+1+2
        assert summaries[1].residual == 11
        # binary subtree of d = d + e
        assert summaries[3].residual == 4
        # c's first-child chain is d, e
        assert summaries[2].res_first == 4

    def test_flat_tree(self):
        tree = tree_from_spec(("r", 1, [("x", 2), ("y", 3), ("z", 4)]))
        summaries, _ = ekm_summaries(tree)
        assert [summaries[i].residual for i in (1, 2, 3)] == [9, 7, 4]


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
    def test_frames_list_children_in_sibling_order(self):
        # Inserted at the front: sibling order (3, 2, 1) is not id order.
        tree = Tree("r", 1)
        for i in (1, 2, 3):
            tree.insert_child(tree.root, 0, f"n{i}", 1)
        tree.insert_child(tree.node(2), 0, "n4", 1)
        _, closes = ekm_summaries(tree)
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
        emitted = []
        root = ChildSummary(0, 3, residual=9)
        cls(5, lambda interval, freed: emitted.append((interval, freed))).finish(root)
        assert emitted == []

    def test_ekm_cuts_root_chain_over_limit(self):
        emitted = []
        strategy = EKMStreamStrategy(5, lambda iv, freed: emitted.append((iv, freed)))
        strategy.finish(
            ChildSummary(0, 3, first_child=1, first_chain_end=2, res_first=4)
        )
        assert emitted == [(SiblingInterval(1, 2), 4)]

    def test_ekm_keeps_root_chain_within_limit(self):
        emitted = []
        strategy = EKMStreamStrategy(7, lambda iv, freed: emitted.append((iv, freed)))
        strategy.finish(
            ChildSummary(0, 3, first_child=1, first_chain_end=2, res_first=4)
        )
        assert emitted == []
