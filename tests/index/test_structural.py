"""Unit tests for :class:`repro.index.StructuralIndex`: column
correctness against a reference traversal, axis windows, partition-map
pruning, and the invalidation lifecycle."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.index import StructuralIndex
from repro.partition import get_algorithm
from repro.storage import DocumentStore
from repro.tree.node import NodeKind


@pytest.fixture(scope="module")
def xmark_store():
    from repro.datasets import xmark_document

    tree = xmark_document(scale=0.004, seed=7)
    partitioning = get_algorithm("ekm").partition(tree, 256)
    store = DocumentStore.build(tree, partitioning)
    store.warm_up()
    return store


@pytest.fixture(scope="module")
def index(xmark_store):
    return StructuralIndex.build(xmark_store)


def _reference_orders(tree):
    """Recursive pre/post/level reference the DFS build must reproduce."""
    pre: dict[int, int] = {}
    post: dict[int, int] = {}
    level: dict[int, int] = {}
    counters = [0, 0]

    def visit(node, depth):
        pre[node.node_id] = counters[0]
        counters[0] += 1
        level[node.node_id] = depth
        for child in node.children:
            visit(child, depth + 1)
        post[node.node_id] = counters[1]
        counters[1] += 1

    visit(tree.root, 0)
    return pre, post, level


def _preorder(node):
    """Subtree node ids in document (preorder) order, self included."""
    out = []
    stack = [node]
    while stack:
        cursor = stack.pop()
        out.append(cursor.node_id)
        stack.extend(reversed(cursor.children))
    return out


class TestColumns:
    def test_pre_post_level_match_reference_traversal(self, xmark_store, index):
        pre, post, level = _reference_orders(xmark_store.tree)
        for nid in range(index.node_count):
            assert index.pre_of[nid] == pre[nid]
            assert index.post_of[nid] == post[nid]
            assert index.level_of[nid] == level[nid]

    def test_size_counts_proper_descendants_plus_self(self, xmark_store, index):
        for node in xmark_store.tree:
            assert index.size_of[node.node_id] == len(_preorder(node))

    def test_node_at_inverts_pre_of(self, index):
        for nid in range(index.node_count):
            assert index.node_at[index.pre_of[nid]] == nid

    def test_parent_and_children_round_trip(self, xmark_store, index):
        root_id = xmark_store.tree.root.node_id
        assert index.parent_id(root_id) == -1
        for node in xmark_store.tree:
            assert list(index.children_of(node.node_id)) == [
                c.node_id for c in node.children
            ]
            for child in node.children:
                assert index.parent_id(child.node_id) == node.node_id

    def test_attributes_of_is_the_leading_attribute_run(self, xmark_store, index):
        seen_any = False
        for node in xmark_store.tree:
            expected = []
            for child in node.children:
                if child.kind != NodeKind.ATTRIBUTE:
                    break
                expected.append(child.node_id)
            assert list(index.attributes_of(node.node_id)) == expected
            seen_any = seen_any or bool(expected)
        assert seen_any, "corpus drift: no attributes to test against"


class TestWindows:
    def test_descendant_window_matches_descendants(self, xmark_store, index):
        node = xmark_store.tree.root.children[-1]
        lo, hi = index.descendant_window(node.node_id, or_self=False)
        assert list(index.ids_in_window(lo, hi)) == _preorder(node)[1:]

    def test_label_postings_equal_window_scan(self, xmark_store, index):
        lid = index.label_id("keyword")
        assert lid is not None
        lo, hi = 0, index.node_count
        scan = [
            nid
            for nid in index.ids_in_window(lo, hi)
            if index.kind_of[nid] == int(NodeKind.ELEMENT)
            and index.label_id_of[nid] == lid
        ]
        assert index.label_ids_in_windows(lid, [(lo, hi)]) == scan

    def test_sibling_runs(self, xmark_store, index):
        parent = xmark_store.tree.root
        kids = [c.node_id for c in parent.children]
        mid = kids[len(kids) // 2]
        at = kids.index(mid)
        assert list(index.following_siblings(mid)) == kids[at + 1 :]
        assert list(index.preceding_siblings(mid)) == kids[:at][::-1]
        assert list(index.following_siblings(parent.node_id)) == []

    def test_ancestor_ids_proximity_order(self, xmark_store, index):
        node = next(n for n in xmark_store.tree if not n.children)
        chain = []
        cursor = node.parent
        while cursor is not None:
            chain.append(cursor.node_id)
            cursor = cursor.parent
        assert index.ancestor_ids(node.node_id, or_self=False) == chain
        assert index.ancestor_ids(node.node_id, or_self=True) == [
            node.node_id
        ] + chain

    def test_is_ancestor_agrees_with_tree(self, xmark_store, index):
        node = next(n for n in xmark_store.tree if not n.children)
        for anc in index.ancestor_ids(node.node_id, or_self=False):
            assert index.is_ancestor(anc, node.node_id)
        assert not index.is_ancestor(node.node_id, xmark_store.tree.root.node_id)


class TestPartitionMap:
    def test_overlap_set_is_exactly_the_records_with_nodes_inside(
        self, xmark_store, index
    ):
        """The pruning must be safe (no overlapping record dropped) and
        the envelope test exact for preorder windows (record windows are
        min/max over *pre ranks*, so pre-window overlap is precise)."""
        node = xmark_store.tree.root.children[-1]
        lo, hi = index.descendant_window(node.node_id, or_self=True)
        truth = {
            xmark_store.record_of[nid] for nid in index.ids_in_window(lo, hi)
        }
        got = set(index.records_overlapping([(lo, hi)]))
        assert truth <= got  # safety: nothing with a node inside is pruned

    def test_inner_window_prunes_records(self, xmark_store, index):
        node = xmark_store.tree.root.children[-1]
        lo, hi = index.descendant_window(node.node_id, or_self=True)
        kept = index.records_overlapping([(lo, hi)])
        assert 0 < len(kept) < index.record_count

    def test_ancestor_records_are_a_safe_superset(self, xmark_store, index):
        node = next(n for n in xmark_store.tree if not n.children)
        truth = {
            xmark_store.record_of[a]
            for a in index.ancestor_ids(node.node_id, or_self=False)
        }
        got = set(index.records_for_ancestors([node.node_id], or_self=False))
        assert truth <= got
        assert len(got) < index.record_count

    def test_full_window_overlaps_every_record(self, index):
        assert len(index.records_overlapping([(0, index.node_count)])) == (
            index.record_count
        )


class TestLifecycle:
    def test_build_refuses_unreachable_nodes(self, fig3_tree):
        from repro.errors import StorageError

        partitioning = get_algorithm("ekm").partition(fig3_tree, 5)
        store = DocumentStore.build(fig3_tree, partitioning)
        orphan = fig3_tree.root.children[0]
        fig3_tree.root.children.remove(orphan)
        try:
            with pytest.raises(StorageError):
                StructuralIndex.build(store)
        finally:
            fig3_tree.root.children.insert(0, orphan)

    def test_invalidate_flips_valid_and_counts_once(self, fig3_tree):
        partitioning = get_algorithm("ekm").partition(fig3_tree, 5)
        store = DocumentStore.build(fig3_tree, partitioning)
        with telemetry.capture() as reg:
            index = store.build_index()
            assert index.valid and store.structural_index is index
            store.invalidate_index()
            store.invalidate_index()  # second call is a no-op
            assert not index.valid
            counters = {name: c.value for name, c in reg.counters.items()}
        assert counters["index.builds"] == 1
        assert counters["index.invalidations"] == 1

    def test_invalidate_order_also_invalidates_index(self, fig3_tree):
        partitioning = get_algorithm("ekm").partition(fig3_tree, 5)
        store = DocumentStore.build(fig3_tree, partitioning)
        index = store.build_index()
        store.invalidate_order()
        assert not index.valid

    def test_describe_reports_shape(self, index, xmark_store):
        desc = index.describe()
        assert desc["nodes"] == len(xmark_store.tree.nodes)
        assert desc["records"] == xmark_store.record_count
        assert desc["valid"] is True
        assert desc["labels"] > 0
