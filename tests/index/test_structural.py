"""Unit tests for :class:`repro.index.StructuralIndex`: column
correctness against a reference traversal, axis windows, exact
record-map pruning, and the invalidation lifecycle."""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.index import StructuralIndex
from repro.partition import Partitioning, get_algorithm
from repro.query import run_query
from repro.storage import DocumentStore, StorageConfig
from repro.tree.node import NodeKind
from repro.xmlio import parse_tree


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


@pytest.fixture(scope="module", params=["ekm", "km", "dhw"])
def layout(request):
    """A smaller XMark in the given layout, with its index built."""
    from repro.datasets import xmark_document

    tree = xmark_document(scale=0.002, seed=11)
    partitioning = get_algorithm(request.param).partition(tree, 64)
    store = DocumentStore.build(tree, partitioning, StorageConfig(record_limit=64))
    store.build_index()
    return store


def _records_in(index, record_of, windows):
    """The records holding a node of ``windows``, by scanning them."""
    return {
        record_of[index.node_at[rank]]
        for lo, hi in windows
        for rank in range(lo, hi)
    }


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
        """Postorder rank and level are not stored; they follow from the
        preorder rank, the subtree size and the parent chain."""
        pre, post, level = _reference_orders(xmark_store.tree)
        for nid in range(index.node_count):
            assert index.pre_of[nid] == pre[nid]
            depth = len(index.ancestor_ids(nid, or_self=False))
            assert depth == level[nid]
            assert index.pre_of[nid] + index.size_of[nid] - 1 - depth == post[nid]

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


def _assert_ancestor_charge_exact(store, xpath, monkeypatch):
    """Run ``xpath`` (one ancestor step, last): that step decodes exactly
    the records of the nodes it climbed, and every step decodes its own
    result's records."""
    climbs = []
    charges = []
    ancestors_of = StructuralIndex.ancestors_of
    charge = DocumentStore.charge_index_step

    def recording_climb(self, node_ids, or_self):
        climbs.append(ancestors_of(self, node_ids, or_self))
        return climbs[-1]

    def recording_charge(self, stats, result_ids, range_records=None):
        charges.append((list(result_ids), range_records))
        return charge(self, stats, result_ids, range_records)

    monkeypatch.setattr(StructuralIndex, "ancestors_of", recording_climb)
    monkeypatch.setattr(DocumentStore, "charge_index_step", recording_charge)
    assert run_query(store, xpath).result_count > 0
    (climbed,) = climbs
    decoded = set(charges[-1][1])
    assert decoded == {store.record_of[a] for a in climbed}
    assert len(decoded) < store.record_count
    for ids, step_decoded in charges:
        assert {store.record_of[i] for i in ids} <= set(step_decoded)


class TestPartitionMap:
    def test_overlap_set_is_exactly_the_records_with_nodes_inside(
        self, xmark_store, index
    ):
        node = xmark_store.tree.root.children[-1]
        window = index.descendant_window(node.node_id, or_self=True)
        got = set(index.records_overlapping([window]))
        assert got == _records_in(index, xmark_store.record_of, [window])

    def test_staircase_windows_decode_exactly_their_records(self, layout):
        """Seeded staircases (the descendant windows of random node
        sets) decode exactly the records holding a node inside them —
        no record whose span merely encloses a window."""
        index = layout.structural_index
        rng = random.Random(29)
        for trial in range(60):
            picked = rng.sample(range(index.node_count), rng.choice((1, 3, 20, 200)))
            picked.sort(key=index.pre_of.__getitem__)
            windows = index.descendant_windows(picked, or_self=trial % 2 == 0)
            got = set(index.records_overlapping(windows))
            assert got == _records_in(index, layout.record_of, windows)

    def test_record_map_runs_cover_preorder(self, layout):
        index = layout.structural_index
        starts = list(index.run_start) + [index.node_count]
        assert starts[0] == 0
        for at, rid in enumerate(index.run_record):
            ranks = range(starts[at], starts[at + 1])
            assert ranks, "runs are non-empty"
            assert {layout.record_of[index.node_at[r]] for r in ranks} == {rid}
            if at:
                assert index.run_record[at - 1] != rid, "runs are maximal"

    def test_window_inside_a_hole_skips_the_enclosing_record(self):
        """``x``'s subtree is cut out of the root's record, whose preorder
        span [0, 3] therefore encloses a hole at rank 2: a window inside
        the hole decodes only the cut-out record."""
        tree = parse_tree("<doc><x><y/></x><z/></doc>")
        (x, z) = tree.root.children
        (y,) = x.children
        store = DocumentStore.build(tree, Partitioning([(0, 0), (y.node_id, y.node_id)]))
        index = store.build_index()
        record_of = store.record_of
        assert record_of[0] == record_of[z.node_id] != record_of[y.node_id]
        window = index.descendant_window(x.node_id, or_self=False)
        assert set(index.records_overlapping([window])) == {record_of[y.node_id]}

    def test_ancestor_charge_is_the_climbed_ancestors_records(
        self, layout, monkeypatch
    ):
        _assert_ancestor_charge_exact(layout, "//name/ancestor::*", monkeypatch)

    def test_ancestor_step_skips_a_record_spanning_its_context(self, monkeypatch):
        """``b``'s record spans ``b`` in pre- and postorder (``a`` before
        it, ``c`` after it), yet holds no ancestor of ``b``."""
        tree = parse_tree("<doc><a/><b/><c/></doc>")
        (a, _, c) = tree.root.children
        store = DocumentStore.build(tree, Partitioning([(0, 0), (a.node_id, c.node_id)]))
        store.build_index()
        _assert_ancestor_charge_exact(store, "//b/ancestor::*", monkeypatch)

    def test_inner_window_prunes_records(self, xmark_store, index):
        node = xmark_store.tree.root.children[-1]
        lo, hi = index.descendant_window(node.node_id, or_self=True)
        kept = index.records_overlapping([(lo, hi)])
        assert 0 < len(kept) < index.record_count

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
