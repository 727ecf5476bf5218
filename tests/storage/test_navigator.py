"""Record-level navigation: structural and cost equivalence with the
tree-backed navigator."""

import pytest

from repro.partition import get_algorithm
from repro.partition.interval import Partitioning
from repro.storage import DocumentStore
from repro.storage.navigator import RecordNavigator
from repro.xmlio import parse_tree

DOC = '<a x="1"><b>text</b><c><d/><e/></c><f/></a>'


def build(partitioning_intervals, tree=None):
    tree = tree or parse_tree(DOC)
    store = DocumentStore.build(tree, Partitioning(partitioning_intervals))
    store.warm_up()
    return store, RecordNavigator(store)


class TestStructure:
    def test_root(self):
        _, nav = build([(0, 0)])
        root = nav.root()
        assert root.label == "a"
        assert root.parent() is None

    def test_children_across_records(self):
        # c (id 4) in its own record: its children d,e are record-local
        # to c's record; a's children include the proxied c.
        store, nav = build([(0, 0), (4, 4)])
        root = nav.root()
        labels = [c.label for c in root.children()]
        assert labels == ["x", "b", "c", "f"]
        c = [n for n in root.children() if n.label == "c"][0]
        assert c.record_id != root.record_id
        assert [n.label for n in c.children()] == ["d", "e"]

    def test_sibling_navigation_over_record_borders(self):
        store, nav = build([(0, 0), (4, 4)])
        b = nav.root().first_child().next_sibling()
        assert b.label == "b"
        c = b.next_sibling()
        assert c.label == "c"
        assert c.prev_sibling().label == "b"
        f = c.next_sibling()
        assert f.label == "f"
        assert f.next_sibling() is None

    def test_parent_through_proxy(self):
        store, nav = build([(0, 0), (4, 4)])
        c = [n for n in nav.root().children() if n.label == "c"][0]
        assert c.parent().label == "a"
        d = c.first_child()
        assert d.parent().label == "c"

    def test_content_and_kind(self):
        _, nav = build([(0, 0)])
        from repro.tree.node import NodeKind

        x = nav.root().first_child()
        assert x.kind is NodeKind.ATTRIBUTE
        assert x.content == "1"

    def test_full_traversal_matches_tree_navigator(self, tiny_xmark):
        partitioning = get_algorithm("ekm").partition(tiny_xmark, 256)
        store = DocumentStore.build(tiny_xmark, partitioning)
        store.warm_up()
        nav = RecordNavigator(store)
        record_walk = [
            (n.node_id, n.label, n.record_id)
            for n in nav.root().descendants_or_self()
        ]
        tree_walk = [
            (n.node_id, n.label, n.record_id)
            for n in store.navigator().root().descendants_or_self()
        ]
        assert record_walk == tree_walk


class TestCostEquivalence:
    @pytest.mark.parametrize("algorithm", ["km", "ekm", "rs"])
    def test_scan_costs_match(self, tiny_xmark, algorithm):
        """Both navigators must charge identical intra/cross steps for the
        same walk — the cost model is navigator-independent."""
        partitioning = get_algorithm(algorithm).partition(tiny_xmark, 256)
        store = DocumentStore.build(tiny_xmark, partitioning)
        store.warm_up()
        nav = RecordNavigator(store)
        tree_nav = store.navigator()
        for _ in nav.root().descendants_or_self():
            pass
        for _ in tree_nav.root().descendants_or_self():
            pass
        assert nav.stats.intra_steps == tree_nav.stats.intra_steps
        assert nav.stats.cross_steps == tree_nav.stats.cross_steps
        assert nav.stats.node_visits == tree_nav.stats.node_visits

    def test_cross_steps_counted(self):
        store, nav = build([(0, 0), (4, 4)])
        for _ in nav.root().descendants_or_self():
            pass
        # entering c's record and leaving it again
        assert nav.stats.cross_steps >= 2


class TestRecordBackedQueries:
    def test_xpathmark_queries_identical(self, tiny_xmark):
        """The full query engine runs record-backed and returns exactly
        the tree-backed results, costs included."""
        from repro.query import XPATHMARK_QUERIES, evaluate

        store = DocumentStore.build(
            tiny_xmark, get_algorithm("ekm").partition(tiny_xmark, 256)
        )
        store.warm_up()
        for query in XPATHMARK_QUERIES:
            tree_nav = store.navigator()
            tree_result = [n.node_id for n in evaluate(tree_nav, query.xpath)]
            tree_steps = (tree_nav.stats.intra_steps, tree_nav.stats.cross_steps)
            nav = RecordNavigator(store)
            record_result = [n.node_id for n in evaluate(nav, query.xpath)]
            record_steps = (nav.stats.intra_steps, nav.stats.cross_steps)
            assert record_result == tree_result, query.qid
            assert record_steps == tree_steps, query.qid

    def test_predicate_queries_record_backed(self):
        from repro.query import evaluate

        store, nav = build([(0, 0), (4, 4)])
        result = evaluate(nav, "/a/c[d]/e")
        assert [n.label for n in result] == ["e"]
        assert evaluate(nav, "/a/c[parent::a]") != []


class TestErrors:
    def test_requires_document_root(self):
        store, _ = build([(0, 0)])
        record = store.fetch_record(0)
        from repro.errors import StorageError
        from repro.storage.record import DOCUMENT_ROOT

        # simulate a corrupted store whose root lost its marker
        class Broken:
            record_count = 1
            record_of = store.record_of
            labels = store.labels
            manager = store.manager
            buffer = store.buffer
            heat = None

            def fetch_record(self, rid):
                rec = store.fetch_record(rid)
                for node in rec.nodes:
                    if node.parent_node_id == DOCUMENT_ROOT:
                        node.parent_node_id = 12345
                return rec

        with pytest.raises(StorageError):
            RecordNavigator(Broken())
