"""Node-at-a-time updates: placement preferences, splits, invariants."""

import random

import pytest

from repro.errors import StorageError
from repro.partition import evaluate_partitioning, get_algorithm
from repro.partition.interval import Partitioning
from repro.storage import DocumentStore, StorageConfig, StoreUpdater
from repro.storage.reconstruct import verify_store_integrity
from repro.tree.node import NodeKind
from repro.xmlio import parse_tree
from tests.storage.oracles import (
    assert_members_match_scan,
    assert_pages_match_scan,
)

LIMIT = 16


@pytest.fixture(autouse=True)
def flushes_match_the_oracle(monkeypatch):
    """After every flush of this module's scripts, every page slot and
    ``encode_record`` equal the whole-tree scan + oracle codec. (How a
    flush's work scales is ``tests/test_linear_work.py``'s flush row.)"""
    flush = StoreUpdater.flush

    def checked_flush(updater):
        flush(updater)
        assert_pages_match_scan(updater.store)

    monkeypatch.setattr(StoreUpdater, "flush", checked_flush)


def small_store():
    tree = parse_tree("<a><b>xx</b><c/><d/></a>")
    config = StorageConfig(record_limit=LIMIT)
    store = DocumentStore.build(tree, Partitioning([(0, 0)]), config)
    return store


def assert_invariants(updater: StoreUpdater):
    store = updater.store
    partitioning = updater.current_partitioning()
    report = evaluate_partitioning(store.tree, partitioning, updater.limit)
    assert report.feasible, "updates broke feasibility"
    # record weights bookkeeping matches the evaluator
    from repro.partition.evaluate import partition_weights, assignment_from_partitioning

    assignment = assignment_from_partitioning(store.tree, partitioning)
    recomputed = {}
    for node in store.tree:
        rid = store.record_of[node.node_id]
        recomputed[rid] = recomputed.get(rid, 0) + node.weight
    for rid, weight in recomputed.items():
        assert store.record_weights[rid] == weight
        assert weight <= updater.limit
    return report


class TestInsertPlacement:
    def test_fits_with_parent(self):
        store = small_store()
        updater = StoreUpdater(store)
        nid = updater.insert_node(0, "new", kind=NodeKind.ELEMENT)
        assert store.record_of[nid] == store.record_of[0]
        assert updater.stats.placed_with_parent == 1
        assert_invariants(updater)

    def test_insert_at_position(self):
        store = small_store()
        updater = StoreUpdater(store)
        nid = updater.insert_node(0, "first", position=0)
        root = store.tree.root
        assert root.children[0].node_id == nid
        assert [c.label for c in root.children] == ["first", "b", "c", "d"]
        assert_invariants(updater)

    def test_document_order_recomputed(self):
        store = small_store()
        updater = StoreUpdater(store)
        nid = updater.insert_node(0, "first", position=0)
        assert store.order_rank(nid) == 1  # right after the root
        assert store.order_rank(store.tree.root.node_id) == 0

    def test_overflow_goes_to_sibling_record(self):
        tree = parse_tree("<a><b/><c/><d/></a>")
        config = StorageConfig(record_limit=4)
        # (c,d) share a record; root partition = {a, b} weight 2
        store = DocumentStore.build(tree, Partitioning([(0, 0), (2, 3)]), config)
        updater = StoreUpdater(store)
        # Fill the root record so a new child of a cannot join it.
        updater.insert_node(0, "x1")
        updater.insert_node(0, "x2")
        assert store.record_weights[store.record_of[0]] == 4
        # Next child of a, inserted adjacent to c: joins (c,d)'s record.
        nid = updater.insert_node(0, "y", position=2)
        assert store.record_of[nid] == store.record_of[2]
        assert updater.stats.placed_with_sibling == 1
        assert_invariants(updater)

    def test_split_when_everything_full(self):
        store = small_store()  # total weight 6 in one record, K=16
        updater = StoreUpdater(store)
        for i in range(25):
            updater.insert_node(0, f"n{i}")
        report = assert_invariants(updater)
        assert report.cardinality >= 2  # at least one split or new record
        assert updater.stats.record_splits + updater.stats.new_records >= 1

    def test_many_inserts_remain_feasible(self):
        store = small_store()
        updater = StoreUpdater(store)
        rng = random.Random(3)
        ids = [0, 1, 2, 3]
        for i in range(120):
            parent = rng.choice(ids)
            nid = updater.insert_node(
                parent,
                f"e{i}",
                kind=rng.choice((NodeKind.ELEMENT, NodeKind.TEXT)),
                content="t" * rng.randint(0, 30),
                position=rng.randint(
                    0, len(store.tree.node(parent).children)
                ),
            )
            ids.append(nid)
        report = assert_invariants(updater)
        assert report.cardinality > 1
        updater.flush()
        verify_store_integrity(store)

    def test_positional_insert_rewrites_shifted_siblings(self):
        # c and d live in another record than a; inserting in front of
        # them renumbers their sibling positions, which that record stores
        tree = parse_tree("<a><b/><c/><d/></a>")
        config = StorageConfig(record_limit=4)
        store = DocumentStore.build(tree, Partitioning([(0, 0), (2, 3)]), config)
        updater = StoreUpdater(store)
        updater.insert_node(0, "first", position=0)
        updater.flush()
        verify_store_integrity(store)
        positions = {
            n.node_id: n.position for n in store.fetch_record(store.record_of[2]).nodes
        }
        assert (positions[2], positions[3]) == (2, 3)

    def test_rejects_oversized_node(self):
        updater = StoreUpdater(small_store())
        with pytest.raises(StorageError):
            updater.insert_node(0, "huge", kind=NodeKind.TEXT, content="x" * 1000)


class TestContentUpdates:
    def test_grow_in_place(self):
        store = small_store()
        updater = StoreUpdater(store)
        text_id = 2  # the "xx" text node under b
        assert store.tree.node(text_id).kind is NodeKind.TEXT
        updater.update_content(text_id, "a much longer text value")
        assert store.tree.node(text_id).content == "a much longer text value"
        assert_invariants(updater)

    def test_shrink(self):
        store = small_store()
        updater = StoreUpdater(store)
        before = store.record_weights[store.record_of[2]]
        updater.update_content(2, "")
        assert store.record_weights[store.record_of[2]] < before
        assert_invariants(updater)

    def test_growth_triggers_split(self):
        store = small_store()
        updater = StoreUpdater(store)
        updater.update_content(2, "x" * 100)  # 1 + ceil(100/8) = 14 slots
        report = assert_invariants(updater)
        assert report.cardinality >= 2
        assert updater.stats.record_splits >= 1

    def test_rejects_non_text(self):
        updater = StoreUpdater(small_store())
        with pytest.raises(StorageError):
            updater.update_content(0, "nope")  # element

    def test_content_update_refreshes_cached_tree_weights(self):
        store = small_store()
        tree = store.tree
        assert tree.total_weight() == 6  # both sums are cached now
        assert tree.subtree_weight(tree.root) == 6
        StoreUpdater(store).update_content(2, "a much longer text value, longer still")
        actual = sum(n.weight for n in tree)
        assert actual > 6
        assert tree.total_weight() == actual
        assert tree.subtree_weight(tree.root) == actual


class TestFlush:
    def test_flush_reencodes_records(self):
        store = small_store()
        updater = StoreUpdater(store)
        nid = updater.insert_node(0, "fresh", kind=NodeKind.TEXT, content="hello")
        updater.flush()
        record = store.fetch_record(store.record_of[nid])
        entry = next(n for n in record.nodes if n.node_id == nid)
        assert entry.content == b"hello"

    def test_flush_handles_new_and_migrated_records(self):
        store = small_store()
        updater = StoreUpdater(store)
        for i in range(30):
            updater.insert_node(0, f"n{i}", kind=NodeKind.TEXT, content="abcdef")
        updater.flush()
        # every record decodes and together they hold every node
        seen = []
        for rid in range(store.record_count):
            seen.extend(store.fetch_record(rid).node_ids())
        assert sorted(seen) == list(range(len(store.tree)))

    def test_space_report_consistent_after_flush(self):
        store = small_store()
        updater = StoreUpdater(store)
        for i in range(10):
            updater.insert_node(0, f"n{i}")
        updater.flush()
        report = store.space_report()
        assert report.records == store.record_count


class TestQueryAfterUpdates:
    def test_queries_see_inserted_nodes(self):
        from repro.query import evaluate

        store = small_store()
        updater = StoreUpdater(store)
        updater.insert_node(0, "zzz", position=0)
        updater.flush()
        result = evaluate(store, "/a/zzz")
        assert len(result) == 1
        # document order respected despite the out-of-order node id
        all_children = evaluate(store, "/a/*")
        labels = [n.label for n in all_children]
        assert labels == ["zzz", "b", "c", "d"]


def _random_edit(updater: StoreUpdater, rng: random.Random) -> None:
    """One step of a seeded edit sequence: mostly inserts (half of them
    positional), content growth and shrinkage, now and then a flush."""
    store = updater.store
    roll = rng.random()
    if roll < 0.6:
        parents = [n for n in store.tree if n.kind is NodeKind.ELEMENT]
        parent = rng.choice(parents)
        is_text = rng.random() < 0.4
        updater.insert_node(
            parent.node_id,
            f"e{rng.randrange(6)}",
            kind=NodeKind.TEXT if is_text else NodeKind.ELEMENT,
            content="t" * rng.randint(0, 30) if is_text else None,
            position=(
                rng.randint(0, len(parent.children)) if rng.random() < 0.5 else None
            ),
        )
    elif roll < 0.9:
        node = rng.choice([n for n in store.tree if n.kind is NodeKind.TEXT])
        updater.update_content(node.node_id, "c" * rng.choice((0, 3, 40, 100)))
    else:
        updater.flush()
        assert_pages_match_scan(store)
        verify_store_integrity(store)


class TestMemberLists:
    """``store.members`` is an invariant of every update, and the
    whole-document scan it replaced is its oracle."""

    @pytest.mark.parametrize("seed", range(10))
    def test_every_op_keeps_members_and_every_flush_matches_the_scan(self, seed):
        rng = random.Random(seed)
        store = small_store()
        assert_members_match_scan(store)
        assert_pages_match_scan(store)
        updater = StoreUpdater(store)
        for _ in range(150):
            try:
                _random_edit(updater, rng)
            except StorageError:
                pass  # no room: a refused op must leave the lists intact too
            assert_members_match_scan(store)
        assert_invariants(updater)
        assert updater.stats.record_splits >= 3
        updater.flush()
        assert_pages_match_scan(store)
        verify_store_integrity(store)

    def test_forced_splits_move_members_between_lists(self):
        store = small_store()
        updater = StoreUpdater(store)
        for i in range(40):
            updater.insert_node(0, f"n{i}", position=i % 3)
            assert_members_match_scan(store)
        updater.update_content(2, "x" * 100)
        assert_members_match_scan(store)
        assert updater.stats.record_splits >= 2
        updater.flush()
        assert_pages_match_scan(store)
