"""DocumentStore: materialization, navigation, cost accounting."""

import pytest

from repro.datasets import (
    PAPER_DOCUMENTS,
    duplicated_subtree_tree,
    generate_document,
    random_flat_tree,
    random_tree,
)
from repro.partition import get_algorithm
from repro.partition.interval import Partitioning
from repro.storage import DocumentStore, NavigationStats, StorageConfig
from repro.tree.builders import tree_from_spec
from repro.xmlio import parse_tree
from tests.storage.oracles import assert_pages_match_scan

DOC = "<a><b>hello world</b><c><d/><e/></c><f/></a>"


def build_store(partitioning_intervals, limit=16, **config_kwargs):
    tree = parse_tree(DOC)
    config = StorageConfig(**config_kwargs) if config_kwargs else StorageConfig()
    return DocumentStore.build(tree, Partitioning(partitioning_intervals), config)


class TestMaterialization:
    def test_records_per_interval(self):
        store = build_store([(0, 0), (3, 3)])  # root + (c,c)
        assert store.record_count == 2
        rep = store.space_report()
        assert rep.records == 2
        assert rep.pages >= 1

    def test_record_contents_round_trip(self):
        store = build_store([(0, 0), (3, 3)])
        all_ids = set()
        for rid in range(store.record_count):
            record = store.fetch_record(rid)
            all_ids.update(record.node_ids())
        assert all_ids == set(range(len(store.tree)))

    def test_fragment_parent_slots(self):
        store = build_store([(0, 0), (3, 3)])
        root_record_id = store.record_of[0]
        record = store.fetch_record(root_record_id)
        roots = record.fragment_roots()
        assert len(roots) == 1 and roots[0].node_id == 0

    def test_label_dictionary_shared(self):
        store = build_store([(0, 0)])
        assert len(store.labels) == len({n.label for n in store.tree})

    def test_assignment_follows_partitioning(self, tiny_xmark):
        partitioning = get_algorithm("ekm").partition(tiny_xmark, 64)
        store = DocumentStore.build(tiny_xmark, partitioning)
        from repro.partition.evaluate import assignment_from_partitioning

        assert store.record_of == assignment_from_partitioning(tiny_xmark, partitioning)


class TestNavigationCosts:
    def test_intra_step_cost(self):
        store = build_store([(0, 0)])  # everything in one record
        store.warm_up()
        nav = store.navigator()
        child = nav.root().first_child()
        assert child.label == "b"
        assert nav.stats.intra_steps == 1
        assert nav.stats.cross_steps == 0
        assert nav.stats.cost(store.config) == store.config.intra_cost

    def test_cross_step_cost(self):
        store = build_store([(0, 0), (1, 1)])  # b in its own record
        store.warm_up()
        nav = store.navigator()
        nav.root().first_child()
        assert nav.stats.cross_steps == 1
        assert nav.stats.intra_steps == 0

    def test_children_iteration_counts_each_hop(self):
        store = build_store([(0, 0)])
        store.warm_up()
        nav = store.navigator()
        kids = list(nav.root().children())
        assert [k.label for k in kids] == ["b", "c", "f"]
        assert nav.stats.intra_steps == 3  # first_child + 2 next_sibling

    def test_descendants_or_self_covers_subtree(self):
        store = build_store([(0, 0)])
        store.warm_up()
        labels = [n.label for n in store.navigator().root().descendants_or_self()]
        assert labels == ["a", "b", "#text", "c", "d", "e", "f"]

    def test_parent_and_siblings(self):
        store = build_store([(0, 0)])
        store.warm_up()
        c = store.navigator().root().first_child().next_sibling()
        assert c.label == "c"
        assert c.parent().label == "a"
        assert c.prev_sibling().label == "b"

    def test_page_fault_accounting_with_tiny_buffer(self):
        tree = parse_tree(DOC)
        # every element its own partition + tiny buffer -> faults occur
        intervals = [(0, 0), (1, 1), (3, 3), (6, 6)]
        config = StorageConfig(buffer_pages=1, page_size=96, page_header=8)
        store = DocumentStore.build(tree, Partitioning(intervals), config)
        nav = store.navigator()
        for node in nav.root().descendants_or_self():
            pass
        assert nav.stats.page_faults > 0
        assert nav.stats.cost(store.config) > 0

    def test_warm_up_resets_counters(self):
        store = build_store([(0, 0), (1, 1)])
        store.navigator().root().first_child()
        store.warm_up()
        assert store.buffer.stats.misses == 0
        # navigation counters are per walk: a new navigator starts at zero
        assert store.navigator().stats == NavigationStats()

    def test_walks_count_apart(self):
        store = build_store([(0, 0), (1, 1)])
        store.warm_up()
        first, second = store.navigator(), store.navigator()
        first.root().first_child()
        assert first.stats.cross_steps == 1
        assert second.stats == NavigationStats()


class TestCostModelComparative:
    def test_sibling_layout_cheaper_than_singleton(self, tiny_xmark):
        """The paper's core claim at store level: EKM layout navigates
        cheaper than KM layout for a full document scan."""
        costs = {}
        for name in ("km", "ekm"):
            partitioning = get_algorithm(name).partition(tiny_xmark, 256)
            store = DocumentStore.build(tiny_xmark, partitioning)
            store.warm_up()
            nav = store.navigator()
            for _ in nav.root().descendants_or_self():
                pass
            costs[name] = nav.stats.cost(store.config)
        assert costs["ekm"] < costs["km"]


GENERATED = {
    **{
        spec.name: lambda name=spec.name: generate_document(name, 0.02)
        for spec in PAPER_DOCUMENTS
    },
    "random_tree": lambda: random_tree(600, seed=3),
    "random_flat_tree": lambda: random_flat_tree(400, seed=3),
    "duplicated_subtree_tree": lambda: duplicated_subtree_tree(12, seed=3),
}


class TestOneEncoder:
    @pytest.mark.parametrize("algorithm", ["ekm", "km"])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_build_writes_the_oracle_bytes(self, name, algorithm):
        """Every page slot ``build`` writes, on every dataset generator,
        is what the whole-tree scan + oracle codec encode, and
        ``encode_record`` reproduces it."""
        tree = GENERATED[name]()
        partitioning = get_algorithm(algorithm).partition(tree, 64)
        store = DocumentStore.build(tree, partitioning, StorageConfig(record_limit=64))
        assert store.record_count > 1
        assert_pages_match_scan(store)
