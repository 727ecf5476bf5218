"""Query engine semantics against a hand-checked document."""

import sys
import threading

import pytest

from repro.partition import get_algorithm
from repro.partition.interval import Partitioning
from repro.query import XPATHMARK_QUERIES, evaluate, run_query
from repro.storage import DocumentStore, StoredNode
from repro.xmlio import parse_tree
from tests.query.oracles import ReferenceEvaluator

DOC = (
    "<site>"
    "<regions>"
    "<namerica><item>i1</item><item>i2</item></namerica>"
    "<europe><item>i3</item></europe>"
    "</regions>"
    "<list><entry><keyword>k1</keyword></entry>"
    "<entry><sub><keyword>k2</keyword></sub></entry></list>"
    "<keyword>top</keyword>"
    "</site>"
)


@pytest.fixture(scope="module")
def store():
    tree = parse_tree(DOC)
    st = DocumentStore.build(tree, Partitioning([(0, 0)]))
    st.warm_up()
    return st


def labels(nodes):
    return [n.label for n in nodes]


def contents(nodes):
    out = []
    for node in nodes:
        texts = [c.content for c in node._node.children if c.content]
        out.append(texts[0] if texts else None)
    return out


class TestAxes:
    def test_child_chain(self, store):
        result = evaluate(store, "/site/regions/namerica/item")
        assert contents(result) == ["i1", "i2"]

    def test_wildcard(self, store):
        result = evaluate(store, "/site/regions/*/item")
        assert contents(result) == ["i1", "i2", "i3"]

    def test_descendant_double_slash(self, store):
        result = evaluate(store, "//keyword")
        assert contents(result) == ["k1", "k2", "top"]

    def test_relative_double_slash(self, store):
        result = evaluate(store, "/site/list//keyword")
        assert contents(result) == ["k1", "k2"]

    def test_descendant_or_self_absolute(self, store):
        result = evaluate(store, "/descendant-or-self::keyword")
        assert len(result) == 3

    def test_parent_axis(self, store):
        result = evaluate(store, "//item/parent::namerica")
        assert labels(result) == ["namerica"]

    def test_ancestor_axis(self, store):
        result = evaluate(store, "//keyword/ancestor::entry")
        assert len(result) == 2

    def test_ancestor_or_self(self, store):
        result = evaluate(store, "//keyword/ancestor-or-self::keyword")
        assert len(result) == 3

    def test_self_axis(self, store):
        assert labels(evaluate(store, "/site/self::site")) == ["site"]
        assert evaluate(store, "/site/self::other") == []

    def test_following_sibling(self, store):
        result = evaluate(store, "/site/regions/following-sibling::list")
        assert labels(result) == ["list"]

    def test_preceding_sibling(self, store):
        result = evaluate(store, "/site/list/preceding-sibling::regions")
        assert labels(result) == ["regions"]

    def test_document_order_no_duplicates(self, store):
        result = evaluate(store, "//entry/descendant-or-self::keyword")
        ids = [n.node_id for n in result]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestPredicates:
    def test_parent_filter(self, store):
        result = evaluate(store, "/site/regions/*/item[parent::namerica]")
        assert contents(result) == ["i1", "i2"]

    def test_or_filter(self, store):
        result = evaluate(
            store, "/site/regions/*/item[parent::namerica or parent::europe]"
        )
        assert contents(result) == ["i1", "i2", "i3"]

    def test_and_filter(self, store):
        result = evaluate(store, "//entry[keyword and parent::list]")
        assert len(result) == 1

    def test_existence_path_filter(self, store):
        result = evaluate(store, "//entry[sub/keyword]")
        assert len(result) == 1

    def test_filter_excludes_all(self, store):
        assert evaluate(store, "//item[parent::asia]") == []


class TestMeasurement:
    def test_run_query_counts(self, store):
        run = run_query(store, "//keyword")
        assert run.result_count == 3
        assert run.cross_steps == 0  # single record
        assert run.intra_steps > 0
        assert run.cost == run.intra_steps * store.config.intra_cost
        assert run.cross_ratio == 0.0

    def test_run_query_resets_between_runs(self, store):
        first = run_query(store, "//keyword")
        second = run_query(store, "//keyword")
        assert first.intra_steps == second.intra_steps

    def test_concurrent_runs_on_one_store_count_apart(self, tiny_xmark):
        """Four threads query one unindexed, warmed store at once, with
        the interpreter switching threads as often as it can: every run
        must measure exactly what it measures alone. (The buffer holds
        the whole document, so no run's page faults depend on another.)"""
        store = DocumentStore.build(
            tiny_xmark, get_algorithm("ekm").partition(tiny_xmark, 256)
        )
        store.warm_up()
        xpaths = [query.xpath for query in XPATHMARK_QUERIES]
        solo = {xpath: run_query(store, xpath) for xpath in xpaths}
        runs = []

        def worker():
            for _ in range(2):
                runs.extend(run_query(store, xpath) for xpath in xpaths)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 4 * 2 * len(xpaths)
        diverged = [run.xpath for run in runs if run != solo[run.xpath]]
        assert not diverged, f"{len(diverged)} of {len(runs)} runs: {sorted(set(diverged))}"

    def test_navigation_makes_handles_only_for_matches(self, tiny_xmark, monkeypatch):
        """A navigated Q1-Q7 round makes one handle per node a step
        matched (first offered to the step's predicates and result), plus
        an absolute path's two root handles: not one per hop."""
        store = DocumentStore.build(
            tiny_xmark, get_algorithm("km").partition(tiny_xmark, 256)
        )
        xpaths = [query.xpath for query in XPATHMARK_QUERIES]
        matched = hops = 0
        for xpath in xpaths:
            reference = ReferenceEvaluator(store.navigator())
            reference.evaluate(xpath)
            matched += reference.offered
            hops += reference.navigator.stats.intra_steps + reference.navigator.stats.cross_steps
        made = [0]
        init = StoredNode.__init__

        def counting_init(node, navigator, tree_node):
            made[0] += 1
            init(node, navigator, tree_node)

        monkeypatch.setattr(StoredNode, "__init__", counting_init)
        for xpath in xpaths:
            evaluate(store, xpath)
        assert made[0] == matched + 2 * len(xpaths)
        assert made[0] * 10 < hops

    def test_wildcard_matches_elements_only(self, store):
        from repro.tree.node import NodeKind

        result = evaluate(store, "//*")
        elements = sum(
            1 for n in store.tree if n.kind is NodeKind.ELEMENT and n.parent is not None
        )
        # descendant axis from the virtual root covers the document
        # element too
        assert len(result) == elements + 1
        assert all(n.is_element() for n in result)


class TestVirtualRoot:
    """The XPath root has its own identity: it precedes the document
    element in document order and never stands in for it in dedup."""

    @pytest.fixture(params=["navigation", "index"])
    def source(self, request):
        st = DocumentStore.build(parse_tree(DOC), Partitioning([(0, 0)]))
        if request.param == "index":
            st.build_index()
        st.warm_up()
        return st

    def test_child_step_after_descendant_or_self_from_root(self, source):
        assert labels(evaluate(source, "/descendant-or-self::node()/regions")) == [
            "regions"
        ]
        assert labels(evaluate(source, "//regions")) == ["regions"]

    def test_self_step_keeps_the_document_element(self, source):
        result = evaluate(source, "/descendant-or-self::node()/self::site")
        assert labels(result) == ["site"]
        assert result[0].node_id == source.tree.root.node_id

    def test_child_star_keeps_the_roots_children(self, source):
        result = evaluate(source, "/descendant-or-self::node()/child::*")
        # every element is somebody's child: site (of the root node),
        # regions/list/keyword (of site), and so on down
        assert labels(result) == [
            "site", "regions", "namerica", "item", "item", "europe", "item",
            "list", "entry", "keyword", "entry", "sub", "keyword", "keyword",
        ]

    def test_root_node_leads_and_is_not_the_document_element(self, source):
        result = evaluate(source, "/descendant-or-self::node()")
        assert len(result) == len(source.tree.nodes) + 1
        assert result[0].node_id != result[1].node_id
        assert result[1].node_id == source.tree.root.node_id
        assert labels(evaluate(source, "/descendant-or-self::node()[2]")) == ["site"]
