"""The window/navigation equivalence suite.

The structural index is only allowed to change *how* an axis step is
answered, never *what* it returns: every XPathMark query (paper Q1–Q7
plus the extended set) must produce bit-identical node-id lists through
window evaluation and through pure navigation — on both layouts, through
both navigator flavours, after structural updates (invalid index →
fallback → rebuild) and after crash recovery (index dropped → rebuild).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.partition import get_algorithm
from repro.query import XPATHMARK_QUERIES, evaluate, run_query
from repro.query.xpathmark import EXTENDED_QUERIES
from repro.recovery import WriteAheadLog, recover_store
from repro.storage import DocumentStore, StorageConfig, StoreUpdater
from repro.storage.navigator import RecordNavigator
from repro.tree.node import NodeKind
from repro.tree.traversal import iter_ancestors, iter_descendants, iter_preorder
from tests.recovery.conftest import LIMIT, apply_ops, build_store, surviving_pages

ALL_QUERIES = tuple(
    (q.qid, q.xpath) for q in XPATHMARK_QUERIES
) + EXTENDED_QUERIES

QUERY_IDS = [qid for qid, _ in ALL_QUERIES]
QUERY_XPATHS = [xpath for _, xpath in ALL_QUERIES]


@pytest.fixture(scope="module")
def stores():
    from repro.datasets import xmark_document

    tree = xmark_document(scale=0.004, seed=7)
    out = {}
    for name in ("km", "ekm"):
        partitioning = get_algorithm(name).partition(tree, 256)
        store = DocumentStore.build(tree, partitioning)
        store.warm_up()
        out[name] = store
    return out


def _ids(source, xpath: str) -> list[int]:
    return [node.node_id for node in evaluate(source, xpath)]


def _both_ways(store, xpath: str) -> tuple[list[int], list[int]]:
    """(navigation ids, window ids) for one query on one store."""
    saved = store.structural_index
    store.structural_index = None
    try:
        nav = _ids(store, xpath)
    finally:
        store.structural_index = saved
    if store.structural_index is None or not store.structural_index.valid:
        store.build_index()
    return nav, _ids(store, xpath)


class TestEveryQueryBothLayouts:
    @pytest.mark.parametrize(
        "xpath", QUERY_XPATHS, ids=QUERY_IDS
    )
    @pytest.mark.parametrize("layout", ["km", "ekm"])
    def test_window_equals_navigation(self, stores, layout, xpath):
        nav, win = _both_ways(stores[layout], xpath)
        assert nav, "query found nothing — generator drift?"
        assert win == nav

    @pytest.mark.parametrize(
        "xpath", QUERY_XPATHS, ids=QUERY_IDS
    )
    def test_record_navigator_agrees(self, stores, xpath):
        """The record-backed navigator's handles take the same window
        path; its results must match the tree-backed store handles."""
        store = stores["ekm"]
        if store.structural_index is None or not store.structural_index.valid:
            store.build_index()
        nav = RecordNavigator(store)
        assert _ids(nav, xpath) == _ids(store, xpath)


# -- the supported grammar, generated ---------------------------------------

# Paths are drawn as a walk over the document itself: each step picks an
# axis, then (mostly) names its node test after a node really found on
# that axis, so most generated paths select something.
_AXES = {
    "descendant": lambda n: list(iter_descendants(n)),
    "descendant-or-self": lambda n: list(iter_preorder(n)),
    "ancestor": lambda n: list(iter_ancestors(n)),
    "ancestor-or-self": lambda n: [n, *iter_ancestors(n)],
    "attribute": lambda n: [c for c in n.children if c.kind is NodeKind.ATTRIBUTE],
    "child": lambda n: n.children,
    "self": lambda n: [n],
    "parent": lambda n: [n.parent] if n.parent else [],
    "following-sibling": lambda n: n.parent.children[n.index + 1 :] if n.parent else [],
    "preceding-sibling": lambda n: n.parent.children[: n.index] if n.parent else [],
}
_STRAY_TESTS = ("keyword", "nosuchlabel", "*", "text()")


def _mostly_elements(nodes):
    """Text nodes are 40% of the document and `text()` selects them all;
    navigation over thousands of contexts is what makes an example slow."""
    elements = [n for n in nodes if n.kind is NodeKind.ELEMENT]
    if not elements:
        return st.sampled_from(nodes)
    return st.integers(0, 7).flatmap(
        lambda coin: st.sampled_from(nodes if coin == 0 else elements)
    )


@st.composite
def _walk(draw, node, max_steps):
    """1..max_steps predicate-free ``axis::test`` strings from ``node``,
    and the node the walk ended on. Only the first step may descend: a
    predicate that climbs and then descends re-walks the document for
    every candidate under navigation."""
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        axis = draw(st.sampled_from(tuple(_AXES)[2 if steps else 0 :]))
        found = _AXES[axis](node)
        if not found:
            axis, found = "self", [node]
        if draw(st.integers(0, 11)) == 0:
            test = draw(st.sampled_from(_STRAY_TESTS))
        else:
            node = draw(_mostly_elements(found))
            if axis == "attribute":
                test = draw(st.sampled_from((node.label, "*")))
            elif node.kind is NodeKind.ELEMENT:
                test = draw(st.sampled_from((node.label, node.label, "*", "node()")))
            else:
                test = "text()" if node.kind is NodeKind.TEXT else "node()"
        steps.append(f"{axis}::{test}")
    return steps, node


@st.composite
def _predicate(draw, node):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return f"[{draw(st.integers(1, 3))}]"
    if kind == 1:
        return "[last()]"
    # (absolute operands stay cheap: navigation re-walks them per candidate)
    operands = [
        draw(st.sampled_from(("/site/regions", "/self::node()/nosuchlabel")))
        if draw(st.integers(0, 5)) == 0
        else "/".join(draw(_walk(node, 2))[0])
        for _ in range(kind - 1)
    ]
    return "[" + draw(st.sampled_from((" or ", " and "))).join(operands) + "]"


@st.composite
def xpaths(draw, tree):
    """Absolute and relative paths of 1-4 steps over all ten axes, every
    node-test kind, positional and boolean-path predicates."""
    lead = draw(st.sampled_from(("//", "//", "/", "")))
    node = tree.root
    steps = []
    if lead == "//":  # '//' abbreviates the descendant axis: bare test
        node = draw(_mostly_elements(tree.nodes))
        if node.kind is NodeKind.ELEMENT:
            steps.append(node.label)
        else:
            steps.append("text()" if node.kind is NodeKind.TEXT else "@" + node.label)
    elif lead == "/":
        steps.append(draw(st.sampled_from(("site", "*", "self::node()"))))
    for _ in range(draw(st.integers(0 if steps else 1, 4 - len(steps)))):
        (step,), node = draw(_walk(node, 1))
        steps.append(step + "".join(draw(st.lists(_predicate(node), max_size=1))))
    return lead + "/".join(steps)


class TestGeneratedGrammar:
    @pytest.mark.parametrize("layout", ["km", "ekm"])
    def test_index_ids_equal_navigation_ids(self, stores, layout):
        store = stores[layout]
        selective = []

        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(xpaths(store.tree))
        def check(xpath):
            nav, win = _both_ways(store, xpath)
            assert win == nav, xpath
            selective.append(bool(nav))

        check()
        assert sum(selective) > len(selective) // 2, "the walk lost the document"


class TestStaircase:
    """Shapes the merged step must get right: nested contexts, per-context
    positions after a merged step, reverse axes fed by a staircase."""

    @pytest.mark.parametrize(
        "xpath",
        [
            "//parlist//listitem//keyword",
            "//listitem/descendant-or-self::listitem",
            "//listitem/descendant::keyword[1]",
            "//listitem/descendant::keyword[last()]",
            "//parlist/descendant::keyword/ancestor::listitem/following-sibling::*",
            "//keyword/ancestor::*[1]",
            "//keyword/ancestor-or-self::node()[last()]",
            "//listitem/preceding-sibling::listitem[1]/text",
            "//text/node()[2]",
        ],
    )
    @pytest.mark.parametrize("layout", ["km", "ekm"])
    def test_window_equals_navigation(self, stores, layout, xpath):
        nav, win = _both_ways(stores[layout], xpath)
        assert nav, "query found nothing — generator drift?"
        assert win == nav
        assert nav == sorted(set(nav), key=stores[layout].order_rank)

    def test_record_navigator_agrees(self, stores):
        store = stores["ekm"]
        if store.structural_index is None or not store.structural_index.valid:
            store.build_index()
        records = RecordNavigator(store)
        for xpath in (
            "//parlist//listitem//keyword",
            "//listitem/descendant::keyword[1]",
            "/descendant-or-self::node()/self::site",
        ):
            assert _ids(records, xpath) == _ids(store, xpath)


class TestCounters:
    @pytest.mark.parametrize("qid", ["Q3", "Q4", "E7", "Q6", "Q7"])
    def test_descendant_query_uses_windows_and_cheaper_cost(self, stores, qid):
        """The descendant/ancestor-heavy queries never navigate once the
        index is attached: thousands of hops become a few window steps."""
        store = stores["ekm"]
        xpath = dict(ALL_QUERIES)[qid]
        store.structural_index = None
        navigation = run_query(store, xpath)
        store.build_index()
        window = run_query(store, xpath)
        navigation_ids, window_ids = _both_ways(store, xpath)
        assert window_ids == navigation_ids
        assert window.window_steps >= 1
        assert navigation.intra_steps + navigation.cross_steps > 0
        assert window.intra_steps + window.cross_steps == 0
        # the cost model the navigator charges can only shrink: window
        # steps replace per-edge hops with per-partition page touches
        assert window.cost <= navigation.cost

    def test_inner_window_prunes_partitions(self, stores):
        store = stores["ekm"]
        if store.structural_index is None or not store.structural_index.valid:
            store.build_index()
        run = run_query(store, "//item/description//keyword")
        assert run.window_steps >= 1
        assert run.partitions_pruned > 0

    def test_fallback_counter_fires_on_invalid_index(self, stores):
        store = stores["ekm"]
        store.build_index()
        store.invalidate_index()
        with telemetry.capture() as reg:
            # two location steps, hundreds of contexts: one fallback a step
            run_query(store, "//keyword/ancestor::listitem")
            counters = {name: c.value for name, c in reg.counters.items()}
            (span,) = [s for s in reg.trace if s.name == "query.run"]
        assert counters["index.fallbacks"] == 2
        assert "index.window_hits" not in counters
        assert span.attrs["index"] == "invalid"
        store.build_index()

    def test_steps_are_counted_and_charged_once(self, stores):
        store = stores["ekm"]
        store.build_index()
        with telemetry.capture() as reg:
            run = run_query(store, "//keyword/ancestor::listitem")
            (span,) = [s for s in reg.trace if s.name == "query.run"]
        assert run.window_steps == 2  # location steps, not context nodes
        assert span.attrs["index"] == "window"
        assert "index.fallbacks" not in reg.counters
        records = store.structural_index.record_count
        assert 0 < run.partitions_pruned < 2 * records
        store.structural_index = None
        with telemetry.capture() as reg:
            run_query(store, "//keyword")
            (span,) = [s for s in reg.trace if s.name == "query.run"]
        assert span.attrs["index"] == "absent"
        assert "index.fallbacks" not in reg.counters
        store.build_index()


class TestPostUpdate:
    def test_structural_insert_invalidates_then_rebuild_matches(self):
        store = build_store()
        index = store.build_index()
        updater = StoreUpdater(store)
        apply_ops(updater)
        updater.flush()
        assert not index.valid  # insert_node invalidated the order+index

        # invalid index → navigation fallback, no window steps
        fallback = run_query(store, "//name")
        assert fallback.window_steps == 0

        nav, win = _both_ways(store, "//name")
        assert win == nav
        assert store.structural_index.valid

    def test_content_only_update_keeps_index_valid(self):
        store = build_store()
        index = store.build_index()
        updater = StoreUpdater(store)
        text = next(
            node.node_id
            for node in store.tree
            if node.label == "#text" or node.content is not None
        )
        updater.update_content(text, "renamed")
        updater.flush()
        assert index.valid
        nav, win = _both_ways(store, "//person")
        assert win == nav


class TestPostRecovery:
    def test_recovered_store_rebuilds_and_matches(self, tmp_path):
        store = build_store()
        wal = WriteAheadLog(str(tmp_path / "eq.wal")).open()
        store.attach_wal(wal)
        store.build_index()
        updater = StoreUpdater(store)
        apply_ops(updater)
        updater.flush()
        wal.close()

        recovered, _report = recover_store(
            surviving_pages(store),
            str(tmp_path / "eq.wal"),
            StorageConfig(record_limit=LIMIT),
        )
        # recovery adopts pages + log only; it must never trust a
        # pre-crash index
        assert recovered.structural_index is None
        nav, win = _both_ways(recovered, "//name")
        assert nav and win == nav
        for xpath in ("//person", "/site/person/age", "//name/parent::person"):
            nav, win = _both_ways(recovered, xpath)
            assert win == nav
