"""The id walks charge what the handle walk charged, hop for hop.

Navigation now walks node ids inside the navigator; the handle walk it
replaced is kept in ``tests/query/oracles.py`` as the reference. Every
counter a walk leaves behind must equal the reference's: result ids,
the four ``NavigationStats`` hop counters, the buffer pool's hits,
misses and evictions, and the heat tallies, compared as the ordered
sequence of packed hops. Small buffers (1 and 3 pages) make page faults
depend on the order of the hops, so a hop charged out of order shows up
here even when the totals agree.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings

from repro.datasets import xmark_document
from repro.partition import partition_tree
from repro.query import XPATHMARK_QUERIES, evaluate
from repro.query.xpathmark import EXTENDED_QUERIES
from repro.storage import DocumentStore, RecordNavigator, StorageConfig
from repro.telemetry.heat import HeatAccumulator
from tests.index.test_equivalence import xpaths
from tests.query.oracles import ReferenceEvaluator

QUERIES = tuple((q.qid, q.xpath) for q in XPATHMARK_QUERIES) + EXTENDED_QUERIES
LAYOUTS = ("ghdw", "ekm", "km")
#: buffer sizes in pages; ``None`` holds every page of the document
BUFFERS = (1, 3, None)
NAVIGATORS = {"tree": DocumentStore.navigator, "record": RecordNavigator}


@pytest.fixture(scope="module")
def tree():
    return xmark_document(scale=0.001, seed=7)


@pytest.fixture(scope="module")
def layouts(tree):
    return {name: partition_tree(tree, 256, name) for name in LAYOUTS}


def store_for(tree, partitioning, pages):
    if pages is None:
        pages = DocumentStore.build(tree, partitioning).space_report().pages
    store = DocumentStore.build(tree, partitioning, StorageConfig(buffer_pages=pages))
    store.warm_up()
    HeatAccumulator().attach("doc", store)
    return store


def counters(store, navigator) -> tuple:
    """Everything a walk leaves behind, hop order included."""
    stats, pool, heat = navigator.stats, store.buffer.stats, store.heat
    return (
        (stats.intra_steps, stats.cross_steps, stats.page_faults, stats.node_visits),
        (pool.hits, pool.misses, pool.evictions),
        list(chain(*heat.pending, heat.buffer)),
        list(chain(*heat.fault_pending, heat.fault_buffer)),
    )


class Pair:
    """Two identical stores, one walked by the engine, one by the
    reference; equal so far means equal buffer state from here on."""

    def __init__(self, tree, partitioning, pages, flavour):
        self.engine = store_for(tree, partitioning, pages)
        self.reference = store_for(tree, partitioning, pages)
        self.make = NAVIGATORS[flavour]

    def run(self, xpath: str):
        navigator = self.make(self.engine)
        found = [node.node_id for node in evaluate(navigator, xpath)]
        walked = (found, counters(self.engine, navigator))
        navigator = self.make(self.reference)
        found = [node.node_id for node in ReferenceEvaluator(navigator).evaluate(xpath)]
        return walked, (found, counters(self.reference, navigator))


@pytest.mark.parametrize("flavour", sorted(NAVIGATORS))
@pytest.mark.parametrize("pages", BUFFERS, ids=["1page", "3pages", "allpages"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_query_walks_like_the_reference(tree, layouts, layout, pages, flavour):
    pair = Pair(tree, layouts[layout], pages, flavour)
    found_any = 0
    for qid, xpath in QUERIES:  # one buffer across the queries, as served
        walked, reference = pair.run(xpath)
        assert walked == reference, qid
        found_any += bool(walked[0])
    assert found_any >= len(QUERIES) - 2, "queries found nothing: generator drift?"


@pytest.mark.parametrize("flavour", sorted(NAVIGATORS))
def test_generated_paths_walk_like_the_reference(tree, layouts, flavour):
    """The whole supported grammar: all ten axes, every node test,
    positional and boolean-path predicates."""
    pair = Pair(tree, layouts["km"], 3, flavour)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(xpaths(tree))
    def check(xpath):
        walked, reference = pair.run(xpath)
        assert walked == reference, xpath

    check()
