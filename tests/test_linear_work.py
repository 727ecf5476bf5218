"""Linear time, by counters: every pipeline stage at n and about 4n.

The paper's title claim is linear time for a fixed ``K`` (Sec. 3.2-3.3).
Each row below runs one stage on a generator input at two sizes and
compares *work*, never time:

* **line events** — Python ``"line"`` events counted by a
  :func:`sys.settrace` hook while the stage runs. Every Python-level
  loop iteration produces at least one, one-line comprehensions
  included, and the count does not depend on the machine;
* **named counters** the code already keeps, or that follow from its
  data after the call: DP cells, candidate replays, encoded nodes,
  navigation hops, index window steps, record-map runs touched.

A row passes when every counter grew by at most ``(n2 / n1) * SLACK``,
where ``n`` is what the stage's work must scale with: document nodes,
or, for an update flush, the nodes its fixed edit script dirties.
Blind spot:
C-level work (``list.insert``, ``in`` on a list, ``str.join``) emits no
line events, so a quadratic builtin call inside a linear Python loop
passes unseen.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from functools import cache
from typing import Callable

import pytest

import repro.analysis.contracts  # noqa: F401  - imported lazily by Partitioner.partition
from repro import telemetry
from repro.bulkload import BulkLoader
from repro.datasets import random_flat_tree, random_tree, xmark_document
from repro.index.structural import StructuralIndex
from repro.partition import (
    ALGORITHMS,
    DHWPartitioner,
    Partitioning,
    evaluate_partitioning,
    get_algorithm,
)
from repro.partition.flatdp import FlatDP
from repro.partition.shapecache import clear_default_cache
from repro.query.engine import run_query
from repro.query.xpathmark import EXTENDED_QUERIES, XPATHMARK_QUERIES
from repro.storage import DocumentStore, StorageConfig, StoreUpdater
from repro.storage.reconstruct import verify_store_integrity
from repro.tree.builders import chain_tree
from repro.tree.node import Tree
from repro.xmlio import parse_tree, tree_to_xml

#: allowed excess of a counter's growth over the input's growth
SLACK = 1.25
#: record capacity of the XMark rows (XMark nodes weigh up to 10 slots)
K = 16
#: XMark scales of the two sizes: 955 and 3 259 nodes (x3.41)
XMARK_SCALES = (0.0004, 0.0012)
#: capacity of the partitioner rows: fan-outs of the random trees stay
#: below it, those of the flat trees are at least twice it
DP_K = 8
TREE_SIZES = (300, 1200)
FANOUTS = (16, 64)

Counters = dict[str, int]
#: a row maps a size step (0 small, 1 large) to ``(n, counters)``
Row = Callable[[int], tuple[int, Counters]]


def line_events(stage: Callable[[], object]) -> tuple[int, object]:
    """Run ``stage()`` counting Python line events; returns ``(events,
    result)``. Frames of this module are not traced, so the counting
    wrappers below add no events of their own."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def enter(frame, event, arg):
        return None if frame.f_code.co_filename == __file__ else local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = stage()
    finally:
        sys.settrace(previous)
    return events, result


def replays(table: FlatDP) -> int:
    """Candidate-2 iterations ``FlatDP._extend`` ran on ``table``: every
    computed cell of column ``j`` replays that column's candidate list."""
    return sum(
        len(table.needed[j]) * len(table._candidates[j] or ())
        for j in range(1, table.n + 1)
    )


# -- inputs ------------------------------------------------------------------


@cache
def xmark(step: int) -> Tree:
    return xmark_document(scale=XMARK_SCALES[step], seed=2006)


@cache
def xmark_text(step: int) -> str:
    return tree_to_xml(xmark(step))


def ekm_store(step: int) -> DocumentStore:
    tree = xmark(step)
    return DocumentStore.build(
        tree, get_algorithm("ekm").partition(tree, K), StorageConfig(record_limit=K)
    )


def flat_tree(fanout: int) -> Tree:
    return random_flat_tree(fanout, seed=fanout)


def random_tree_at(step: int) -> Tree:
    return random_tree(TREE_SIZES[step], seed=step)


def flat_tree_at(step: int) -> Tree:
    return flat_tree(FANOUTS[step])


def sectioned_store(sections: int) -> DocumentStore:
    """A root with ``sections`` identical 10-node subtrees, one record
    each: section ``i`` has the same node ids whatever ``sections`` is."""
    body = "<s><t>text</t>" + "<u/>" * 7 + "</s>"
    tree = parse_tree("<doc>" + body * sections + "</doc>")
    intervals = [(0, 0)] + [(s.node_id, s.node_id) for s in tree.root.children]
    return DocumentStore.build(
        tree, Partitioning(intervals), StorageConfig(record_limit=K)
    )


# -- rows --------------------------------------------------------------------


def load_row(algorithm: str) -> Row:
    def row(step):
        text = xmark_text(step)
        loader = BulkLoader(algorithm, limit=K)
        events, result = line_events(lambda: loader.load(text))
        return len(result.tree), {"line_events": events}

    return row


def partition_row(name: str, tree_at: Callable[[int], Tree]) -> Row:
    """One partitioner run against an empty shape cache: line events, DP
    cells and candidate replays (summed over the Lemma-2 tables it
    built, captured by wrapping ``FlatDP.__init__``). Every table also
    meets the size-independent bound: a cell replays at most ``K``
    candidates, since Lemma 2's candidate window is ``min(j, K)`` wide."""

    def row(step):
        tree = tree_at(step)
        partitioner = DHWPartitioner(collect_stats=True) if name == "dhw" else get_algorithm(name)
        tables: list[FlatDP] = []
        init = FlatDP.__init__

        def recording_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            tables.append(table)

        clear_default_cache()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FlatDP, "__init__", recording_init)
            events, _ = line_events(lambda: partitioner.partition(tree, DP_K))
        for table in tables:
            assert replays(table) <= table.limit * table.cells_computed
        cells = sum(table.cells_computed for table in tables)
        if name == "dhw":
            assert partitioner.stats.dp_cells == cells
        return len(tree), {
            "line_events": events,
            "dp_cells": cells,
            "replays": sum(replays(table) for table in tables),
        }

    return row


def evaluate_row(step):
    tree = random_tree_at(step)
    partitioning = get_algorithm("ekm").partition(tree, DP_K)
    events, _ = line_events(lambda: evaluate_partitioning(tree, partitioning, DP_K))
    return len(tree), {"line_events": events}


def build_row(step):
    tree = xmark(step)
    partitioning = get_algorithm("ekm").partition(tree, K)
    config = StorageConfig(record_limit=K)
    events, _ = line_events(lambda: DocumentStore.build(tree, partitioning, config))
    return len(tree), {"line_events": events}


def index_row(step):
    store = ekm_store(step)
    events, _ = line_events(store.build_index)
    return len(store.tree), {"line_events": events}


def query_row(*xpaths: str) -> Row:
    """The queries through the structural index (traced), then by
    navigation on the same store for the hop counts: the index answers
    every step of these queries, so its runs make no hops."""

    def row(step):
        store = ekm_store(step)
        store.build_index()
        # records_overlapping must read only the runs a window touches:
        # from the one holding its first rank to the last starting inside
        # it. Its own line events are counted apart, so that a walk over
        # more runs shows against that count, not against the whole query.
        pruning = [0, 0]
        records_overlapping = StructuralIndex.records_overlapping

        def counting(index, windows):
            run_start = index.run_start
            for lo, hi in windows:
                pruning[0] += bisect_left(run_start, hi) - bisect_right(run_start, lo) + 1
            events, out = line_events(lambda: records_overlapping(index, windows))
            pruning[1] += events
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StructuralIndex, "records_overlapping", counting)
            events, runs = line_events(lambda: [run_query(store, x) for x in xpaths])
        store.invalidate_index()
        navigated = [run_query(store, x) for x in xpaths]
        return len(store.tree), {
            "line_events": events,
            "window_steps": sum(run.window_steps for run in runs),
            "pruning_iterations": pruning[0],
            "pruning_line_events": pruning[1],
            "hops": sum(run.total_steps for run in navigated),
        }

    return row


#: the flush row's script edits this many sections, inserting this many
#: nodes into each; every edited section ends up in dirty records
EDITED_SECTIONS = 8
INSERTS = 5
#: nodes the script leaves in the records it dirties: its sections, grown
SCRIPT_NODES = EDITED_SECTIONS * (10 + INSERTS)


def edit_first_sections(store: DocumentStore) -> tuple[int, int]:
    """The fixed script against the first sections, then a flush;
    returns (nodes in the dirty records at flush time, nodes_encoded)."""
    updater = StoreUpdater(store)
    for section in store.tree.root.children[:EDITED_SECTIONS]:
        sid = section.node_id
        for i in range(INSERTS - 1):
            updater.insert_node(sid, f"n{i}")
        updater.insert_node(sid, "front", position=0)
        updater.update_content(sid + 2, "x" * 60)  # the section's text node
    assert updater.stats.record_splits >= EDITED_SECTIONS
    dirty = sum(len(store.members[rid]) for rid in updater._dirty)
    with telemetry.capture() as reg:
        updater.flush()
    return dirty, reg.counters["storage.updates.nodes_encoded"].value


def flush_row(step):
    """The same edit script on a 10x larger document: ``n`` is the
    script's nodes at both sizes, so every counter must stay within
    ``SLACK`` of its small-document value, and no step may walk the
    whole tree."""
    store = sectioned_store((200, 2000)[step])
    whole_document_scans = [0]
    tree_iter = Tree.__iter__

    def counting_iter(tree):
        whole_document_scans[0] += 1
        return tree_iter(tree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tree, "__iter__", counting_iter)
        events, (dirty, encoded) = line_events(lambda: edit_first_sections(store))
    assert whole_document_scans[0] == 0  # apply + flush never walk the tree
    assert encoded == dirty == SCRIPT_NODES
    verify_store_integrity(store)
    return SCRIPT_NODES, {
        "line_events": events,
        "nodes_encoded": encoded,
        "whole_document_scans": whole_document_scans[0],
    }


def serialize_row(shape: Callable[[int], Tree]) -> Row:
    def row(step):
        tree = shape((500, 2000)[step])
        events, _ = line_events(lambda: tree_to_xml(tree))
        return len(tree), {"line_events": events}

    return row


QUERY_CYCLE = tuple(q.xpath for q in XPATHMARK_QUERIES) + tuple(
    xpath for _, xpath in EXTENDED_QUERIES
)
#: fdw takes flat trees only, so it runs in the flat rows alone; brute
#: enumerates every partitioning (exponential by design) and refuses
#: trees this size
FLAT_DP = ("fdw", "ghdw", "dhw")

ROWS: dict[str, Row] = {
    **{f"load-{alg}": load_row(alg) for alg in ("ekm", "km", "rs")},
    **{
        f"partition-{name}": partition_row(name, random_tree_at)
        for name in ALGORITHMS
        if name not in ("fdw", "brute")
    },
    **{f"flat-{name}": partition_row(name, flat_tree_at) for name in FLAT_DP},
    "evaluate_partitioning": evaluate_row,
    "DocumentStore.build": build_row,
    "build_index": index_row,
    "query-cycle": query_row(*QUERY_CYCLE),
    "query-//item[descendant::keyword]": query_row("//item[descendant::keyword]"),
    "flush": flush_row,
    "tree_to_xml-depth": serialize_row(lambda depth: chain_tree([1] * depth)),
    "tree_to_xml-fanout": serialize_row(flat_tree),
}

#: rows whose work is known to grow faster than their input
KNOWN_SUPERLINEAR = {
    "DocumentStore.build": (
        "ROADMAP item 15: first-fit page placement probes every page "
        "allocated so far for each record"
    ),
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason=KNOWN_SUPERLINEAR[name]),
        )
        if name in KNOWN_SUPERLINEAR
        else name
        for name in ROWS
    ],
)
def test_work_grows_linearly(name):
    message, over = overgrowth(ROWS[name])
    assert not over, f"{message}: {over}"


def overgrowth(row: Row) -> tuple[str, dict[str, str]]:
    """The pass rule: the counters of ``row`` that grew by more than
    ``(n2 / n1) * SLACK``, and the bound as text."""
    (n1, small), (n2, large) = row(0), row(1)
    bound = n2 / n1 * SLACK
    over = {
        counter: f"{small[counter]} -> {large[counter]}"
        for counter in small
        if large[counter] > small[counter] * bound
    }
    return f"n {n1} -> {n2} allows x{bound:.2f}", over


def test_every_partitioner_but_brute_has_a_row():
    covered = {name.split("-", 1)[1] for name in ROWS if name.startswith(("partition-", "flat-"))}
    assert set(ALGORITHMS) - covered == {"brute"}


def test_every_known_superlinear_row_exists():
    # a stale entry would silently drop its strict xfail
    assert set(KNOWN_SUPERLINEAR) <= set(ROWS)


# -- the harness itself ------------------------------------------------------

#: toy stages, compiled under their own file name so that ``line_events``
#: traces them (it skips this module's frames)
STAGES: dict[str, Callable[[int], object]] = {}
exec(
    compile(
        "def linear(n):\n"
        "    return [i for i in range(n)]\n"
        "\n"
        "def quadratic(n):\n"
        "    return [(i, j) for i in range(n) for j in range(i)]\n",
        "<stages>",
        "exec",
    ),
    STAGES,
)


def stage_row(stage: str) -> Row:
    def row(step):
        n = (100, 400)[step]
        events, _ = line_events(lambda: STAGES[stage](n))
        return n, {"line_events": events}

    return row


def test_line_events_count_every_comprehension_iteration():
    row = stage_row("linear")
    (n1, small), (n2, large) = row(0), row(1)
    assert row(0) == (n1, small)  # the count is deterministic
    assert large["line_events"] - small["line_events"] == n2 - n1


def test_pass_rule_fails_a_quadratic_stage():
    assert overgrowth(stage_row("linear"))[1] == {}
    assert set(overgrowth(stage_row("quadratic"))[1]) == {"line_events"}
