"""Seeded inputs: documents, update scripts and query schedules.

Every input is a pure function of ``--seed``; the program under test
receives only what is generated here. :func:`derive` gives every
(round, purpose) its own generator seed, so two runs with different
``--seed`` share no document, script or schedule.
"""

from __future__ import annotations

import zlib
from random import Random

from repro.datasets import (
    mondial_document,
    orders_document,
    partsupp_document,
    sigmod_record_document,
    uwm_document,
    xmark_document,
)
from repro.query.xpathmark import EXTENDED_QUERIES, XPATHMARK_QUERIES
from repro.tree.node import NodeKind, Tree
from repro.xmlio.parser import iter_events
from repro.xmlio.serialize import tree_to_xml

#: the paper's record capacity, used by every workload
K = 256

#: Table 3's navigation queries and the extended (attribute/position) set
PAPER_QUERIES: dict[str, str] = {q.qid: q.xpath for q in XPATHMARK_QUERIES}
EXTENDED: dict[str, str] = dict(EXTENDED_QUERIES)
ALL_QUERIES: dict[str, str] = {**PAPER_QUERIES, **EXTENDED}

BUILDERS = {
    "sigmod": (sigmod_record_document, "issues"),
    "mondial": (mondial_document, "countries"),
    "partsupp": (partsupp_document, "rows"),
    "uwm": (uwm_document, "courses"),
    "orders": (orders_document, "rows"),
    "xmark": (xmark_document, "scale"),
}


def derive(seed: int, *tags) -> int:
    """A generator seed for one (purpose, round, ...) of run ``seed``."""
    return zlib.crc32(repr((seed, *tags)).encode("utf-8"))


def document(name: str, size, seed: int, nodes: int = 0, draws: int = 1) -> Tree:
    """One corpus-shaped document; ``size`` is the generator's own scale
    parameter (issues, rows, courses, countries, or XMark scale).

    The generators draw their fan-outs at random, so one ``size`` yields
    documents of quite different node counts (a one-issue SigmodRecord
    ranges over 590-1290 nodes). Where a single document carries a whole
    metric, ``nodes`` states the intended size: of ``draws`` candidates
    the one closest to it is used, so that a different ``--seed`` changes
    the document but not how much work it is.
    """
    builder, param = BUILDERS[name]
    candidates = (
        builder(**{param: size, "seed": derive(seed, "draw", i)}) for i in range(draws)
    )
    return min(candidates, key=lambda tree: abs(len(tree) - nodes))


def xml_bytes(tree: Tree) -> bytes:
    return tree_to_xml(tree).encode("utf-8")


def drain_events(xml: bytes) -> int:
    """The parser alone: pull every event, build nothing."""
    return sum(1 for _ in iter_events(xml))


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    Random(seed).shuffle(out)
    return out


def update_script(tree: Tree, seed: int, batches: int, ops_per_batch: int) -> list:
    """``batches`` lists of ``("insert", parent_id, label)`` /
    ``("content", text_id, text)`` ops.

    Every op names a node of the *initial* tree, so a batch replays
    identically on any store that holds the batches before it (the
    recovered store and the uninterrupted control see the same ids).
    New text is as long as the text it replaces: a text that grows can
    be refused by a full record, and no op of a workload may fail.
    """
    rng = Random(seed)
    elements = [n.node_id for n in tree if n.kind is NodeKind.ELEMENT]
    texts = [n.node_id for n in tree if n.kind is NodeKind.TEXT]
    script = []
    for batch in range(batches):
        ops = []
        for op in range(ops_per_batch):
            if rng.random() < 0.3:
                node_id = rng.choice(texts)
                old = tree.node(node_id).content
                ops.append(("content", node_id, (f"u{batch}.{op}." + "x" * len(old))[: len(old)]))
            else:
                ops.append(("insert", rng.choice(elements), f"n{batch}x{op}"))
        script.append(ops)
    return script


def script_bytes(script: list) -> int:
    """User bytes a script adds: the inserted labels (replaced text keeps
    its length)."""
    return sum(len(op[2]) for ops in script for op in ops if op[0] == "insert")
