"""Shared fixtures: the paper's example trees and a miniature corpus."""

from __future__ import annotations

import pytest

from repro.tree.builders import tree_from_spec

# Fig. 3 running example (K=5): see paper Sec. 2.1.
FIG3_SPEC = (
    "a",
    3,
    [("b", 2), ("c", 1, [("d", 2), ("e", 2)]), ("f", 1), ("g", 1), ("h", 2)],
)

# Fig. 6 (K=5): GHDW needs 4 partitions, the optimum is 3.
FIG6_SPEC = ("a", 5, [("b", 1), ("c", 1, [("d", 2), ("e", 2)]), ("f", 1)])

# Fig. 9 (K=5): EKM needs 3 partitions, the optimum is 2.
FIG9_SPEC = ("a", 2, [("b", 4), ("c", 1, [("d", 1), ("e", 1)])])


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    """Isolate every test from this thread's DP shape cache: what a run
    computes (DP cells, cache hits) must not depend on test order."""
    from repro.partition.shapecache import clear_default_cache

    clear_default_cache()
    yield
    clear_default_cache()


@pytest.fixture
def fig3_tree():
    return tree_from_spec(FIG3_SPEC)


@pytest.fixture
def fig6_tree():
    return tree_from_spec(FIG6_SPEC)


@pytest.fixture
def fig9_tree():
    return tree_from_spec(FIG9_SPEC)


@pytest.fixture(scope="session")
def tiny_xmark():
    from repro.datasets import xmark_document

    return xmark_document(scale=0.004, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus():
    """All six corpus documents at a very small scale (fast tests)."""
    from repro.datasets import paper_corpus

    return paper_corpus(scale=0.1, seed=7)


def tree_signature(tree):
    """Everything that makes two trees 'the same document'."""
    return [
        (
            node.node_id,
            node.label,
            node.weight,
            node.kind,
            node.content,
            node.parent.node_id if node.parent is not None else -1,
            tuple(c.node_id for c in node.children),
        )
        for node in tree.nodes
    ]
