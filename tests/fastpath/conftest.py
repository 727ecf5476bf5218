"""Shared helpers for the fast-path suite."""

from __future__ import annotations


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
