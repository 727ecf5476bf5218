"""Measurements over trees: subtree weights, depths, shape statistics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.tree.flat import FlatWeights
from repro.tree.node import Tree
from repro.tree.traversal import iter_preorder


def subtree_weights(tree: Tree) -> list[int]:
    """``W_T(v)`` for every node, indexed by node id (the
    :class:`~repro.tree.flat.FlatWeights` column)."""
    return FlatWeights(tree).subtree_weight


def node_depths(tree: Tree) -> list[int]:
    """Depth of every node (root depth 0), indexed by node id."""
    depths = [0] * len(tree)
    for node in iter_preorder(tree):
        if node.parent is not None:
            depths[node.node_id] = depths[node.parent.node_id] + 1
    return depths


def max_fanout(tree: Tree) -> int:
    """Largest number of children of any node."""
    return max(len(n.children) for n in tree)


@dataclass(frozen=True)
class TreeStats:
    """Shape summary used by dataset generators and benchmark reports."""

    nodes: int
    total_weight: int
    height: int
    max_fanout: int
    leaves: int
    max_node_weight: int

    def __str__(self) -> str:
        return (
            f"nodes={self.nodes} weight={self.total_weight} height={self.height} "
            f"max_fanout={self.max_fanout} leaves={self.leaves} "
            f"max_node_weight={self.max_node_weight}"
        )


def tree_stats(tree: Tree) -> TreeStats:
    """Compute a :class:`TreeStats` summary in one pass."""
    depths = node_depths(tree)
    return TreeStats(
        nodes=len(tree),
        total_weight=tree.total_weight(),
        height=max(depths) if depths else 0,
        max_fanout=max_fanout(tree),
        leaves=sum(1 for n in tree if n.is_leaf),
        max_node_weight=tree.max_node_weight(),
    )
