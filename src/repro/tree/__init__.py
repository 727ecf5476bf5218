"""Ordered, labeled, weighted trees (the paper's Sec. 2.1 data model).

The central classes are :class:`~repro.tree.node.TreeNode` and
:class:`~repro.tree.node.Tree`. Trees are rooted and ordered; every node
carries a positive integer weight. Traversal helpers are iterative (no
recursion limits).
"""

from repro.tree.node import Tree, TreeNode, NodeKind
from repro.tree.builders import build_tree, flat_tree, tree_from_spec, spec_from_tree
from repro.tree.traversal import iter_preorder, iter_postorder, iter_levelorder
from repro.tree.measure import (
    TreeStats,
    subtree_weights,
    tree_stats,
    node_depths,
    max_fanout,
)

__all__ = [
    "Tree",
    "TreeNode",
    "NodeKind",
    "build_tree",
    "flat_tree",
    "tree_from_spec",
    "spec_from_tree",
    "iter_preorder",
    "iter_postorder",
    "iter_levelorder",
    "TreeStats",
    "subtree_weights",
    "tree_stats",
    "node_depths",
    "max_fanout",
]
