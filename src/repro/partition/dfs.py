"""DFS — top-down depth-first greedy clustering (paper Sec. 4.2.1).

Adapted from Tsangaris & Naughton's object-clustering algorithm: walk the
tree in preorder and assign each node to the *current* partition if (a)
the node is connected to it through its parent or its previous sibling and
(b) it still fits; otherwise start a new partition at the node.

Because preorder is exactly the delivery order of an XML parser's event
stream, DFS is main-memory friendly and extremely cheap — but its early,
purely local decisions make it non-robust: the paper's Table 1 shows it
losing even to KM on several documents.
"""

from __future__ import annotations

from repro.partition import explain
from repro.partition.base import Partitioner, register
from repro.partition.interval import Partitioning
from repro.partition.assignment import intervals_from_assignment
from repro.tree.node import Tree
from repro.tree.traversal import iter_preorder


@register
class DFSPartitioner(Partitioner):
    """Greedy preorder clustering with connectedness constraint."""

    name = "dfs"
    optimal = False
    main_memory_friendly = True

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        part_of = [-1] * len(tree)
        weights: list[int] = []
        current = -1
        for node in iter_preorder(tree):
            joined = False
            if current >= 0 and weights[current] + node.weight <= limit:
                parent = node.parent
                prev = node.prev_sibling()
                if (parent is not None and part_of[parent.node_id] == current) or (
                    prev is not None and part_of[prev.node_id] == current
                ):
                    part_of[node.node_id] = current
                    weights[current] += node.weight
                    joined = True
            if not joined:
                if explain.explaining():
                    if current < 0:
                        reason = "first"
                    elif weights[current] + node.weight > limit:
                        reason = "no-fit"
                    else:
                        reason = "not-connected"
                    explain.decision(
                        node.node_id, "dfs-new", reason=reason, cluster=len(weights)
                    )
                current = len(weights)
                weights.append(node.weight)
                part_of[node.node_id] = current
        return Partitioning(intervals_from_assignment(tree, part_of))
