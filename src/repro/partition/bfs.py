"""BFS — top-down breadth-first greedy clustering (paper Sec. 4.2.2).

For each node in level order, try to place it in its parent's partition;
if that partition is full, try the previous sibling's partition; else
start a new one. BFS needs the whole document before it can run (proper
breadth-first order), so it is *not* main-memory friendly — the paper
includes it only for completeness, and Table 1 shows it producing the
worst partitionings of all algorithms on most documents.
"""

from __future__ import annotations

from repro.partition import explain
from repro.partition.base import Partitioner, register
from repro.partition.interval import Partitioning
from repro.partition.assignment import intervals_from_assignment
from repro.tree.node import Tree
from repro.tree.traversal import iter_levelorder


@register
class BFSPartitioner(Partitioner):
    """Greedy level-order clustering."""

    name = "bfs"
    optimal = False
    main_memory_friendly = False

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        part_of = [-1] * len(tree)
        weights: list[int] = []
        for node in iter_levelorder(tree):
            if node.parent is None:
                part_of[node.node_id] = 0
                weights.append(node.weight)
                continue
            placed = False
            parent_pid = part_of[node.parent.node_id]
            if weights[parent_pid] + node.weight <= limit:
                part_of[node.node_id] = parent_pid
                weights[parent_pid] += node.weight
                placed = True
            else:
                prev = node.prev_sibling()
                if prev is not None:
                    prev_pid = part_of[prev.node_id]
                    if prev_pid != parent_pid and weights[prev_pid] + node.weight <= limit:
                        part_of[node.node_id] = prev_pid
                        weights[prev_pid] += node.weight
                        placed = True
            if not placed:
                if explain.explaining():
                    prev = node.prev_sibling()
                    reason = "parent-full" if prev is None else "parent-and-sibling-full"
                    explain.decision(
                        node.node_id, "bfs-new", reason=reason, cluster=len(weights)
                    )
                part_of[node.node_id] = len(weights)
                weights.append(node.weight)
        return Partitioning(intervals_from_assignment(tree, part_of))
