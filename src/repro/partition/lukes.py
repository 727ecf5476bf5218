"""Lukes (1974) — optimal-value tree partitioning, parent-child edges only.

Lukes' dynamic program (paper Sec. 5) finds a partitioning of maximal
*value* — the total weight of edges that stay inside partitions — under a
partition weight limit. Partitions must be connected through parent-child
edges, so as with KM every produced interval is a singleton; sibling
subtrees never share a partition unless their parent does.

With unit edge weights (the default, and the paper's "no workload
knowledge" case) maximizing kept edges is the same as minimizing the
number of partitions, i.e. Lukes solves the same problem as KM — the
test suite uses this, plus ``networkx``'s independent implementation, to
cross-validate all three.

Complexity is ``O(n·K²)`` time and ``O(n·K)`` table space.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.partition import explain
from repro.partition.base import Partitioner, register
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.node import Tree, TreeNode
from repro.tree.traversal import iter_postorder

EdgeWeight = Callable[[TreeNode, TreeNode], int]


def _unit_edge(_parent: TreeNode, _child: TreeNode) -> int:
    return 1


def lukes_partition(
    tree: Tree, limit: int, edge_weight: Optional[EdgeWeight] = None
) -> tuple[int, Partitioning]:
    """Run Lukes' DP; returns ``(value, partitioning)``.

    ``value`` is the total weight of intra-partition edges; the
    partitioning consists of singleton intervals for every cut child plus
    the root interval.
    """
    if edge_weight is None:
        edge_weight = _unit_edge
    n = len(tree)
    # Per node: table mapping "weight of the cluster containing v inside
    # its processed subtree" -> best achievable value.
    tables: list[Optional[dict[int, int]]] = [None] * n
    # Backtracking: back[v][i][s_after] = (s_before, s_child | None); None
    # means the edge to child i was cut.
    back: list[list[dict[int, tuple[int, Optional[int]]]]] = [[] for _ in range(n)]
    # Value-maximal final cluster weight per node (used when its parent
    # edge is cut); ties prefer the lighter cluster.
    best_state: list[int] = [0] * n

    for node in iter_postorder(tree):
        table = {node.weight: 0}
        decisions: list[dict[int, tuple[int, Optional[int]]]] = []
        for child in node.children:
            ctable = tables[child.node_id]
            assert ctable is not None
            cut_value = ctable[best_state[child.node_id]]
            ew = edge_weight(node, child)
            new_table: dict[int, int] = {}
            dec: dict[int, tuple[int, Optional[int]]] = {}
            for s, val in table.items():
                # Option 1: cut the edge; the child's cluster is finalized.
                cand = val + cut_value
                if cand > new_table.get(s, -1):
                    new_table[s] = cand
                    dec[s] = (s, None)
                # Option 2: keep the edge; merge a child cluster into v's.
                for sc, valc in ctable.items():
                    total = s + sc
                    if total > limit:
                        continue
                    cand = val + valc + ew
                    if cand > new_table.get(total, -1):
                        new_table[total] = cand
                        dec[total] = (s, sc)
            table = new_table
            decisions.append(dec)
        tables[node.node_id] = table
        back[node.node_id] = decisions
        best_state[node.node_id] = max(table, key=lambda s: (table[s], -s))

    # Backtrack the cut set top-down.
    cut: set[int] = set()
    stack: list[tuple[TreeNode, int]] = [
        (tree.root, best_state[tree.root.node_id])
    ]
    while stack:
        node, s = stack.pop()
        # Undo child merges right-to-left (children were merged in order).
        for idx in range(len(node.children) - 1, -1, -1):
            child = node.children[idx]
            s_before, s_child = back[node.node_id][idx][s]
            if s_child is None:
                cut.add(child.node_id)
                if explain.explaining():
                    explain.decision(
                        child.node_id,
                        "lukes-cut",
                        parent=node.node_id,
                        cluster_weight=best_state[child.node_id],
                    )
                stack.append((child, best_state[child.node_id]))
            else:
                stack.append((child, s_child))
            s = s_before
    root_table = tables[tree.root.node_id]
    assert root_table is not None
    value = root_table[best_state[tree.root.node_id]]
    intervals = {SiblingInterval(tree.root.node_id, tree.root.node_id)}
    intervals.update(SiblingInterval(c, c) for c in cut)
    return value, Partitioning(intervals)


@register
class LukesPartitioner(Partitioner):
    """Lukes' optimal-value DP with unit edge weights."""

    name = "lukes"
    optimal = False  # optimal value, but in the parent-child-only model
    main_memory_friendly = False

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        return lukes_partition(tree, limit)[1]
