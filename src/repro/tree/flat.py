"""The columnar tree every partitioner reads.

:class:`FlatWeights` is what the partitioning algorithms read of a tree:
node weights, subtree weights and a CSR (offset + flat id list) view of
the children lists, indexed by node id. The DP loops in
``repro.partition.{dhw,ghdw,fdw}`` and the KM / RS / EKM cut strategies
(``repro.partition.streaming``) iterate over these arrays with plain
integer indexing instead of chasing ``TreeNode`` attribute pointers.

The arrays are built by flat passes over ``tree.nodes``. That works
because :class:`~repro.tree.node.Tree` assigns dense ids in creation
order and every construction path (``add_child`` / ``insert_child``)
creates parents before children, so ``parent[i] < i`` for every non-root
``i``. The same invariant makes subtree weights a single *descending-id*
accumulation — a postorder without any traversal bookkeeping.
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.tree.node import Tree


class FlatWeights:
    """Weights and children of a :class:`~repro.tree.node.Tree` as arrays.

    Attributes (all indexed by node id; ``-1`` encodes "none"):

    ``parent``
        parent id (``-1`` for the root),
    ``weight`` / ``subtree_weight``
        node weight ``w(v)`` and subtree weight ``W_T(v)``,
    ``child_offset`` / ``child_ids``
        CSR children view: the children of ``v`` in sibling order are
        ``child_ids[child_offset[v]:child_offset[v + 1]]``.
    """

    __slots__ = ("n", "parent", "weight", "subtree_weight", "child_offset", "child_ids")

    def __init__(self, tree: Tree):
        nodes = tree.nodes
        n = self.n = len(nodes)
        if [node.node_id for node in nodes] != list(range(n)):
            raise TreeError("node ids are not dense positions in tree.nodes")
        parent = self.parent = [-1]
        parent += [node.parent.node_id for node in nodes[1:]]  # type: ignore[union-attr]
        self.weight = [node.weight for node in nodes]
        child_offset = self.child_offset = [0]
        child_ids: list[int] = []
        for node in nodes:
            children = node.children
            if children:
                child_ids += [child.node_id for child in children]
            child_offset.append(len(child_ids))
        self.child_ids = child_ids
        subtree_weight = self.subtree_weight = self.weight[:]
        for i in range(n - 1, 0, -1):
            pid = parent[i]
            if pid >= i:
                raise TreeError(f"node {i} created before its parent {pid}")
            subtree_weight[pid] += subtree_weight[i]

    def children(self, node_id: int) -> list[int]:
        """The child ids of ``node_id`` in sibling order."""
        return self.child_ids[self.child_offset[node_id] : self.child_offset[node_id + 1]]

    def __len__(self) -> int:
        return self.n
