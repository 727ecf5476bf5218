"""Structure-of-arrays tree representations for the DP kernels.

:class:`FlatWeights` is what the partitioning kernels read of a tree:
node weights, subtree weights and a CSR (offset + flat id list) view of
the children lists, indexed by node id. The DP loops in
``repro.partition.{dhw,ghdw,fdw}`` iterate over these arrays with plain
integer indexing instead of chasing ``TreeNode`` attribute pointers.
:class:`FlatTree` adds the parent / first-child / next-sibling links and
the payload columns that make the snapshot round-trippable.

The arrays are built by flat passes over ``tree.nodes``. That works
because :class:`~repro.tree.node.Tree` assigns dense ids in creation
order and every construction path (``add_child`` / ``insert_child``)
creates parents before children, so ``parent[i] < i`` for every non-root
``i``. The same invariant makes subtree weights a single *descending-id*
accumulation — a postorder without any traversal bookkeeping.

A ``FlatTree`` is round-trippable: :meth:`FlatTree.to_tree` rebuilds an
equivalent :class:`~repro.tree.node.Tree` (same ids, labels, weights,
kinds, contents and sibling order).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TreeError
from repro.tree.node import NodeKind, Tree


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

    @classmethod
    def from_tree(cls, tree: Tree):
        """Flatten ``tree`` into arrays."""
        return cls(tree)

    def children(self, node_id: int) -> list[int]:
        """The child ids of ``node_id`` in sibling order."""
        return self.child_ids[self.child_offset[node_id] : self.child_offset[node_id + 1]]

    def __len__(self) -> int:
        return self.n


class FlatTree(FlatWeights):
    """Round-trippable flat-array snapshot of a :class:`~repro.tree.node.Tree`.

    Adds to :class:`FlatWeights`:

    ``first_child`` / ``next_sibling``
        classic binary-tree links in sibling order,
    ``labels`` / ``kinds`` / ``contents``
        payload columns, kept so ``to_tree`` is an exact round trip.
    """

    __slots__ = ("first_child", "next_sibling", "labels", "kinds", "contents")

    def __init__(self, tree: Tree):
        super().__init__(tree)
        nodes = tree.nodes
        self.labels: list[str] = [node.label for node in nodes]
        self.kinds: list[int] = [int(node.kind) for node in nodes]
        self.contents: list[Optional[str]] = [node.content for node in nodes]
        first_child = self.first_child = [-1] * self.n
        next_sibling = self.next_sibling = [-1] * self.n
        offset = self.child_offset
        child_ids = self.child_ids
        for v in range(self.n):
            lo, hi = offset[v], offset[v + 1]
            if lo < hi:
                first_child[v] = child_ids[lo]
                for slot in range(lo + 1, hi):
                    next_sibling[child_ids[slot - 1]] = child_ids[slot]

    # ------------------------------------------------------------------
    # round trip

    def to_tree(self) -> Tree:
        """Rebuild an equivalent :class:`Tree` (exact round trip).

        Nodes are recreated in id order so the new tree assigns the same
        dense ids. For trees built purely with ``add_child`` the sibling
        order equals the id order and children are appended directly; a
        parent whose CSR child list is *not* id-sorted (``insert_child``
        was used) gets its children placed via positional insertion.
        """
        kinds = self.kinds
        labels = self.labels
        contents = self.contents
        weight = self.weight
        tree = Tree(labels[0], weight[0], NodeKind(kinds[0]), contents[0])
        parent = self.parent
        offset = self.child_offset
        child_ids = self.child_ids
        # Final sibling position of every node under its parent.
        position = [0] * self.n
        sorted_children = [True] * self.n
        for v in range(self.n):
            prev = -1
            for slot, cid in enumerate(child_ids[offset[v] : offset[v + 1]]):
                position[cid] = slot
                if cid < prev:
                    sorted_children[v] = False
                prev = cid
        nodes = tree.nodes
        for i in range(1, self.n):
            pid = parent[i]
            par = nodes[pid]
            kind = NodeKind(kinds[i])
            if sorted_children[pid]:
                tree.add_child(par, labels[i], weight[i], kind, contents[i])
            else:
                # Among the already-created siblings (all with id < i),
                # count how many precede i in the final order.
                pos = 0
                for cid in child_ids[offset[pid] : offset[pid + 1]]:
                    if cid < i and position[cid] < position[i]:
                        pos += 1
                tree.insert_child(par, pos, labels[i], weight[i], kind, contents[i])
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatTree(n={self.n}, weight={self.subtree_weight[0] if self.n else 0})"
