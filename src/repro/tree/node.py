"""Core tree data structures.

A :class:`Tree` is the tuple ``T = (V, t, p, <, w)`` of the paper: a set of
nodes ``V``, a root ``t``, a parent function ``p``, a sibling order ``<``
and a positive integer weight function ``w``. Nodes are created through
:meth:`Tree.add_child` (or the builders in :mod:`repro.tree.builders`) so
that node ids are dense integers and the sibling order is the order of the
``children`` lists.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional

from repro.errors import TreeError


class NodeKind(enum.IntEnum):
    """XML-ish node kinds; partitioning only cares about weights, but the
    storage engine and weight model distinguish them."""

    ELEMENT = 0
    TEXT = 1
    ATTRIBUTE = 2
    OTHER = 3


class TreeNode:
    """One node of an ordered weighted tree.

    Attributes
    ----------
    node_id:
        Dense integer id, assigned in creation (document) order. The root
        always has id 0.
    label:
        Tag name for elements, attribute name for attributes; text nodes
        conventionally use ``"#text"``.
    weight:
        Positive integer weight (number of storage slots, Sec. 6.1).
    kind:
        A :class:`NodeKind`.
    content:
        Optional payload string (text value / attribute value). Kept so the
        storage engine can serialize real bytes.
    parent:
        Parent node or ``None`` for the root.
    children:
        Ordered list of child nodes; list order *is* the sibling order.
    index:
        Position of this node in ``parent.children`` (0 for the root).
    """

    __slots__ = (
        "node_id",
        "label",
        "weight",
        "kind",
        "content",
        "parent",
        "children",
        "index",
    )

    def __init__(
        self,
        node_id: int,
        label: str,
        weight: int,
        kind: NodeKind = NodeKind.ELEMENT,
        content: Optional[str] = None,
    ):
        if weight < 1:
            raise TreeError(f"node weight must be a positive integer, got {weight!r}")
        self.node_id = node_id
        self.label = label
        self.weight = int(weight)
        self.kind = kind
        self.content = content
        self.parent: Optional[TreeNode] = None
        self.children: list[TreeNode] = []
        self.index = 0

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def next_sibling(self) -> Optional["TreeNode"]:
        """The node immediately to the right in the sibling order."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        nxt = self.index + 1
        return siblings[nxt] if nxt < len(siblings) else None

    def prev_sibling(self) -> Optional["TreeNode"]:
        """The node immediately to the left in the sibling order."""
        if self.parent is None or self.index == 0:
            return None
        return self.parent.children[self.index - 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode(id={self.node_id}, label={self.label!r}, w={self.weight})"


class Tree:
    """A rooted, ordered, weighted tree with dense integer node ids."""

    __slots__ = ("nodes", "_subtree_weights", "_total_weight")

    def __init__(
        self,
        root_label: str = "root",
        root_weight: int = 1,
        kind: NodeKind = NodeKind.ELEMENT,
        content: Optional[str] = None,
    ):
        root = TreeNode(0, root_label, root_weight, kind, content)
        self.nodes: list[TreeNode] = [root]
        self._subtree_weights: Optional[list[int]] = None
        self._total_weight: Optional[int] = None

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        """Iterate over all nodes in creation order (document order for
        trees built by the parsers/generators)."""
        return iter(self.nodes)

    def node(self, node_id: int) -> TreeNode:
        """Look up a node by id."""
        return self.nodes[node_id]

    def add_child(
        self,
        parent: TreeNode,
        label: str,
        weight: int,
        kind: NodeKind = NodeKind.ELEMENT,
        content: Optional[str] = None,
    ) -> TreeNode:
        """Append a new rightmost child under ``parent`` and return it."""
        if self.nodes[parent.node_id] is not parent:
            raise TreeError("parent node does not belong to this tree")
        child = TreeNode(len(self.nodes), label, weight, kind, content)
        child.parent = parent
        child.index = len(parent.children)
        parent.children.append(child)
        self.nodes.append(child)
        self._subtree_weights = None
        self._total_weight = None
        return child

    def insert_child(
        self,
        parent: TreeNode,
        position: int,
        label: str,
        weight: int,
        kind: NodeKind = NodeKind.ELEMENT,
        content: Optional[str] = None,
    ) -> TreeNode:
        """Insert a child at a sibling ``position`` (used by incremental
        updates). Node ids remain creation-ordered, so after an insert
        they are no longer document order — consumers needing document
        order must recompute it (see ``DocumentStore.order_rank``)."""
        if self.nodes[parent.node_id] is not parent:
            raise TreeError("parent node does not belong to this tree")
        if not 0 <= position <= len(parent.children):
            raise TreeError(
                f"position {position} out of range for {len(parent.children)} children"
            )
        child = TreeNode(len(self.nodes), label, weight, kind, content)
        child.parent = parent
        parent.children.insert(position, child)
        for idx in range(position, len(parent.children)):
            parent.children[idx].index = idx
        self.nodes.append(child)
        self._subtree_weights = None
        self._total_weight = None
        return child

    def set_weight(self, node: TreeNode, weight: int) -> None:
        """Re-weigh ``node`` in place (content updates). Like every
        mutation, this drops the cached weight sums."""
        if weight < 1:
            raise TreeError(f"node weight must be a positive integer, got {weight!r}")
        node.weight = int(weight)
        self._subtree_weights = None
        self._total_weight = None

    def total_weight(self) -> int:
        """Sum of all node weights, ``W_T(t)``.

        Cached until the tree is mutated, so repeated calls (reports,
        benchmark rows, feasibility bounds) cost O(1) after the first.
        """
        if self._total_weight is None:
            self._total_weight = sum(n.weight for n in self.nodes)
        return self._total_weight

    def subtree_weight(self, node: TreeNode) -> int:
        """``W_T(v)``: total weight of the subtree induced by ``node``.

        Computed lazily for the whole tree (the
        :class:`~repro.tree.flat.FlatWeights` column) and cached until the
        tree is mutated.
        """
        if self._subtree_weights is None:
            from repro.tree.measure import subtree_weights

            self._subtree_weights = subtree_weights(self)
        return self._subtree_weights[node.node_id]

    def interval_nodes(self, left: TreeNode, right: TreeNode) -> list[TreeNode]:
        """The nodes of the sibling interval ``(left, right)_T``."""
        if left.parent is not right.parent:
            raise TreeError("interval endpoints must share a parent")
        if left.parent is None:
            if left is not right:
                raise TreeError("the root has no siblings")
            return [left]
        if left.index > right.index:
            raise TreeError("interval endpoints out of order")
        return left.parent.children[left.index : right.index + 1]

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TreeError` if broken.

        Invariants: dense ids matching ``nodes`` positions, consistent
        parent/child/index links, a single root with id 0, positive
        weights, and every node reachable from the root.
        """
        if not self.nodes:
            raise TreeError("tree has no nodes")
        if self.nodes[0].parent is not None:
            raise TreeError("node 0 must be the root")
        seen = 0
        for nid, node in enumerate(self.nodes):
            if node.node_id != nid:
                raise TreeError(f"node at position {nid} has id {node.node_id}")
            if node.weight < 1:
                raise TreeError(f"node {nid} has non-positive weight")
            if nid != 0:
                if node.parent is None:
                    raise TreeError(f"non-root node {nid} has no parent")
                par = node.parent
                if self.nodes[par.node_id] is not par:
                    raise TreeError(f"node {nid} has a foreign parent")
                if par.children[node.index] is not node:
                    raise TreeError(f"node {nid} has a stale sibling index")
            for cidx, child in enumerate(node.children):
                if child.parent is not node or child.index != cidx:
                    raise TreeError(f"broken child link under node {nid}")
                seen += 1
        if seen != len(self.nodes) - 1:
            raise TreeError("tree contains unreachable nodes")

    def max_node_weight(self) -> int:
        return max(n.weight for n in self.nodes)

    def weights(self) -> list[int]:
        """Node weights indexed by node id."""
        return [n.weight for n in self.nodes]

    def copy(self) -> "Tree":
        """Deep structural copy (new node objects, same ids/labels/weights)."""
        root = self.root
        clone = Tree(root.label, root.weight, root.kind, root.content)
        # Creation order == id order guarantees parents are cloned first.
        for node in self.nodes[1:]:
            parent_clone = clone.nodes[node.parent.node_id]  # type: ignore[union-attr]
            clone.add_child(parent_clone, node.label, node.weight, node.kind, node.content)
        return clone


def ids(nodes: Iterable[TreeNode]) -> list[int]:
    """Convenience: map nodes to their ids (used heavily in tests)."""
    return [n.node_id for n in nodes]
