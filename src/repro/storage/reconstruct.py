"""Document reconstruction from record bytes — the recovery path.

The record format (see :mod:`repro.storage.record`) is self-describing:
intra-record parents are slot references, fragment roots carry their
parent's global node id (Natix' proxy role), and every node stores its
sibling position. This module rebuilds the complete document tree from
nothing but the decoded records — the strongest possible integrity check
of the storage format, and what a recovery tool would do after losing
all in-memory state.

Node ids are preserved, so the reconstructed tree can be compared
node-by-node with the original (tests do exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import StorageError
from repro.storage.record import DOCUMENT_ROOT, NO_PARENT, Record
from repro.tree.node import NodeKind, Tree, TreeNode


@dataclass
class _Shadow:
    """Flat node data gathered from records before linking."""

    node_id: int
    kind: NodeKind
    label: str
    content: str
    parent_id: int  # DOCUMENT_ROOT for the document root
    position: int
    weight: int = 1


def reconstruct_tree(
    records: Iterable[Record],
    labels: Sequence[str],
    weights: Sequence[int] | None = None,
) -> Tree:
    """Rebuild the document tree from decoded records.

    Parameters
    ----------
    records:
        All records of the document, in any order.
    labels:
        The store's label dictionary.
    weights:
        Optional per-node weights to restore (by node id); defaults to
        re-deriving weights from the slot model, which matches how the
        document was weighed in the first place.
    """
    from repro.xmlio.weights import SlotWeightModel

    wm = SlotWeightModel()
    shadows: dict[int, _Shadow] = {}
    for record in records:
        for slot, node in enumerate(record.nodes):
            if node.parent_slot == NO_PARENT:
                parent_id = node.parent_node_id
            else:
                if node.parent_slot >= len(record.nodes):
                    raise StorageError(
                        f"record {record.record_id}: slot {slot} has a "
                        f"dangling parent slot {node.parent_slot}"
                    )
                parent_id = record.nodes[node.parent_slot].node_id
            if node.node_id in shadows:
                raise StorageError(f"node {node.node_id} appears in two records")
            if node.label_id >= len(labels):
                raise StorageError(
                    f"node {node.node_id} references unknown label {node.label_id}"
                )
            content = node.content.decode("utf-8")
            shadow = _Shadow(
                node_id=node.node_id,
                kind=node.kind,
                label=labels[node.label_id],
                content=content,
                parent_id=parent_id,
                position=node.position,
            )
            if weights is not None:
                shadow.weight = weights[node.node_id]
            else:
                shadow.weight = wm.weight(node.kind, content)
            shadows[node.node_id] = shadow

    if not shadows:
        raise StorageError("no records to reconstruct from")

    roots = [s for s in shadows.values() if s.parent_id == DOCUMENT_ROOT]
    if len(roots) != 1:
        raise StorageError(f"expected exactly one document root, found {len(roots)}")
    root_shadow = roots[0]

    children: dict[int, list[_Shadow]] = {}
    for shadow in shadows.values():
        if shadow is root_shadow:
            continue
        if shadow.parent_id not in shadows:
            raise StorageError(
                f"node {shadow.node_id} references missing parent {shadow.parent_id}"
            )
        children.setdefault(shadow.parent_id, []).append(shadow)
    for kids in children.values():
        kids.sort(key=lambda s: s.position)
        for expected, shadow in enumerate(kids):
            if shadow.position != expected:
                raise StorageError(
                    f"child positions of node {shadow.parent_id} have gaps"
                )

    # Build the tree top-down. Node ids are preserved by construction
    # order only if they happen to be dense preorder ids — instead we
    # construct and then *relabel* to the original ids via the nodes list.
    tree = Tree(root_shadow.label, root_shadow.weight, root_shadow.kind, root_shadow.content or None)
    id_map: dict[int, TreeNode] = {root_shadow.node_id: tree.root}
    stack = [root_shadow]
    while stack:
        parent_shadow = stack.pop()
        parent_node = id_map[parent_shadow.node_id]
        for shadow in children.get(parent_shadow.node_id, ()):
            node = tree.add_child(
                parent_node,
                shadow.label,
                shadow.weight,
                shadow.kind,
                shadow.content or None,
            )
            id_map[shadow.node_id] = node
            stack.append(shadow)
    if len(tree) != len(shadows):
        raise StorageError("reconstruction dropped nodes")  # pragma: no cover
    return _remap_ids(tree, id_map)


def _remap_ids(tree: Tree, id_map: dict[int, TreeNode]) -> Tree:
    """Restore original node ids (construction assigned fresh ones)."""
    # The Tree invariant needs nodes[i].node_id == i; original ids are a
    # permutation of 0..n-1 (dense), so rebuild the nodes list.
    n = len(tree)
    replacement: list[TreeNode] = [None] * n  # type: ignore[list-item]
    for original_id, node in id_map.items():
        if not 0 <= original_id < n:
            raise StorageError("original node ids are not dense; cannot remap")
        node.node_id = original_id
        replacement[original_id] = node
    if any(slot is None for slot in replacement):
        raise StorageError("original node ids are not a permutation")
    tree.nodes = replacement
    return tree


def verify_store_integrity(store) -> Tree:
    """Decode every record of a store, rebuild the document, and check it
    equals the store's in-memory tree. Returns the rebuilt tree."""
    records = [store.fetch_record(rid) for rid in range(store.record_count)]
    weights = [n.weight for n in store.tree]
    rebuilt = reconstruct_tree(records, store.labels, weights)
    original = store.tree
    if len(rebuilt) != len(original):
        raise StorageError("reconstructed tree has wrong size")
    for node in original:
        twin = rebuilt.node(node.node_id)
        if (
            twin.label != node.label
            or twin.kind != node.kind
            or twin.weight != node.weight
            or (twin.content or "") != (node.content or "")
            or (twin.parent.node_id if twin.parent else -1)
            != (node.parent.node_id if node.parent else -1)
            or twin.index != node.index
        ):
            raise StorageError(f"reconstruction mismatch at node {node.node_id}")
    return rebuilt
