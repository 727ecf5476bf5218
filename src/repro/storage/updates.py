"""Node-at-a-time updates: incremental maintenance of a partitioned store.

The paper (Sec. 1) contrasts the bulkload algorithms it studies with
Natix' *node-at-a-time* algorithm [Kanne & Moerkotte, ICDE 2000] that
"maintains the clustered XML storage format on incremental updates".
This module implements that role for our store:

* :meth:`StoreUpdater.insert_node` places a new node with the same
  preference order Natix uses — parent's record first, then an adjacent
  sibling's record (which extends that sibling's interval), then a
  **record split** that evicts a run of siblings from the full record,
  and as a last resort a fresh singleton record;
* :meth:`StoreUpdater.update_content` re-weighs a text/attribute node in
  place, splitting its record when the growth overflows it.

Every operation maintains the invariants the rest of the library checks:
the induced partitioning stays a valid, feasible tree sibling
partitioning (``current_partitioning`` re-derives it and tests validate
it), record weights stay ≤ K, and dirty records are re-encoded onto
pages by :meth:`flush`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import telemetry
from repro.errors import StorageError
from repro.faults import plan as faults
from repro.partition.assignment import intervals_from_assignment
from repro.partition.interval import Partitioning
from repro.storage.store import DocumentStore
from repro.tree.node import NodeKind, TreeNode
from repro.xmlio.weights import SlotWeightModel


@dataclass
class UpdateStats:
    """Counters over the lifetime of one updater."""

    inserts: int = 0
    content_updates: int = 0
    placed_with_parent: int = 0
    placed_with_sibling: int = 0
    record_splits: int = 0
    new_records: int = 0


class StoreUpdater:
    """Applies node-at-a-time updates to a :class:`DocumentStore`."""

    def __init__(self, store: DocumentStore, weight_model: Optional[SlotWeightModel] = None):
        self.store = store
        self.limit = store.config.record_limit
        self.wm = weight_model or SlotWeightModel()
        self.stats = UpdateStats()
        self._dirty: set[int] = set()

    # -- public operations -------------------------------------------------

    def insert_node(
        self,
        parent_id: int,
        label: str,
        kind: NodeKind = NodeKind.ELEMENT,
        content: Optional[str] = None,
        position: Optional[int] = None,
        weight: Optional[int] = None,
    ) -> int:
        """Insert a new leaf under ``parent_id``; returns its node id."""
        store = self.store
        parent = store.tree.node(parent_id)
        if position is None:
            position = len(parent.children)
        if weight is None:
            weight = self.wm.weight(kind, content)
        if weight > self.limit:
            raise StorageError(f"node weight {weight} exceeds record capacity {self.limit}")

        node = store.tree.insert_child(parent, position, label, weight, kind, content)
        store.record_of.append(-1)
        store.invalidate_order()
        record = self._choose_record(node, weight)
        store.record_of[node.node_id] = record
        store.members[record].append(node.node_id)  # the largest id so far
        store.record_weights[record] += weight
        self._dirty.add(record)
        # the insert renumbered every later sibling; their stored
        # ``position`` fields live in whichever records hold them
        for sibling in parent.children[position + 1 :]:
            self._dirty.add(store.record_of[sibling.node_id])
        self.stats.inserts += 1
        return node.node_id

    def update_content(self, node_id: int, content: str) -> None:
        """Replace a text/attribute node's content, re-weighing it."""
        store = self.store
        node = store.tree.node(node_id)
        if node.kind not in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
            raise StorageError("only text and attribute nodes carry content")
        new_weight = self.wm.weight(node.kind, content)
        if new_weight > self.limit:
            raise StorageError(f"content weight {new_weight} exceeds record capacity")
        record = store.record_of[node_id]
        delta = new_weight - node.weight
        if delta > 0 and store.record_weights[record] + delta > self.limit:
            self._make_room(record, delta, protect=node_id)
            if store.record_weights[record] + delta > self.limit:
                raise StorageError(
                    f"record {record} cannot absorb content growth of {delta}"
                )
        node.content = content
        store.tree.set_weight(node, new_weight)
        store.record_weights[record] += delta
        self._dirty.add(record)
        self.stats.content_updates += 1

    def current_partitioning(self) -> Partitioning:
        """Re-derive the sibling partitioning induced by the assignment."""
        return Partitioning(
            intervals_from_assignment(self.store.tree, self.store.record_of)
        )

    def flush(self) -> None:
        """Re-encode all dirty records onto their pages.

        Each dirty record is serialized once, straight from the tree
        (:meth:`DocumentStore.encode_record`). With a write-ahead log
        attached (``store.attach_wal``), the flush is one
        crash-recoverable transaction: every dirty blob is logged (BEGIN +
        after-images + group-commit fsync at COMMIT) *before* any page is
        touched, and each page apply passes the ``updates.flush`` fault
        point. The transaction then stays in the log; the flush
        checkpoints (truncates the log) only once it holds
        :data:`~repro.recovery.wal.CHECKPOINT_BYTES` of history, so a
        typical flush costs one fsync. A crash anywhere inside leaves
        either the pre-flush or the post-flush page bytes for
        :mod:`repro.recovery` — never a torn middle.
        """
        if not self._dirty:
            return
        store = self.store
        wal = store.wal
        dirty = sorted(self._dirty)
        with telemetry.span("storage.updates.flush"):
            encode = store.encode_record
            blobs = [(record_id, encode(record_id)) for record_id in dirty]
            if telemetry.enabled():
                members = store.members
                telemetry.count(
                    "storage.updates.nodes_encoded",
                    sum(len(members[record_id]) for record_id in dirty),
                )
            if wal is not None:
                txn_id = wal.begin(
                    dirty, labels=store.labels, record_limit=self.limit
                )
                for record_id, blob in blobs:
                    wal.log_image(txn_id, record_id, blob)
                wal.commit(txn_id)
            for record_id, blob in blobs:
                if faults.armed():
                    faults.check("updates.flush", record_id=record_id)
                if record_id in store.manager.page_of_record:
                    store.manager.replace(record_id, blob)
                else:
                    store.manager.store(record_id, blob)
            if wal is not None:
                wal.checkpoint_if_due(store.labels, self.limit)
        self._dirty.clear()

    # -- placement ----------------------------------------------------------

    def _choose_record(self, node: TreeNode, weight: int) -> int:
        store = self.store
        parent_record = store.record_of[node.parent.node_id]  # type: ignore[union-attr]
        if store.record_weights[parent_record] + weight <= self.limit:
            self.stats.placed_with_parent += 1
            return parent_record
        # Adjacent siblings in other records are interval members; joining
        # them extends their interval.
        for sibling in (node.prev_sibling(), node.next_sibling()):
            if sibling is None:
                continue
            sibling_record = store.record_of[sibling.node_id]
            if sibling_record == parent_record:
                continue
            if store.record_weights[sibling_record] + weight <= self.limit:
                self.stats.placed_with_sibling += 1
                return sibling_record
        # Split the parent's record to make room near the parent.
        self._make_room(parent_record, weight, protect=node.parent.node_id)
        if store.record_weights[parent_record] + weight <= self.limit:
            self.stats.placed_with_parent += 1
            return parent_record
        # Last resort: a fresh singleton record.
        self.stats.new_records += 1
        return self._new_record()

    def _new_record(self) -> int:
        store = self.store
        record_id = store.record_count
        store.record_count += 1
        store.record_weights.append(0)
        store.members.append([])
        self._dirty.add(record_id)
        return record_id

    def _make_room(self, record_id: int, needed: int, protect: int) -> int:
        """Evict a run of siblings from ``record_id`` into a new record.

        Finds the node inside the record whose in-record child run is
        heaviest, then moves children (rightmost first, with their
        in-record descendants) into a fresh record until ``needed`` space
        is freed or nothing movable remains. The moved run forms a new
        sibling interval, so the partitioning stays valid. Returns the
        freed weight.
        """
        store = self.store
        member_ids = store.members[record_id]
        members = [store.tree.nodes[node_id] for node_id in member_ids]
        component = set(member_ids)
        # The protected node and its in-record ancestors must not move.
        untouchable: set[int] = set()
        cursor: Optional[TreeNode] = (
            store.tree.node(protect) if protect in component else None
        )
        while cursor is not None and cursor.node_id in component:
            untouchable.add(cursor.node_id)
            cursor = cursor.parent
        # Partition weight of each member's in-record subtree (member
        # lists are ascending in node id and a child's id is always larger
        # than its parent's — iterate reversed for child-first
        # accumulation).
        weights_in_record: dict[int, int] = {}
        for node in reversed(members):
            weights_in_record[node.node_id] = node.weight + sum(
                weights_in_record.get(c.node_id, 0)
                for c in node.children
                if c.node_id in component
            )
        best_parent: Optional[TreeNode] = None
        best_weight = 0
        for node in members:
            movable = sum(
                weights_in_record[c.node_id]
                for c in node.children
                if c.node_id in component and c.node_id not in untouchable
            )
            if movable > best_weight:
                best_weight = movable
                best_parent = node
        if best_parent is None or best_weight == 0:
            return 0
        # Move the rightmost movable run of in-record children.
        run: list[TreeNode] = []
        freed = 0
        for child in reversed(best_parent.children):
            movable = (
                store.record_of[child.node_id] == record_id
                and child.node_id not in untouchable
            )
            if not movable:
                if run:
                    break
                continue
            if freed + weights_in_record[child.node_id] > self.limit:
                break  # the evicted record must itself respect K
            run.append(child)
            freed += weights_in_record[child.node_id]
            if freed >= needed:
                break
        if not run:
            return 0
        target = self._new_record()
        self._move_subtrees(run, record_id, target)
        self._dirty.add(record_id)
        self.stats.record_splits += 1
        return freed

    def _move_subtrees(self, roots: list[TreeNode], source: int, target: int) -> None:
        """Reassign ``roots`` and their in-``source`` descendants to
        ``target``, maintaining record weights and member lists."""
        store = self.store
        moved: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if store.record_of[node.node_id] != source:
                continue  # a nested interval already cut this subtree
            store.record_of[node.node_id] = target
            store.record_weights[source] -= node.weight
            store.record_weights[target] += node.weight
            moved.add(node.node_id)
            stack.extend(node.children)
        members = store.members
        members[source] = [i for i in members[source] if i not in moved]
        members[target] = sorted(moved.union(members[target]))
        # the record map in any structural index describes the old
        # assignment now (content-only updates that never split keep it)
        store.invalidate_index()
