"""Record-level navigation: walking the document from record bytes.

:class:`~repro.storage.store.StoredNode` navigates the in-memory tree and
*accounts* intra-/cross-record steps — fast and sufficient for the
experiments. This module goes further: :class:`RecordNavigator` performs
navigation **purely from decoded records**, the way the real Natix engine
does. Structure comes from three sources only:

* intra-record parent slots (record-internal pointer chases),
* per-node sibling positions, and
* the *proxy index*: fragment roots announce their parent's global node
  id, so the children of any node are the union of its in-record
  children and the fragment roots (possibly in several other records)
  claiming it as parent — merged by position.

Both navigators subclass :class:`~repro.storage.store.Navigator`, so a
hop is charged by the same routine whichever one makes it. Tests drive
full-document traversals through both and assert identical structure
*and* identical cross-record step counts, which validates the cost model
the experiments rely on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Optional

from repro.errors import StorageError
from repro.storage.record import DOCUMENT_ROOT, NO_PARENT, Record
from repro.storage.store import DocumentStore, Navigator
from repro.tree.node import NodeKind


@dataclass
class _DecodedRecord:
    """One record plus the lookup structures navigation needs."""

    record: Record
    #: node_id -> slot index
    slot_of: dict[int, int] = field(default_factory=dict)
    #: parent node_id -> sorted list of (position, child node_id) within
    #: this record
    children_of: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @classmethod
    def build(cls, record: Record) -> "_DecodedRecord":
        decoded = cls(record)
        for slot, node in enumerate(record.nodes):
            decoded.slot_of[node.node_id] = slot
        for node in record.nodes:
            if node.parent_slot == NO_PARENT:
                continue
            parent_id = record.nodes[node.parent_slot].node_id
            bisect.insort(
                decoded.children_of.setdefault(parent_id, []),
                (node.position, node.node_id),
            )
        return decoded


class RecordNavigator(Navigator):
    """Navigates a :class:`DocumentStore`'s document from records alone.

    Shares the store's buffer pool (so page-level accounting is real) and
    counts its walk in its own :class:`~repro.storage.store.NavigationStats`
    like any navigator. Decodes every record up front for the proxy index,
    then memoizes each parent's merged child list and each child's place
    in it, which the walk may reuse because the store does not change
    under it.
    """

    def __init__(self, store: DocumentStore):
        super().__init__(store)
        self._decoded: dict[int, _DecodedRecord] = {}
        # proxy index: parent node_id -> sorted (position, child node_id)
        # over all fragment roots of all records
        self._proxies: dict[int, list[tuple[int, int]]] = {}
        #: parent node_id -> its children's ids in sibling order
        self._children: dict[int, list[int]] = {}
        #: child node_id -> its index in its parent's ``_children`` list
        self._sibling_index: dict[int, int] = {}
        self._root_id: Optional[int] = None
        for record_id in range(store.record_count):
            record = store.fetch_record(record_id)
            for node in record.fragment_roots():
                if node.parent_node_id == DOCUMENT_ROOT:
                    if self._root_id is not None:
                        raise StorageError("multiple document roots in records")
                    self._root_id = node.node_id
                    continue
                bisect.insort(
                    self._proxies.setdefault(node.parent_node_id, []),
                    (node.position, node.node_id),
                )
        if self._root_id is None:
            raise StorageError("records contain no document root")

    # -- internals ---------------------------------------------------------

    def _record_of(self, node_id: int) -> int:
        return self.store.record_of[node_id]

    def _decoded_record(self, record_id: int) -> _DecodedRecord:
        decoded = self._decoded.get(record_id)
        if decoded is None:
            decoded = _DecodedRecord.build(self.store.fetch_record(record_id))
            self._decoded[record_id] = decoded
        return decoded

    def _entry(self, node_id: int):
        decoded = self._decoded_record(self._record_of(node_id))
        return decoded.record.nodes[decoded.slot_of[node_id]]

    def _children_ids(self, node_id: int) -> list[int]:
        """All children (in-record + proxied), in sibling order."""
        children = self._children.get(node_id)
        if children is None:
            decoded = self._decoded_record(self._record_of(node_id))
            local = decoded.children_of.get(node_id, [])
            proxied = self._proxies.get(node_id, [])
            children = [child_id for _pos, child_id in sorted(local + proxied)]
            self._children[node_id] = children
            self._sibling_index.update(zip(children, count()))
        return children

    # -- public API ----------------------------------------------------------

    def root(self) -> "RecordNode":
        self.stats.node_visits += 1
        return RecordNode(self, self._root_id)

    def handles(self, ids) -> list["RecordNode"]:
        return [RecordNode(self, i) for i in ids]


class RecordNode:
    """Navigation handle mirroring :class:`StoredNode`'s interface, but
    backed exclusively by record data."""

    __slots__ = ("navigator", "node_id")

    def __init__(self, navigator: RecordNavigator, node_id: int):
        self.navigator = navigator
        self.node_id = node_id

    # payload accessors (record-resident, no navigation cost)

    @property
    def label(self) -> str:
        entry = self.navigator._entry(self.node_id)
        return self.navigator.store.labels[entry.label_id]

    @property
    def kind(self) -> NodeKind:
        return self.navigator._entry(self.node_id).kind

    @property
    def content(self) -> Optional[str]:
        raw = self.navigator._entry(self.node_id).content
        return raw.decode("utf-8") if raw else None

    @property
    def record_id(self) -> int:
        return self.navigator._record_of(self.node_id)

    @property
    def position(self) -> int:
        return self.navigator._entry(self.node_id).position

    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    # navigation (charged)

    def _hop(self, target_id: Optional[int]) -> Optional["RecordNode"]:
        if target_id is None:
            return None
        navigator = self.navigator
        navigator._charge(self.node_id, target_id)
        return RecordNode(navigator, target_id)

    def parent(self) -> Optional["RecordNode"]:
        entry = self.navigator._entry(self.node_id)
        if entry.parent_slot != NO_PARENT:
            decoded = self.navigator._decoded_record(self.record_id)
            return self._hop(decoded.record.nodes[entry.parent_slot].node_id)
        if entry.parent_node_id == DOCUMENT_ROOT:
            return None
        return self._hop(entry.parent_node_id)

    def first_child(self) -> Optional["RecordNode"]:
        children = self.navigator._children_ids(self.node_id)
        return self._hop(children[0] if children else None)

    def _sibling(self, offset: int) -> Optional["RecordNode"]:
        entry = self.navigator._entry(self.node_id)
        if entry.parent_node_id == DOCUMENT_ROOT and entry.parent_slot == NO_PARENT:
            return None
        navigator = self.navigator
        siblings = navigator._children_ids(self.parent_id())
        index = navigator._sibling_index[self.node_id] + offset
        if 0 <= index < len(siblings):
            return self._hop(siblings[index])
        return None

    def parent_id(self) -> int:
        entry = self.navigator._entry(self.node_id)
        if entry.parent_slot != NO_PARENT:
            decoded = self.navigator._decoded_record(self.record_id)
            return decoded.record.nodes[entry.parent_slot].node_id
        return entry.parent_node_id

    def next_sibling(self) -> Optional["RecordNode"]:
        return self._sibling(+1)

    def prev_sibling(self) -> Optional["RecordNode"]:
        return self._sibling(-1)

    def children(self) -> Iterator["RecordNode"]:
        child = self.first_child()
        while child is not None:
            yield child
            child = child.next_sibling()

    def descendants_or_self(self) -> Iterator["RecordNode"]:
        yield self
        stack: list[RecordNode] = []
        first = self.first_child()
        if first is not None:
            stack.append(first)
        while stack:
            node = stack.pop()
            yield node
            sibling = node.next_sibling()
            if sibling is not None:
                stack.append(sibling)
            child = node.first_child()
            if child is not None:
                stack.append(child)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordNode(id={self.node_id}, record={self.record_id})"
