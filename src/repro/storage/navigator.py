"""Record-level navigation: walking the document from record bytes.

:class:`~repro.storage.store.TreeNavigator` reads structure from the
in-memory tree and *accounts* intra-/cross-record hops — fast and
sufficient for the experiments. This module goes further:
:class:`RecordNavigator` takes structure **purely from decoded
records**, the way the real Natix engine does. It comes from three
sources only:

* intra-record parent slots (record-internal pointer chases),
* per-node sibling positions, and
* the *proxy index*: fragment roots announce their parent's global node
  id, so the children of any node are the union of its in-record
  children and the fragment roots (possibly in several other records)
  claiming it as parent — merged by position.

Both navigators subclass :class:`~repro.storage.store.Navigator`, which
walks node ids over these primitives and charges every hop by one
routine, whichever navigator supplies them. Tests drive full-document
traversals and every XPathMark query through both and assert identical
structure *and* identical counters, which validates the cost model the
experiments rely on.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StorageError
from repro.storage.record import DOCUMENT_ROOT, NO_PARENT
from repro.storage.store import DocumentStore, Navigator, NodeHandle
from repro.tree.node import NodeKind


class RecordNavigator(Navigator):
    """Navigates a :class:`DocumentStore`'s document from records alone.

    Shares the store's buffer pool (so page-level accounting is real) and
    counts its walk in its own :class:`~repro.storage.store.NavigationStats`
    like any navigator. Decodes every record up front, for the proxy
    index and for the node entries the walk reads, so the walk's page
    accesses are its cross-record hops, as with the tree navigator. It
    memoizes each parent's merged child list and each child's place in
    it, which the walk may reuse because the store does not change
    under it.
    """

    def __init__(self, store: DocumentStore):
        super().__init__(store)
        #: node_id -> its decoded entry
        self._entries: dict = {}
        #: node_id -> parent node_id, from the parent slot or the proxy
        self._parents: dict[int, int] = {}
        #: parent node_id -> (position, child node_id) of its in-record
        #: children and of the fragment roots, in any record, claiming it
        self._claims: dict[int, list[tuple[int, int]]] = {}
        #: parent node_id -> its children's ids in sibling order
        self._children: dict[int, list[int]] = {}
        #: child node_id -> its index in its parent's ``_children`` list
        self._sibling_index: dict[int, int] = {}
        self._root_id: Optional[int] = None
        for record_id in range(store.record_count):
            nodes = store.fetch_record(record_id).nodes
            for node in nodes:
                node_id = node.node_id
                self._entries[node_id] = node
                if node.parent_slot != NO_PARENT:
                    parent_id = nodes[node.parent_slot].node_id
                elif node.parent_node_id == DOCUMENT_ROOT:
                    if self._root_id is not None:
                        raise StorageError("multiple document roots in records")
                    self._root_id = node_id
                    continue
                else:
                    parent_id = node.parent_node_id
                self._parents[node_id] = parent_id
                self._claims.setdefault(parent_id, []).append((node.position, node_id))
        if self._root_id is None:
            raise StorageError("records contain no document root")

    # -- structural primitives ---------------------------------------------

    def _parent_id(self, node_id: int) -> Optional[int]:
        return self._parents.get(node_id)

    def _children_ids(self, node_id: int) -> list[int]:
        """All children (in-record + proxied), in sibling order."""
        children = self._children.get(node_id)
        if children is None:
            claims = sorted(self._claims.get(node_id, ()))
            children = [child_id for _pos, child_id in claims]
            self._children[node_id] = children
            self._sibling_index.update(zip(children, range(len(children))))
        return children

    def _sibling_id(self, node_id: int, offset: int) -> Optional[int]:
        parent = self._parents.get(node_id)
        if parent is None:
            return None
        siblings = self._children_ids(parent)
        index = self._sibling_index[node_id] + offset
        return siblings[index] if 0 <= index < len(siblings) else None

    def kind_of(self, node_id: int) -> NodeKind:
        return self._entries[node_id].kind

    def select(self, ids, kind: NodeKind, label: Optional[str] = None) -> list[int]:
        entries = self._entries
        if label is None:
            return [i for i in ids if entries[i].kind is kind]
        label_id = self.store._label_ids.get(label)
        return [i for i in ids if entries[i].label_id == label_id and entries[i].kind is kind]

    # -- handles -------------------------------------------------------------

    def root(self) -> "RecordNode":
        self.stats.node_visits += 1
        return RecordNode(self, self._root_id)

    def handle(self, node_id: int) -> "RecordNode":
        return RecordNode(self, node_id)


class RecordNode(NodeHandle):
    """Navigation handle mirroring :class:`StoredNode`'s interface, but
    backed exclusively by record data."""

    __slots__ = ("navigator", "node_id")

    def __init__(self, navigator: RecordNavigator, node_id: int):
        self.navigator = navigator
        self.node_id = node_id

    # payload accessors (record-resident, no navigation cost)

    @property
    def label(self) -> str:
        return self.navigator.store.labels[self.navigator._entries[self.node_id].label_id]

    @property
    def kind(self) -> NodeKind:
        return self.navigator.kind_of(self.node_id)

    @property
    def content(self) -> Optional[str]:
        raw = self.navigator._entries[self.node_id].content
        return raw.decode("utf-8") if raw else None
