"""The document store: partitioned tree + navigation cost accounting.

:meth:`DocumentStore.build` materializes a partitioned document: every
partition is serialized into one record (:meth:`DocumentStore.
encode_record`, layout in :mod:`repro.storage.record`), records are
packed onto pages, and a shared label dictionary maps tag
names to ids. A walk over the document gets its own :class:`Navigator`
(:meth:`DocumentStore.navigator`), whose handles charge each axis step

* ``intra_cost`` when source and target live in the same record,
* ``cross_cost`` (+ a buffer fetch, + ``fault_cost`` on a page miss)
  when the step follows an inter-record proxy.

This is the quantity Table 3 measures: the same document stored under
KM's single-node partitions forces a cross-record hop for nearly every
edge, while EKM's sibling partitions keep whole child sequences local.
The store itself keeps no navigation counters: they belong to the walk,
so concurrent walks over one store count apart.

Durable state is the pages (and the WAL, when attached). Beside the tree
the store keeps three mirrors of the node -> record assignment, all
derived, all rebuilt by :meth:`DocumentStore.rebind` after recovery and
maintained by :class:`~repro.storage.updates.StoreUpdater` in between:
``record_of[node_id]``, ``record_weights[record_id]`` and
``members[record_id]`` — the record's node ids in ascending (creation)
order, which is the order its nodes are serialized in. ``members`` is
what makes re-encoding a record cost its own size, not the document's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro import telemetry
from repro.errors import StorageError
from repro.partition.assignment import intervals_from_assignment
from repro.partition.evaluate import assignment_from_partitioning
from repro.partition.interval import Partitioning
from repro.storage.buffer import BufferPool
from repro.storage.constants import DEFAULT_CONFIG, StorageConfig
from repro.storage.manager import RecordManager, SpaceReport
from repro.storage.record import (
    DOCUMENT_ROOT,
    NO_PARENT,
    NODE_FORMAT,
    RECORD_HEADER,
    Record,
    RecordCodec,
)
from repro.tree.node import NodeKind, Tree, TreeNode


@dataclass
class NavigationStats:
    """One walk's counters and their derived simulated cost."""

    intra_steps: int = 0
    cross_steps: int = 0
    page_faults: int = 0
    node_visits: int = 0
    #: location steps answered by the structural index, one per step
    #: whatever its context count; these replace hop charges with
    #: per-partition page touches
    window_steps: int = 0
    #: partitions a range-axis step skipped because they hold no node of
    #: its windows or of its ancestor climb (the record map's savings),
    #: summed over steps
    partitions_pruned: int = 0

    def cost(self, config: StorageConfig) -> float:
        return (
            self.intra_steps * config.intra_cost
            + self.cross_steps * config.cross_cost
            + self.page_faults * config.fault_cost
        )


class DocumentStore:
    """A partitioned, serialized document with navigational access."""

    def __init__(
        self,
        tree: Tree,
        partitioning: Partitioning,
        config: StorageConfig = DEFAULT_CONFIG,
    ):
        self.tree = tree
        self.partitioning = partitioning
        self.config = config
        #: live heat tallies of this document (``_DocHeat``, set by
        #: :meth:`repro.telemetry.heat.HeatAccumulator.attach`); every
        #: navigator made while it is set reports its hops there
        self.heat = None
        #: optional :class:`repro.index.StructuralIndex`; when present
        #: and valid the query engine answers axis steps by window
        #: lookups instead of navigation (see :meth:`build_index`)
        self.structural_index = None
        #: optional write-ahead log (see :meth:`attach_wal`); updates
        #: flushed through :class:`~repro.storage.updates.StoreUpdater`
        #: become crash-recoverable once one is attached
        self.wal = None

        # label dictionary
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}

        # node -> record assignment (dense partition indices)
        self.record_of = assignment_from_partitioning(tree, partitioning)

        # build + serialize records, place them on pages (weight
        # feasibility is checked upstream, not by the encoder)
        self.codec = RecordCodec()
        self.manager = RecordManager(config)
        with telemetry.span("storage.build"):
            # label ids in first-seen document order; updates intern new
            # labels as their records are re-encoded
            for label in dict.fromkeys(node.label for node in tree):
                self._label_id(label)
            self._derive_record_state(max(self.record_of) + 1)
            for record_id in range(self.record_count):
                self.manager.store(record_id, self.encode_record(record_id))
        self.buffer = BufferPool(self.manager.pages, config.buffer_pages)
        # document-order ranks, recomputed lazily after structural updates
        self._order_ranks: Optional[list[int]] = None

    # -- construction ----------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = len(self.labels)
            if lid > 0xFFFF:
                raise StorageError("label dictionary overflow")
            self.labels.append(label)
            self._label_ids[label] = lid
        return lid

    def _derive_record_state(self, count: int) -> None:
        """Group the tree by ``record_of``: per record its member ids
        (ascending) and its partition weight (both maintained by updates
        from here on)."""
        members: list[list[int]] = [[] for _ in range(count)]
        weights = [0] * count
        record_of = self.record_of
        for node in self.tree:
            record_id = record_of[node.node_id]
            members[record_id].append(node.node_id)
            weights[record_id] += node.weight
        self.record_count = count
        self.members = members
        self.record_weights = weights

    @classmethod
    def build(
        cls,
        tree: Tree,
        partitioning: Partitioning,
        config: StorageConfig = DEFAULT_CONFIG,
    ) -> "DocumentStore":
        return cls(tree, partitioning, config)

    @classmethod
    def adopt(
        cls,
        manager: RecordManager,
        tree: Tree,
        record_of: list,
        labels: list,
        config: StorageConfig = DEFAULT_CONFIG,
    ) -> "DocumentStore":
        """Wrap an existing page set instead of serializing a fresh one.

        This is the recovery constructor: :func:`repro.recovery.manager.
        recover_store` rebuilds the tree and assignment from surviving
        page images and must adopt those pages *byte-identically* — a
        round-trip through :meth:`build` would re-pack records and change
        the page layout, destroying the crash-matrix equality it exists
        to prove.
        """
        store = cls.__new__(cls)
        store.config = config
        store.heat = None
        store.structural_index = None
        store.wal = None
        store.labels = []
        store._label_ids = {}
        store.codec = RecordCodec()
        store.manager = manager
        store.rebind(tree, record_of, labels)
        return store

    def rebind(self, tree: Tree, record_of: list, labels: list) -> None:
        """Swap in recovered in-memory state around the existing pages.

        Everything derivable is re-derived: the partitioning from the
        assignment, member lists and record weights from the tree,
        document-order ranks lazily, and a fresh buffer pool over the
        (possibly repaired) pages.
        """
        self.tree = tree
        self.labels = list(labels)
        self._label_ids = {label: lid for lid, label in enumerate(self.labels)}
        self.record_of = list(record_of)
        count = max(self.record_of, default=-1) + 1
        for record_id in self.manager.page_of_record:
            count = max(count, record_id + 1)
        self._derive_record_state(count)
        self.partitioning = Partitioning(
            intervals_from_assignment(tree, self.record_of)
        )
        self.buffer = BufferPool(self.manager.pages, self.config.buffer_pages)
        self._order_ranks = None
        # recovered state never trusts a pre-crash index; rebuild on demand
        self.structural_index = None

    def attach_wal(self, wal) -> None:
        """Route update flushes through ``wal`` (a
        :class:`~repro.recovery.wal.WriteAheadLog`, already open).

        An empty log immediately gets a checkpoint frame carrying the
        label dictionary and record limit — cold recovery needs that
        snapshot even if the store crashes before its first commit.
        """
        self.wal = wal
        if wal.frames == 0:
            wal.checkpoint(self.labels, self.config.record_limit)

    # -- accounting ------------------------------------------------------

    def warm_up(self) -> None:
        """Preload the buffer and zero its counters (Table 3 protocol).

        The paper measures *after* preloading, so the pool's workload
        counters start from zero here; its own
        :meth:`~repro.storage.buffer.BufferPool.warm_up` never charges
        them by itself (see its module docstring). Navigation counters
        need no reset: each walk's navigator starts its own.
        """
        self.buffer.warm_up()
        self.buffer.stats.reset()

    def charge_index_step(
        self, stats: NavigationStats, result_ids, range_records=None
    ) -> None:
        """Charge one index-answered location step to ``stats`` (a
        navigator's): one buffer fetch per page
        holding a partition the step must decode. A range axis passes
        the partitions holding a node it reads (``range_records``; all
        the others count as pruned); a point axis decodes just the
        partitions holding its result."""
        stats.window_steps += 1
        stats.node_visits += len(result_ids)
        if range_records is None:
            if not result_ids:
                return
            record_of = self.record_of
            decoded = {record_of[i] for i in result_ids}
        else:
            decoded = range_records
            stats.partitions_pruned += self.record_count - len(decoded)
        page_of_record = self.manager.page_of_record
        buffer = self.buffer
        for page_id in {
            page_of_record[rid] for rid in decoded if rid in page_of_record
        }:
            if not buffer.is_cached(page_id):
                stats.page_faults += 1
            buffer.fetch(page_id)

    def space_report(self) -> SpaceReport:
        return self.manager.space_report()

    def fetch_record(self, record_id: int) -> Record:
        """Decode a record from its page (used by record-level navigation,
        reconstruction and integrity checks).

        The page is verified even on a buffer hit: corruption that lands
        while a page sits in the cache must surface as
        :class:`~repro.errors.CorruptPageError` here rather than decode
        into a garbage tree downstream.
        """
        page = self.buffer.fetch(self.manager.page_of_record[record_id])
        page.verify()
        return self.codec.decode(record_id, page.get(record_id))

    # -- document order (stable across incremental updates) ---------------

    def order_rank(self, node_id: int) -> int:
        """Preorder (document-order) rank of a node.

        For freshly built stores node ids *are* document order; after
        incremental inserts they are not, so ranks are recomputed lazily
        whenever the structure changed.
        """
        if self._order_ranks is None:
            from repro.tree.traversal import iter_preorder

            ranks = [0] * len(self.tree)
            for rank, node in enumerate(iter_preorder(self.tree)):
                ranks[node.node_id] = rank
            self._order_ranks = ranks
        return self._order_ranks[node_id]

    def invalidate_order(self) -> None:
        """Called by the updater after structural changes."""
        self._order_ranks = None
        self.invalidate_index()

    # -- structural index --------------------------------------------------

    def build_index(self):
        """(Re)build the :class:`~repro.index.StructuralIndex` for the
        current tree + record assignment; the engine uses it for window
        axis evaluation until the next structural change."""
        from repro.index import StructuralIndex

        self.structural_index = StructuralIndex.build(self)
        return self.structural_index

    def invalidate_index(self) -> None:
        """Mark the structural index stale (structural insert or record
        move); queries fall back to navigation until a rebuild."""
        index = self.structural_index
        if index is not None:
            index.invalidate()

    def encode_record(self, record_id: int) -> bytes:
        """Serialize one record from the current tree + assignment — the
        one node -> bytes loop, run per record by the initial build and
        per dirty record by update flushes. Visits the record's members
        only and packs each node's header straight from its
        :class:`TreeNode` (layout: :mod:`repro.storage.record`)."""
        member_ids = self.members[record_id]
        if len(member_ids) >= NO_PARENT:
            raise StorageError(f"record {record_id} has too many nodes")
        nodes = self.tree.nodes
        label_ids = self._label_ids
        pack = NODE_FORMAT.pack
        slot_of: dict[int, int] = {}
        # slot 0 is the record header, patched in once the roots are counted
        out = [b""]
        contents = []
        roots = 0
        # ascending ids: an in-record parent is always serialized (and in
        # slot_of) before its children, so a miss means "fragment root"
        for slot, node_id in enumerate(member_ids):
            node = nodes[node_id]
            parent = node.parent
            if parent is None:
                parent_id, parent_slot = DOCUMENT_ROOT, NO_PARENT
            else:
                parent_id = parent.node_id
                parent_slot = slot_of.get(parent_id, NO_PARENT)
            if parent_slot == NO_PARENT:
                roots += 1
            label_id = label_ids.get(node.label)
            if label_id is None:
                label_id = self._label_id(node.label)
            content = node.content
            content = content.encode("utf-8") if content else b""
            if len(content) > 0xFFFF:
                raise StorageError(
                    f"node {node_id} content exceeds 64 KiB record field"
                )
            position = node.index
            if position > 0xFFFF:
                raise StorageError(
                    f"node {node_id} sibling position exceeds 16 bits"
                )
            slot_of[node_id] = slot
            out.append(
                pack(
                    node_id,
                    node.kind,
                    label_id,
                    parent_slot,
                    parent_id,
                    position,
                    len(content),
                )
            )
            contents.append(content)
        out[0] = RECORD_HEADER.pack(len(member_ids), roots)
        out += contents
        return b"".join(out)

    # -- navigation ------------------------------------------------------

    def navigator(self) -> "TreeNavigator":
        """A fresh navigator for one walk, with its own counters."""
        return TreeNavigator(self)


class Navigator:
    """One walk over a store: its counters and the one hop charge.

    A navigator lives for one walk (a query run, a scan) and owns that
    walk's :class:`NavigationStats`, so walks over one store never share
    counters. Handles hold their navigator and call :meth:`_charge` for
    every hop they make. Subclasses add ``root()`` (the document
    element's handle) and ``handles(ids)`` (handles for node ids).
    """

    def __init__(self, store: DocumentStore):
        self.store = store
        self.stats = NavigationStats()
        #: the document's heat tallies when heat is on, else ``None``
        self.heat = store.heat

    def _charge(self, source_id: int, target_id: int) -> None:
        # heat is one pre-bound list.append per hop on the intra branch
        # (PERF002 forbids a per-hop callback here); the cross branch
        # also buffers faults and drains at a threshold
        stats = self.stats
        stats.node_visits += 1
        store = self.store
        record_of = store.record_of
        heat = self.heat
        if record_of[source_id] == record_of[target_id]:
            stats.intra_steps += 1
            if heat is not None:
                heat.append(source_id << 32 | target_id)
            return
        stats.cross_steps += 1
        page_id = store.manager.page_of_record[record_of[target_id]]
        fault = not store.buffer.is_cached(page_id)
        store.buffer.fetch(page_id)
        if fault:
            stats.page_faults += 1
        if heat is not None:
            heat.cross(source_id << 32 | target_id, fault)


class TreeNavigator(Navigator):
    """Navigates the in-memory tree; hops are charged by the record
    assignment, cross steps through the buffer pool."""

    def root(self) -> "StoredNode":
        self.stats.node_visits += 1
        return StoredNode(self, self.store.tree.root)

    def handles(self, ids) -> list["StoredNode"]:
        nodes = self.store.tree.nodes
        return [StoredNode(self, nodes[i]) for i in ids]


class StoredNode:
    """Handle to one stored node; every hop is charged to its navigator.

    The structural links come from the in-memory tree (this is a
    simulator), but every step is classified intra- vs cross-record using
    the real record assignment, and cross steps go through the buffer
    pool — the quantities the experiments measure.
    """

    __slots__ = ("navigator", "_node")

    def __init__(self, navigator: Navigator, node: TreeNode):
        self.navigator = navigator
        self._node = node

    # identity / payload (no navigation cost)

    @property
    def node_id(self) -> int:
        return self._node.node_id

    @property
    def label(self) -> str:
        return self._node.label

    @property
    def kind(self) -> NodeKind:
        return self._node.kind

    @property
    def content(self) -> Optional[str]:
        return self._node.content

    @property
    def record_id(self) -> int:
        return self.navigator.store.record_of[self._node.node_id]

    def is_element(self) -> bool:
        return self._node.kind is NodeKind.ELEMENT

    # navigation primitives (each hop is charged)

    def _hop(self, target: Optional[TreeNode]) -> Optional["StoredNode"]:
        if target is None:
            return None
        navigator = self.navigator
        navigator._charge(self._node.node_id, target.node_id)
        return StoredNode(navigator, target)

    def parent(self) -> Optional["StoredNode"]:
        return self._hop(self._node.parent)

    def first_child(self) -> Optional["StoredNode"]:
        children = self._node.children
        return self._hop(children[0] if children else None)

    def next_sibling(self) -> Optional["StoredNode"]:
        return self._hop(self._node.next_sibling())

    def prev_sibling(self) -> Optional["StoredNode"]:
        return self._hop(self._node.prev_sibling())

    def children(self) -> Iterator["StoredNode"]:
        """First-child / next-sibling walk over all children."""
        child = self.first_child()
        while child is not None:
            yield child
            child = child.next_sibling()

    def descendants_or_self(self) -> Iterator["StoredNode"]:
        """Document-order walk of the subtree (self first), step-charged."""
        yield self
        stack: list[StoredNode] = []
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
        return f"StoredNode(id={self.node_id}, label={self.label!r}, record={self.record_id})"
