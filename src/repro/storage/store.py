"""The document store: partitioned tree + navigation cost accounting.

:meth:`DocumentStore.build` materializes a partitioned document: every
partition is serialized into one record (:meth:`DocumentStore.
encode_record`, layout in :mod:`repro.storage.record`), records are
packed onto pages, and a shared label dictionary maps tag
names to ids. A walk over the document gets its own :class:`Navigator`
(:meth:`DocumentStore.navigator`). Its walks, one per axis, go from
node id to node id and charge each hop

* ``intra_cost`` when source and target live in the same record,
* ``cross_cost`` (+ a buffer fetch, + ``fault_cost`` on a page miss)
  when the hop follows an inter-record proxy.

Handles (:class:`NodeHandle`) are made only for the nodes a caller
keeps; their single hops are charged by the same routine.

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
from typing import Callable, Iterable, Optional

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
        touch = self.buffer.touch
        for page_id in {
            page_of_record[rid] for rid in decoded if rid in page_of_record
        }:
            if touch(page_id):
                stats.page_faults += 1

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
    """One walk over a store: its counters, its hop charge and its walks.

    A navigator lives for one walk (a query run, a scan) and owns its
    :class:`NavigationStats`, so walks over one store count apart. Its
    walks, one per axis, return a node's axis population on node ids
    (proximity order for the reverse axes) and charge every hop in the
    order a first-child / next-sibling / parent walk makes it; the LRU
    buffer turns that order into page faults. Subclasses supply the
    structure (``_parent_id``; ``_children_ids``; ``_sibling_id``, the
    sibling one position (+1 or -1) away; ``None`` where there is none),
    what a node test reads (``kind_of``, ``select``) and the handles
    (``root()``, ``handle``).
    """

    def __init__(self, store: DocumentStore):
        self.store = store
        self.stats = NavigationStats()
        #: the document's heat tallies when heat is on, else ``None``
        self.heat = store.heat

    def _charge_cross(self, source_id: int, target_id: int) -> None:
        # the intra branch (inlined in the walks) is one list.append for
        # heat (PERF002); this one also buffers faults, drained at a threshold
        stats = self.stats
        stats.node_visits += 1
        stats.cross_steps += 1
        store = self.store
        page_id = store.manager.page_of_record[store.record_of[target_id]]
        fault = store.buffer.touch(page_id)
        if fault:
            stats.page_faults += 1
        if self.heat is not None:
            self.heat.cross(source_id << 32 | target_id, fault)

    def _chain(self, source: int, targets: list[int]) -> list[int]:
        """Charge the hops ``source`` → ``targets[0]`` → ``targets[1]``
        → … in order; returns ``targets``."""
        record_of = self.store.record_of
        heat = self.heat
        intra = 0
        for target in targets:
            if record_of[source] == record_of[target]:
                intra += 1
                if heat is not None:
                    heat.append(source << 32 | target)
            else:
                self._charge_cross(source, target)
            source = target
        self.stats.intra_steps += intra
        self.stats.node_visits += intra
        return targets

    def child_ids(self, node_id: int) -> list[int]:
        """Hops to the first child, then from each child to the next."""
        return self._chain(node_id, self._children_ids(node_id))

    def attribute_ids(self, node_id: int) -> list[int]:
        """The leading attribute children. The walk ends on the first
        other child, so the hop to it is charged too."""
        children = self._children_ids(node_id)
        kind_of = self.kind_of
        count = next(
            (i for i, c in enumerate(children) if kind_of(c) is not NodeKind.ATTRIBUTE),
            len(children),
        )
        return self._chain(node_id, children[: count + 1])[:count]

    def parent_ids(self, node_id: int) -> list[int]:
        parent = self._parent_id(node_id)
        return [] if parent is None else self._chain(node_id, [parent])

    def ancestor_ids(self, node_id: int, or_self: bool) -> list[int]:
        """Parent hops up to the document element, nearest first."""
        ancestors = []
        parent = self._parent_id(node_id)
        while parent is not None:
            ancestors.append(parent)
            parent = self._parent_id(parent)
        self._chain(node_id, ancestors)
        return [node_id, *ancestors] if or_self else ancestors

    def sibling_ids(self, node_id: int, following: bool) -> list[int]:
        """Next-sibling (or previous-sibling) hops, nearest first."""
        offset = 1 if following else -1
        siblings = []
        sibling = self._sibling_id(node_id, offset)
        while sibling is not None:
            siblings.append(sibling)
            sibling = self._sibling_id(sibling, offset)
        return self._chain(node_id, siblings)

    def descendant_ids(self, node_id: int, or_self: bool) -> list[int]:
        """Document-order walk of the subtree (self first, kept only
        ``or_self``): each node taken off the stack charges its hop to its
        next sibling (none for the context), then the hop to its own first
        child."""
        out: list[int] = []
        children_ids = self._children_ids
        record_of = self.store.record_of
        heat = self.heat
        charge_cross = self._charge_cross
        intra = 0
        append = out.append
        # entries are (sibling list, index): the node and where its next
        # sibling is
        stack = [([node_id], 0)]
        push, pop = stack.append, stack.pop
        while stack:
            siblings, index = pop()
            node = siblings[index]
            append(node)
            index += 1
            if index < len(siblings):
                target = siblings[index]
                if record_of[node] == record_of[target]:
                    intra += 1
                    if heat is not None:
                        heat.append(node << 32 | target)
                else:
                    charge_cross(node, target)
                push((siblings, index))
            children = children_ids(node)
            if children:
                target = children[0]
                if record_of[node] == record_of[target]:
                    intra += 1
                    if heat is not None:
                        heat.append(node << 32 | target)
                else:
                    charge_cross(node, target)
                push((children, 0))
        self.stats.intra_steps += intra
        self.stats.node_visits += intra
        return out if or_self else out[1:]

    # supplied by subclasses (see the class docstring)
    _parent_id: Callable[[int], Optional[int]]
    _children_ids: Callable[[int], list[int]]
    _sibling_id: Callable[[int, int], Optional[int]]
    kind_of: Callable[[int], NodeKind]
    select: Callable[..., list[int]]
    handle: Callable[[int], "NodeHandle"]

    def handles(self, ids: Iterable[int]) -> list:
        return [self.handle(i) for i in ids]


class NodeHandle:
    """A handle to one node of a walk. Its single hops are charged to
    its navigator; the multi-hop walks are the navigator's. Subclasses
    set ``navigator`` and ``node_id`` and read the payload (``label``,
    ``kind``, ``content``)."""

    __slots__ = ()

    navigator: Navigator
    node_id: int

    def is_element(self) -> bool:
        return self.navigator.kind_of(self.node_id) is NodeKind.ELEMENT

    def _follow(self, target_id: Optional[int]):
        if target_id is None:
            return None
        navigator = self.navigator
        navigator._chain(self.node_id, [target_id])
        return navigator.handle(target_id)

    def parent(self):
        return self._follow(self.navigator._parent_id(self.node_id))

    def first_child(self):
        children = self.navigator._children_ids(self.node_id)
        return self._follow(children[0] if children else None)

    def next_sibling(self):
        return self._follow(self.navigator._sibling_id(self.node_id, 1))

    def prev_sibling(self):
        return self._follow(self.navigator._sibling_id(self.node_id, -1))

    def children(self) -> list:
        navigator = self.navigator
        return navigator.handles(navigator.child_ids(self.node_id))

    def descendants_or_self(self) -> list:
        """The subtree in document order, self first."""
        navigator = self.navigator
        return navigator.handles(navigator.descendant_ids(self.node_id, True))

    @property
    def record_id(self) -> int:
        return self.navigator.store.record_of[self.node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.node_id}, record={self.record_id})"


class TreeNavigator(Navigator):
    """Navigates the in-memory tree: structure from its links; hops are
    charged by the record assignment, cross steps through the buffer
    pool."""

    def __init__(self, store: DocumentStore):
        super().__init__(store)
        self._nodes = store.tree.nodes

    def root(self) -> "StoredNode":
        self.stats.node_visits += 1
        return StoredNode(self, self._nodes[0])

    def handle(self, node_id: int) -> "StoredNode":
        return StoredNode(self, self._nodes[node_id])

    def kind_of(self, node_id: int) -> NodeKind:
        return self._nodes[node_id].kind

    def select(self, ids, kind: NodeKind, label: Optional[str] = None) -> list[int]:
        nodes = self._nodes
        if label is None:
            return [i for i in ids if nodes[i].kind is kind]
        return [i for i in ids if nodes[i].label == label and nodes[i].kind is kind]

    def _parent_id(self, node_id: int) -> Optional[int]:
        parent = self._nodes[node_id].parent
        return None if parent is None else parent.node_id

    def _children_ids(self, node_id: int) -> list[int]:
        children = self._nodes[node_id].children
        return [child.node_id for child in children] if children else []

    def _sibling_id(self, node_id: int, offset: int) -> Optional[int]:
        node = self._nodes[node_id]
        sibling = node.next_sibling() if offset > 0 else node.prev_sibling()
        return None if sibling is None else sibling.node_id


class StoredNode(NodeHandle):
    """Handle to one node of the in-memory tree (the structure of this
    simulator); its hops are charged by the real record assignment."""

    __slots__ = ("navigator", "node_id", "_node")

    def __init__(self, navigator: Navigator, node: TreeNode):
        self.navigator = navigator
        self.node_id = node.node_id
        self._node = node

    # payload (no navigation cost)

    @property
    def label(self) -> str:
        return self._node.label

    @property
    def kind(self) -> NodeKind:
        return self._node.kind

    @property
    def content(self) -> Optional[str]:
        return self._node.content
