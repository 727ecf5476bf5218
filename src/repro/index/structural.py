"""The structural index: preorder columns + a run-length record map.

Per-node columns are typed ``array('q')`` vectors indexed by **node id**
(``node_at`` by preorder rank), built in one iterative DFS over the
store's tree — O(n) time, ~8 bytes per column per node. The record map
has one entry per maximal run of preorder ranks stored in one record.
The index is a *secondary* structure: it never owns document data, so
dropping or rebuilding it is always safe.

Validity: the index describes one exact (tree, record-assignment) state.
Structural inserts and record splits/moves call
:meth:`StructuralIndex.invalidate`; the query engine then falls back to
navigation until someone rebuilds (``DocumentStore.build_index``).
Content-only updates don't touch structure or placement, so they leave
the index valid — the equivalence suite pins both behaviours.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from repro import telemetry
from repro.errors import StorageError
from repro.tree.node import NodeKind


def _zeros(n: int) -> array:
    return array("q", bytes(8 * n))


class StructuralIndex:
    """Preorder columns and the preorder record map for one document."""

    __slots__ = (
        "node_count",
        "record_count",
        "valid",
        # per-node columns (indexed by node id)
        "pre_of",
        "size_of",
        "parent_of",
        "pos_of",
        "kind_of",
        "label_id_of",
        # preorder rank -> node id
        "node_at",
        # CSR child lists (+ leading-attribute counts)
        "child_offset",
        "child_ids",
        "attr_count",
        # label dictionary + per-label sorted preorder postings (elements)
        "_label_ids",
        "_label_pre",
        # record map: first preorder rank of each run, and its record
        "run_start",
        "run_record",
    )

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, store) -> "StructuralIndex":
        """Index ``store``'s current tree + record assignment (one DFS)."""
        with telemetry.span("index.build"):
            index = cls._build(store)
        if telemetry.enabled():
            telemetry.count("index.builds")
        return index

    @classmethod
    def _build(cls, store) -> "StructuralIndex":
        tree = store.tree
        nodes = tree.nodes
        n = len(nodes)
        self = cls.__new__(cls)
        self.node_count = n
        self.valid = True

        pre_of = self.pre_of = _zeros(n)
        size_of = self.size_of = _zeros(n)
        parent_of = self.parent_of = _zeros(n)
        kind_of = self.kind_of = _zeros(n)
        label_id_of = self.label_id_of = _zeros(n)
        node_at = self.node_at = _zeros(n)
        label_ids: dict[str, int] = {}
        label_pre: dict[int, array] = {}
        self._label_ids = label_ids
        self._label_pre = label_pre

        element = int(NodeKind.ELEMENT)
        pre_counter = 0
        stack: list[tuple[object, bool]] = [(tree.root, False)]
        while stack:
            node, exiting = stack.pop()
            nid = node.node_id
            if exiting:
                size_of[nid] = pre_counter - pre_of[nid]
                continue
            pre_of[nid] = pre_counter
            node_at[pre_counter] = nid
            pre_counter += 1
            parent = node.parent
            parent_of[nid] = -1 if parent is None else parent.node_id
            kind = int(node.kind)
            kind_of[nid] = kind
            lid = label_ids.setdefault(node.label, len(label_ids))
            label_id_of[nid] = lid
            if kind == element:
                postings = label_pre.get(lid)
                if postings is None:
                    postings = label_pre[lid] = array("q")
                postings.append(pre_of[nid])
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
        if pre_counter != n:
            raise StorageError(
                f"tree has {n} nodes but only {pre_counter} are reachable "
                "from the root; refusing to build a structural index"
            )

        # CSR child lists, sibling positions, leading-attribute counts
        child_offset = self.child_offset = _zeros(n + 1)
        child_ids = self.child_ids = _zeros(n - 1) if n > 1 else array("q")
        attr_count = self.attr_count = _zeros(n)
        pos_of = self.pos_of = _zeros(n)
        attribute = int(NodeKind.ATTRIBUTE)
        off = 0
        for nid in range(n):
            child_offset[nid] = off
            leading = 0
            counting = True
            for pos, child in enumerate(nodes[nid].children):
                cid = child.node_id
                child_ids[off] = cid
                pos_of[cid] = pos
                if counting and kind_of[cid] == attribute:
                    leading += 1
                else:
                    counting = False
                off += 1
            attr_count[nid] = leading
        child_offset[n] = off

        # record map: a sibling partition's preorder span has a hole per
        # subtree cut out of it, so a record is a few runs, not one window
        record_of = store.record_of
        self.record_count = store.record_count
        run_start = self.run_start = array("q")
        run_record = self.run_record = array("q")
        previous = -1
        for rank, nid in enumerate(node_at):
            rid = record_of[nid]
            if rid != previous:
                run_start.append(rank)
                run_record.append(rid)
                previous = rid
        return self

    # -- lifecycle ---------------------------------------------------------

    def invalidate(self) -> None:
        """Mark stale (structural update / record move); the engine falls
        back to navigation until the owner rebuilds."""
        if self.valid:
            self.valid = False
            if telemetry.enabled():
                telemetry.count("index.invalidations")

    def describe(self) -> dict:
        """Summary block for ``/healthz`` and ``repro stats --index``."""
        return {
            "valid": self.valid,
            "nodes": self.node_count,
            "records": self.record_count,
            "labels": len(self._label_ids),
        }

    # -- column lookups ----------------------------------------------------

    def label_id(self, label: str) -> Optional[int]:
        return self._label_ids.get(label)

    def parent_id(self, node_id: int) -> int:
        """Parent node id, ``-1`` for the document root."""
        return self.parent_of[node_id]

    # -- axis windows (orders match navigation's axis orders exactly) -----

    def children_of(self, node_id: int) -> Sequence[int]:
        """Child ids in sibling order (attributes lead, as stored)."""
        lo = self.child_offset[node_id]
        return self.child_ids[lo : self.child_offset[node_id + 1]]

    def attributes_of(self, node_id: int) -> Sequence[int]:
        """The leading ATTRIBUTE-kind children (the attribute axis)."""
        lo = self.child_offset[node_id]
        return self.child_ids[lo : lo + self.attr_count[node_id]]

    def ancestor_ids(self, node_id: int, or_self: bool) -> list[int]:
        """Ancestor chain of one node in proximity order (parent first)."""
        out = [node_id] if or_self else []
        parent_of = self.parent_of
        pid = parent_of[node_id]
        while pid >= 0:
            out.append(pid)
            pid = parent_of[pid]
        return out

    def ancestors_of(self, node_ids: Sequence[int], or_self: bool) -> list[int]:
        """Distinct ancestors of a whole node set, unordered: a
        ``parent_of`` climb per node that stops at the first node some
        earlier climb already collected (its ancestors are in too), so
        the cost is O(nodes + distinct ancestors), not a chain per node."""
        parent_of = self.parent_of
        seen: set[int] = set()
        out: list[int] = []
        for nid in node_ids:
            cursor = nid if or_self else parent_of[nid]
            while cursor >= 0 and cursor not in seen:
                seen.add(cursor)
                out.append(cursor)
                cursor = parent_of[cursor]
        return out

    def descendant_window(self, node_id: int, or_self: bool) -> tuple[int, int]:
        """Half-open preorder window ``[lo, hi)`` of the descendant axis."""
        pre = self.pre_of[node_id]
        lo = pre if or_self else pre + 1
        return lo, pre + self.size_of[node_id]

    def descendant_windows(
        self, node_ids: Sequence[int], or_self: bool
    ) -> list[tuple[int, int]]:
        """Staircase join: the descendant windows of a document-ordered
        node set with every node inside the previously kept window
        skipped (its descendants are that window's). The kept windows
        are non-empty, disjoint and ascending, so reading them in turn
        yields a duplicate-free document-order result."""
        pre_of = self.pre_of
        size_of = self.size_of
        out: list[tuple[int, int]] = []
        end = 0
        for nid in node_ids:
            pre = pre_of[nid]
            if pre < end:
                continue
            end = pre + size_of[nid]
            lo = pre if or_self else pre + 1
            if lo < end:
                out.append((lo, end))
        return out

    def ids_in_window(self, lo: int, hi: int) -> Sequence[int]:
        """All node ids with preorder rank in ``[lo, hi)``, document order."""
        return self.node_at[lo:hi]

    def label_ids_in_windows(
        self, label_id: int, windows: Sequence[tuple[int, int]]
    ) -> list[int]:
        """Element ids with ``label_id`` inside the given preorder
        windows — one bisect pair per window over the label's sorted
        preorder postings."""
        postings = self._label_pre.get(label_id)
        if not postings:
            return []
        node_at = self.node_at
        out: list[int] = []
        for lo, hi in windows:
            start = bisect_left(postings, lo)
            stop = bisect_left(postings, hi, start)
            out.extend([node_at[rank] for rank in postings[start:stop]])
        return out

    def following_siblings(self, node_id: int) -> Sequence[int]:
        pid = self.parent_of[node_id]
        if pid < 0:
            return ()
        lo = self.child_offset[pid]
        return self.child_ids[lo + self.pos_of[node_id] + 1 : self.child_offset[pid + 1]]

    def preceding_siblings(self, node_id: int) -> Sequence[int]:
        """Preceding siblings in proximity (reverse-document) order."""
        pid = self.parent_of[node_id]
        if pid < 0:
            return ()
        lo = self.child_offset[pid]
        run = self.child_ids[lo : lo + self.pos_of[node_id]]
        return run[::-1]

    # -- partition pruning -------------------------------------------------

    def records_overlapping(self, windows: Sequence[tuple[int, int]]) -> set[int]:
        """Exactly the records holding a node of ``windows`` (half-open,
        non-empty, disjoint, ascending: what :meth:`descendant_windows`
        returns). A window ending inside the last run read costs one
        comparison; any other bisects the run starts and reads the runs
        it touches."""
        run_start = self.run_start
        run_record = self.run_record
        runs = len(run_start)
        out: set[int] = set()
        stop = 0  # the windows so far read runs [.., stop)
        for lo, hi in windows:
            if stop and (stop == runs or hi <= run_start[stop]):
                continue
            first = bisect_right(run_start, lo, stop) - 1
            stop = bisect_left(run_start, hi, first + 1)
            out.update(run_record[first:stop])
        return out

    # -- structural predicates (used by tests / cross-checks) --------------

    def is_ancestor(self, ancestor_id: int, node_id: int) -> bool:
        pre = self.pre_of[ancestor_id]
        return pre < self.pre_of[node_id] < pre + self.size_of[ancestor_id]
