"""The structural index: pre/post/level columns + partition windows.

All columns are typed ``array('q')`` vectors indexed by **node id** (or,
for ``node_at``, by preorder rank), built in a single iterative DFS over
the store's tree — O(n) time, ~8 bytes per column per node, no Python
object per node. The index is a *secondary* structure: it never owns
document data, so dropping or rebuilding it is always safe.

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
    """Pre/post-order columns and partition windows for one document."""

    __slots__ = (
        "node_count",
        "record_count",
        "valid",
        # per-node columns (indexed by node id)
        "pre_of",
        "post_of",
        "level_of",
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
        # partition (record) windows
        "rec_min_pre",
        "rec_max_pre",
        "rec_min_post",
        "rec_max_post",
        "_rec_by_min_pre",
        "_sorted_min_pre",
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
        post_of = self.post_of = _zeros(n)
        level_of = self.level_of = _zeros(n)
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
        post_counter = 0
        stack: list[tuple[object, bool]] = [(tree.root, False)]
        while stack:
            node, exiting = stack.pop()
            nid = node.node_id
            if exiting:
                post_of[nid] = post_counter
                post_counter += 1
                size_of[nid] = pre_counter - pre_of[nid]
                continue
            pre_of[nid] = pre_counter
            node_at[pre_counter] = nid
            pre_counter += 1
            parent = node.parent
            if parent is None:
                parent_of[nid] = -1
            else:
                parent_of[nid] = parent.node_id
                level_of[nid] = level_of[parent.node_id] + 1
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

        # record-aware partition map: min/max pre/post window per record
        record_of = store.record_of
        count = store.record_count
        self.record_count = count
        rec_min_pre = self.rec_min_pre = array("q", [n] * count)
        rec_max_pre = self.rec_max_pre = array("q", [-1] * count)
        rec_min_post = self.rec_min_post = array("q", [n] * count)
        rec_max_post = self.rec_max_post = array("q", [-1] * count)
        for nid in range(n):
            rid = record_of[nid]
            pre = pre_of[nid]
            post = post_of[nid]
            if pre < rec_min_pre[rid]:
                rec_min_pre[rid] = pre
            if pre > rec_max_pre[rid]:
                rec_max_pre[rid] = pre
            if post < rec_min_post[rid]:
                rec_min_post[rid] = post
            if post > rec_max_post[rid]:
                rec_max_post[rid] = post
        order = sorted(range(count), key=rec_min_pre.__getitem__)
        self._rec_by_min_pre = array("q", order)
        self._sorted_min_pre = array("q", [rec_min_pre[r] for r in order])
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

    def records_overlapping(self, windows: Sequence[tuple[int, int]]) -> list[int]:
        """Record ids whose pre window intersects any of ``windows``
        (half-open, disjoint, ascending — what
        :meth:`descendant_windows` returns): the partitions a descendant
        step must decode. One pass over the records sorted by
        ``min_pre``; each bisects for the first window ending after it
        starts."""
        if not windows:
            return []
        los = [lo for lo, _ in windows]
        his = [hi for _, hi in windows]
        last = len(windows)
        rec_max_pre = self.rec_max_pre
        rec_by_min_pre = self._rec_by_min_pre
        sorted_min_pre = self._sorted_min_pre
        out = []
        for at in range(bisect_left(sorted_min_pre, his[-1])):
            rid = rec_by_min_pre[at]
            k = bisect_right(his, sorted_min_pre[at])
            if k < last and los[k] <= rec_max_pre[rid]:
                out.append(rid)
        return out

    def records_for_ancestors(
        self, node_ids: Sequence[int], or_self: bool
    ) -> list[int]:
        """Record ids that may hold an ancestor of any node of a
        document-ordered node set: the record's window must reach before
        that node in preorder *and* after it in postorder. One pass over
        the records; each bisects the nodes' ``pre`` list and reads a
        suffix minimum of their ``post``."""
        pre_of = self.pre_of
        post_of = self.post_of
        pres = [pre_of[nid] for nid in node_ids]
        # min_post_from[k] = min post over node_ids[k:]
        min_post_from = [self.node_count] * (len(pres) + 1)
        for k in range(len(pres) - 1, -1, -1):
            min_post_from[k] = min(post_of[node_ids[k]], min_post_from[k + 1])
        strict = 0 if or_self else 1
        rec_min_pre = self.rec_min_pre
        rec_max_post = self.rec_max_post
        return [
            rid
            for rid in range(self.record_count)
            if min_post_from[bisect_left(pres, rec_min_pre[rid] + strict)]
            <= rec_max_post[rid] - strict
        ]

    # -- structural predicates (used by tests / cross-checks) --------------

    def is_ancestor(self, ancestor_id: int, node_id: int) -> bool:
        return (
            self.pre_of[ancestor_id] < self.pre_of[node_id]
            and self.post_of[ancestor_id] > self.post_of[node_id]
        )
