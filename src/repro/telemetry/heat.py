"""Access-heat accounting per ``(document, partition)``.

The ROADMAP's "close the loop from query telemetry to placement" item
needs one missing ingredient: *observed* axis-traversal counts, per
document, in the units of the paper's navigation cost model (intra
steps, cross-record steps, page faults). This module collects them live:

* :class:`HeatAccumulator` hands each attached document's raw hop
  buffers to the store as ``DocumentStore.heat`` (a :class:`_DocHeat`);
  every navigator made while it is set reports its hops there. Heat off
  costs a single ``is not None`` branch per hop. The hot path does the
  absolute minimum per hop — one bare append, through the pre-bound
  :attr:`_DocHeat.append`, of the hop *packed into a single int*
  (``source_id << 32 | target_id``, see :func:`pack_hop`), **no
  callback frame** (a per-hop Python call cost ~50% on navigation-bound
  queries; lint rule PERF002 guards against reintroducing one).
  Packed ints beat ``(source, target)`` tuples twice over: they are not
  gc-tracked (half a million buffered tuples per query drove visible
  gen-0 collection pressure) and they hash/compare as single machine
  words when the drain folds them. Page faults are rare, so they ride
  the already-expensive cross-record branch (:meth:`_DocHeat.cross`)
  into a second buffer. Appends are atomic under the GIL, so the hot
  path takes no lock either; a lock is only touched when
  :meth:`_DocHeat.drain` moves the buffers aside — at end of query
  (``run_query_nodes`` drains there) or every :data:`_FLUSH_AT` hops on
  the cross-record path. The drain is a
  prefix copy, not a fold: batches park in a pending list and are
  folded into the ``Counter`` tallies lazily (``Counter.update``,
  i.e. C-speed ``_count_elements`` over int keys) at
  :meth:`HeatAccumulator.profile` time, or once :data:`_FOLD_AT`
  pending hops pile up. Both the per-hop Python fold this design
  replaced (~15% of navigation-bound wall-clock) and an eager
  per-query batch fold (~7%) were measurable; the copy is ~1%.

* :meth:`HeatAccumulator.profile` does everything expensive lazily, at
  read time: hops are *oriented* onto parent→child tree edges (sibling
  hops credit both endpoints' parent edges) and aggregated per
  partition via the store's record assignment. This is the one place
  hops become edges; :func:`repro.partition.workload.profile_workload`
  reads its edge counts from here too.

The resulting :class:`HeatProfile` is the bridge to repartitioning:
:meth:`HeatProfile.edge_counts` returns a ``Counter`` keyed
``(parent_id, child_id)`` — the exact shape
:func:`repro.partition.workload.workload_edge_weight` consumes — so
observed heat feeds Lukes' DP verbatim (see
:func:`repro.partition.workload.heat_aware_lukes`).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional


#: hops buffered per document before a locked drain into the tallies —
#: bounds both the buffer memory and the amortized per-hop lock cost
_FLUSH_AT = 8192

#: pending (drained-but-unfolded) hops per document before a drain folds
#: them into the ``Counter`` tallies eagerly — bounds pending-batch
#: memory when nobody reads :meth:`HeatAccumulator.profile` for a while
_FOLD_AT = 1 << 19

#: bit width of the target-id half of a packed hop
_PACK_SHIFT = 32
_PACK_MASK = (1 << _PACK_SHIFT) - 1


def pack_hop(source_id: int, target_id: int) -> int:
    """Pack one hop into the single-int form the hot path buffers."""
    return source_id << _PACK_SHIFT | target_id


class _DocHeat:
    """Raw hop tallies for one attached document (``DocumentStore.heat``).

    ``buffer`` (every hop, through the pre-bound :attr:`append`) and
    ``fault_buffer`` (faulted hops only, through :meth:`cross`) are the
    only structures the navigation hot path touches: executor
    threads ``append`` concurrently without the lock (list appends are
    atomic under the GIL; the drain below only ever removes a prefix it
    has already copied, so concurrent tail appends survive).
    """

    __slots__ = (
        "store",
        "lock",
        "buffer",
        "append",
        "fault_buffer",
        "pending",
        "fault_pending",
        "pending_hops",
        "hops",
        "fault_hops",
    )

    def __init__(self, store):
        self.store = store
        self.lock = threading.Lock()
        #: undrained packed hops (:func:`pack_hop`), append-only
        self.buffer: list = []
        #: ``buffer.append``, bound once: the intra-record hop's one call
        self.append = self.buffer.append
        #: undrained packed page-fault hops, append-only
        self.fault_buffer: list = []
        #: drained-but-unfolded hop batches  # repro: guarded-by(lock)
        self.pending: list[list] = []
        #: drained-but-unfolded fault batches  # repro: guarded-by(lock)
        self.fault_pending: list[list] = []
        #: total hops across ``pending``  # repro: guarded-by(lock)
        self.pending_hops: int = 0
        #: packed hop -> hop count
        self.hops: Counter = Counter()  # repro: guarded-by(lock)
        #: packed hop -> page-fault count
        self.fault_hops: Counter = Counter()  # repro: guarded-by(lock)

    def cross(self, packed: int, fault: bool) -> None:
        """Buffer one cross-record hop, and its page fault if it made
        one; drain once :data:`_FLUSH_AT` hops are buffered."""
        self.buffer.append(packed)
        if fault:
            self.fault_buffer.append(packed)
        if len(self.buffer) >= _FLUSH_AT:
            self.drain()

    def drain(self) -> None:
        """Move the buffered hops into the pending batches (locked, cheap).

        The drain the engine runs at end of query is a prefix *copy*
        (~10ns/hop), not a fold: ``Counter.update`` over a 100k-hop
        batch costs ~100ns/hop, which put the fold right back on the
        navigation-bound wall-clock the batching was meant to protect.
        Folding happens lazily in :meth:`_fold_locked` — at
        :meth:`HeatAccumulator.profile` time, or here once the pending
        batches exceed :data:`_FOLD_AT` hops (a memory bound for stores
        whose heat nobody reads for a while).
        """
        with self.lock:
            n = len(self.buffer)
            if n:
                self.pending.append(self.buffer[:n])
                del self.buffer[:n]
                self.pending_hops += n
            m = len(self.fault_buffer)
            if m:
                self.fault_pending.append(self.fault_buffer[:m])
                del self.fault_buffer[:m]
            if self.pending_hops >= _FOLD_AT:
                self._fold_locked()

    def _fold_locked(self) -> None:  # repro: holds(lock)
        """Fold pending batches into the tallies; caller holds ``lock``.

        Each fold is ``Counter.update`` over a packed-int batch — the C
        ``_count_elements`` loop over machine-word keys, not a
        Python-level one.
        """
        for batch in self.pending:
            self.hops.update(batch)
        self.pending.clear()
        self.pending_hops = 0
        for batch in self.fault_pending:
            self.fault_hops.update(batch)
        self.fault_pending.clear()


@dataclass(frozen=True)
class DocumentHeat:
    """Oriented, partition-aggregated heat for one document."""

    doc: str
    steps: int
    cross_steps: int
    faults: int
    #: parent→child edge traversal counts, ``(parent_id, child_id)`` keyed
    edges: Counter
    #: partition (record) id -> {"touches", "cross", "faults"}
    partitions: dict[int, dict[str, int]] = field(default_factory=dict)

    def as_dict(self, include_edges: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "doc": self.doc,
            "steps": self.steps,
            "cross_steps": self.cross_steps,
            "faults": self.faults,
            "partitions": {
                str(pid): dict(stats)
                for pid, stats in sorted(self.partitions.items())
            },
        }
        if include_edges:
            out["edges"] = [
                {"parent": parent, "child": child, "count": count}
                for (parent, child), count in sorted(
                    self.edges.items(), key=lambda item: (-item[1], item[0])
                )
            ]
        return out


@dataclass(frozen=True)
class HeatProfile:
    """A point-in-time snapshot of observed access heat, per document."""

    docs: dict[str, DocumentHeat]

    def edge_counts(self, doc: str) -> Counter:
        """Traversal counts for ``doc``, keyed ``(parent_id, child_id)`` —
        the exact input shape of
        :func:`repro.partition.workload.workload_edge_weight`."""
        heat = self.docs.get(doc)
        return Counter(heat.edges) if heat is not None else Counter()

    def hottest(self, top: int = 10) -> list[tuple[str, int, int]]:
        """The ``top`` hottest (doc, partition) pairs by touch count."""
        pairs = [
            (heat.doc, pid, stats["touches"])
            for heat in self.docs.values()
            for pid, stats in heat.partitions.items()
        ]
        pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
        return pairs[:top]

    def as_dict(
        self, top: Optional[int] = None, include_edges: bool = False
    ) -> dict[str, Any]:
        return {
            "documents": {
                doc: heat.as_dict(include_edges=include_edges)
                for doc, heat in sorted(self.docs.items())
            },
            "hottest": [
                {"doc": doc, "partition": pid, "touches": touches}
                for doc, pid, touches in self.hottest(top if top else 10)
            ],
        }


class HeatAccumulator:
    """Live per-document access-heat collection over attached stores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._docs: dict[str, _DocHeat] = {}  # repro: guarded-by(_lock)

    def attach(self, doc: str, store) -> None:
        """Start accounting navigation heat for ``store`` under ``doc``.

        Sets ``store.heat`` to the doc's :class:`_DocHeat`; navigators
        made from then on append their hops to its buffers, and
        ``run_query_nodes`` drains them at end of query. Re-attaching
        the same doc id (re-ingest) resets its tallies.
        """
        heat = _DocHeat(store)
        with self._lock:
            self._docs[doc] = heat
        store.heat = heat

    def detach(self, doc: str) -> None:
        """Stop accounting for ``doc`` and drop its tallies."""
        with self._lock:
            heat = self._docs.pop(doc, None)
        if heat is not None and heat.store.heat is heat:
            heat.store.heat = None

    def docs(self) -> list[str]:
        with self._lock:
            return sorted(self._docs)

    def flush(self) -> None:
        """Drain and fold every attached document's buffers now.

        Callers that want pending memory bounded at a quiet moment of
        their own choosing (between requests, between benchmark samples)
        use this instead of waiting for the :data:`_FOLD_AT` safety
        valve to fire mid-query or paying :meth:`profile`'s full
        orientation pass.
        """
        with self._lock:
            entries = list(self._docs.values())
        for heat in entries:
            heat.drain()
            with heat.lock:
                heat._fold_locked()

    def profile(self) -> HeatProfile:
        """Orient and aggregate the raw tallies (the expensive part —
        deliberately off the navigation hot path)."""
        with self._lock:
            entries = list(self._docs.items())
        profiles: dict[str, DocumentHeat] = {}
        for doc, heat in entries:
            heat.drain()
            with heat.lock:
                heat._fold_locked()
                hops = Counter(heat.hops)
                fault_hops = Counter(heat.fault_hops)
            steps = sum(hops.values())
            faults = sum(fault_hops.values())
            store = heat.store
            nodes = store.tree.nodes
            record_of = store.record_of
            size = len(nodes)
            edges: Counter = Counter()
            partitions: dict[int, dict[str, int]] = {}
            cross_steps = 0
            for packed, count in hops.items():
                source_id = packed >> _PACK_SHIFT
                target_id = packed & _PACK_MASK
                if source_id >= size or target_id >= size:
                    continue  # structural update raced the snapshot
                source, target = nodes[source_id], nodes[target_id]
                if target.parent is source:
                    edges[(source_id, target_id)] += count
                elif source.parent is target:
                    edges[(target_id, source_id)] += count
                else:
                    # sibling hop: benefits both endpoints' parent edges
                    for node in (source, target):
                        if node.parent is not None:
                            edges[(node.parent.node_id, node.node_id)] += count
                target_record = record_of[target_id]
                stats = partitions.setdefault(
                    target_record, {"touches": 0, "cross": 0, "faults": 0}
                )
                stats["touches"] += count
                if record_of[source_id] != target_record:
                    stats["cross"] += count
                    cross_steps += count
            for packed, count in fault_hops.items():
                target_id = packed & _PACK_MASK
                if target_id >= size:
                    continue
                stats = partitions.setdefault(
                    record_of[target_id], {"touches": 0, "cross": 0, "faults": 0}
                )
                stats["faults"] += count
            profiles[doc] = DocumentHeat(
                doc=doc,
                steps=steps,
                cross_steps=cross_steps,
                faults=faults,
                edges=edges,
                partitions=partitions,
            )
        return HeatProfile(docs=profiles)
