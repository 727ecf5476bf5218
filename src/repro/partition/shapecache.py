"""DAG-aware memoization for the DP partitioners (DHW / GHDW / FDW).

Real XML is dominated by repeated subtree shapes (relational exports
repeat one record template thousands of times), so the partitioners pay the
flat DP once per *distinct* shape instead of once per node:

* **Shape interning (hash-consing).** Two subtrees share a shape id iff
  they have the same node weight and the same ordered child shapes —
  ``shape(v) = intern((w(v), (shape(c1), ..., shape(ck))))``. Labels and
  contents are irrelevant: the DP only sees weights and sibling order.
* **DP result cache.** For a fixed algorithm mode and capacity, the
  optimal (and for DHW the nearly-optimal) solution of a subtree is a
  pure function of its shape, so solved shapes are cached under
  ``(mode, shape_id, limit, exclude_endpoints)`` and replayed on every
  later occurrence. Cached records store interval chains in *child index*
  space, which maps onto any node with the same shape.

The cache is LRU-bounded (65536 entries unless the constructor is given
``max_entries``). The intern table grows with distinct shapes only; if
it exceeds four times the result bound, both tables are reset together —
shape ids name entries in the result cache, so they must never outlive
it.

Kernels report per-run hit/miss/eviction deltas through
``fastpath.cache.{hit,miss,evict}`` telemetry counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro import telemetry
from repro.tree.flat import FlatWeights

#: LRU bound of the record cache (entries, not bytes)
DEFAULT_CACHE_SIZE = 65536

#: cached DP record: (opt_intervals, opt_rootweight, near_intervals, delta)
#: where *_intervals are tuples of (begin, end, nearlyopt) child-index
#: triples in right-to-left construction order (see flatdp.chain_intervals)
Record = tuple


class ShapeCache:
    """Shape intern table + LRU-bounded DP result cache.

    An instance is **single-thread property**: lookups mutate LRU order
    and counters without locking, because the kernels cannot afford a
    latch per probe. :func:`default_cache` hands each thread its own
    instance; don't share one across threads without external locking.
    """

    __slots__ = (
        "max_entries",
        "_intern",
        "_records",
        "hits",
        "misses",
        "evictions",
        "_flushed",
    )

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE):
        self.max_entries = max_entries
        self._intern: dict[tuple, int] = {}
        self._records: OrderedDict[tuple, Record] = OrderedDict()
        # Cumulative counters; _flushed marks what telemetry already saw.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._flushed = (0, 0, 0)

    # ------------------------------------------------------------------
    # shape interning

    def shape_ids(self, ft: FlatWeights) -> list[int]:
        """Shape id of every node of ``ft``, indexed by node id.

        Children have larger ids than their parents, so one descending-id
        loop sees every child's shape before its parent needs it.
        """
        if len(self._intern) > 4 * self.max_entries:
            self.clear()
        intern = self._intern
        n = ft.n
        weight = ft.weight
        offset = ft.child_offset
        child_ids = ft.child_ids
        shapes = [0] * n
        hi = offset[n]
        for v in range(n - 1, -1, -1):
            lo = offset[v]
            if lo == hi:  # leaf: most nodes, so spare them the comprehension
                key = (weight[v], ())
            else:
                key = (weight[v], tuple([shapes[c] for c in child_ids[lo:hi]]))
                hi = lo
            sid = intern.get(key)
            if sid is None:
                sid = len(intern)
                intern[key] = sid
            shapes[v] = sid
        return shapes

    # ------------------------------------------------------------------
    # DP records

    def get(self, key: tuple) -> Optional[Record]:
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return record

    def put(self, key: tuple, record: Record) -> None:
        records = self._records
        records[key] = record
        if len(records) > self.max_entries:
            records.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # bookkeeping

    def __len__(self) -> int:
        return len(self._records)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot (used by ``repro stats`` and tests)."""
        return {
            "entries": len(self._records),
            "shapes": len(self._intern),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
        }

    def clear(self) -> None:
        """Drop the intern table and the record cache together."""
        self._intern.clear()
        self._records.clear()

    def flush_counters(self) -> None:
        """Emit since-last-flush deltas as telemetry counters.

        Kernels call this once per run, so the counters stay out of the
        hot loop and telemetry sees one batched update per run. The
        ``hits``/``misses``/``evictions`` attributes remain cumulative
        for ``stats()`` consumers.
        """
        flushed_hits, flushed_misses, flushed_evictions = self._flushed
        if telemetry.enabled():
            if self.hits > flushed_hits:
                telemetry.count("fastpath.cache.hit", self.hits - flushed_hits)
            if self.misses > flushed_misses:
                telemetry.count("fastpath.cache.miss", self.misses - flushed_misses)
            if self.evictions > flushed_evictions:
                telemetry.count("fastpath.cache.evict", self.evictions - flushed_evictions)
        self._flushed = (self.hits, self.misses, self.evictions)


# The default cache is *per-thread*, not process-wide. A ShapeCache
# does unlocked LRU bookkeeping (`hits += 1`, move_to_end) on every get,
# so a single shared instance would race the moment two threads run
# kernels concurrently (repro-lint rule CC003). Thread-local instances
# keep the hot path completely lock-free — a latch per lookup would be
# paid once per inner node — while preserving full
# shape-reuse within each thread.
_tls = threading.local()


def default_cache() -> ShapeCache:
    """This thread's cache, shared by all its DP partitioner runs."""
    cache = getattr(_tls, "cache", None)
    if cache is None:
        cache = _tls.cache = ShapeCache()
    return cache


def clear_default_cache() -> None:
    """Reset the calling thread's default cache (test isolation). Other
    threads' caches are untouched — each thread owns its cache outright."""
    _tls.cache = None
