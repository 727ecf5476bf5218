"""Buffer pool: LRU page cache with hit/miss accounting.

Table 3 runs with "a buffer pool that is larger than the document, so
that there is no page fault during query evaluation"; the pool still
matters because it is where cross-record navigation pays its lookup, and
because a smaller pool (ablation A4-style experiments) lets the cost
model show the fault penalty.

Accounting lives in two places that always agree:

* the per-pool :class:`BufferStats` (cheap, always on, what the cost
  model and the Table-3 protocol read), and
* the shared telemetry registry (``storage.buffer.hits`` / ``.misses``
  / ``.evictions``), mirrored per access while telemetry is enabled so
  one measurement session aggregates across every pool it touched.

**Reset semantics** (tested in ``tests/storage/test_pages_buffer.py``):
counters are cumulative for the lifetime of the pool. ``clear()``
empties the cache but leaves the counters untouched (dropping pages on
purpose is not an eviction); ``warm_up()`` preloads pages *without*
charging hits/misses/evictions — preloading is protocol, not workload —
and records the pages it touched in ``stats.warmups``. The only way the
counters return to zero is an explicit ``stats.reset()`` (which
:meth:`~repro.storage.store.DocumentStore.warm_up` performs as part of
the paper's measure-after-preload protocol).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import telemetry
from repro.errors import CorruptPageError, StorageError
from repro.faults import plan as faults
from repro.storage.page import Page


@dataclass
class BufferStats:
    """Cumulative access counters of one :class:`BufferPool`.

    ``hits``/``misses``/``evictions`` count workload accesses only;
    ``warmups`` counts pages loaded by :meth:`BufferPool.warm_up`.
    Nothing resets these implicitly — see the module docstring.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    warmups: int = 0
    #: page reads that failed checksum verification (never cached)
    corrupt_reads: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.warmups = 0
        self.corrupt_reads = 0

    def as_dict(self) -> dict[str, float]:
        """JSON-safe view (the per-layout buffer block of ``repro.bench`` Table 3)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "warmups": self.warmups,
            "corrupt_reads": self.corrupt_reads,
            "hit_ratio": self.hit_ratio,
        }


#: shared-registry metric names the pool mirrors into
_HITS = "storage.buffer.hits"
_MISSES = "storage.buffer.misses"
_EVICTIONS = "storage.buffer.evictions"
_WARMUPS = "storage.buffer.warmups"
_CORRUPT_READS = "storage.buffer.corrupt_reads"


class BufferPool:
    """LRU cache over a page table ("disk").

    Thread-safe: one latch serializes every access to the LRU order and
    the counters, because ``fetch`` is a read-modify-write even on a hit
    (``move_to_end`` plus ``stats.hits += 1``). The latch is the
    concurrency story the planned document-store service builds on —
    many reader threads sharing one pool — and its contract is
    machine-checked by repro-lint rule CC001 via the ``guarded-by``
    annotations below.
    """

    def __init__(self, pages: dict[int, Page], capacity: int):
        if capacity < 1:
            raise StorageError("buffer pool needs capacity >= 1")
        self._disk = pages
        self.capacity = capacity
        #: reentrant so a fault-injection callback that re-enters the
        #: pool (e.g. probing `is_cached` mid-evict) cannot self-deadlock
        self._latch = threading.RLock()
        self._cached: OrderedDict[int, Page] = OrderedDict()  # repro: guarded-by(_latch)
        self.stats = BufferStats()  # repro: guarded-by(_latch)

    def fetch(self, page_id: int) -> Page:
        """Return the page, counting a hit or a (possibly evicting) miss
        (see :meth:`touch`)."""
        with self._latch:
            self.touch(page_id)
            return self._cached[page_id]

    def touch(self, page_id: int) -> bool:
        """Load the page, counting a hit or a (possibly evicting) miss;
        ``True`` on a miss. Hit or miss is decided in the latch section
        that counts it, so a reader's page faults agree with the pool's
        misses however other readers interleave.

        A miss reads the page from "disk" and **verifies its checksum
        before caching it** — a corrupted page raises
        :class:`~repro.errors.CorruptPageError`, bumps
        ``stats.corrupt_reads`` (mirrored into the shared registry) and
        never enters the cache, so one bad page cannot poison the pool:
        every other page stays fetchable, and a later read of the same
        page re-verifies instead of trusting stale state.
        """
        with self._latch:
            if page_id in self._cached:
                self.stats.hits += 1
                if telemetry.enabled():
                    telemetry.count(_HITS)
                self._cached.move_to_end(page_id)
                return False
            self.stats.misses += 1
            if telemetry.enabled():
                telemetry.count(_MISSES)
            try:
                page = self._disk[page_id]
            except KeyError:
                raise StorageError(f"unknown page {page_id}") from None
            if faults.armed():
                action = faults.fire("page.read", page_id=page_id)
                if action is not None:
                    action.apply_to_page(page)
            try:
                page.verify()
            except CorruptPageError:
                self.stats.corrupt_reads += 1
                if telemetry.enabled():
                    telemetry.count(_CORRUPT_READS)
                raise
            self._cached[page_id] = page
            if len(self._cached) > self.capacity:
                evicted_id, _ = self._cached.popitem(last=False)
                self.stats.evictions += 1
                if telemetry.enabled():
                    telemetry.count(_EVICTIONS)
                faults.check("buffer.evict", page_id=evicted_id)
            return True

    def is_cached(self, page_id: int) -> bool:
        with self._latch:
            return page_id in self._cached

    def warm_up(self) -> None:
        """Touch every page once (the paper preloads before measuring).

        Preloading charges no hits/misses/evictions — it is not
        workload; the page count goes to ``stats.warmups`` instead.
        """
        with self._latch:
            for page_id in self._disk:
                if page_id not in self._cached:
                    self._cached[page_id] = self._disk[page_id]
                    if len(self._cached) > self.capacity:
                        self._cached.popitem(last=False)
                else:
                    self._cached.move_to_end(page_id)
                self.stats.warmups += 1
            if telemetry.enabled():
                telemetry.count(_WARMUPS, len(self._disk))

    def clear(self) -> None:
        """Drop all cached pages; the counters survive (see module doc)."""
        with self._latch:
            self._cached.clear()
