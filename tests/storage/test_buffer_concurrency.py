"""BufferPool latch: concurrent fetches keep counters and LRU exact.

``fetch`` is a read-modify-write even on a hit (``stats.hits += 1`` plus
``move_to_end``), so without the latch two threads hammering a small
pool lose counter updates and can corrupt the LRU order. The switch
interval is shrunk so the unlatched code fails reliably.
"""

import sys
import threading

import pytest

from repro.datasets import xmark_document
from repro.partition import partition_tree
from repro.query import run_query
from repro.storage import DocumentStore
from repro.storage.buffer import BufferPool
from repro.storage.constants import StorageConfig
from repro.storage.page import Page

SMALL = StorageConfig(page_size=256, page_header=24, page_slot_entry=4)

THREADS = 4
FETCHES = 5_000


@pytest.fixture(autouse=True)
def aggressive_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def make_pool(pages=8, capacity=4):
    return BufferPool({i: Page(i, SMALL) for i in range(pages)}, capacity=capacity)


def hammer(worker):
    pool = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


class TestConcurrentFetch:
    def test_access_counters_are_exact(self):
        pool = make_pool(pages=8, capacity=4)

        def worker(seed):
            for i in range(FETCHES):
                pool.fetch((seed + i) % 8)

        hammer(worker)
        assert pool.stats.accesses == THREADS * FETCHES
        assert pool.stats.hits + pool.stats.misses == pool.stats.accesses

    def test_cache_never_exceeds_capacity(self):
        pool = make_pool(pages=16, capacity=3)
        overfull = []

        def worker(seed):
            for i in range(FETCHES // 5):
                pool.fetch((seed * 5 + i) % 16)
                if len(pool._cached) > pool.capacity:
                    overfull.append(len(pool._cached))

        hammer(worker)
        assert not overfull
        assert len(pool._cached) <= pool.capacity

    def test_all_hits_when_pool_is_large_enough(self):
        pool = make_pool(pages=4, capacity=8)
        pool.warm_up()

        def worker(seed):
            for i in range(FETCHES):
                pool.fetch(i % 4)

        hammer(worker)
        assert pool.stats.misses == 0
        assert pool.stats.hits == THREADS * FETCHES

    def test_clear_during_fetch_storm_keeps_invariants(self):
        pool = make_pool(pages=8, capacity=4)
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                pool.clear()

        t = threading.Thread(target=clearer)
        t.start()
        try:
            for i in range(FETCHES):
                page = pool.fetch(i % 8)
                assert page.page_id == i % 8
        finally:
            stop.set()
            t.join()
        assert pool.stats.accesses == FETCHES


class OtherReader:
    """A second reader of the pool that runs right after each call a walk
    makes to ask about a page (``is_cached``) or to load one (``touch``):
    it fetches other pages until the page asked about is evicted. Between
    a separate check and fetch, that turns a cached page into a miss."""

    def __init__(self, pool, monkeypatch):
        self.pool = pool
        #: misses this reader caused, not the walk
        self.misses = 0
        self._busy = False
        for name in ("is_cached", "touch"):
            call = getattr(pool, name, None)
            if call is not None:
                monkeypatch.setattr(pool, name, self._then_evict(call))

    def _then_evict(self, call):
        def wrapped(page_id):
            answer = call(page_id)
            if not self._busy:
                self._busy = True
                before = self.pool.stats.misses
                others = [p for p in sorted(self.pool._disk) if p != page_id]
                for other in others[: self.pool.capacity]:
                    self.pool.fetch(other)
                self.misses += self.pool.stats.misses - before
                self._busy = False
            return answer

        return wrapped


class TestFaultsAgreeWithMisses:
    """A walk's ``page_faults`` are the pool misses it caused, however
    another reader interleaves: hit or miss is decided where it is
    counted, in one latch section."""

    @pytest.fixture
    def store(self):
        tree = xmark_document(scale=0.0005, seed=3)
        config = StorageConfig(buffer_pages=2, page_size=512)
        store = DocumentStore.build(tree, partition_tree(tree, 16, "km"), config)
        store.warm_up()
        return store

    def test_navigation(self, store, monkeypatch):
        reader = OtherReader(store.buffer, monkeypatch)
        run = run_query(store, "//keyword/ancestor::listitem")
        assert run.cross_steps > 0 and reader.misses > 0
        assert run.page_faults == store.buffer.stats.misses - reader.misses

    def test_index_step(self, store, monkeypatch):
        store.build_index()
        reader = OtherReader(store.buffer, monkeypatch)
        run = run_query(store, "//keyword/ancestor::listitem")
        assert run.window_steps == 2 and reader.misses > 0
        assert run.page_faults == store.buffer.stats.misses - reader.misses
