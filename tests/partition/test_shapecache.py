"""ShapeCache: shape interning, LRU bounds, telemetry counters."""

from repro import telemetry
from repro.datasets.random_trees import duplicated_subtree_tree, random_tree
from repro.partition.shapecache import ShapeCache, clear_default_cache, default_cache
from repro.tree.builders import chain_tree, flat_tree
from repro.tree.flat import FlatTree


class TestShapeInterning:
    def test_identical_leaves_share_one_shape(self):
        cache = ShapeCache()
        ft = FlatTree.from_tree(flat_tree(1, [2, 2, 2, 2]))
        shapes = cache.shape_ids(ft)
        assert len(set(shapes[1:])) == 1  # all leaves weigh 2
        assert shapes[0] not in shapes[1:]

    def test_duplicated_templates_intern_to_few_shapes(self):
        tree = duplicated_subtree_tree(50, template_size=20, seed=1, distinct_templates=3)
        cache = ShapeCache()
        shapes = cache.shape_ids(FlatTree.from_tree(tree))
        # 50 record anchors but only 3 distinct templates: the number of
        # distinct shapes is bounded by the template contents, not copies.
        assert len(set(shapes)) < len(tree) / 10

    def test_shape_depends_on_weight_and_child_order(self):
        cache = ShapeCache()
        a = cache.shape_ids(FlatTree.from_tree(flat_tree(1, [1, 2])))
        b = cache.shape_ids(FlatTree.from_tree(flat_tree(1, [2, 1])))
        assert a[0] != b[0]  # sibling order matters
        assert a[1] == b[2] and a[2] == b[1]  # but the leaves are shared

    def test_interning_is_stable_across_trees(self):
        cache = ShapeCache()
        first = cache.shape_ids(FlatTree.from_tree(chain_tree([1, 1, 1])))
        second = cache.shape_ids(FlatTree.from_tree(chain_tree([1, 1, 1])))
        assert first == second


class TestRecordCache:
    def test_miss_then_hit(self):
        cache = ShapeCache()
        assert cache.get(("dhw", 0, 5, False)) is None
        cache.put(("dhw", 0, 5, False), ((), 3, None, 0))
        assert cache.get(("dhw", 0, 5, False)) == ((), 3, None, 0)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ShapeCache(max_entries=2)
        cache.put(("k", 1), "a")
        cache.put(("k", 2), "b")
        assert cache.get(("k", 1)) == "a"  # refresh 1: now 2 is the LRU
        cache.put(("k", 3), "c")
        assert cache.evictions == 1
        assert cache.get(("k", 2)) is None  # evicted
        assert cache.get(("k", 1)) == "a"
        assert cache.get(("k", 3)) == "c"
        assert len(cache) == 2

    def test_intern_reset_clears_records_too(self):
        # Shape ids name record-cache keys, so the two tables must reset
        # together once the intern table outgrows its bound.
        cache = ShapeCache(max_entries=1)
        tree = random_tree(30, seed=3)
        shapes = cache.shape_ids(FlatTree.from_tree(tree))
        cache.put(("dhw", shapes[0], 9, False), "stale")
        assert len(cache._intern) > 4 * cache.max_entries
        cache.shape_ids(FlatTree.from_tree(chain_tree([1])))  # triggers reset
        assert len(cache) == 0
        assert len(cache._intern) <= 2

    def test_stats_snapshot(self):
        cache = ShapeCache()
        cache.put(("x",), 1)
        cache.get(("x",))
        cache.get(("y",))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["hit_ratio"] == 0.5


class TestTelemetryFlush:
    def test_flush_emits_deltas_only(self):
        cache = ShapeCache()
        cache.put(("a",), 1)
        with telemetry.capture() as reg:
            cache.get(("a",))
            cache.get(("b",))
            cache.flush_counters()
            snap = telemetry.snapshot(reg)["counters"]
            assert snap["fastpath.cache.hit"] == 1
            assert snap["fastpath.cache.miss"] == 1
            cache.flush_counters()  # nothing new since the last flush
            snap = telemetry.snapshot(reg)["counters"]
            assert snap["fastpath.cache.hit"] == 1
            assert snap["fastpath.cache.miss"] == 1
        # Cumulative attributes survive flushing (repro stats reads them).
        assert (cache.hits, cache.misses) == (1, 1)

    def test_flush_without_telemetry_still_advances_watermark(self):
        cache = ShapeCache()
        cache.get(("miss",))
        cache.flush_counters()  # telemetry disabled: no error, no reset
        assert cache.misses == 1


class TestConfiguration:
    def test_default_cache_is_shared_until_cleared(self):
        first = default_cache()
        assert default_cache() is first
        clear_default_cache()
        assert default_cache() is not first


class TestThreadIsolation:
    """The default cache is per-thread: unlocked LRU bookkeeping must
    never be shared across threads (repro-lint rule CC003)."""

    def test_each_thread_gets_its_own_default_cache(self):
        import threading

        clear_default_cache()
        mine = default_cache()
        theirs = []

        def worker():
            theirs.append(default_cache())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert theirs[0] is not mine
        assert default_cache() is mine  # this thread's is undisturbed

    def test_concurrent_kernel_counters_stay_exact(self):
        import sys
        import threading

        from repro.tree.flat import FlatTree
        from repro.tree.builders import flat_tree

        ft = FlatTree.from_tree(flat_tree(1, [2, 2, 2, 2]))
        probes = 2_000
        results = {}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(name):
                clear_default_cache()
                cache = default_cache()
                cache.shape_ids(ft)
                for i in range(probes):
                    key = ("mode", i % 7, 16, False)
                    if cache.get(key) is None:
                        cache.put(key, ((), 0, (), 0))
                results[name] = cache.stats()

            pool = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        finally:
            sys.setswitchinterval(previous)
        # with one shared unlocked cache these totals lose updates; with
        # per-thread caches every thread sees exactly its own probes
        for stats in results.values():
            assert stats["hits"] + stats["misses"] == probes
            assert stats["misses"] == 7
