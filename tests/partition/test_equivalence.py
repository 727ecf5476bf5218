"""The kernel contract: bit-identical to the reference implementations.

Every test runs the same (tree, K) through the production partitioner
and through its legible oracle (``tests/partition/oracles.py``) with
``check=True`` (full runtime contract verification) and asserts the
partitionings — interval sets, not just cardinalities — are equal.
"""

import random

import pytest

from repro.datasets.random_trees import (
    duplicated_subtree_tree,
    heavy_child_tree,
    random_flat_tree,
    random_tree,
    star_tree,
)
from repro.errors import TreeError
from repro.partition.dhw import DHWPartitioner, dhw_partition
from repro.partition.fdw import FDWPartitioner, fdw_partition_flat
from repro.partition.ghdw import GHDWPartitioner, ghdw_partition
from repro.partition.shapecache import ShapeCache
from repro.tree.builders import chain_tree, flat_tree, tree_from_spec

from tests.partition.oracles import ReferenceDHW, ReferenceFDW, ReferenceGHDW

ORACLES = {
    DHWPartitioner: ReferenceDHW,
    GHDWPartitioner: ReferenceGHDW,
    FDWPartitioner: ReferenceFDW,
}

FIG3_SPEC = (
    "a",
    3,
    [("b", 2), ("c", 1, [("d", 2), ("e", 2)]), ("f", 1), ("g", 1), ("h", 2)],
)
FIG6_SPEC = ("a", 5, [("b", 1), ("c", 1, [("d", 2), ("e", 2)]), ("f", 1)])


def both(partitioner_cls, tree, limit, **kwargs):
    reference = ORACLES[partitioner_cls](**kwargs).partition(tree, limit, check=True)
    fast = partitioner_cls(**kwargs).partition(tree, limit, check=True)
    return reference, fast


class TestRandomized:
    def test_dhw_random_trees(self):
        rng = random.Random(2006)
        for _ in range(60):
            tree = random_tree(
                rng.randint(1, 40), max_weight=5, rng=rng, attach_bias=rng.random()
            )
            limit = rng.randint(tree.max_node_weight(), 15)
            reference, fast = both(DHWPartitioner, tree, limit)
            assert fast == reference, f"dhw diverged (K={limit})"

    def test_dhw_exclude_endpoints(self):
        rng = random.Random(17)
        for _ in range(40):
            tree = random_tree(rng.randint(1, 30), rng=rng)
            limit = rng.randint(tree.max_node_weight(), 12)
            reference, fast = both(
                DHWPartitioner, tree, limit, exclude_endpoints=True
            )
            assert fast == reference, f"dhw/ee diverged (K={limit})"

    def test_ghdw_random_trees(self):
        rng = random.Random(7)
        for _ in range(60):
            tree = random_tree(
                rng.randint(1, 40), max_weight=5, rng=rng, attach_bias=rng.random()
            )
            limit = rng.randint(tree.max_node_weight(), 15)
            reference, fast = both(GHDWPartitioner, tree, limit)
            assert fast == reference, f"ghdw diverged (K={limit})"

    def test_fdw_random_flat_trees(self):
        rng = random.Random(3)
        for _ in range(40):
            tree = random_flat_tree(rng.randint(0, 30), rng=rng)
            limit = rng.randint(tree.max_node_weight(), 12)
            reference, fast = both(FDWPartitioner, tree, limit)
            assert fast == reference, f"fdw diverged (K={limit})"


class TestShapes:
    def test_paper_figures(self):
        for spec, limit in ((FIG3_SPEC, 5), (FIG6_SPEC, 5)):
            tree = tree_from_spec(spec)
            for cls in (DHWPartitioner, GHDWPartitioner):
                reference, fast = both(cls, tree, limit)
                assert fast == reference

    def test_deep_chain_5000(self):
        # The oracle walks this with an iterative postorder; the kernel
        # must match without hitting any recursion limit either.
        tree = chain_tree([1] * 5000)
        for cls in (DHWPartitioner, GHDWPartitioner):
            reference, fast = both(cls, tree, 7)
            assert fast == reference

    def test_deep_chain_10000_checked(self):
        tree = chain_tree([1] * 10000)
        for cls in (DHWPartitioner, GHDWPartitioner):
            assert cls().partition(tree, 7, check=True).cardinality == 1429

    def test_wide_fanout(self):
        tree = star_tree(3000, child_weight=2, root_weight=1)
        for cls in (DHWPartitioner, GHDWPartitioner):
            reference, fast = both(cls, tree, 11)
            assert fast == reference

    def test_heavy_child(self):
        tree = heavy_child_tree(light_children=12, heavy_weight=9, light_weight=1)
        reference, fast = both(DHWPartitioner, tree, 10)
        assert fast == reference

    def test_single_node(self):
        tree = flat_tree(4, [])
        for cls in (DHWPartitioner, GHDWPartitioner, FDWPartitioner):
            reference, fast = both(cls, tree, 5)
            assert fast == reference

    def test_duplicated_subtree_document(self):
        tree = duplicated_subtree_tree(80, template_size=25, seed=9)
        for cls in (DHWPartitioner, GHDWPartitioner):
            reference, fast = both(cls, tree, 23)
            assert fast == reference


class TestCacheBehaviour:
    def test_duplicated_shapes_hit_the_cache(self):
        tree = duplicated_subtree_tree(100, template_size=25, seed=4)
        cache = ShapeCache()
        first = dhw_partition(tree, 23, cache=cache)
        assert cache.hit_ratio > 0.9, "repeated templates must replay from cache"
        # A second run over the same document is all hits.
        misses_before = cache.misses
        second = dhw_partition(tree, 23, cache=cache)
        assert second == first
        assert cache.misses == misses_before

    def test_modes_do_not_cross_pollute(self):
        tree = duplicated_subtree_tree(20, template_size=15, seed=6)
        cache = ShapeCache()
        assert dhw_partition(tree, 19, cache=cache) == ReferenceDHW().partition(
            tree, 19, check=True
        )
        assert ghdw_partition(tree, 19, cache=cache) == ReferenceGHDW().partition(
            tree, 19, check=True
        )

    def test_different_limits_are_distinct_entries(self):
        tree = duplicated_subtree_tree(10, template_size=10, seed=2)
        cache = ShapeCache()
        a9 = dhw_partition(tree, 9, cache=cache)
        a14 = dhw_partition(tree, 14, cache=cache)
        assert a9 == ReferenceDHW().partition(tree, 9)
        assert a14 == ReferenceDHW().partition(tree, 14)

    def test_tiny_cache_still_correct(self):
        # Constant eviction pressure must never change the answer.
        tree = duplicated_subtree_tree(30, template_size=15, seed=8)
        cache = ShapeCache(max_entries=2)
        result = dhw_partition(tree, 17, cache=cache)
        assert result == ReferenceDHW().partition(tree, 17, check=True)
        assert cache.evictions > 0


class TestFdwErrors:
    def test_non_flat_tree_rejected(self):
        tree = chain_tree([1, 1, 1])
        with pytest.raises(TreeError):
            FDWPartitioner().partition(tree, 5)
        with pytest.raises(TreeError):
            fdw_partition_flat(tree, 5)
