"""FDW — optimal partitioning of *flat* trees (paper Sec. 3.2, Fig. 4).

A flat tree has a root whose children are all leaves. FDW runs the
Lemma-2 dynamic program over the child sequence and reconstructs an
optimal (minimal, then lean) tree sibling partitioning in ``O(n·K²)``
worst-case time. It is both a standalone algorithm (registered as
``"fdw"``, raising on non-flat input) and the building block that GHDW
and DHW apply per inner node.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TreeError
from repro.obsv import explain
from repro.partition.base import Partitioner, register, reject_overweight
from repro.partition.flatdp import OPT_CHAIN, solve_shape
from repro.partition.interval import Partitioning, SiblingInterval
from repro.partition.shapecache import ShapeCache, default_cache
from repro.tree.flat import FlatWeights
from repro.tree.node import Tree


def fdw_partition_flat(
    tree: Tree, limit: int, *, cache: Optional[ShapeCache] = None
) -> Partitioning:
    """Optimal tree sibling partitioning of a flat tree.

    Returns the partitioning; raises :class:`TreeError` if the tree is not
    flat and :class:`InfeasiblePartitioningError` if a node exceeds the
    limit. Solved shapes are shared with GHDW through ``cache`` (default:
    this thread's memo cache) — on a flat tree both run the identical
    plain DP over the leaf weights.
    """
    if cache is None:
        cache = default_cache()
    flat = FlatWeights.from_tree(tree)
    reject_overweight(tree, flat.weight, limit)
    if flat.child_offset[1] != flat.n - 1:
        raise TreeError("fdw_partition_flat requires a flat tree (all children are leaves)")
    intervals = {SiblingInterval(0, 0)}
    if flat.subtree_weight[0] > limit:  # else everything shares the root partition
        children = flat.children(0)
        key = ("ghdw", cache.shape_ids(flat)[0], limit)
        rec = cache.get(key)
        if rec is None:
            rec = solve_shape(flat.weight[0], [flat.weight[c] for c in children], limit)
            cache.put(key, rec)
        explaining = explain.explaining()
        for begin, end, _nearly in rec[OPT_CHAIN]:
            intervals.add(SiblingInterval(children[begin], children[end]))
            if explaining:
                explain.decision(
                    children[begin], "fdw-dp", begin=begin, end=end, children=end - begin + 1
                )
        cache.flush_counters()
    return Partitioning(intervals)


@register
class FDWPartitioner(Partitioner):
    """Registry wrapper for :func:`fdw_partition_flat` (flat trees only)."""

    name = "fdw"
    optimal = True  # on its input class (flat trees)
    main_memory_friendly = False

    def __init__(self, fastpath: Optional[bool] = None):
        """``fastpath`` is accepted and ignored: the flat kernel is the
        only implementation."""

    def _check_feasible(self, tree: Tree, limit: int) -> None:
        """:func:`fdw_partition_flat` checks the flattened weight column."""

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        return fdw_partition_flat(tree, limit)
