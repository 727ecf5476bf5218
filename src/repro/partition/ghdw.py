"""GHDW — Greedy-Height / Dynamic-Width partitioning (paper Sec. 3.3.1).

GHDW walks the tree bottom-up and, at every inner node, runs the FDW
dynamic program over the children's *collapsed* weights — each child
counts with the root weight of the locally optimal partitioning of its
subtree (Lemma 1). The result is always feasible and usually within a few
percent of the optimum, but can be suboptimal (the paper's Fig. 6): a
locally optimal subtree partitioning may force extra partitions one level
up. DHW repairs exactly this deficiency.

Complexity: ``O(n·K²)`` worst case; with the memoized table the practical
cost is far lower (only reachable ``s`` values are materialized).

Like DHW this runs over a :class:`~repro.tree.flat.FlatWeights`
snapshot with one descending-id loop and replays solved shapes from the
:class:`~repro.partition.shapecache.ShapeCache`. A node whose *subtree*
weighs at most ``K`` never reaches the DP: its optimal solution is
provably the empty chain with root weight ``W_T(v)`` (candidate 1 of
Lemma 2 applies at every step), and the same holds for everything below
it. ``tests/partition/oracles.py`` holds the per-node version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.obsv import explain
from repro.partition.base import Partitioner, register, reject_overweight
from repro.partition.flatdp import OPT_CHAIN, OPT_RW, solve_shape
from repro.partition.interval import Partitioning, SiblingInterval
from repro.partition.shapecache import ShapeCache, default_cache
from repro.tree.flat import FlatWeights
from repro.tree.node import Tree


@dataclass
class GHDWStats:
    """Instrumentation for the memoization ablation (experiment A2).
    ``dp_cells`` and ``s_values_per_node`` describe the tables actually
    built — one per distinct over-capacity shape the memo cache had not
    seen; ``inner_nodes`` counts the tree's inner nodes."""

    dp_cells: int = 0
    inner_nodes: int = 0
    s_values_per_node: list[int] = field(default_factory=list)


@register
class GHDWPartitioner(Partitioner):
    """Bottom-up application of the flat-tree DP with greedy subtree choice."""

    name = "ghdw"
    optimal = False
    main_memory_friendly = True  # subtrees are finalized as soon as they close

    def __init__(self, collect_stats: bool = False, fastpath: Optional[bool] = None):
        """``collect_stats`` solves against a private, empty memo cache so
        ``stats`` depends on the tree alone. ``fastpath`` is accepted and
        ignored: the flat kernel is the only implementation."""
        self.collect_stats = collect_stats
        self.stats = GHDWStats()

    def _check_feasible(self, tree: Tree, limit: int) -> None:
        """:func:`ghdw_partition` checks the flattened weight column."""

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        # Stats also feed telemetry and explain notes (DP cells per run).
        explaining = explain.explaining()
        collect = self.collect_stats or explaining or telemetry.enabled()
        cells_before = self.stats.dp_cells
        result = ghdw_partition(
            tree,
            limit,
            cache=ShapeCache() if self.collect_stats else None,
            stats=self.stats if collect else None,
        )
        cells = self.stats.dp_cells - cells_before
        if explaining:
            explain.note("ghdw.dp_cells_total", cells)
        telemetry.count("partition.ghdw.dp_cells", cells)
        return result


def ghdw_partition(
    tree: Tree,
    limit: int,
    *,
    cache: Optional[ShapeCache] = None,
    stats: Optional[GHDWStats] = None,
) -> Partitioning:
    """GHDW proper: flatten, then one bottom-up collapse that emits its
    intervals inline (``cache`` / ``stats`` as for ``dhw_partition``)."""
    if cache is None:
        cache = default_cache()
    with telemetry.span("ghdw.flatten"):
        flat = FlatWeights.from_tree(tree)
        reject_overweight(tree, flat.weight, limit)
        shapes = cache.shape_ids(flat)
    with telemetry.span("ghdw.dp"):
        intervals = _collapse(flat, shapes, limit, cache, stats)
    cache.flush_counters()
    return Partitioning(intervals)


def _collapse(
    flat: FlatWeights,
    shapes: list[int],
    limit: int,
    cache: ShapeCache,
    stats: Optional[GHDWStats],
) -> set[SiblingInterval]:
    n = flat.n
    weight = flat.weight
    subtree_weight = flat.subtree_weight
    offset = flat.child_offset
    child_ids = flat.child_ids
    explaining = explain.explaining()
    opt_rw = [0] * n
    intervals = {SiblingInterval(0, 0)}
    cache_get = cache.get
    cache_put = cache.put
    for v in range(n - 1, -1, -1):
        if subtree_weight[v] <= limit:
            # Trivial fit: the whole subtree joins one partition; no
            # descendant of v emits an interval either (their subtrees
            # fit a fortiori), so they all take this branch.
            opt_rw[v] = subtree_weight[v]
            continue
        children = child_ids[offset[v] : offset[v + 1]]
        key = ("ghdw", shapes[v], limit)
        rec = cache_get(key)
        if rec is None:
            rec = solve_shape(weight[v], [opt_rw[c] for c in children], limit, stats=stats)
            cache_put(key, rec)
        opt_rw[v] = rec[OPT_RW]
        for begin, end, _nearly in rec[OPT_CHAIN]:
            intervals.add(SiblingInterval(children[begin], children[end]))
            if explaining:
                explain.decision(
                    children[begin], "ghdw-dp", parent=v, children=end - begin + 1
                )
    if stats is not None:
        stats.inner_nodes += sum(offset[v] < offset[v + 1] for v in range(n))
    return intervals
