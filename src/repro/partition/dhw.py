"""DHW — optimal tree sibling partitioning (paper Sec. 3.3, Fig. 7).

DHW extends GHDW with the *nearly-optimal* subtree choice that makes the
bottom-up strategy exact:

1. For every inner node ``v`` (children first) the flat DP computes the
   **optimal** subtree solution ``D(v)`` over the children's collapsed
   weights.
2. Per Lemma 4, the **nearly-optimal** solution ``Q(v)`` — exactly one
   more partition, minimal root weight — is read from the *same* DP table
   at the inflated base root weight ``s_q = w(v) + K - opt_rw + 1``. The
   inflation makes every minimal-cardinality solution infeasible, so the
   table's best entry at ``s_q`` (if feasible) has exactly one extra
   partition and a root weight smaller than the optimum's.
3. ``ΔW(v)`` is the root-weight saving of the nearly-optimal variant.
   Because the table entry at ``s_q`` carries the *inflated* base, the
   true saving is ``ΔW(v) = K + 1 - Q_table.rootweight`` (equivalently
   ``opt_rw - (Q_table.rootweight - (K - opt_rw + 1))``).
4. At the parent level, interval candidates heavier than ``K`` may
   downgrade members to their nearly-optimal variants, greedily by
   descending ``ΔW`` (Lemma 5), one extra partition per downgrade. This
   is handled inside :class:`~repro.partition.flatdp.FlatDP` via the
   ``deltas`` argument.
5. Extraction walks the tree top-down: the root uses its optimal chain;
   every child uses its nearly-optimal chain iff some interval entry
   recorded it in its ``nearlyopt`` set, and its optimal chain otherwise.

Worst-case time is ``O(n·K³)`` — linear in the number of nodes for fixed
``K``, which is the paper's headline result.

The implementation runs over a :class:`~repro.tree.flat.FlatWeights`
snapshot: one descending-id loop replaces the postorder walk (children
have larger ids than parents, so every subtree solution exists before its
parent consumes it) and all child access goes through the CSR arrays.
Steps 1-3 are :func:`~repro.partition.flatdp.solve_shape`, and because
its answer depends only on a subtree's *shape* (weights + sibling order),
solved shapes are replayed from the
:class:`~repro.partition.shapecache.ShapeCache` — the DP runs once per
distinct shape, not once per node. ``tests/partition/oracles.py`` holds
the per-node object-graph version this is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.obsv import explain
from repro.partition.base import Partitioner, register, reject_overweight
from repro.partition.flatdp import DELTA, NEAR_CHAIN, OPT_CHAIN, OPT_RW, Record, solve_shape
from repro.partition.interval import Partitioning, SiblingInterval
from repro.partition.shapecache import ShapeCache, default_cache
from repro.tree.flat import FlatWeights
from repro.tree.node import Tree


@dataclass
class DHWStats:
    """Instrumentation: DP sizes and how often nearly-optimal solutions
    exist / are actually used (experiments A2 and A3). ``dp_cells`` and
    ``s_values_per_node`` describe the tables actually built — one per
    distinct shape the memo cache had not seen; the other fields are per
    node of the tree."""

    dp_cells: int = 0
    inner_nodes: int = 0
    nearly_optimal_exists: int = 0
    nearly_optimal_used: int = 0
    s_values_per_node: list[int] = field(default_factory=list)


@register
class DHWPartitioner(Partitioner):
    """The paper's optimal ``O(n·K³)`` algorithm."""

    name = "dhw"
    optimal = True
    main_memory_friendly = False  # decisions depend on the next-higher level

    def __init__(
        self,
        collect_stats: bool = False,
        exclude_endpoints: bool = False,
        fastpath: Optional[bool] = None,
    ):
        """``exclude_endpoints`` enables the Sec. 3.3.6 optimization: the
        first and last node of an interval are never downgraded to a
        nearly-optimal subtree partitioning (the paper proves an optimal
        one always suffices there), shrinking the candidate lists.
        ``collect_stats`` solves against a private, empty memo cache so
        ``stats`` depends on the tree alone. ``fastpath`` is accepted and
        ignored: the flat kernel is the only implementation."""
        self.collect_stats = collect_stats
        self.exclude_endpoints = exclude_endpoints
        self.stats = DHWStats()

    def _check_feasible(self, tree: Tree, limit: int) -> None:
        """:func:`dhw_partition` checks the flattened weight column."""

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        # Stats also feed telemetry (DP cells computed / Q-chains used per
        # run) and explain notes, so collect them whenever a measurement
        # or provenance session is active.
        explaining = explain.explaining()
        stats = self.stats
        collect = self.collect_stats or explaining or telemetry.enabled()
        before = (stats.dp_cells, stats.nearly_optimal_exists, stats.nearly_optimal_used)
        result = dhw_partition(
            tree,
            limit,
            exclude_endpoints=self.exclude_endpoints,
            cache=ShapeCache() if self.collect_stats else None,
            stats=stats if collect else None,
        )
        cells = stats.dp_cells - before[0]
        used = stats.nearly_optimal_used - before[2]
        if explaining:
            explain.note("dhw.dp_cells", cells)
            explain.note("dhw.nearly_optimal_exists", stats.nearly_optimal_exists - before[1])
            explain.note("dhw.nearly_optimal_used", used)
        telemetry.count("partition.dhw.dp_cells", cells)
        telemetry.count("partition.dhw.nearly_optimal_used", used)
        return result


def dhw_partition(
    tree: Tree,
    limit: int,
    *,
    exclude_endpoints: bool = False,
    cache: Optional[ShapeCache] = None,
    stats: Optional[DHWStats] = None,
) -> Partitioning:
    """DHW proper: flatten, collapse bottom-up, extract top-down.

    ``cache`` defaults to this thread's shared memo cache; ``stats`` is
    charged for the run when given.
    """
    if cache is None:
        cache = default_cache()
    with telemetry.span("dhw.flatten"):
        flat = FlatWeights.from_tree(tree)
        reject_overweight(tree, flat.weight, limit)
        shapes = cache.shape_ids(flat)
    with telemetry.span("dhw.dp"):
        records = _collapse(flat, shapes, limit, exclude_endpoints, cache, stats)
    with telemetry.span("dhw.extract"):
        intervals = _extract(flat, records, stats)
    cache.flush_counters()
    return Partitioning(intervals)


def _collapse(
    flat: FlatWeights,
    shapes: list[int],
    limit: int,
    exclude_endpoints: bool,
    cache: ShapeCache,
    stats: Optional[DHWStats],
) -> list[Optional[Record]]:
    """Per-node solution records, children before parents (Fig. 7);
    leaves (empty chain, root weight ``w(v)``) get none."""
    n = flat.n
    weight = flat.weight
    offset = flat.child_offset
    child_ids = flat.child_ids
    opt_rw = [0] * n
    delta = [0] * n
    records: list[Optional[Record]] = [None] * n
    cache_get = cache.get
    cache_put = cache.put
    for v in range(n - 1, -1, -1):
        lo = offset[v]
        hi = offset[v + 1]
        if lo == hi:
            opt_rw[v] = weight[v]
            continue
        key = ("dhw", shapes[v], limit, exclude_endpoints)
        rec = cache_get(key)
        if rec is None:
            children = child_ids[lo:hi]
            rec = solve_shape(
                weight[v],
                [opt_rw[c] for c in children],
                limit,
                [delta[c] for c in children],
                exclude_endpoints,
                stats,
            )
            cache_put(key, rec)
        records[v] = rec
        opt_rw[v] = rec[OPT_RW]
        delta[v] = rec[DELTA]
    if stats is not None:
        inner = [rec for rec in records if rec is not None]
        stats.inner_nodes += len(inner)
        stats.nearly_optimal_exists += sum(rec[NEAR_CHAIN] is not None for rec in inner)
    return records


def _extract(
    flat: FlatWeights, records: list[Optional[Record]], stats: Optional[DHWStats]
) -> set[SiblingInterval]:
    """Walk top-down choosing D- or Q-chains (step 5 of the scheme)."""
    offset = flat.child_offset
    child_ids = flat.child_ids
    explaining = explain.explaining()
    near_used = 0
    intervals = {SiblingInterval(0, 0)}
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        v, use_near = stack.pop()
        rec = records[v]
        if rec is None:  # leaf
            continue
        chain = rec[NEAR_CHAIN] if use_near else rec[OPT_CHAIN]
        assert chain is not None
        near_used += use_near
        children = child_ids[offset[v] : offset[v + 1]]
        near_children: set[int] = set()
        for begin, end, nearly in chain:
            intervals.add(SiblingInterval(children[begin], children[end]))
            near_children.update(nearly)
            if explaining:
                explain.decision(
                    children[begin],
                    "dhw-dp",
                    parent=v,
                    children=end - begin + 1,
                    q_chain=use_near,
                    downgraded=len(nearly),
                )
        for idx, child in enumerate(children):
            stack.append((child, idx in near_children))
    if stats is not None:
        stats.nearly_optimal_used += near_used
    return intervals
