"""Workload-aware clustering (paper Sec. 5, following Bordawekar & Shmueli).

The paper notes that the strength of Lukes-style algorithms "lies in
their ability to optimize the partitioning for anticipated query
workloads" — when a workload is known, edge weights should reflect how
often queries traverse each edge instead of defaulting to unit weights.

This module closes that loop with the rest of the library:

1. :func:`profile_workload` runs a set of XPath queries against a
   throwaway single-record store with access heat attached
   (:mod:`repro.telemetry.heat`), which orients the hops into
   parent-child edge counts (sibling hops are attributed to both
   endpoints' parent edges: keeping either sibling with the parent
   keeps the hop intra-partition in the parent-child model).
2. :func:`workload_edge_weight` turns those counts into an edge-weight
   function for :func:`repro.partition.lukes.lukes_partition`.
3. :func:`workload_aware_lukes` runs the whole pipeline.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

from repro.partition.interval import Partitioning
from repro.partition.lukes import lukes_partition
from repro.storage.constants import StorageConfig
from repro.tree.node import Tree, TreeNode


def profile_workload(tree: Tree, queries: Sequence[str]) -> Counter:
    """Count parent-child edge traversals for a query workload.

    Returns a counter keyed by ``(parent_id, child_id)``.
    """
    from repro.query.engine import evaluate
    from repro.storage.store import DocumentStore
    from repro.telemetry.heat import HeatAccumulator

    # A single giant "record" so profiling itself is cost-neutral; the
    # store is only used as the navigation substrate, so page size is
    # inflated to hold the whole document.
    total = max(tree.total_weight(), 1)
    config = StorageConfig(
        record_limit=total,
        page_size=32 * total + 65536,
    )
    store = DocumentStore.build(
        tree, Partitioning([(tree.root.node_id, tree.root.node_id)]), config
    )
    heat = HeatAccumulator()
    heat.attach("workload", store)
    for query in queries:
        evaluate(store, query)
    return heat.profile().edge_counts("workload")


def workload_edge_weight(
    counts: Counter, base: int = 1
) -> Callable[[TreeNode, TreeNode], int]:
    """Edge-weight function: ``base`` plus the traversal count."""

    def weight(parent: TreeNode, child: TreeNode) -> int:
        return base + counts.get((parent.node_id, child.node_id), 0)

    return weight


def workload_aware_lukes(
    tree: Tree, limit: int, queries: Sequence[str], base: int = 1
) -> tuple[int, Partitioning]:
    """Profile the workload, then run Lukes' DP with derived weights.

    Returns ``(value, partitioning)`` like
    :func:`~repro.partition.lukes.lukes_partition`.
    """
    counts = profile_workload(tree, queries)
    return lukes_partition(tree, limit, edge_weight=workload_edge_weight(counts, base))


def heat_aware_lukes(
    tree: Tree, limit: int, profile, doc: str, base: int = 1
) -> tuple[int, Partitioning]:
    """Run Lukes' DP with *observed* edge weights from live telemetry.

    ``profile`` is a :class:`repro.telemetry.heat.HeatProfile` (as
    returned by ``HeatAccumulator.profile()``, ``GET /debug/heat`` or
    ``repro stats --heat``); its oriented traversal counts for ``doc``
    are consumed verbatim by :func:`workload_edge_weight`, closing the
    telemetry→repartitioning loop for hot documents.
    """
    counts = profile.edge_counts(doc)
    return lukes_partition(tree, limit, edge_weight=workload_edge_weight(counts, base))
