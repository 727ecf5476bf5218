"""repro.fastpath — flat arrays, shape memoization, parallel bulk load.

The infrastructure under the DP partitioners (docs/PERFORMANCE.md):

* :class:`~repro.fastpath.flat.FlatWeights` — structure-of-arrays view of
  a :class:`~repro.tree.node.Tree` (weight / subtree-weight columns plus
  a CSR children view) that the DHW / GHDW / FDW loops in
  :mod:`repro.partition` iterate over; :class:`~repro.fastpath.flat.FlatTree`
  adds links and payload for an exact, picklable round trip.
* :class:`~repro.fastpath.cache.FastpathCache` — subtree-shape
  hash-consing with an LRU-bounded per-``(shape, capacity)`` DP result
  cache (``fastpath.cache.{hit,miss,evict}`` telemetry counters).
* :class:`~repro.fastpath.parallel.ParallelBulkLoader` — bulk load that
  fans independent top-level subtrees over a ``multiprocessing`` pool
  with a deterministic ordered merge.
"""

from __future__ import annotations

from repro.fastpath.cache import FastpathCache, clear_default_cache, default_cache
from repro.fastpath.flat import FlatTree, FlatWeights

__all__ = [
    "FastpathCache",
    "FlatTree",
    "FlatWeights",
    "clear_default_cache",
    "default_cache",
]
