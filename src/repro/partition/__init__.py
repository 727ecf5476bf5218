"""Tree sibling partitioning: problem model and all algorithms.

Public surface:

* :class:`~repro.partition.interval.SiblingInterval` and
  :class:`~repro.partition.interval.Partitioning` — the result model.
* :mod:`repro.partition.evaluate` — validation, feasibility and the
  partition-forest weight evaluator shared by every algorithm and test.
* One module per algorithm (``fdw``, ``ghdw``, ``dhw``, ``dfs``, ``bfs``,
  ``brute``, ``lukes``, ``binpack``), each registering itself in
  :data:`~repro.partition.base.ALGORITHMS`; :mod:`~repro.partition.streaming`
  registers the three main-memory friendly heuristics ``km``, ``ekm`` and
  ``rs``, whose cut strategies the bulkloader drives as well.
* :mod:`repro.partition.fallback` — the graceful-degradation chain
  (``fallback``): tries ``dhw``, then ``ghdw``, then ``dfs``.
* :mod:`repro.partition.explain` — per-partition decision provenance,
  recorded at every algorithm's cut sites (``repro explain``).
"""

from repro.partition.interval import SiblingInterval, Partitioning
from repro.partition.evaluate import (
    PartitioningReport,
    evaluate_partitioning,
    partition_weights,
    validate_partitioning,
    is_feasible,
)
from repro.partition.base import (
    ALGORITHMS,
    Partitioner,
    available_algorithms,
    explain_partition,
    get_algorithm,
    partition_tree,
    register,
)

# Importing the algorithm modules registers them.
from repro.partition import fdw as _fdw  # noqa: F401
from repro.partition import ghdw as _ghdw  # noqa: F401
from repro.partition import dhw as _dhw  # noqa: F401
from repro.partition import streaming as _streaming  # noqa: F401
from repro.partition import dfs as _dfs  # noqa: F401
from repro.partition import bfs as _bfs  # noqa: F401
from repro.partition import brute as _brute  # noqa: F401
from repro.partition import lukes as _lukes  # noqa: F401
from repro.partition import binpack as _binpack  # noqa: F401
from repro.partition import fallback as _fallback  # noqa: F401

from repro.partition.fdw import FDWPartitioner, fdw_partition_flat
from repro.partition.ghdw import GHDWPartitioner
from repro.partition.dhw import DHWPartitioner
from repro.partition.streaming import EKMPartitioner, KMPartitioner, RSPartitioner
from repro.partition.dfs import DFSPartitioner
from repro.partition.bfs import BFSPartitioner
from repro.partition.brute import BruteForcePartitioner, enumerate_partitionings
from repro.partition.lukes import LukesPartitioner
from repro.partition.binpack import BinPackingBaseline
from repro.partition.fallback import ChainLink, DEFAULT_CHAIN, FallbackPartitioner

__all__ = [
    "SiblingInterval",
    "Partitioning",
    "PartitioningReport",
    "evaluate_partitioning",
    "partition_weights",
    "validate_partitioning",
    "is_feasible",
    "ALGORITHMS",
    "Partitioner",
    "available_algorithms",
    "explain_partition",
    "get_algorithm",
    "partition_tree",
    "register",
    "FDWPartitioner",
    "fdw_partition_flat",
    "GHDWPartitioner",
    "DHWPartitioner",
    "KMPartitioner",
    "EKMPartitioner",
    "RSPartitioner",
    "DFSPartitioner",
    "BFSPartitioner",
    "BruteForcePartitioner",
    "enumerate_partitionings",
    "LukesPartitioner",
    "BinPackingBaseline",
    "ChainLink",
    "DEFAULT_CHAIN",
    "FallbackPartitioner",
]
