"""Streaming document import (paper Sec. 4.1, 4.3 and ref. [10]).

A *main-memory friendly* partitioning algorithm can assign nodes to
partitions before it has seen the whole document. This package drives
the cut strategies of the bottom-up heuristics (KM, RS, EKM — defined
once, in :mod:`repro.partition.streaming`) from parser callbacks: it
emits partitions as soon as subtrees close and — via the spill threshold
of Sec. 4.3 — bounds peak memory even for the worst case of one giant
fan-out under the root, at some cost in partitioning quality (ablation
A4). The loader itself knows no cut rule.

Without a spill threshold an import equals ``partition_tree`` on the
loaded tree, and both equal the batch oracles in
``tests/partition/oracles.py`` (enforced by tests).
"""

from repro.bulkload.importer import (
    BulkLoader,
    ImportResult,
    STREAMING_STRATEGIES,
    bulk_import,
)
from repro.bulkload.journal import (
    ImportJournal,
    JournalState,
    read_journal,
    resume_import,
    source_fingerprint,
)

__all__ = [
    "BulkLoader",
    "ImportResult",
    "STREAMING_STRATEGIES",
    "bulk_import",
    "ImportJournal",
    "JournalState",
    "read_journal",
    "resume_import",
    "source_fingerprint",
]
