"""Fixture: a partitioner module doing float arithmetic on slot weights.

Analyzed by repro-lint tests, never imported (the imports below are only
read by the analyzer's alias table).
"""

from repro.partition.base import Partitioner
from repro.partition.interval import Partitioning


class FloatingPartitioner(Partitioner):
    """Seeds BAN003 in both shapes."""

    name = "floating"

    def _partition(self, tree, limit):
        half = tree.root.weight / 2  # seed:BAN003-div
        if limit > 2.5:  # seed:BAN003-float
            half += 1
        return Partitioning([(0, 0)])
