"""Benchmark harness: regenerates every table of the paper's Sec. 6.

* :mod:`repro.bench.experiments` — Tables 1 (partition counts) and 2
  (partitioning CPU time) over the synthetic corpus.
* :mod:`repro.bench.table3` — Table 3 (XPathMark query cost + disk space,
  KM vs EKM layouts).
* :mod:`repro.bench.ablations` — the A1–A4 ablations from DESIGN.md
  (K sweep, DP memoization, optimality gap, spill threshold).
* :mod:`repro.bench.cli` — the ``repro bench <experiment>`` verb.

Every experiment prints measured values next to the paper's reported
numbers; EXPERIMENTS.md archives one full run.
"""

from repro.bench.experiments import (
    PartitioningCell,
    PartitioningRow,
    run_partitioning_experiment,
    format_table1,
    format_table2,
)
from repro.bench.table3 import QueryExperimentResult, run_query_experiment, format_table3
from repro.bench.ablations import (
    run_k_sweep,
    run_memoization_ablation,
    run_gap_ablation,
    run_spill_ablation,
)

__all__ = [
    "PartitioningCell",
    "PartitioningRow",
    "run_partitioning_experiment",
    "format_table1",
    "format_table2",
    "QueryExperimentResult",
    "run_query_experiment",
    "format_table3",
    "run_k_sweep",
    "run_memoization_ablation",
    "run_gap_ablation",
    "run_spill_ablation",
]
