"""Ablation experiments A1–A4 (see DESIGN.md experiment index).

* **A1 — K sweep**: partition counts as the storage-unit capacity grows.
  Sibling algorithms track the ``Weight/K`` lower bound closely at every
  ``K``; KM's parent-child-only model falls further behind as ``K``
  grows (more room for sibling packing it cannot use).
* **A2 — memoization**: the paper reports (Sec. 3.3.6) that fewer than 4
  of the 256 possible root-weight values occur per inner node of a 20 MB
  document; this measures the realized table occupancy of our memoized
  DP for GHDW and DHW.
* **A3 — optimality gap**: how far GHDW/EKM/RS are from DHW's optimum,
  and how often DHW's nearly-optimal machinery exists / fires.
* **A4 — spill threshold**: bulkload memory bound vs. partitioning
  quality (Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import telemetry
from repro.bench.report import render_table
from repro.bulkload import BulkLoader
from repro.datasets.registry import generate_document
from repro.partition import evaluate_partitioning, get_algorithm
from repro.partition.binpack import capacity_lower_bound
from repro.partition.dhw import DHWPartitioner
from repro.partition.ghdw import GHDWPartitioner
from repro.xmlio.serialize import tree_to_xml


@dataclass
class KSweepRow:
    limit: int
    lower_bound: int
    partitions: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)


def run_k_sweep(
    document: str = "mondial",
    limits: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    algorithms: Sequence[str] = ("ghdw", "ekm", "rs", "km"),
    scale: float = 1.0,
) -> list[KSweepRow]:
    tree = generate_document(document, scale=scale)
    rows = []
    for limit in limits:
        row = KSweepRow(limit=limit, lower_bound=capacity_lower_bound(tree, limit))
        for name in algorithms:
            with telemetry.span("bench.partition", algorithm=name) as sp:
                partitioning = get_algorithm(name).partition(tree, limit)
            row.seconds[name] = sp.elapsed
            report = evaluate_partitioning(tree, partitioning, limit)
            assert report.feasible
            row.partitions[name] = report.cardinality
        rows.append(row)
    return rows


def format_k_sweep(rows: list[KSweepRow], document: str) -> str:
    algorithms = list(rows[0].partitions) if rows else []
    headers = ["K", "Weight/K"] + [a.upper() for a in algorithms]
    body = [
        [row.limit, row.lower_bound] + [row.partitions[a] for a in algorithms]
        for row in rows
    ]
    return render_table(headers, body, title=f"A1: partitions vs K ({document})")


@dataclass
class MemoizationRow:
    document: str
    algorithm: str
    inner_nodes: int
    avg_s_values: float
    max_s_values: int
    dp_cells: int
    full_table_cells: int

    @property
    def occupancy(self) -> float:
        return self.dp_cells / self.full_table_cells if self.full_table_cells else 0.0


def run_memoization_ablation(
    documents: Sequence[str] = ("sigmod", "mondial", "xmark"),
    limit: int = 256,
    scale: float = 1.0,
    include_dhw: bool = True,
) -> list[MemoizationRow]:
    rows = []
    for doc in documents:
        tree = generate_document(doc, scale=scale)
        algos = [GHDWPartitioner(collect_stats=True)]
        if include_dhw:
            algos.append(DHWPartitioner(collect_stats=True))
        for algo in algos:
            algo.partition(tree, limit)
            stats = algo.stats
            # A full (non-memoized) table has one cell per (node, s, j):
            # sum over inner nodes of K * (childcount + 1) ~= K * n.
            full = limit * (len(tree) + stats.inner_nodes)
            svals = stats.s_values_per_node
            rows.append(
                MemoizationRow(
                    document=doc,
                    algorithm=algo.name,
                    inner_nodes=stats.inner_nodes,
                    avg_s_values=sum(svals) / stats.inner_nodes if stats.inner_nodes else 0.0,
                    max_s_values=max(svals) if svals else 0,
                    dp_cells=stats.dp_cells,
                    full_table_cells=full,
                )
            )
    return rows


def format_memoization(rows: list[MemoizationRow], limit: int = 256) -> str:
    headers = [
        "Document",
        "Algo",
        "Inner nodes",
        f"Avg s-values (of {limit})",
        "Max",
        "DP cells",
        "Occupancy",
    ]
    body = [
        [
            r.document,
            r.algorithm,
            r.inner_nodes,
            f"{r.avg_s_values:.2f}",
            r.max_s_values,
            r.dp_cells,
            f"{r.occupancy:.4f}",
        ]
        for r in rows
    ]
    return render_table(headers, body, title="A2: DP table memoization occupancy")


@dataclass
class GapRow:
    document: str
    optimal: int
    partitions: dict[str, int] = field(default_factory=dict)
    nearly_optimal_exists: int = 0
    nearly_optimal_used: int = 0

    def gap(self, algorithm: str) -> float:
        return (self.partitions[algorithm] - self.optimal) / self.optimal


def run_gap_ablation(
    documents: Sequence[str] = ("sigmod", "mondial", "partsupp"),
    limit: int = 256,
    scale: float = 0.5,
    algorithms: Sequence[str] = ("ghdw", "ekm", "rs", "km"),
) -> list[GapRow]:
    rows = []
    for doc in documents:
        tree = generate_document(doc, scale=scale)
        dhw = DHWPartitioner(collect_stats=True)
        optimal = dhw.partition(tree, limit).cardinality
        row = GapRow(
            document=doc,
            optimal=optimal,
            nearly_optimal_exists=dhw.stats.nearly_optimal_exists,
            nearly_optimal_used=dhw.stats.nearly_optimal_used,
        )
        for name in algorithms:
            row.partitions[name] = get_algorithm(name).partition(tree, limit).cardinality
        rows.append(row)
    return rows


def format_gap(rows: list[GapRow]) -> str:
    algorithms = list(rows[0].partitions) if rows else []
    headers = (
        ["Document", "DHW (opt)"]
        + [f"{a.upper()} (gap)" for a in algorithms]
        + ["Q exists", "Q used"]
    )
    body = []
    for r in rows:
        body.append(
            [r.document, r.optimal]
            + [f"{r.partitions[a]} (+{r.gap(a) * 100:.1f}%)" for a in algorithms]
            + [r.nearly_optimal_exists, r.nearly_optimal_used]
        )
    return render_table(headers, body, title="A3: optimality gap vs DHW")


@dataclass
class SpillRow:
    threshold: Optional[int]
    partitions: int
    peak_fraction: float
    spills: int


def run_spill_ablation(
    document: str = "xmark",
    algorithm: str = "ekm",
    limit: int = 256,
    thresholds: Sequence[Optional[int]] = (None, 16384, 4096, 1024, 512),
    scale: float = 1.0,
) -> list[SpillRow]:
    tree = generate_document(document, scale=scale)
    xml = tree_to_xml(tree)
    rows = []
    for threshold in thresholds:
        loader = BulkLoader(algorithm=algorithm, limit=limit, spill_threshold=threshold)
        result = loader.load(xml)
        report = evaluate_partitioning(result.tree, result.partitioning, limit)
        assert report.feasible
        rows.append(
            SpillRow(
                threshold=threshold,
                partitions=report.cardinality,
                peak_fraction=result.peak_resident_fraction,
                spills=result.spills,
            )
        )
    return rows


def format_spill(rows: list[SpillRow], document: str, algorithm: str) -> str:
    headers = ["Spill threshold", "Partitions", "Peak resident", "Spills"]
    body = [
        [
            "unbounded" if r.threshold is None else r.threshold,
            r.partitions,
            f"{r.peak_fraction * 100:.1f}%",
            r.spills,
        ]
        for r in rows
    ]
    return render_table(
        headers, body, title=f"A4: bulkload spill threshold ({document}, {algorithm})"
    )
