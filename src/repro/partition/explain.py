"""Decision provenance for partitioning runs.

The paper's tables compare algorithms by *final* partition counts; this
module records *why* each partition exists. Every partitioner module
contains hook calls at its decision points (a DP chain interval chosen, a
KM/EKM cut, a greedy run packed, a new DFS/BFS partition opened). The
hooks are free while explaining is off — the same module-global fast path
as :mod:`repro.telemetry`: one attribute load and a falsy branch — and
record a :class:`Decision` per created interval while an
:func:`explain_scope` is active.

`Partitioner.partition` (:mod:`repro.partition.base`) then joins the
recorded decisions with the per-partition facts it can compute
generically (weight, fill ratio, sibling-interval bounds, tree depth,
member count) into one :class:`PartitionExplain` per run;
:func:`~repro.partition.base.explain_partition` is the one-call form.
``repro explain`` renders these as fill-ratio histograms and
side-by-side algorithm diffs.

Decisions are keyed by the interval's *left* node id — the left endpoints
of a (disjoint) sibling partitioning are unique, and every hook site
knows at least the node that opens the new partition.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.partition.evaluate import partition_weights

#: active collector — the no-op fast path checks this first
_collector: Optional["ExplainCollector"] = None


def explaining() -> bool:
    """Is a provenance collector currently active?"""
    return _collector is not None


def decision(left_id: int, kind: str, **detail: Any) -> None:
    """Record the decision that opens the partition starting at ``left_id``.

    No-op (and the caller should guard the call so ``detail`` is never
    even built) while no collector is active. The last decision recorded
    for a left endpoint wins — algorithms that revise a choice simply
    record again.
    """
    if _collector is None:
        return
    _collector.decisions[left_id] = Decision(kind=kind, detail=detail)


def note(key: str, value: Any) -> None:
    """Attach an algorithm-level fact (DP cells, candidates considered)."""
    if _collector is None:
        return
    _collector.notes[key] = value


def add_note(key: str, n: int = 1) -> None:
    """Increment a numeric algorithm-level note."""
    if _collector is None:
        return
    _collector.notes[key] = _collector.notes.get(key, 0) + n


@dataclass(frozen=True)
class Decision:
    """One recorded partitioning decision (kind + free-form detail)."""

    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        if not self.detail:
            return self.kind
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.kind} ({parts})"


@dataclass(frozen=True)
class PartitionExplainEntry:
    """Provenance of one partition of the result."""

    interval: tuple[int, int]
    weight: int
    fill: float
    depth: int
    members: int
    decision: Optional[Decision]

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "interval": list(self.interval),
            "weight": self.weight,
            "fill": self.fill,
            "depth": self.depth,
            "members": self.members,
        }
        if self.decision is not None:
            out["decision"] = {"kind": self.decision.kind, **self.decision.detail}
        return out


@dataclass
class PartitionExplain:
    """Everything recorded about one ``partition()`` run."""

    algorithm: str
    limit: int
    total_weight: int
    entries: list[PartitionExplainEntry]
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def cardinality(self) -> int:
        return len(self.entries)

    @property
    def mean_fill(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.fill for e in self.entries) / len(self.entries)

    @property
    def intervals(self) -> set[tuple[int, int]]:
        return {e.interval for e in self.entries}

    def fill_histogram(self, buckets: int = 10) -> list[int]:
        """Partition counts per fill-ratio bucket; ``buckets`` equal-width
        bins over ``[0, 1]`` with fill 1.0 landing in the last bin."""
        counts = [0] * buckets
        for entry in self.entries:
            idx = min(buckets - 1, int(entry.fill * buckets))
            counts[idx] += 1
        return counts

    def decision_kinds(self) -> dict[str, int]:
        """How often each decision kind occurs, sorted by kind."""
        kinds: dict[str, int] = {}
        for entry in self.entries:
            if entry.decision is not None:
                kinds[entry.decision.kind] = kinds.get(entry.decision.kind, 0) + 1
        return dict(sorted(kinds.items()))

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "limit": self.limit,
            "cardinality": self.cardinality,
            "total_weight": self.total_weight,
            "mean_fill": self.mean_fill,
            "notes": dict(sorted(self.notes.items())),
            "entries": [e.as_dict() for e in self.entries],
        }


class ExplainCollector:
    """Accumulates decisions during ``_partition`` and finished explains.

    One collector serves a whole :func:`explain_scope`; per-run state
    (decisions, notes) is cleared by :func:`start_run` so chained
    partitioner calls (e.g. the fallback chain) each explain themselves.
    """

    def __init__(self) -> None:
        self.explains: list[PartitionExplain] = []
        self.decisions: dict[int, Decision] = {}
        self.notes: dict[str, Any] = {}

    def explain_for(self, algorithm: str) -> Optional[PartitionExplain]:
        """The most recent explain produced by ``algorithm``, if any."""
        for explain in reversed(self.explains):
            if explain.algorithm == algorithm:
                return explain
        return None


@contextmanager
def explain_scope() -> Iterator[ExplainCollector]:
    """Activate provenance collection; restores the previous collector."""
    global _collector
    previous = _collector
    _collector = ExplainCollector()
    try:
        yield _collector
    finally:
        _collector = previous


def start_run() -> None:
    """Reset per-run state (called by ``Partitioner.partition``)."""
    if _collector is None:
        return
    _collector.decisions.clear()
    _collector.notes.clear()


def finish_run(algorithm: str, tree, result, limit: int) -> Optional[PartitionExplain]:
    """Join recorded decisions with per-partition facts into an explain.

    Called by ``Partitioner.partition`` after the contract check, outside
    the timing span. The O(n) passes here run only while explaining.
    """
    if _collector is None:
        return None
    depths = _node_depths(tree)
    weights = partition_weights(tree, result)
    decisions = _collector.decisions
    root_id = tree.root.node_id
    entries: list[PartitionExplainEntry] = []
    for iv in result.sorted_intervals():
        chosen = decisions.get(iv.left)
        if chosen is None and iv.left == root_id:
            chosen = Decision(kind="root-interval", detail={})
        entries.append(
            PartitionExplainEntry(
                interval=(iv.left, iv.right),
                weight=weights[iv],
                fill=weights[iv] / limit,
                depth=depths[iv.left],
                members=len(iv.nodes(tree)),
                decision=chosen,
            )
        )
    explain = PartitionExplain(
        algorithm=algorithm,
        limit=limit,
        total_weight=tree.total_weight(),
        entries=entries,
        notes=dict(_collector.notes),
    )
    _collector.explains.append(explain)
    _collector.decisions.clear()
    _collector.notes.clear()
    return explain


def _node_depths(tree) -> list[int]:
    """Depth per node id; creation order guarantees parents come first."""
    depths = [0] * len(tree)
    for node in tree:
        if node.parent is not None:
            depths[node.node_id] = depths[node.parent.node_id] + 1
    return depths


# ---------------------------------------------------------------------------
# Rendering (the `repro explain` output)
# ---------------------------------------------------------------------------

_BAR_WIDTH = 30


def _bar(count: int, peak: int) -> str:
    if peak == 0:
        return ""
    return "#" * max(1 if count else 0, count * _BAR_WIDTH // peak)


def format_fill_histogram(explain: PartitionExplain, buckets: int = 10) -> str:
    """ASCII fill-ratio histogram of one explain."""
    counts = explain.fill_histogram(buckets)
    peak = max(counts) if counts else 0
    lines = [f"fill-ratio histogram ({explain.algorithm}, K={explain.limit}):"]
    for idx, count in enumerate(counts):
        lo = idx * 100 // buckets
        hi = (idx + 1) * 100 // buckets
        lines.append(f"  {lo:3d}-{hi:3d}%  {count:6d}  {_bar(count, peak)}")
    return "\n".join(lines)


def format_explain(explain: PartitionExplain, top: int = 5) -> str:
    """Human-readable provenance report for one algorithm run."""
    lines = [
        f"{explain.algorithm}: {explain.cardinality} partitions, "
        f"mean fill {explain.mean_fill * 100:.1f}% "
        f"(total weight {explain.total_weight}, K={explain.limit})"
    ]
    kinds = explain.decision_kinds()
    if kinds:
        rendered = ", ".join(f"{kind}×{count}" for kind, count in kinds.items())
        lines.append(f"decisions: {rendered}")
    for key, value in sorted(explain.notes.items()):
        lines.append(f"note: {key} = {value}")
    lines.append(format_fill_histogram(explain))
    if top > 0 and explain.entries:
        heaviest = sorted(
            explain.entries, key=lambda e: (-e.weight, e.interval)
        )[:top]
        lines.append(f"heaviest {len(heaviest)} partitions:")
        for entry in heaviest:
            decision = entry.decision.render() if entry.decision else "unattributed"
            lines.append(
                f"  ({entry.interval[0]},{entry.interval[1]})  "
                f"weight {entry.weight} ({entry.fill * 100:.0f}%), "
                f"depth {entry.depth}, {entry.members} member(s) — {decision}"
            )
    return "\n".join(lines)


def format_diff(a: PartitionExplain, b: PartitionExplain, buckets: int = 10) -> str:
    """Side-by-side comparison of two explains of the *same* document."""
    lines = [
        f"{a.algorithm} vs {b.algorithm} (K={a.limit}):",
        f"  partitions: {a.cardinality} vs {b.cardinality} "
        f"({b.cardinality - a.cardinality:+d})",
        f"  mean fill:  {a.mean_fill * 100:.1f}% vs {b.mean_fill * 100:.1f}%",
    ]
    shared = a.intervals & b.intervals
    lines.append(
        f"  intervals:  {len(shared)} shared, "
        f"{len(a.intervals) - len(shared)} only-{a.algorithm}, "
        f"{len(b.intervals) - len(shared)} only-{b.algorithm}"
    )
    counts_a = a.fill_histogram(buckets)
    counts_b = b.fill_histogram(buckets)
    peak = max(counts_a + counts_b) if (counts_a or counts_b) else 0
    lines.append(f"  fill-ratio histogram ({a.algorithm} | {b.algorithm}):")
    for idx in range(buckets):
        lo = idx * 100 // buckets
        hi = (idx + 1) * 100 // buckets
        lines.append(
            f"  {lo:3d}-{hi:3d}%  {counts_a[idx]:6d} {_bar(counts_a[idx], peak):<{_BAR_WIDTH}}"
            f" | {counts_b[idx]:6d} {_bar(counts_b[idx], peak)}"
        )
    return "\n".join(lines)
