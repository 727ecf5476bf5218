"""Deterministic self-time profiler over the telemetry span tree.

Spans already record their slash-joined nesting ``path``
(``cli.import/bulkload.import/partition.ekm``), so a registry trace *is*
a call tree — this module aggregates it into per-path totals and
**self time** (a node's total minus its direct children's totals: the
time spent in that phase itself, e.g. DP cell evaluation vs. tree
traversal vs. page I/O).

The profile is a pure function of the recorded spans: aggregation,
tie-breaking and rendering order are fully deterministic, so two runs of
the same workload produce byte-identical *structure* (only the measured
seconds differ). Works on live :class:`~repro.telemetry.SpanRecord`
objects and on dict records loaded back from a JSONL export
(``repro stats --profile`` prints it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.telemetry.core import MetricRegistry, SpanRecord, registry as _default_registry
from repro.telemetry.export import Record


@dataclass
class ProfileNode:
    """Aggregated timings of every span that shares one nesting path."""

    path: str
    name: str
    calls: int = 0
    total: float = 0.0
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    @property
    def child_total(self) -> float:
        return sum(child.total for child in self.children.values())

    @property
    def self_seconds(self) -> float:
        """Time attributed to this phase itself (never negative — a child
        overlapping its parent's recorded window by measurement jitter is
        clamped)."""
        return max(0.0, self.total - self.child_total)

    def sorted_children(self) -> list["ProfileNode"]:
        """Deterministic order: by total seconds descending, path as the
        tie-breaker."""
        return sorted(self.children.values(), key=lambda n: (-n.total, n.path))

    def walk(self):
        yield self
        for child in self.sorted_children():
            yield from child.walk()


def _fields(record: Record) -> tuple[str, str, float]:
    if isinstance(record, SpanRecord):
        return record.path, record.name, record.seconds
    return str(record["path"]), str(record["name"]), float(record["seconds"])


def build_profile(records: Iterable[Record]) -> ProfileNode:
    """Aggregate span records into a profile tree under a virtual root.

    Spans whose parent never recorded (e.g. trace truncation dropped it)
    attach to the nearest recorded ancestor path, falling back to the
    root — no time is silently lost.
    """
    root = ProfileNode(path="", name="(all)")
    nodes: dict[str, ProfileNode] = {"": root}

    def node_for(path: str, name: str) -> ProfileNode:  # repro-lint: allow-recursion (depth = span nesting depth, bounded by instrumented call nesting)
        existing = nodes.get(path)
        if existing is not None:
            return existing
        parent_path, _, leaf = path.rpartition("/")
        parent = node_for(parent_path, parent_path.rpartition("/")[2] or "(all)")
        node = nodes[path] = ProfileNode(path=path, name=name or leaf)
        parent.children[path] = node
        return node

    for record in records:
        path, name, seconds = _fields(record)
        node = node_for(path, name)
        node.calls += 1
        node.total += seconds
    # The virtual root's total is the sum of the top-level spans.
    root.total = root.child_total
    return root


def profile_registry(reg: Optional[MetricRegistry] = None) -> ProfileNode:
    """Profile the trace of ``reg`` (default: the global registry)."""
    reg = reg if reg is not None else _default_registry()
    return build_profile(reg.trace)


def format_profile(root: ProfileNode, min_fraction: float = 0.0) -> str:
    """Render a profile tree as an aligned, indented table.

    ``min_fraction`` hides subtrees below that share of the root total
    (0 shows everything).
    """
    if not root.children:
        return "no spans recorded (is telemetry enabled?)"
    denom = root.total or 1.0
    lines = [f"{'total s':>10}  {'self s':>10}  {'calls':>7}  {'%':>5}  phase"]

    def emit(node: ProfileNode, depth: int) -> None:  # repro-lint: allow-recursion (depth = profile tree depth, same bound as node_for)
        fraction = node.total / denom
        if node is not root and fraction < min_fraction:
            return
        label = ("  " * depth) + (node.name if node is not root else node.name)
        lines.append(
            f"{node.total:10.6f}  {node.self_seconds:10.6f}  {node.calls:7d}  "
            f"{fraction * 100:5.1f}  {label}"
        )
        for child in node.sorted_children():
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
