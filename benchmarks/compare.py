#!/usr/bin/env python
"""Bench regression gate: diff two harness baselines.

::

    python benchmarks/compare.py BENCH_PR2.json BENCH_PR4.json

Compares an *old* committed baseline against a *new* one and exits

* ``0`` — comparable and no regression,
* ``1`` — at least one regression (printed, one line each),
* ``2`` — the files are not comparable (missing, wrong schema, or
  produced by different scenario configurations).

Two metric classes are treated differently:

* **Deterministic metrics** (partition counts, root weights, DP cell
  counts, query costs/result counts, spill/event counts, the service
  load generator's request mix and query measurements) must match
  **exactly** — the corpus generators and algorithms are seeded and
  deterministic, so *any* drift is a behavior change that must be
  explained, not noise. Regenerating the baseline is the explicit way to
  accept one.
* **Wall-clock seconds** are compared with per-scenario relative
  thresholds plus an absolute floor (milliseconds of scheduler jitter on
  a fast scenario should not fail the gate). The telemetry ``overhead``
  scenario is additionally gated absolutely: the new baseline must keep
  the no-op instrumentation cost below ``OVERHEAD_BUDGET`` (the paper
  repo's < 3% acceptance bar).

Improvements never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "repro-bench/1"

#: relative wall-clock slowdown allowed per scenario (generous: the gate
#: must hold across unrelated machines and noisy CI runners)
TIME_THRESHOLDS = {
    "table1_table2": 0.60,
    "table3": 0.60,
    "bulkload": 0.60,
    "service": 0.60,
    "recovery": 0.60,
    "index": 0.60,
}
#: absolute seconds floor below which timing diffs are ignored entirely
#: (a ~10ms heuristic cell can double under scheduler jitter alone; real
#: regressions on the material cells are far above this)
TIME_FLOOR = 0.010
#: hard ceiling for the disabled-telemetry wrapper overhead fraction
OVERHEAD_BUDGET = 0.03
#: hard ceiling on the sampled-tracing overhead fraction a full-run
#: service baseline may report (quick fan-outs are seconds-scale noise,
#: so they are not gated)
TRACING_OVERHEAD_BUDGET = 0.03
#: minimum concurrent mixed requests a full-run service baseline must
#: have sustained (the PR acceptance bar; quick runs are not gated)
SERVICE_REQUEST_FLOOR = 1000
#: hard ceiling on the write-ahead-log overhead fraction a full-run
#: recovery baseline may report (quick runs flush batches too small for
#: the per-commit fsync floor to amortize, so they are not gated)
WAL_OVERHEAD_BUDGET = 0.10
#: minimum window-over-navigation speedup a full-run index baseline must
#: report on every descendant-axis query (quick corpora answer in
#: microseconds either way, so they are not gated)
INDEX_DESCENDANT_FLOOR = 3.0
#: hard ceiling on the batched heat-accounting overhead fraction a
#: full-run index baseline may report on a navigation-bound workload
#: (the per-hop callback this replaced cost ~50%)
HEAT_OVERHEAD_BUDGET = 0.10


class Comparison:
    """Accumulates per-metric verdicts and renders the report."""

    def __init__(self) -> None:
        self.regressions: list[str] = []
        self.notes: list[str] = []

    def exact(self, label: str, old, new) -> None:
        if old != new:
            self.regressions.append(f"{label}: expected {old!r}, got {new!r}")

    def seconds(self, label: str, old: float, new: float, threshold: float) -> None:
        delta = new - old
        if delta <= TIME_FLOOR:
            return
        if old > 0 and delta / old > threshold:
            self.regressions.append(
                f"{label}: {old:.4f}s -> {new:.4f}s "
                f"(+{delta / old * 100:.0f}% > {threshold * 100:.0f}% threshold)"
            )

    def bound(self, label: str, value: float, ceiling: float) -> None:
        if value >= ceiling:
            self.regressions.append(f"{label}: {value:.4f} >= budget {ceiling:.4f}")


class NotComparable(Exception):
    """Not-comparable condition (exit 2, distinct from a regression)."""


def _load(path: Path) -> dict:
    if not path.exists():
        raise NotComparable(f"missing baseline {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NotComparable(f"{path}: invalid JSON: {exc}")
    if data.get("schema") != SCHEMA:
        raise NotComparable(
            f"{path}: schema {data.get('schema')!r} != expected {SCHEMA!r}"
        )
    return data


def _check_comparable(old: dict, new: dict) -> None:
    if old.get("quick") != new.get("quick"):
        raise NotComparable(
            f"baselines not comparable: quick={old.get('quick')} vs {new.get('quick')}"
        )
    old_sc = set(old.get("scenarios", {}))
    new_sc = set(new.get("scenarios", {}))
    if not old_sc <= new_sc:
        raise NotComparable(f"new baseline is missing scenarios: {sorted(old_sc - new_sc)}")


def compare_table1_table2(cmp: Comparison, old: dict, new: dict) -> None:
    cmp.exact("table1_table2.scale", old.get("scale"), new.get("scale"))
    cmp.exact("table1_table2.limit", old.get("limit"), new.get("limit"))
    new_docs = {d["document"]: d for d in new.get("documents", [])}
    for doc in old.get("documents", []):
        name = doc["document"]
        if name not in new_docs:
            cmp.regressions.append(f"table1_table2: document {name!r} disappeared")
            continue
        nd = new_docs[name]
        prefix = f"table1_table2[{name}]"
        cmp.exact(f"{prefix}.nodes", doc["nodes"], nd["nodes"])
        cmp.exact(f"{prefix}.total_weight", doc["total_weight"], nd["total_weight"])
        for alg, cell in doc.get("algorithms", {}).items():
            ncell = nd.get("algorithms", {}).get(alg)
            if ncell is None:
                cmp.regressions.append(f"{prefix}: algorithm {alg!r} disappeared")
                continue
            cmp.exact(f"{prefix}.{alg}.partitions", cell["partitions"], ncell["partitions"])
            cmp.exact(f"{prefix}.{alg}.root_weight", cell["root_weight"], ncell["root_weight"])
            if "dp_cells" in cell and "dp_cells" in ncell:
                cmp.exact(f"{prefix}.{alg}.dp_cells", cell["dp_cells"], ncell["dp_cells"])
            cmp.seconds(
                f"{prefix}.{alg}.seconds",
                cell["seconds"],
                ncell["seconds"],
                TIME_THRESHOLDS["table1_table2"],
            )


def compare_table3(cmp: Comparison, old: dict, new: dict) -> None:
    cmp.exact("table3.scale", old.get("scale"), new.get("scale"))
    cmp.exact("table3.nodes", old.get("nodes"), new.get("nodes"))
    cmp.exact("table3.partitions", old.get("partitions"), new.get("partitions"))
    for qid, runs in old.get("queries", {}).items():
        nruns = new.get("queries", {}).get(qid, {})
        for alg, run in runs.items():
            nrun = nruns.get(alg)
            if nrun is None:
                cmp.regressions.append(f"table3[{qid}]: layout {alg!r} disappeared")
                continue
            cmp.exact(f"table3[{qid}].{alg}.cost", run["cost"], nrun["cost"])
            cmp.exact(f"table3[{qid}].{alg}.results", run["results"], nrun["results"])


def compare_bulkload(cmp: Comparison, old: dict, new: dict) -> None:
    cmp.exact("bulkload.scale", old.get("scale"), new.get("scale"))
    new_runs = {r["spill_threshold"]: r for r in new.get("runs", [])}
    for run in old.get("runs", []):
        threshold = run["spill_threshold"]
        nrun = new_runs.get(threshold)
        if nrun is None:
            cmp.regressions.append(f"bulkload: threshold {threshold!r} run disappeared")
            continue
        prefix = f"bulkload[threshold={threshold}]"
        for key in ("partitions", "spills", "events", "peak_resident_weight"):
            cmp.exact(f"{prefix}.{key}", run[key], nrun[key])
        cmp.seconds(
            f"{prefix}.seconds",
            run["seconds"],
            nrun["seconds"],
            TIME_THRESHOLDS["bulkload"],
        )


def compare_overhead(cmp: Comparison, old: dict, new: dict) -> None:
    cmp.exact("overhead.nodes", old.get("nodes"), new.get("nodes"))
    cmp.bound("overhead.overhead_fraction", new["overhead_fraction"], OVERHEAD_BUDGET)


def compare_service(cmp: Comparison, old: dict, new: dict) -> None:
    """Diff the service load-generator scenario (deterministic + timing)."""
    for key in ("seed", "concurrency", "requests", "shared_documents", "mix"):
        cmp.exact(f"service.{key}", old.get(key), new.get(key))
    if "tracing" in old:
        cmp.exact(
            "service.tracing.sample_rate",
            old["tracing"].get("sample_rate"),
            new.get("tracing", {}).get("sample_rate"),
        )
    for key, value in old.get("query_reference", {}).items():
        cmp.exact(
            f"service.query_reference.{key}",
            value,
            new.get("query_reference", {}).get(key),
        )
    cmp.seconds(
        "service.seconds",
        old["seconds"],
        new["seconds"],
        TIME_THRESHOLDS["service"],
    )


def check_service(cmp: Comparison, new: dict, quick: bool) -> None:
    """Absolute gate on the candidate's service scenario.

    The three load-generator invariants (zero failed requests, zero
    corrupt reads, lock-exact telemetry) must hold on *every* baseline;
    full-run baselines must additionally have sustained at least
    ``SERVICE_REQUEST_FLOOR`` concurrent mixed requests. When the
    baseline carries a ``tracing`` block (PR 9+), every sampled request
    of the traced re-run must have resolved to a single joined span tree
    with engine-level spans, and full-run baselines must keep the
    sampled-on overhead under ``TRACING_OVERHEAD_BUDGET``.
    """
    cmp.exact("service.failed", 0, new.get("failed"))
    cmp.exact("service.corrupt_reads", 0, new.get("corrupt_reads"))
    cmp.exact("service.telemetry_exact", True, new.get("telemetry_exact"))
    if not quick and new.get("requests", 0) < SERVICE_REQUEST_FLOOR:
        cmp.regressions.append(
            f"service.requests: {new.get('requests')} < "
            f"{SERVICE_REQUEST_FLOOR} full-run floor"
        )
    tracing = new.get("tracing")
    if tracing is not None:
        cmp.exact("service.tracing.unresolved", 0, tracing.get("unresolved"))
        cmp.exact(
            "service.tracing.joined_trees",
            tracing.get("resolved"),
            tracing.get("joined_trees"),
        )
        if not tracing.get("engine_spans"):
            cmp.regressions.append(
                "service.tracing.engine_spans: no engine spans joined "
                "any sampled trace"
            )
        if not quick:
            cmp.bound(
                "service.tracing.overhead_fraction",
                tracing.get("overhead_fraction", 1.0),
                TRACING_OVERHEAD_BUDGET,
            )


def compare_recovery(cmp: Comparison, old: dict, new: dict) -> None:
    """Diff the WAL/recovery scenario (deterministic + timing)."""
    for key in ("seed", "scale", "limit", "batches", "ops_per_batch", "nodes"):
        cmp.exact(f"recovery.{key}", old.get(key), new.get(key))
    old_rec = old.get("recovery", {})
    new_rec = new.get("recovery", {})
    cmp.exact(
        "recovery.recovery.records_redone",
        old_rec.get("records_redone"),
        new_rec.get("records_redone"),
    )
    cmp.exact(
        "recovery.recovery.replayed_transactions",
        old_rec.get("replayed_transactions"),
        new_rec.get("replayed_transactions"),
    )
    cmp.exact(
        "recovery.crash_matrix.scenarios",
        old.get("crash_matrix", {}).get("scenarios"),
        new.get("crash_matrix", {}).get("scenarios"),
    )
    for key in ("plain_seconds", "wal_seconds"):
        cmp.seconds(
            f"recovery.{key}",
            old[key],
            new[key],
            TIME_THRESHOLDS["recovery"],
        )


def check_recovery(cmp: Comparison, new: dict, quick: bool) -> None:
    """Absolute gate on the candidate's recovery scenario.

    Crash-safety invariants (byte-identity with and without the log,
    recovery rebuilding post-flush bytes, every crash-matrix cell
    passing) must hold on *every* baseline; full-run baselines must
    additionally keep the WAL overhead under ``WAL_OVERHEAD_BUDGET``.
    """
    cmp.exact("recovery.identical_bytes", True, new.get("identical_bytes"))
    cmp.exact(
        "recovery.recovery.recovered_identical",
        True,
        new.get("recovery", {}).get("recovered_identical"),
    )
    matrix = new.get("crash_matrix", {})
    cmp.exact("recovery.crash_matrix.ok", True, matrix.get("ok"))
    cmp.exact(
        "recovery.crash_matrix.passed",
        matrix.get("scenarios"),
        matrix.get("passed"),
    )
    if not quick:
        cmp.bound(
            "recovery.overhead_fraction",
            new.get("overhead_fraction", 1.0),
            WAL_OVERHEAD_BUDGET,
        )


def compare_index(cmp: Comparison, old: dict, new: dict) -> None:
    """Diff the structural-index scenario (deterministic + timing)."""
    for key in ("seed", "scale", "limit", "nodes", "records"):
        cmp.exact(f"index.{key}", old.get(key), new.get(key))
    for qid, row in old.get("queries", {}).items():
        nrow = new.get("queries", {}).get(qid)
        if nrow is None:
            cmp.regressions.append(f"index[{qid}]: query disappeared")
            continue
        prefix = f"index[{qid}]"
        for key in ("xpath", "results", "window_steps", "partitions_pruned"):
            cmp.exact(f"{prefix}.{key}", row.get(key), nrow.get(key))
        for key in ("navigation_seconds", "window_seconds"):
            cmp.seconds(
                f"{prefix}.{key}",
                row[key],
                nrow[key],
                TIME_THRESHOLDS["index"],
            )


def check_index(cmp: Comparison, new: dict, quick: bool) -> None:
    """Absolute gate on the candidate's index scenario.

    Window/navigation identity, partition pruning, and observed heat
    steps must hold on *every* baseline; full-run baselines must
    additionally clear the descendant-axis speedup floor and keep the
    batched heat accounting under ``HEAT_OVERHEAD_BUDGET``.
    """
    for qid, row in new.get("queries", {}).items():
        cmp.exact(f"index[{qid}].identical", True, row.get("identical"))
    if new.get("partitions_pruned_total", 0) <= 0:
        cmp.regressions.append(
            "index.partitions_pruned_total: no partitions pruned on the "
            "multi-partition scenario"
        )
    heat = new.get("heat", {})
    cmp.exact("index.heat.observed", True, heat.get("observed"))
    if not quick:
        floor = new.get("descendant_speedup_min", 0.0)
        if floor < INDEX_DESCENDANT_FLOOR:
            cmp.regressions.append(
                f"index.descendant_speedup_min: {floor:.2f}x < "
                f"{INDEX_DESCENDANT_FLOOR}x floor"
            )
        cmp.bound(
            "index.heat.overhead_fraction",
            heat.get("overhead_fraction", 1.0),
            HEAT_OVERHEAD_BUDGET,
        )


def check_index_baseline(path: Path) -> int:
    """Validate a committed index baseline (the bench CI smoke gate)."""
    try:
        data = _load(path)
    except NotComparable as exc:
        print(f"[compare] index baseline: {exc}", file=sys.stderr)
        return 1
    scenario = data.get("scenarios", {}).get("index")
    if scenario is None:
        print(f"[compare] {path.name}: scenario 'index' missing", file=sys.stderr)
        return 1
    cmp = Comparison()
    check_index(cmp, scenario, bool(data.get("quick")))
    for line in cmp.regressions:
        print(f"[compare] index baseline: {line}", file=sys.stderr)
    if not cmp.regressions:
        print(f"[compare] index baseline {path.name} OK ({SCHEMA})", file=sys.stderr)
    return 1 if cmp.regressions else 0


def check_recovery_baseline(path: Path) -> int:
    """Validate a committed recovery baseline (the bench CI smoke gate)."""
    try:
        data = _load(path)
    except NotComparable as exc:
        print(f"[compare] recovery baseline: {exc}", file=sys.stderr)
        return 1
    scenario = data.get("scenarios", {}).get("recovery")
    if scenario is None:
        print(f"[compare] {path.name}: scenario 'recovery' missing", file=sys.stderr)
        return 1
    cmp = Comparison()
    check_recovery(cmp, scenario, bool(data.get("quick")))
    for line in cmp.regressions:
        print(f"[compare] recovery baseline: {line}", file=sys.stderr)
    if not cmp.regressions:
        print(
            f"[compare] recovery baseline {path.name} OK ({SCHEMA})", file=sys.stderr
        )
    return 1 if cmp.regressions else 0


def check_service_baseline(path: Path) -> int:
    """Validate a committed service baseline (the bench CI smoke gate)."""
    try:
        data = _load(path)
    except NotComparable as exc:
        print(f"[compare] service baseline: {exc}", file=sys.stderr)
        return 1
    scenario = data.get("scenarios", {}).get("service")
    if scenario is None:
        print(f"[compare] {path.name}: scenario 'service' missing", file=sys.stderr)
        return 1
    cmp = Comparison()
    check_service(cmp, scenario, bool(data.get("quick")))
    for line in cmp.regressions:
        print(f"[compare] service baseline: {line}", file=sys.stderr)
    if not cmp.regressions:
        print(f"[compare] service baseline {path.name} OK ({SCHEMA})", file=sys.stderr)
    return 1 if cmp.regressions else 0


def compare_baselines(old: dict, new: dict) -> Comparison:
    _check_comparable(old, new)
    cmp = Comparison()
    comparers = {
        "table1_table2": compare_table1_table2,
        "table3": compare_table3,
        "bulkload": compare_bulkload,
        "overhead": compare_overhead,
        "service": compare_service,
        "recovery": compare_recovery,
        "index": compare_index,
    }
    for scenario, comparer in comparers.items():
        if scenario in old["scenarios"]:
            comparer(cmp, old["scenarios"][scenario], new["scenarios"][scenario])
    if "service" in new.get("scenarios", {}):
        check_service(cmp, new["scenarios"]["service"], bool(new.get("quick")))
    if "recovery" in new.get("scenarios", {}):
        check_recovery(cmp, new["scenarios"]["recovery"], bool(new.get("quick")))
    if "index" in new.get("scenarios", {}):
        check_index(cmp, new["scenarios"]["index"], bool(new.get("quick")))
    return cmp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the previous committed baseline")
    parser.add_argument("new", type=Path, help="the candidate baseline")
    args = parser.parse_args(argv)
    try:
        old = _load(args.old)
        new = _load(args.new)
        cmp = compare_baselines(old, new)
    except NotComparable as exc:
        print(f"[compare] not comparable: {exc}", file=sys.stderr)
        return 2
    for line in cmp.regressions:
        print(f"[compare] REGRESSION {line}", file=sys.stderr)
    if cmp.regressions:
        print(
            f"[compare] {args.old.name} -> {args.new.name}: "
            f"{len(cmp.regressions)} regression(s)",
            file=sys.stderr,
        )
        return 1
    print(f"[compare] {args.old.name} -> {args.new.name}: no regressions", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
