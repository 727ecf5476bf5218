#!/usr/bin/env python
"""Structural-index scenario: window vs navigation, pruning, heat overhead.

Builds one XMark/EKM store and answers the descendant-heavy XPathMark
queries two ways — pure navigation (index detached) and through the
structural index's preorder windows — timing both sides best-of-
``--repeats`` so scheduler noise cancels. Every query must return
bit-identical node-id lists both ways (``identical``); the summary
``descendant_speedup_min`` is the smallest window speedup across the
descendant-axis queries and must clear
``compare.INDEX_DESCENDANT_FLOOR`` (>= 3x) on full-run baselines. The
ancestor-axis rows (Q6, Q7) of the run itself are held to the same floor
at either scale — the merged ancestor step wins by an order of magnitude
even on the quick corpus; the committed ``BENCH_PR10.json`` predates the
key and is not re-gated on it.

The inner-window query (E7 ``//item/description//keyword``) must also
report ``partitions_pruned > 0``: its windows overlap only a slice of
the record map, so most partitions are never decoded.

Finally the heat sub-scenario re-times a navigation-bound workload with
a :class:`repro.telemetry.heat.HeatAccumulator` attached. The batched
hop buffer must keep the accounting overhead under
``compare.HEAT_OVERHEAD_BUDGET`` (< 10%, full runs; the old per-hop
callback sink cost ~50% — lint rule PERF002 guards the hot path now).

Usage::

    PYTHONPATH=src python benchmarks/bench_index.py [--quick] [--check]
        [--seed N] [--repeats N] [--output BENCH.json]

``--check`` first validates the committed ``BENCH_PR10.json`` with the
same gate :mod:`benchmarks.compare` applies in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter  # the harness itself may read the clock

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from compare import INDEX_DESCENDANT_FLOOR, check_index_baseline  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.datasets import xmark_document  # noqa: E402
from repro.partition import get_algorithm  # noqa: E402
from repro.query import evaluate, run_query  # noqa: E402
from repro.storage import DocumentStore  # noqa: E402
from repro.telemetry.heat import HeatAccumulator  # noqa: E402

SCHEMA = "repro-bench/1"
BASELINE = REPO_ROOT / "BENCH_PR10.json"
LIMIT = 256

#: (qid, xpath, axis) — the timed comparison set; the ``descendant``
#: and the ``ancestor`` rows each feed a speedup floor
QUERIES = (
    ("Q3", "//keyword", "descendant"),
    (
        "Q4",
        "/descendant-or-self::listitem/descendant-or-self::keyword",
        "descendant",
    ),
    ("E7", "//item/description//keyword", "descendant"),
    ("Q6", "//keyword/ancestor::listitem", "ancestor"),
    ("Q7", "//keyword/ancestor-or-self::mail", "ancestor"),
)

#: navigation-bound workload for the heat-overhead sub-scenario — the
#: same comparison set the window scenario times, evaluated by pure
#: navigation (index detached)
HEAT_XPATHS = tuple(xpath for _, xpath, _ in QUERIES)


def _build_store(scale: float, seed: int) -> DocumentStore:
    tree = xmark_document(scale=scale, seed=seed)
    partitioning = get_algorithm("ekm").partition(tree, LIMIT)
    store = DocumentStore.build(tree, partitioning)
    store.warm_up()
    return store


def _ids(store, xpath: str) -> list[int]:
    return [node.node_id for node in evaluate(store, xpath)]


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Min wall-clock over ``repeats`` calls; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def _query_rows(store: DocumentStore, repeats: int) -> dict:
    rows: dict[str, dict] = {}
    for qid, xpath, axis in QUERIES:
        store.structural_index = None
        nav_seconds, nav_ids = _best_of(lambda: _ids(store, xpath), repeats)
        store.build_index()
        win_seconds, win_ids = _best_of(lambda: _ids(store, xpath), repeats)
        counters = run_query(store, xpath)
        rows[qid] = {
            "xpath": xpath,
            "axis": axis,
            "results": len(win_ids),
            "identical": win_ids == nav_ids,
            "navigation_seconds": nav_seconds,
            "window_seconds": win_seconds,
            "speedup": nav_seconds / win_seconds if win_seconds else 0.0,
            "window_steps": counters.window_steps,
            "partitions_pruned": counters.partitions_pruned,
            "window_cost": counters.cost,
        }
    return rows


def _heat_overhead(store: DocumentStore, pairs: int) -> dict:
    """Navigation-bound wall-clock with and without heat accounting.

    The index stays detached on both sides: heat tallies navigation
    hops, and window evaluation takes none — an indexed run would time
    nothing but the buffer's ``is not None`` branch. Accounting is
    toggled exactly the way the hot path gates it: by nulling the
    pre-bound ``heat_append``.

    Samples are taken in interleaved (off, on) pairs — alternating
    which side goes first — and each pair yields one on/off ratio.
    Adjacent samples share the machine's momentary state (frequency
    scaling, noisy neighbours), so the ratio cancels drift a best-of
    over two independently-sampled sides cannot: one lucky sample on
    either side would swing that estimate by more than the budget
    itself. The estimate is the *interquartile mean* of the ratios —
    outlier pairs (a frequency step landing mid-pair) fall in the
    trimmed tails. ``heat.flush()`` runs after every timed sample so
    the lazy tally fold never lands inside a timed region, mirroring a
    deployment that reads heat between requests, not during them.
    """
    store.structural_index = None

    def workload():
        for xpath in HEAT_XPATHS:
            run_query(store, xpath)

    heat = HeatAccumulator()
    heat.attach("bench", store)
    enabled = (store.heat_append, store.heat_fault_append)
    try:
        workload()  # warm code paths + tallies before timing
        heat.flush()
        plain_seconds = heat_seconds = float("inf")
        ratios = []
        for pair_index in range(pairs):
            sides = ("off", "on") if pair_index % 2 == 0 else ("on", "off")
            pair = {}
            for side in sides:
                if side == "off":
                    store.heat_append = store.heat_fault_append = None
                else:
                    store.heat_append, store.heat_fault_append = enabled
                start = perf_counter()
                workload()
                pair[side] = perf_counter() - start
                heat.flush()  # fold outside the timed region
            store.heat_append, store.heat_fault_append = enabled
            plain_seconds = min(plain_seconds, pair["off"])
            heat_seconds = min(heat_seconds, pair["on"])
            ratios.append(pair["on"] / pair["off"])
        profile = heat.profile()
        steps = profile.docs["bench"].steps
    finally:
        heat.detach("bench")
    ratios.sort()
    trimmed = ratios[len(ratios) // 4 : len(ratios) - len(ratios) // 4]
    return {
        "pairs": pairs,
        "plain_seconds": plain_seconds,
        "heat_seconds": heat_seconds,
        "overhead_fraction": sum(trimmed) / len(trimmed) - 1.0,
        "steps_observed": steps,
        "observed": steps > 0,
    }


def run_scenario(quick: bool, seed: int, repeats: int) -> dict:
    scale = 0.004 if quick else 0.01
    store = _build_store(scale, seed)

    build_seconds, index = _best_of(store.build_index, repeats)
    queries = _query_rows(store, repeats)
    heat = _heat_overhead(store, 3 if quick else 20)

    speedup_min = {
        axis: min(row["speedup"] for row in queries.values() if row["axis"] == axis)
        for axis in ("descendant", "ancestor")
    }
    return {
        "seed": seed,
        "scale": scale,
        "limit": LIMIT,
        "repeats": repeats,
        "nodes": index.node_count,
        "records": index.record_count,
        "build_seconds": build_seconds,
        "queries": queries,
        "descendant_speedup_min": speedup_min["descendant"],
        "ancestor_speedup_min": speedup_min["ancestor"],
        "partitions_pruned_total": sum(
            row["partitions_pruned"] for row in queries.values()
        ),
        "heat": heat,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workload (CI smoke)")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"also validate the committed baseline ({BASELINE.name})",
    )
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed runs per side; best-of wins (default: 3 quick, 5 full)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the run's JSON here (default: stdout)",
    )
    args = parser.parse_args(argv)
    if args.check:
        status = check_index_baseline(BASELINE)
        if status:
            return status
    repeats = args.repeats or (3 if args.quick else 5)
    print(f"[bench-index] {'quick' if args.quick else 'full'} workload ...", file=sys.stderr)
    scenario = run_scenario(args.quick, args.seed, repeats)
    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "environment": telemetry.environment_fingerprint(),
        "scenarios": {"index": scenario},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
        print(f"[bench-index] wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(
        f"[bench-index] build={scenario['build_seconds'] * 1000:.1f}ms, "
        f"descendant speedup >= {scenario['descendant_speedup_min']:.1f}x, "
        f"ancestor speedup >= {scenario['ancestor_speedup_min']:.1f}x, "
        f"pruned={scenario['partitions_pruned_total']}, "
        f"heat overhead {scenario['heat']['overhead_fraction'] * 100:+.1f}%",
        file=sys.stderr,
    )
    problems = []
    for qid, row in scenario["queries"].items():
        if not row["identical"]:
            problems.append(
                f"{qid}: window ids diverged from navigation ({row['xpath']})"
            )
    if scenario["partitions_pruned_total"] <= 0:
        problems.append("no partitions pruned on the multi-partition scenario")
    if not scenario["heat"]["observed"]:
        problems.append("heat accounting observed no navigation steps")
    if scenario["ancestor_speedup_min"] < INDEX_DESCENDANT_FLOOR:
        problems.append(
            f"ancestor speedup {scenario['ancestor_speedup_min']:.2f}x "
            f"< {INDEX_DESCENDANT_FLOOR}x floor"
        )
    if not args.quick:
        if scenario["descendant_speedup_min"] < INDEX_DESCENDANT_FLOOR:
            problems.append(
                f"descendant speedup {scenario['descendant_speedup_min']:.2f}x "
                f"< {INDEX_DESCENDANT_FLOOR}x floor"
            )
        if scenario["heat"]["overhead_fraction"] >= 0.10:
            problems.append(
                f"heat overhead {scenario['heat']['overhead_fraction'] * 100:.1f}% "
                ">= 10% budget"
            )
    for problem in problems:
        print(f"[bench-index] FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
