#!/usr/bin/env python
"""Recovery scenario: WAL overhead, redo timing, and the crash-matrix gate.

Runs the same deterministic update workload twice — once on a bare
store, once with a write-ahead log attached — and reports the logging
overhead as a fraction of the bare run (best-of-``--repeats`` on both
sides, so scheduler noise cancels instead of accumulating). The two
runs must also end byte-identical (``identical_bytes``): attaching the
log may cost time but must never change what lands on the pages.

Then it measures what the log buys: the last batch is killed right
after its group commit (``updates.flush`` fault, no page touched), and
cold recovery (:func:`repro.recovery.recover_store`) must rebuild the
post-flush store from page images + log alone (``recovered_identical``)
— timed as ``recovery.seconds``. Finally the chaos crash-matrix runs a
smoke slice and every cell must pass.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--quick] [--check]
        [--seed N] [--repeats N] [--output BENCH.json]

``--check`` first validates the committed ``BENCH_PR8.json`` with the
same gate :mod:`benchmarks.compare` applies. The overhead budget
(``compare.WAL_OVERHEAD_BUDGET``, < 10%) is enforced on full-run
baselines; quick runs flush batches too small for the per-commit fsync
floor to amortize, so — like the service request floor — the budget
does not gate them.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter  # the harness itself may read the clock

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import telemetry  # noqa: E402
from repro.bulkload import BulkLoader  # noqa: E402
from repro.datasets import xmark_document  # noqa: E402
from repro.errors import InjectedFaultError  # noqa: E402
from repro.faults import FaultPlan, FaultRule, active  # noqa: E402
from repro.faults.matrix import (  # noqa: E402
    _apply_batch,
    _surviving_pages,
    _update_script,
    run_update_crash_matrix,
    store_fingerprint,
)
from repro.recovery import WriteAheadLog, recover_store  # noqa: E402
from repro.storage import DocumentStore, StorageConfig  # noqa: E402
from repro.xmlio.serialize import tree_to_xml  # noqa: E402

SCHEMA = "repro-bench/1"
BASELINE = REPO_ROOT / "BENCH_PR8.json"
LIMIT = 64


def _fresh_store(base, config: StorageConfig) -> DocumentStore:
    return DocumentStore.build(copy.deepcopy(base.tree), base.partitioning, config)


def _timed_run(base, config, script, wal_path=None):
    """Apply the whole script batch-by-batch; returns (store, seconds).

    Only the updates are timed — store construction and log attachment
    happen before the clock starts, mirroring a warmed-up server.
    """
    store = _fresh_store(base, config)
    wal = None
    if wal_path is not None:
        wal = WriteAheadLog(wal_path).open()
        store.attach_wal(wal)
    start = perf_counter()
    for ops in script:
        _apply_batch(store, ops)
    seconds = perf_counter() - start
    if wal is not None:
        wal.close()
    return store, seconds


def _crash_and_recover(base, config, script, wal_path, final_fingerprint):
    """Kill the last batch after its commit; time the cold recovery."""
    store = _fresh_store(base, config)
    wal = WriteAheadLog(wal_path).open()
    store.attach_wal(wal)
    for ops in script[:-1]:
        _apply_batch(store, ops)
    rule = FaultRule("updates.flush", "raise", hit=1)
    with active(FaultPlan([rule], seed=0)):
        try:
            _apply_batch(store, script[-1])
            raise RuntimeError("crash fault never fired")
        except InjectedFaultError:
            pass
    wal.close()

    pages = _surviving_pages(store)
    start = perf_counter()
    recovered, report = recover_store(pages, wal_path, config)
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "records_redone": report.records_redone,
        "replayed_transactions": report.replayed_transactions,
        "recovered_identical": store_fingerprint(recovered) == final_fingerprint,
    }


def run_scenario(quick: bool, seed: int, repeats: int) -> dict:
    scale = 0.004 if quick else 0.01
    batches = 3 if quick else 5
    ops_per_batch = 60 if quick else 120
    source = tree_to_xml(xmark_document(scale=scale, seed=seed))
    base = BulkLoader("ekm", LIMIT).load(source)
    config = StorageConfig(record_limit=LIMIT)
    script = _update_script(base.tree, seed, batches, ops_per_batch)

    with tempfile.TemporaryDirectory(prefix="repro-bench-recovery-") as tmp:
        plain_runs: list[float] = []
        wal_runs: list[float] = []
        plain_store = wal_store = None
        for repeat in range(repeats):
            plain_store, plain_seconds = _timed_run(base, config, script)
            plain_runs.append(plain_seconds)
            wal_store, wal_seconds = _timed_run(
                base, config, script, os.path.join(tmp, f"run-{repeat}.wal")
            )
            wal_runs.append(wal_seconds)
        plain_best = min(plain_runs)
        wal_best = min(wal_runs)
        final_fingerprint = store_fingerprint(plain_store)

        recovery = _crash_and_recover(
            base, config, script, os.path.join(tmp, "crash.wal"), final_fingerprint
        )

    matrix = run_update_crash_matrix(
        limit=LIMIT,
        seed=seed,
        batches=2,
        ops_per_batch=8,
        max_crash_points=2 if quick else 4,
        scale=0.002,
    )

    return {
        "seed": seed,
        "scale": scale,
        "limit": LIMIT,
        "batches": batches,
        "ops_per_batch": ops_per_batch,
        "repeats": repeats,
        "nodes": len(base.tree),
        "plain_seconds": plain_best,
        "wal_seconds": wal_best,
        "overhead_fraction": (
            (wal_best - plain_best) / plain_best if plain_best else 0.0
        ),
        "identical_bytes": store_fingerprint(wal_store) == final_fingerprint,
        "recovery": recovery,
        "crash_matrix": {
            "scenarios": len(matrix.scenarios),
            "passed": matrix.passed,
            "ok": matrix.ok,
            "failures": [s.name for s in matrix.failures()],
        },
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
        bench_dir = str(REPO_ROOT / "benchmarks")
        if bench_dir not in sys.path:
            sys.path.insert(0, bench_dir)
        from compare import check_recovery_baseline

        status = check_recovery_baseline(BASELINE)
        if status:
            return status
    repeats = args.repeats or (3 if args.quick else 5)
    print(f"[bench-recovery] {'quick' if args.quick else 'full'} workload ...", file=sys.stderr)
    scenario = run_scenario(args.quick, args.seed, repeats)
    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "environment": telemetry.environment_fingerprint(),
        "scenarios": {"recovery": scenario},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
        print(f"[bench-recovery] wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(
        f"[bench-recovery] plain={scenario['plain_seconds']:.3f}s "
        f"wal={scenario['wal_seconds']:.3f}s "
        f"(overhead {scenario['overhead_fraction'] * 100:+.1f}%), "
        f"recovery={scenario['recovery']['seconds'] * 1000:.1f}ms "
        f"({scenario['recovery']['records_redone']} record(s) redone), "
        f"matrix {scenario['crash_matrix']['passed']}/"
        f"{scenario['crash_matrix']['scenarios']}",
        file=sys.stderr,
    )
    problems = []
    if not scenario["identical_bytes"]:
        problems.append("WAL run diverged from the bare run (identical_bytes)")
    if not scenario["recovery"]["recovered_identical"]:
        problems.append("recovery did not rebuild the post-flush bytes")
    if not scenario["crash_matrix"]["ok"]:
        problems.append(
            f"crash-matrix failures: {scenario['crash_matrix']['failures']}"
        )
    if not args.quick and scenario["overhead_fraction"] >= 0.10:
        problems.append(
            f"WAL overhead {scenario['overhead_fraction'] * 100:.1f}% >= 10% budget"
        )
    for problem in problems:
        print(f"[bench-recovery] FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
