"""The ``repro faults`` verb: run the fault-injection matrix from the shell.

Examples::

    repro faults                          # smoke matrix (sampled points)
    repro faults --full                   # every spill boundary and page
    repro faults --updates                # chaos crash matrix for updates
    repro faults --updates --full         # kill at every WAL boundary
    repro faults --algorithm rs -K 32     # different import configuration
    repro faults --list-points            # every named fault point
    repro faults document.xml             # your own document

Exit status is 0 only when every scenario passed, so the command slots
directly into ``make verify`` (the *faults-smoke* and *chaos-smoke*
targets).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.faults.matrix import run_fault_matrix, run_update_crash_matrix
from repro.faults.plan import FAULT_POINTS

#: "unbounded" caps for --full (every boundary / page of a smoke document)
_FULL = 1 << 20


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "document",
        nargs="?",
        default=None,
        help="XML document to import (default: generated XMark sample)",
    )
    parser.add_argument(
        "--algorithm",
        default="ekm",
        choices=("km", "rs", "ekm"),
        help="streaming import strategy (default: ekm)",
    )
    parser.add_argument(
        "-K", "--limit", type=int, default=64, help="partition weight limit"
    )
    parser.add_argument(
        "--spill-threshold",
        type=int,
        default=256,
        help="resident-weight bound that forces spills (default: 256)",
    )
    parser.add_argument(
        "--seed", type=int, default=2006, help="fault plan / document seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="XMark scale for the generated document (default: 0.004; "
        "0.002 with --updates)",
    )
    parser.add_argument(
        "--crash-points",
        type=int,
        default=6,
        help="spill boundaries to crash at (sampled evenly; default: 6)",
    )
    parser.add_argument(
        "--flip-pages",
        type=int,
        default=8,
        help="pages to bit-flip (sampled evenly; default: 8)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="exhaustive matrix: every spill boundary, every page "
        "(with --updates: every WAL record boundary)",
    )
    parser.add_argument(
        "--updates",
        action="store_true",
        help="run the chaos crash matrix for WAL-logged in-place updates "
        "instead of the bulk-load matrix",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=3,
        help="update batches (flush transactions) in the scripted "
        "workload (--updates only; default: 3)",
    )
    parser.add_argument(
        "--ops-per-batch",
        type=int,
        default=10,
        help="update operations per batch (--updates only; default: 10)",
    )
    parser.add_argument(
        "--list-points",
        action="store_true",
        help="print every named fault point and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print failures only"
    )


def run(args: argparse.Namespace) -> int:
    if args.list_points:
        for point in FAULT_POINTS:
            print(point)
        return 0

    source = None
    if args.document is not None:
        with open(args.document, encoding="utf-8") as handle:
            source = handle.read()

    # without --scale each matrix generates its own default size
    sized: dict[str, Any] = {} if args.scale is None else {"scale": args.scale}
    if args.updates:
        report = run_update_crash_matrix(
            source=source,
            algorithm=args.algorithm,
            limit=args.limit,
            spill_threshold=args.spill_threshold,
            seed=args.seed,
            batches=args.batches,
            ops_per_batch=args.ops_per_batch,
            max_crash_points=_FULL if args.full else args.crash_points,
            **sized,
        )
    else:
        report = run_fault_matrix(
            source=source,
            algorithm=args.algorithm,
            limit=args.limit,
            spill_threshold=args.spill_threshold,
            seed=args.seed,
            max_crash_points=_FULL if args.full else args.crash_points,
            max_flip_pages=_FULL if args.full else args.flip_pages,
            **sized,
        )
    if args.quiet:
        for scenario in report.failures():
            print(f"FAIL {scenario.name} ({scenario.rule}): {scenario.detail}")
        print(
            f"fault matrix: {report.passed}/{len(report.scenarios)} passed",
            file=sys.stderr if report.ok else sys.stdout,
        )
    else:
        print(report.summary())
    return 0 if report.ok else 1
