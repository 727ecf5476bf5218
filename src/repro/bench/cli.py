"""The ``repro bench`` verb: regenerate the paper's tables and the ablations.

::

    repro bench table1 [--scale 1.0] [--limit 256] [--skip-dhw]
    repro bench table2 [--scale 1.0] [--limit 256] [--skip-dhw]
    repro bench table3 [--xmark-scale 0.02] [--limit 256]
    repro bench figures
    repro bench ablations [--scale 0.5]
    repro bench all

DHW is the optimal but slowest algorithm (the whole point of Table 2);
``--skip-dhw`` keeps quick runs quick.
"""

from __future__ import annotations

import argparse

from repro.bench.ablations import (
    format_gap,
    format_k_sweep,
    format_memoization,
    format_spill,
    run_gap_ablation,
    run_k_sweep,
    run_memoization_ablation,
    run_spill_ablation,
)
from repro.bench.experiments import (
    TABLE_ALGORITHMS,
    format_table1,
    format_table2,
    run_partitioning_experiment,
)
from repro.bench.figures import format_figures
from repro.bench.table3 import format_table3, run_extended_queries, run_query_experiment


def _algorithms(skip_dhw: bool) -> tuple[str, ...]:
    if skip_dhw:
        return tuple(a for a in TABLE_ALGORITHMS if a != "dhw")
    return TABLE_ALGORITHMS


def _run_tables(args: argparse.Namespace, which: str) -> str:
    rows = run_partitioning_experiment(
        algorithms=_algorithms(args.skip_dhw),
        limit=args.limit,
        scale=args.scale,
    )
    if which == "table1":
        return format_table1(rows)
    if which == "table2":
        return format_table2(rows)
    return format_table1(rows) + "\n\n" + format_table2(rows)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", choices=["table1", "table2", "table3", "figures", "ablations", "all"])
    parser.add_argument("--scale", type=float, default=1.0, help="corpus scale factor (1.0 = defaults, ~1/10 of the paper's documents)")
    parser.add_argument("--limit", type=int, default=256, help="weight limit K in slots (paper: 256)")
    parser.add_argument("--xmark-scale", type=float, default=0.02, help="XMark scale for table3 (paper: 0.1)")
    parser.add_argument("--skip-dhw", action="store_true", help="skip the slow optimal algorithm")
    parser.add_argument("--extended", action="store_true", help="also run the extended (post-Table-3) query set")


def run(args: argparse.Namespace) -> int:
    out: list[str] = []
    if args.experiment in ("table1", "table2"):
        out.append(_run_tables(args, args.experiment))
    if args.experiment in ("table3", "all"):
        result = run_query_experiment(scale=args.xmark_scale, limit=args.limit)
        out.append(format_table3(result))
        if args.extended:
            out.append(run_extended_queries(scale=args.xmark_scale, limit=args.limit))
    if args.experiment in ("figures", "all"):
        out.append(format_figures())
    if args.experiment in ("ablations", "all"):
        sweep_doc = "mondial"
        out.append(format_k_sweep(run_k_sweep(document=sweep_doc, scale=args.scale), sweep_doc))
        out.append(
            format_memoization(
                run_memoization_ablation(scale=min(args.scale, 0.5), include_dhw=not args.skip_dhw),
                limit=args.limit,
            )
        )
        if not args.skip_dhw:
            out.append(format_gap(run_gap_ablation(scale=min(args.scale, 0.5), limit=args.limit)))
        out.append(format_spill(run_spill_ablation(scale=args.scale, limit=args.limit), "xmark", "ekm"))
    if args.experiment == "all":
        out.insert(0, _run_tables(args, "both"))
    print("\n\n".join(out))
    return 0
