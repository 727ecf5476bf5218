"""User-facing command line: partition, import and query XML documents.

Installed as ``repro`` (see pyproject)::

    repro partition doc.xml --algorithm ekm --limit 256 [--render]
    repro import doc.xml --algorithm ekm --spill-threshold 2048
    repro query doc.xml "//keyword" --algorithm ekm
    repro compare doc.xml --limit 256
    repro stats doc.xml --algorithm ekm --query "//keyword" [--json]
    repro serve --port 8080 --max-concurrency 64
    repro recover journals/store.wal [--trim] [--json]

``repro compare`` runs every registered heuristic on the document and
prints a Table-1-style summary; ``repro stats`` runs a full
partition/import/store/query pipeline under an enabled telemetry
registry and dumps every metric it collected;
``repro-bench`` (the separate entry point) regenerates the paper's
experiments on the synthetic corpus.

All wall-clock timing goes through :mod:`repro.telemetry` spans — manual
``time.perf_counter()`` arithmetic is flagged by ``repro-lint`` (OBS001).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import telemetry
from repro.bulkload import BulkLoader
from repro.errors import ReproError
from repro.partition import available_algorithms, evaluate_partitioning, get_algorithm
from repro.partition.analysis import analyze_partitioning
from repro.partition.render import render_partitioning
from repro.partition.shapecache import default_cache
from repro.query import run_query
from repro.storage import DocumentStore
from repro.xmlio import parse_tree


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("document", help="path to an XML file")
    parser.add_argument("--algorithm", default="ekm", help="partitioning algorithm (default: ekm)")
    parser.add_argument("--limit", type=int, default=256, help="weight limit K in slots (default: 256)")


def cmd_partition(args: argparse.Namespace) -> int:
    tree = parse_tree(args.document)
    with telemetry.span("cli.partition", algorithm=args.algorithm) as sp:
        partitioning = get_algorithm(args.algorithm).partition(tree, args.limit)
    elapsed = sp.elapsed
    report = evaluate_partitioning(tree, partitioning, args.limit)
    analysis = analyze_partitioning(tree, partitioning, args.limit)
    print(f"document: {args.document} ({len(tree)} nodes, weight {report.total_weight})")
    print(
        f"{args.algorithm}: {report.cardinality} partitions in {elapsed:.3f}s "
        f"(lower bound {report.lower_bound}, fill {report.fill_factor * 100:.0f}%)"
    )
    print(
        f"root weight {report.root_weight}, max partition {report.max_partition_weight}, "
        f"navigation crossings {analysis.navigation_crossings}"
    )
    if args.render:
        print()
        print(render_partitioning(tree, partitioning, args.limit, max_nodes=args.render_nodes))
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    loader = BulkLoader(
        algorithm=args.algorithm,
        limit=args.limit,
        spill_threshold=args.spill_threshold,
    )
    with telemetry.span("cli.import", algorithm=args.algorithm) as sp:
        result = loader.load(args.document)
    elapsed = sp.elapsed
    store = DocumentStore.build(result.tree, result.partitioning)
    space = store.space_report()
    print(
        f"imported {len(result.tree)} nodes in {elapsed:.3f}s using "
        f"{args.algorithm} (K={args.limit})"
    )
    print(
        f"partitions: {result.partitioning.cardinality}; peak resident "
        f"{result.peak_resident_weight} slots "
        f"({result.peak_resident_fraction * 100:.1f}% of document), "
        f"{result.spills} spills"
    )
    print(
        f"storage: {space.records} records on {space.pages} pages, "
        f"{space.kib:.0f} KiB ({space.utilization * 100:.0f}% utilized)"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    tree = parse_tree(args.document)
    partitioning = get_algorithm(args.algorithm).partition(tree, args.limit)
    store = DocumentStore.build(tree, partitioning)
    store.warm_up()
    run = run_query(store, args.xpath)
    print(f"{run.result_count} results")
    print(
        f"navigation: {run.intra_steps} intra-record + {run.cross_steps} "
        f"cross-record steps ({run.cross_ratio * 100:.1f}% crossings), "
        f"cost {run.cost:.0f} units"
    )
    if args.show:
        from repro.query import evaluate
        from repro.query.engine import string_value

        for node in evaluate(store, args.xpath)[: args.show]:
            value = string_value(node)
            print(f"  <{node.label}> {value[:60]!r}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    tree = parse_tree(args.document)
    skip = {"brute", "fdw", "fallback"}  # fallback re-runs chain members
    if not args.with_dhw:
        skip.add("dhw")
    print(f"document: {args.document} ({len(tree)} nodes), K={args.limit}")
    print(f"{'algorithm':10s} {'partitions':>10s} {'crossings':>10s} {'seconds':>9s}")
    for name in available_algorithms():
        if name in skip:
            continue
        with telemetry.span("cli.compare", algorithm=name) as sp:
            partitioning = get_algorithm(name).partition(tree, args.limit)
        analysis = analyze_partitioning(tree, partitioning, args.limit)
        print(
            f"{name:10s} {partitioning.cardinality:10d} "
            f"{analysis.navigation_crossings:10d} {sp.elapsed:9.3f}"
        )
    return 0


def _index_comparison(store: DocumentStore, query: str) -> dict:
    """Time window evaluation against pure navigation for one query.

    Runs the query twice — once with no structural index (the engine
    navigates record by record) and once after ``build_index`` (window
    evaluation with partition pruning) — and checks the node-id lists
    match bit for bit.
    """
    from repro.query import run_query_nodes

    store.structural_index = None
    with telemetry.span("stats.index.navigation") as sp_nav:
        nav, nav_nodes = run_query_nodes(store, query)
    nav_ids = [node.node_id for node in nav_nodes]
    index = store.build_index()
    with telemetry.span("stats.index.window") as sp_win:
        win, win_nodes = run_query_nodes(store, query)
    win_ids = [node.node_id for node in win_nodes]
    return {
        "query": query,
        "navigation_seconds": sp_nav.elapsed,
        "window_seconds": sp_win.elapsed,
        "speedup": sp_nav.elapsed / sp_win.elapsed if sp_win.elapsed else 0.0,
        "identical": nav_ids == win_ids,
        "results": win.result_count,
        "window_steps": win.window_steps,
        "partitions_pruned": win.partitions_pruned,
        "navigation_cost": nav.cost,
        "window_cost": win.cost,
        "index": index.describe(),
    }


def _format_index(comparison: dict) -> str:
    desc = comparison["index"]
    lines = [
        "index ({query}): navigation {navigation_seconds:.3f}s, "
        "window {window_seconds:.3f}s ({speedup:.1f}x), identical "
        "output: {identical}".format(**comparison),
        "index: {results} results via {window_steps} window step(s), "
        "{partitions_pruned} partition(s) pruned; cost "
        "{window_cost:.0f} vs {navigation_cost:.0f} units".format(**comparison),
        f"index: {desc['nodes']} nodes, {desc['records']} records, "
        f"{desc['labels']} labels, valid={desc['valid']}",
    ]
    return "\n".join(lines)


def _format_memo_cache(stats: dict) -> str:
    return (
        f"memo cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['hit_ratio'] * 100:.1f}% hit ratio), "
        f"{stats['evictions']} evictions, {stats['entries']} entries "
        f"({stats['shapes']} distinct shapes)"
    )


def cmd_stats(args: argparse.Namespace) -> int:
    """Run the whole pipeline under a fresh telemetry registry and dump
    everything that was measured."""
    tracing = args.traces or args.slow is not None or args.heat
    tracer = None
    heat = None
    trace_token = None
    with telemetry.capture() as reg:
        if tracing:
            # one request-style trace for the whole CLI pipeline: the
            # engine spans below join it exactly like service requests do
            tracer = telemetry.Tracer(slow_threshold=args.slow)
            reg.add_sink(tracer)
            ctx = tracer.begin("cli-stats", path="cli.stats")
            trace_token = telemetry.set_trace(ctx)
        if args.heat:
            heat = telemetry.HeatAccumulator()
        start = telemetry.clock()
        tree = parse_tree(args.document)
        partitioning = get_algorithm(args.algorithm).partition(tree, args.limit)
        store = DocumentStore.build(tree, partitioning)
        store.warm_up()
        if heat is not None:
            heat.attach(args.document, store)
        if args.query:
            run_query(store, args.query)
        if args.with_import:
            from repro.xmlio.serialize import tree_to_xml

            loader = BulkLoader(algorithm=args.algorithm, limit=args.limit)
            loader.load(tree_to_xml(tree))
        elapsed = telemetry.clock() - start
        if tracer is not None:
            root = telemetry.SpanRecord(
                name="cli.stats",
                path="cli.stats",
                seconds=elapsed,
                depth=0,
                start=start,
                attrs={"document": args.document},
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
            )
            reg.record_span(root)
            tracer.finish(ctx, root, query=args.query, doc=args.document)
            telemetry.reset_trace(trace_token)
        heat_profile = heat.profile() if heat is not None else None
        # this process's DP shape cache; untouched unless a DP partitioner ran
        memo_cache = default_cache().stats()
        if not memo_cache["hits"] + memo_cache["misses"]:
            memo_cache = None
        index_report = None
        if args.index:
            if not args.query:
                raise ReproError(
                    "--index times a query two ways; add --query '//label'"
                )
            index_report = _index_comparison(store, args.query)
        if args.jsonl:
            telemetry.export_jsonl(sys.stdout, reg)
        elif args.prom:
            sys.stdout.write(telemetry.prometheus_text(reg))
        elif args.json:
            payload = telemetry.snapshot(reg)
            payload["environment"] = telemetry.environment_fingerprint()
            if memo_cache is not None:
                payload["memo_cache"] = memo_cache
            if index_report is not None:
                payload["index"] = index_report
            if tracer is not None and args.traces:
                payload["traces"] = [t.as_dict() for t in tracer.traces()]
            if tracer is not None and args.slow is not None:
                payload["slow"] = [e.as_dict() for e in tracer.slow()]
            if heat_profile is not None:
                payload["heat"] = heat_profile.as_dict(include_edges=True)
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            print(telemetry.format_metrics(reg))
            if memo_cache is not None:
                print(_format_memo_cache(memo_cache))
            if index_report is not None:
                print()
                print(_format_index(index_report))
            if args.profile:
                from repro.obsv import build_profile, format_profile

                print()
                print("profile (self-time per phase):")
                print(format_profile(build_profile(reg.trace)))
            if tracer is not None and args.traces:
                print()
                print("traces:")
                for trace in tracer.traces():
                    print(telemetry.format_trace(trace))
            if tracer is not None and args.slow is not None:
                print()
                print(f"slow requests (>= {args.slow:g}s):")
                entries = tracer.slow()
                if not entries:
                    print("  none")
                for entry in entries:
                    print(
                        f"  {entry.trace_id}  {entry.seconds * 1000:.3f} ms  "
                        f"doc={entry.doc}  query={entry.query}"
                    )
            if heat_profile is not None:
                print()
                print("access heat (hottest partitions):")
                hottest = heat_profile.hottest()
                if not hottest:
                    print("  none (run a --query to generate traffic)")
                for doc, pid, touches in hottest:
                    print(f"  {doc}  partition {pid}  touches={touches}")
                for doc, doc_heat in sorted(heat_profile.docs.items()):
                    print(
                        f"  {doc}: {doc_heat.steps} steps, "
                        f"{doc_heat.cross_steps} cross, "
                        f"{doc_heat.faults} faults, "
                        f"{len(doc_heat.edges)} hot edges "
                        f"(feed repro.partition.workload.heat_aware_lukes)"
                    )
        if args.chrome_trace:
            from repro.obsv import export_chrome_trace

            with open(args.chrome_trace, "w", encoding="utf-8") as fh:
                events = export_chrome_trace(fh, reg)
            print(
                f"wrote {events} trace events to {args.chrome_trace}", file=sys.stderr
            )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Inspect (and optionally repair) a write-ahead log file.

    Pages live in process memory in this reproduction, so cold recovery
    proper happens where the pages are (:func:`repro.recovery.
    recover_store`); what an operator holds after a crash is the log
    file, and this verb answers the operational questions about it: is
    it readable, what would replay, is there crash residue (a torn tail
    or an uncommitted transaction), and — with ``--trim`` — truncates a
    torn tail in place. Interior corruption (a lying log) exits 1;
    untreated crash residue exits 2; a clean log exits 0.
    """
    from repro.recovery import read_wal, trim_torn_tail

    trimmed = 0
    if args.trim:
        trimmed = trim_torn_tail(args.wal)
    state = read_wal(args.wal)
    residue = state.torn_bytes > 0 or state.open_txn is not None
    if args.json:
        payload = {
            "wal": args.wal,
            "frames": state.frames,
            "committed_transactions": [
                {
                    "txn_id": txn.txn_id,
                    "dirty_records": txn.dirty,
                    "images": len(txn.images),
                }
                for txn in state.committed
            ],
            "open_transaction": (
                None if state.open_txn is None else state.open_txn.txn_id
            ),
            "torn_bytes": state.torn_bytes,
            "valid_bytes": state.valid_bytes,
            "trimmed_bytes": trimmed,
            "labels": None if state.labels is None else len(state.labels),
            "record_limit": state.record_limit,
            "next_txn": state.next_txn,
            "clean": not residue,
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"log: {args.wal} ({state.valid_bytes} valid bytes, "
            f"{state.frames} frame(s))"
        )
        for txn in state.committed:
            print(
                f"  committed txn {txn.txn_id}: {len(txn.images)} image(s), "
                f"dirty records {txn.dirty}"
            )
        if state.open_txn is not None:
            print(
                f"  open txn {state.open_txn.txn_id}: "
                f"{len(state.open_txn.images)} image(s) — uncommitted, "
                "discarded on recovery"
            )
        if trimmed:
            print(f"  trimmed {trimmed}B torn tail")
        elif state.torn_bytes:
            print(
                f"  torn tail: {state.torn_bytes}B after the last valid "
                "frame (--trim to repair)"
            )
        if state.labels is None:
            print("  snapshot: none — the log was never attached to a store")
        else:
            print(
                f"  snapshot: {len(state.labels)} label(s), "
                f"K={state.record_limit}; next txn {state.next_txn}"
            )
        print("  clean" if not residue else "  crash residue present")
    return 2 if residue else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the document-store HTTP service until interrupted."""
    from repro.service.app import ServiceConfig, run as run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        request_timeout=args.timeout,
        workers=args.workers,
        journal_dir=args.journal_dir,
        default_algorithm=args.algorithm,
        default_limit=args.limit,
        tracing=not args.no_tracing,
        trace_sample_rate=args.trace_sample_rate,
        trace_buffer=args.trace_buffer,
        slow_query_seconds=args.slow_query,
        heat=not args.no_heat,
        index=not args.no_index,
        query_cache=args.query_cache,
    )
    return run_service(config)


def _add_stats_arguments(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument(
        "--query", default=None, help="also run this XPath query against the store"
    )
    parser.add_argument(
        "--with-import",
        action="store_true",
        help="also stream-import the document (bulkload metrics)",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print a JSON snapshot")
    fmt.add_argument(
        "--jsonl", action="store_true", help="print a JSON-lines metric export"
    )
    fmt.add_argument(
        "--prom",
        action="store_true",
        help="print the Prometheus text exposition (same format as the "
        "service's GET /metrics)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append a per-phase self-time profile of the span tree (text mode)",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="also write the span trace as Chrome trace JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--traces",
        action="store_true",
        help="trace the pipeline as one request-correlated span tree "
        "and print it (same machinery as the service's /debug/traces)",
    )
    parser.add_argument(
        "--slow",
        type=float,
        metavar="SECONDS",
        default=None,
        help="enable the slow-query log with this threshold and print "
        "any entries (same machinery as /debug/slow)",
    )
    parser.add_argument(
        "--heat",
        action="store_true",
        help="collect per-partition access heat for the run and print "
        "the hottest partitions (same machinery as /debug/heat; the "
        "edge counts feed repro.partition.workload.heat_aware_lukes)",
    )
    parser.add_argument(
        "--index",
        action="store_true",
        help="build the structural index and time the --query through "
        "window evaluation vs pure navigation, reporting pruning "
        "counters (docs/PERFORMANCE.md)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tree sibling partitioning toolkit (Kanne & Moerkotte, VLDB 2006)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a document and report statistics")
    _add_common(p)
    p.add_argument("--render", action="store_true", help="print the partitioned tree")
    p.add_argument("--render-nodes", type=int, default=60, help="render at most N nodes")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("import", help="stream-import a document (bulkload)")
    _add_common(p)
    p.add_argument(
        "--spill-threshold",
        type=int,
        default=None,
        help="bound resident memory (slots); enables Sec. 4.3 spilling",
    )
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("query", help="run an XPath query against a partitioned store")
    _add_common(p)
    p.add_argument("xpath", help="XPath expression (supported subset)")
    p.add_argument("--show", type=int, default=0, help="print the first N results")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="run all heuristics on a document")
    _add_common(p)
    p.add_argument("--with-dhw", action="store_true", help="include the slow optimal algorithm")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "stats", help="run the pipeline with telemetry on and dump every metric"
    )
    _add_stats_arguments(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve", help="run the document-store HTTP service (docs/SERVICE.md)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080, help="bind port; 0 = ephemeral (default: 8080)")
    p.add_argument(
        "--max-concurrency",
        type=int,
        default=64,
        help="requests admitted at once (default: 64)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request admission + execution timeout in seconds (default: 30)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="executor threads for blocking engine work (default: stdlib sizing)",
    )
    p.add_argument(
        "--journal-dir",
        default=None,
        help="directory for crash-safe ingest journals (default: private temp dir)",
    )
    p.add_argument("--algorithm", default="ekm", help="default partitioning algorithm (default: ekm)")
    p.add_argument("--limit", type=int, default=256, help="default weight limit K (default: 256)")
    p.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing (/debug/traces, /debug/slow)",
    )
    p.add_argument(
        "--trace-sample-rate",
        type=int,
        default=1,
        metavar="N",
        help="keep 1-in-N traces, deterministic seeded head sampling "
        "(default: 1 = every request; 0 = none)",
    )
    p.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        metavar="N",
        help="completed traces retained for /debug/traces (default: 256)",
    )
    p.add_argument(
        "--slow-query",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="slow-query log threshold for /debug/slow (default: 1.0)",
    )
    p.add_argument(
        "--no-heat",
        action="store_true",
        help="disable per-partition access-heat accounting (/debug/heat)",
    )
    p.add_argument(
        "--no-index",
        action="store_true",
        help="skip building per-document structural indexes at ingest "
        "(queries fall back to pure navigation)",
    )
    p.add_argument(
        "--query-cache",
        type=int,
        default=0,
        metavar="N",
        help="cache up to N (document, xpath) query payloads, "
        "invalidated on ingest/delete (default: 0 = off)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "recover",
        help="inspect or repair a write-ahead log (docs/ROBUSTNESS.md)",
    )
    p.add_argument("wal", help="path to a .wal file")
    p.add_argument(
        "--trim",
        action="store_true",
        help="truncate a torn tail in place (no-op on a clean log)",
    )
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_recover)

    args = parser.parse_args(argv)
    # `query` puts xpath after document; reorder handled by argparse
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
