"""The three library workloads: partitioners, document path, updates.

Each measures its layers from outside, through the public functions a
user of the library calls. Sizes (``FULL``) were chosen on the 2-core
reference box so that one round costs about a second; ``SMOKE`` is the
``--smoke`` variant.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import NamedTuple

from repro import telemetry
from repro.bulkload import BulkLoader
from repro.errors import InjectedFaultError, StorageError
from repro.faults import FaultPlan, FaultRule, active
from repro.partition import (
    DHWPartitioner,
    GHDWPartitioner,
    partition_tree,
    validate_partitioning,
)
from repro.query import parse_xpath, run_query
from repro.recovery import WriteAheadLog, recover_store
from repro.storage import DocumentStore, Page, StorageConfig, StoreUpdater

import oracle
from inputs import (
    ALL_QUERIES,
    EXTENDED,
    K,
    PAPER_QUERIES,
    derive,
    document,
    drain_events,
    script_bytes,
    shuffled,
    update_script,
    xml_bytes,
)
from spans import check_read_mix, direct, median_ms, seconds_per_round
from workload import Workload, ingest


def query_totals(runs) -> dict[str, float]:
    """Engine-side counts of a list of ``QueryRun``."""
    intra = sum(run.intra_steps for run in runs)
    cross = sum(run.cross_steps for run in runs)
    return {
        "query.intra_steps": intra,
        "query.cross_steps": cross,
        "query.cross_ratio": cross / (intra + cross) if intra + cross else 0.0,
        "query.results": sum(run.result_count for run in runs),
        "storage.page_faults": sum(run.page_faults for run in runs),
        "index.window_steps": sum(run.window_steps for run in runs),
        "index.partitions_pruned": sum(run.partitions_pruned for run in runs),
    }


def space_metrics(store: DocumentStore) -> dict[str, float]:
    report = store.space_report()
    return {
        "storage.pages": report.pages,
        "storage.records": report.records,
        "storage.page_utilization": report.utilization,
        "storage.buffer_pages": store.config.buffer_pages,
    }


class LibPartition(Workload):
    """Tables 1-3 of the paper through the library alone."""

    name = "lib_partition"
    ALGORITHMS = ("dhw", "ghdw", "ekm", "km")
    LAYOUTS = ("ghdw", "ekm", "km")
    # mondial is absent: its generator's fixed 200-child root section makes
    # reference DHW cost >= 1.2 s at its smallest size, more than a whole
    # round; lib_document ingests it instead
    # (generator, its size parameter, intended nodes, candidates drawn)
    FULL = {
        "write_docs": (
            ("sigmod", 1, 950, 8),
            ("partsupp", 40, 441, 1),
            ("uwm", 50, 2170, 4),
            ("orders", 40, 761, 1),
            ("xmark", 0.0012, 3060, 4),
        ),
        "read_doc": ("xmark", 0.003, 7970, 4),
    }
    SMOKE = {
        "write_docs": (
            ("sigmod", 1, 600, 4),
            ("partsupp", 10, 0, 1),
            ("uwm", 10, 0, 1),
            ("orders", 10, 0, 1),
            ("xmark", 0.0003, 0, 1),
        ),
        "read_doc": ("xmark", 0.0008, 0, 1),
    }

    def generate(self, rounds):
        self.docs = {
            r: [
                (name, document(name, size, derive(self.seed, "partition", r, name), *sized))
                for name, size, *sized in self.size["write_docs"]
            ]
            for r in rounds
        }
        name, size, *sized = self.size["read_doc"]
        self.read_tree = document(name, size, derive(self.seed, "partition-read"), *sized)
        self.read_xml_bytes = len(xml_bytes(self.read_tree))
        self.schedule = shuffled(
            [(layout, qid) for layout in self.LAYOUTS for qid in PAPER_QUERIES],
            derive(self.seed, "partition-schedule"),
        )
        check_read_mix(self.schedule)
        # independent answers: a default-config, indexed store of the read document
        reference = DocumentStore.build(
            self.read_tree, partition_tree(self.read_tree, K, "ekm")
        )
        reference.build_index()
        self.expected = {
            qid: run_query(reference, xpath).result_count
            for qid, xpath in PAPER_QUERIES.items()
        }
        self.traced_runs = []
        self.traced_partitions = dict.fromkeys(self.ALGORITHMS, 0)
        self.traced_weight = 0

    def set_up(self):
        layouts = {a: partition_tree(self.read_tree, K, a) for a in self.LAYOUTS}
        ekm_pages = DocumentStore.build(self.read_tree, layouts["ekm"]).space_report().pages
        # the workload larger than the program's own cache: an eighth of the
        # document's pages fit, so cross-record steps fault and re-verify CRCs
        self.config = StorageConfig(buffer_pages=max(1, ekm_pages // 8))
        self.stores = {}
        for layout, partitioning in layouts.items():
            store = DocumentStore.build(self.read_tree, partitioning, self.config)
            store.warm_up()
            self.stores[layout] = store

    def description(self):
        return {
            **self.size,
            "read_document_nodes": len(self.read_tree),
            "buffer_pages": self.config.buffer_pages,
            "read_document_pages": {
                layout: store.space_report().pages for layout, store in self.stores.items()
            },
            "clients": "one thread, library calls",
        }

    def run_round(self, index):
        rec = self.rec
        layouts = []
        for name, tree in self.docs[index]:
            parts = {}
            with rec.write(len(tree)):
                for algorithm in self.ALGORITHMS:
                    parts[algorithm] = rec.call(
                        f"partition.{algorithm}", partition_tree, tree, K, algorithm
                    )
                    rec.call(
                        "partition.validate", validate_partitioning, tree, parts[algorithm]
                    )
            layouts.append((name, tree, parts))
        runs = []
        with rec.read_phase():
            for layout, qid in self.schedule:
                with rec.read():
                    run = rec.call(
                        f"query.nav.{layout}.{qid}",
                        run_query,
                        self.stores[layout],
                        PAPER_QUERIES[qid],
                    )
                runs.append((layout, qid, run))
        return layouts, runs

    def verify(self, index, outcome):
        layouts, runs = outcome
        for name, tree, parts in layouts:
            oracle.partitionings(self.rec.fail, f"round {index} {name}", tree, parts)
            self.partitions_total += sum(p.cardinality for p in parts.values())
        for layout, qid, run in runs:
            if run.result_count != self.expected[qid]:
                self.rec.fail(
                    f"round {index} {qid} on {layout} layout: {run.result_count} "
                    f"results, independent store {self.expected[qid]}"
                )
        if index == 1:  # the read stores never change; check and count them once
            for layout, store in self.stores.items():
                oracle.store_integrity(self.rec.fail, f"{layout} read store", store)
                self.stored_bytes += store.space_report().page_bytes
                self.user_bytes += self.read_xml_bytes

    # -- traced run -----------------------------------------------------------

    def probe_round(self, index, outcome):
        rec = self.rec
        layouts, runs = outcome
        self.traced_runs += [run for _, _, run in runs]
        for name, tree, parts in layouts:
            for algorithm, partitioning in parts.items():
                self.traced_partitions[algorithm] += partitioning.cardinality
            self.traced_weight += tree.total_weight()
            fast_dhw = rec.call("fastpath.dhw", DHWPartitioner(fastpath=True).partition, tree, K)
            fast_ghdw = rec.call(
                "fastpath.ghdw", GHDWPartitioner(fastpath=True).partition, tree, K
            )
            if fast_dhw != parts["dhw"] or fast_ghdw != parts["ghdw"]:
                rec.fail(f"round {index} {name}: fastpath kernel != reference partitioning")
        for _, qid in self.schedule:
            rec.call("query.parse", parse_xpath, PAPER_QUERIES[qid])

    def layer_metrics(self):
        spans = self.rec.spans
        out = {}
        for algorithm in self.ALGORITHMS:
            out[f"partition.{algorithm}_s"] = seconds_per_round(spans, f"partition.{algorithm}")
            out[f"partition.{algorithm}_partitions"] = self.traced_partitions[algorithm]
        out["partition.validate_s"] = seconds_per_round(spans, "partition.validate")
        out["partition.dhw_dp_cells"] = self.counters.get("partition.dhw.dp_cells", 0)
        out["partition.ekm_fill_ratio"] = self.traced_weight / (
            self.traced_partitions["ekm"] * K
        )
        out["fastpath.dhw_s"] = seconds_per_round(spans, "fastpath.dhw")
        out["fastpath.ghdw_s"] = seconds_per_round(spans, "fastpath.ghdw")
        # the default path must not touch the memo cache: the counted
        # warm-up round reports what the *timed* path hit and missed
        out["fastpath.cache_hits"] = self.counters.get("fastpath.cache.hit", 0)
        out["fastpath.cache_misses"] = self.counters.get("fastpath.cache.miss", 0)
        out.update(space_metrics(self.stores["ekm"]))
        hits = sum(store.buffer.stats.hits for store in self.stores.values())
        misses = sum(store.buffer.stats.misses for store in self.stores.values())
        out["storage.buffer_hit_ratio"] = hits / (hits + misses)
        out.update(query_totals(self.traced_runs))
        out["query.parse_s"] = seconds_per_round(spans, "query.parse")
        for qid in PAPER_QUERIES:
            out[f"query.nav_{qid}_ms"] = median_ms(spans, f"query.nav.ekm.{qid}")
        return out


class Ingested(NamedTuple):
    """One write op of ``lib_document``: what went in, what came out."""

    name: str
    xml: bytes
    nodes: int
    result: object
    store: DocumentStore


class LibDocument(Workload):
    """The Natix document path on documents that fit the buffer."""

    name = "lib_document"
    REPEATS = 3
    FULL = {"docs": (("xmark", 0.006), ("uwm", 80), ("mondial", 3))}
    SMOKE = {"docs": (("xmark", 0.0008), ("uwm", 8), ("mondial", 1))}

    def generate(self, rounds):
        self.docs = {}
        for r in rounds:
            self.docs[r] = []
            for name, size in self.size["docs"]:
                tree = document(name, size, derive(self.seed, "document", r, name))
                self.docs[r].append((name, xml_bytes(tree), len(tree)))
        self.schedule = shuffled(
            list(ALL_QUERIES) * self.REPEATS, derive(self.seed, "document-schedule")
        )
        check_read_mix(self.schedule)
        self.traced_runs = []
        self.xml_events = self.xml_total = self.spills = 0
        self.peak_resident = 0.0

    def description(self):
        return {
            **self.size,
            "buffer_pages": StorageConfig().buffer_pages,
            "clients": "one thread, library calls",
        }

    def run_round(self, index):
        rec = self.rec
        stores = []
        for name, xml, nodes in self.docs[index]:
            with rec.write(nodes):
                result, store = ingest(rec.call, xml)
            stores.append(Ingested(name, xml, nodes, result, store))
        queried = stores[0].store  # the XMark document ingested in this round
        runs = []
        with rec.read_phase():
            for qid in self.schedule:
                with rec.read():
                    run = rec.call(f"query.idx.{qid}", run_query, queried, ALL_QUERIES[qid])
                runs.append(run)
        return stores, runs

    def verify(self, index, outcome):
        rec = self.rec
        stores, _runs = outcome
        for name, xml, nodes, result, store in stores:
            what = f"round {index} {name}"
            if len(result.tree) != nodes:
                rec.fail(f"{what}: loaded {len(result.tree)} nodes, generated {nodes}")
            oracle.partitionings(rec.fail, what, result.tree, {"ekm": result.partitioning})
            with rec.probing(index):
                rec.call("storage.integrity", oracle.store_integrity, rec.fail, what, store)
            self.partitions_total += result.emitted_partitions
            self.stored_bytes += store.space_report().page_bytes
            self.user_bytes += len(xml)
        oracle.index_equals_navigation(
            rec.fail, f"round {index} xmark", stores[0].store, ALL_QUERIES.values()
        )

    # -- traced run -----------------------------------------------------------

    def probe_round(self, index, outcome):
        rec = self.rec
        stores, runs = outcome
        self.spills += sum(s.result.spills for s in stores)
        self.peak_resident = max(
            [self.peak_resident] + [s.result.peak_resident_fraction for s in stores]
        )
        self.traced_runs += runs
        self.last_store = stores[0].store
        for name, xml, _nodes, result, _store in stores:
            events = rec.call("xmlio.parse", drain_events, xml)
            self.xml_events += events
            self.xml_total += len(xml)
            journal = os.path.join(self.tmp, f"probe-{index}-{name}.journal")
            journaled = rec.call(
                "bulkload.load_journaled",
                BulkLoader(algorithm="ekm", limit=K).load,
                xml,
                journal_path=journal,
            )
            if journaled.partitioning != result.partitioning:
                rec.fail(f"round {index} {name}: journaled load changed the partitioning")
            if os.path.exists(journal):
                os.remove(journal)
        for qid in self.schedule:
            rec.call("query.parse", parse_xpath, ALL_QUERIES[qid])
        for xpath in ALL_QUERIES.values():
            rec.call("query.values", oracle.values_of, self.last_store, xpath, 3)

    def finish_probes(self):
        # all-on library telemetry against off, interleaved so drift is shared
        store = self.last_store

        def sweep():
            start = perf_counter()
            for xpath in ALL_QUERIES.values():
                run_query(store, xpath)
            return perf_counter() - start

        on, off = [], []
        for _ in range(5):
            off.append(sweep())
            with telemetry.capture():
                on.append(sweep())
        self.telemetry_ratio = statistics.median(on) / statistics.median(off)

    def layer_metrics(self):
        spans = self.rec.spans
        load = seconds_per_round(spans, "bulkload.load")
        parse = seconds_per_round(spans, "xmlio.parse")
        out = {
            "xmlio.parse_s": parse,
            "xmlio.events": self.xml_events,
            "xmlio.bytes": self.xml_total,
            "bulkload.load_s": load,
            "bulkload.self_s": load - parse,  # derived
            "bulkload.journal_s": seconds_per_round(spans, "bulkload.load_journaled")
            - load,  # derived
            "bulkload.spills": self.spills,
            "bulkload.peak_resident_fraction": self.peak_resident,
            "storage.build_s": seconds_per_round(spans, "storage.build"),
            "storage.warm_up_s": seconds_per_round(spans, "storage.warm_up"),
            "storage.integrity_s": seconds_per_round(spans, "storage.integrity"),
            "index.build_s": seconds_per_round(spans, "index.build"),
            "index.fallbacks": self.counters.get("index.fallbacks", 0),
            "query.parse_s": seconds_per_round(spans, "query.parse"),
            "query.values_s": seconds_per_round(spans, "query.values"),
            "query.ext_ms": sum(median_ms(spans, f"query.idx.{qid}") for qid in EXTENDED),
            "telemetry.lib_overhead_ratio": self.telemetry_ratio,
        }
        out.update(space_metrics(self.last_store))
        stats = self.last_store.buffer.stats
        out["storage.buffer_hit_ratio"] = stats.hit_ratio
        out.update(query_totals(self.traced_runs))
        for qid in PAPER_QUERIES:
            out[f"query.idx_{qid}_ms"] = median_ms(spans, f"query.idx.{qid}")
        return out


def apply_ops(fail, updater: StoreUpdater, ops) -> None:
    for op in ops:
        try:
            if op[0] == "insert":
                updater.insert_node(op[1], op[2])
            else:
                updater.update_content(op[1], op[2])
        except StorageError as exc:
            fail(f"update {op[:2]} refused: {exc}")


def surviving_pages(store: DocumentStore) -> dict:
    """What a crash leaves behind: copies of the page images, nothing
    that lived only in memory."""
    return {
        page_id: Page(page.page_id, page.config, dict(page.slots), page.version, page.checksum)
        for page_id, page in store.manager.pages.items()
    }


class LibUpdate(Workload):
    """In-place updates through the WAL, reads beside them, one crash a round."""

    name = "lib_update"
    READS = ("Q1", "Q3", "Q5")
    FULL = {
        "base_doc": ("xmark", 0.004, 10770, 4),
        "batches": 20,
        "ops_per_batch": 16,
        "read_every": 2,
    }
    SMOKE = {"base_doc": ("xmark", 0.0008, 0, 1), "batches": 6, "ops_per_batch": 8, "read_every": 2}

    def generate(self, rounds):
        name, size, *sized = self.size["base_doc"]
        tree = document(name, size, derive(self.seed, "update-base"), *sized)
        self.base_xml = xml_bytes(tree)
        # ids as the loader assigns them (text nodes merge, whitespace drops)
        loaded = BulkLoader(algorithm="ekm", limit=K).load(self.base_xml).tree
        self.base_nodes = len(loaded)
        self.scripts = {
            r: update_script(
                loaded,
                derive(self.seed, "update-script", r),
                self.size["batches"] + 1,  # the last batch is the one that crashes
                self.size["ops_per_batch"],
            )
            for r in rounds
        }
        groups = self.size["batches"] // self.size["read_every"]
        check_read_mix(list(self.READS) * groups)
        self.traced_runs, self.record_splits = [], 0

    def description(self):
        return {
            **self.size,
            "base_document_nodes": self.base_nodes,
            "buffer_pages": StorageConfig().buffer_pages,
            "flush_policy": "fsync on WAL commit and on checkpoint, the program's own",
            "clients": "one thread, library calls",
        }

    def _reads_due(self, batch: int) -> bool:
        every = self.size["read_every"]
        return batch % every == every - 1

    def run_round(self, index):
        rec = self.rec
        script = self.scripts[index]
        # rebuilding the store is no op, but it is part of the round
        _, store = ingest(rec.call, self.base_xml)
        wal_path = os.path.join(self.tmp, f"round-{index}.wal")
        wal = WriteAheadLog(wal_path).open()
        store.attach_wal(wal)
        runs, splits, index_valid = [], 0, 0
        for batch, ops in enumerate(script[:-1]):
            updater = StoreUpdater(store)
            with rec.write(len(ops)):
                rec.call("storage.update_apply", apply_ops, rec.fail, updater, ops)
                rec.call("storage.flush_wal", updater.flush)
            splits += updater.stats.record_splits
            if batch == 0:
                index_valid = int(store.structural_index.valid)
            if self._reads_due(batch):
                with rec.read_phase():
                    for qid in self.READS:
                        with rec.read():
                            run = rec.call(
                                f"query.nav.{qid}", run_query, store, PAPER_QUERIES[qid]
                            )
                        runs.append(run)
        with rec.other("crash_recover"):
            # the process dies after the batch's WAL commit, before any page
            # apply: only the page images and the log file survive
            updater = StoreUpdater(store)
            apply_ops(rec.fail, updater, script[-1])
            try:
                with active(FaultPlan([FaultRule("updates.flush", "raise", hit=1)], seed=0)):
                    updater.flush()
                rec.fail(f"round {index}: crash fault never fired")
            except InjectedFaultError:
                pass
            wal.close()
            recovered, report = rec.call(
                "recovery.recover", recover_store, surviving_pages(store), wal_path, store.config
            )
        return recovered, report, runs, splits, index_valid, wal_path

    def control(self, index) -> tuple:
        """The same script, uninterrupted and without a log, with the same
        reads at the same points: what the timed run must equal."""
        _, store = ingest(direct, self.base_xml)
        runs = []
        for batch, ops in enumerate(self.scripts[index]):
            updater = StoreUpdater(store)
            apply_ops(self.rec.fail, updater, ops)
            if batch == self.size["batches"]:  # the batch the timed run crashed in
                updater.flush()
                break
            self.rec.call("storage.flush", updater.flush)
            if self._reads_due(batch):
                runs.extend(run_query(store, PAPER_QUERIES[qid]) for qid in self.READS)
        return store, runs

    def verify(self, index, outcome):
        rec = self.rec
        recovered, report, runs, _splits, _valid, wal_path = outcome
        what = f"round {index}"
        with rec.probing(index):
            control, control_runs = self.control(index)
        self.identical = oracle.recovered_equals_control(rec.fail, what, recovered, control)
        for run, expected in zip(runs, control_runs):
            got = (run.result_count, run.intra_steps, run.cross_steps)
            want = (expected.result_count, expected.intra_steps, expected.cross_steps)
            if got != want:
                rec.fail(f"{what}: {run.xpath} measured {got}, control store {want}")
        oracle.store_integrity(rec.fail, what, recovered)
        oracle.partitionings(rec.fail, what, recovered.tree, {"ekm": recovered.partitioning})
        self.records_redone = report.records_redone
        self.partitions_total += recovered.partitioning.cardinality
        self.stored_bytes += recovered.space_report().page_bytes + os.path.getsize(wal_path)
        self.user_bytes += len(self.base_xml) + script_bytes(self.scripts[index])
        os.remove(wal_path)
        self.last_store = recovered

    # -- traced run -----------------------------------------------------------

    def probe_round(self, index, outcome):
        _recovered, _report, runs, splits, index_valid, _path = outcome
        self.traced_runs += runs
        self.record_splits += splits
        self.index_valid = index_valid
        self.rec.call("index.rebuild", self.last_store.build_index)

    def layer_metrics(self):
        spans = self.rec.spans
        counters = self.counters
        flush_wal = seconds_per_round(spans, "storage.flush_wal")
        flush = seconds_per_round(spans, "storage.flush")
        wal_bytes = counters.get("recovery.wal.bytes", 0)
        out = {
            "bulkload.load_s": seconds_per_round(spans, "bulkload.load"),
            "storage.build_s": seconds_per_round(spans, "storage.build"),
            "storage.warm_up_s": seconds_per_round(spans, "storage.warm_up"),
            "storage.update_apply_s": seconds_per_round(spans, "storage.update_apply"),
            "storage.flush_s": flush,
            "storage.records_rewritten": counters.get("storage.records.rewritten", 0),
            "storage.record_splits": self.record_splits,
            "index.build_s": seconds_per_round(spans, "index.build"),
            "index.rebuild_s": seconds_per_round(spans, "index.rebuild"),
            "index.valid_after_flush": self.index_valid,
            "index.fallbacks": counters.get("index.fallbacks", 0),
            "recovery.wal_s": flush_wal - flush,  # derived
            "recovery.wal_bytes": wal_bytes,
            "recovery.wal_fsyncs": counters.get("recovery.wal.fsyncs", 0),
            # the counted warm-up round: every batch commits, also the crashed one
            "recovery.wal_bytes_per_update_byte": wal_bytes / script_bytes(self.scripts[0]),
            "recovery.recover_s": seconds_per_round(spans, "recovery.recover"),
            "recovery.records_redone": self.records_redone,
            "recovery.identical": int(self.identical),
        }
        out.update(space_metrics(self.last_store))
        out["storage.buffer_hit_ratio"] = self.last_store.buffer.stats.hit_ratio
        out.update(query_totals(self.traced_runs))
        return out
