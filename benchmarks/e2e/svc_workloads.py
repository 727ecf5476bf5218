"""The two service workloads: cached reads, and reads beside ingests.

The service runs in-process on its own event-loop thread
(``ServiceThread``); the benchmark drives it over real sockets with its
own blocking keep-alive client, in closed loops of at most ``nproc``
connections, so the gated numbers never come from threads fighting over
the interpreter lock. Contended traffic is measured too, but only as the
ungated ``service.contended_*`` per-layer metrics.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter
from urllib.parse import quote

from repro import telemetry
from repro.service.app import ServiceConfig, ServiceThread

import oracle
from httpclient import Connection
from inputs import ALL_QUERIES, derive, document, drain_events, shuffled, xml_bytes
from spans import check_read_mix, p50, seconds_per_round
from workload import Workload


def query_target(doc_id: str, xpath: str, show: int) -> str:
    target = f"/documents/{doc_id}/query?xpath={quote(xpath)}"
    return f"{target}&show={show}" if show else target


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


class ServiceWorkload(Workload):
    """Boot, drive and probe one in-process service."""

    CONFIG: dict = {}
    COUNTED_WARM_UP = False

    def boot(self, **overrides) -> ServiceThread:
        return ServiceThread(ServiceConfig(port=0, **{**self.CONFIG, **overrides})).start()

    def __init__(self, *args):
        super().__init__(*args)
        self.xml_events = self.xml_total = 0
        # tear_down runs even when generate() or set_up() raised
        self.server = self.conn = None

    def set_up(self):
        self.server = self.boot()
        self.conn = Connection(self.server.port)

    def tear_down(self):
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.stop()
        self.server = self.conn = None

    def xmark(self, *tags, sized=()) -> tuple[bytes, int]:
        seed = derive(self.seed, self.name, *tags)
        tree = document("xmark", self.size["xmark_scale"], seed, *sized)
        return xml_bytes(tree), len(tree)

    def base_xmark(self, *tags) -> tuple[bytes, int]:
        """A document read all run long: held to its intended size."""
        return self.xmark(*tags, sized=self.size["base_sized"])

    def library(self, xml: bytes) -> oracle.LibraryAnswers:
        """Independent library-side ingest of the same bytes; a traced
        run times its public calls as the layers' share of an ingest."""
        return oracle.LibraryAnswers(xml, call=self.rec.call)

    def count_document(self, xml: bytes, answers: oracle.LibraryAnswers) -> None:
        # the service exposes no space report; the oracle's store is built
        # from the same bytes by the same loader and its query costs are
        # checked equal to the service's, so its pages stand in
        self.partitions_total += answers.result.emitted_partitions
        self.stored_bytes += answers.store.space_report().page_bytes
        self.user_bytes += len(xml)

    # -- probes shared by both workloads ---------------------------------------

    def probe_round(self, index, outcome):
        for xml, _nodes in self.fresh[index]:
            self.xml_events += self.rec.call("xmlio.parse", drain_events, xml)
            self.xml_total += len(xml)

    def service_counters(self) -> dict:
        _, snapshot = self.conn.request("GET", "/metrics?format=json")
        return snapshot["counters"]

    def stack_probes(self) -> dict[str, float]:
        """Requests that do no engine work: the stack alone."""
        conn = self.conn
        healthz = [timed(conn.request, "GET", "/healthz")[0] for _ in range(200)]
        metrics = [timed(conn.request, "GET", "/metrics")[0] for _ in range(20)]
        deletes = [
            t for r in self.rec.kept(traced=True) for name, t in r.others if name == "delete"
        ]
        counters = self.service_counters()
        hits = counters.get("service.cache.hits", 0)
        misses = counters.get("service.cache.misses", 0)
        return {
            "service.healthz_ms": statistics.median(healthz) * 1000.0,
            "service.metrics_ms": statistics.median(metrics) * 1000.0,
            "service.delete_ms": statistics.median(deletes) * 1000.0,
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.rejected": counters.get("service.rejected.saturated", 0),
            "service.requests": counters.get("service.requests", 0),
        }

    def overhead_probes(self, doc_id: str, xml: bytes, keys: list) -> dict[str, float]:
        """The rounds' client latency minus the same work called directly
        on the registry: what HTTP, admission, executor hop, locks and
        tracing add (derived). ``keys`` is the round's read mix; a key
        without a document reads the probe document."""
        state = self.server.service.state
        direct_ingest = []
        for _ in range(5):
            direct_ingest.append(timed(state.ingest_document, xml, doc_id=doc_id)[0])
            state.delete_document(doc_id)
        state.ingest_document(xml, doc_id=doc_id)
        direct_query = [
            timed(state.query_document, doc or doc_id, xpath, show)[0]
            for doc, xpath, show in keys * 3
        ]
        state.delete_document(doc_id)
        rounds = self.rec.rounds
        self.client_query_ms = statistics.median(r.read_p50_ms() for r in rounds)
        self.direct_query_ms = p50(direct_query) * 1000.0
        return {
            "service.query_overhead_ms": self.client_query_ms - self.direct_query_ms,
            "service.ingest_overhead_ms": statistics.median(r.write_p50_ms() for r in rounds)
            - statistics.median(direct_ingest) * 1000.0,
        }

    def contention_probe(self, xml: bytes, targets: list[str], seconds: float) -> dict:
        """One reader connection beside one writer ingesting back-to-back:
        both share the interpreter lock with the server, so these vary
        from run to run and are reported, not gated."""
        stop = threading.Event()
        writes: list[float] = []

        def writer():
            with Connection(self.server.port) as conn:
                while not stop.is_set():
                    writes.append(timed(conn.request, "POST", "/documents?id=contend", xml)[0])
                    conn.request("DELETE", "/documents/contend")

        thread = threading.Thread(target=writer, name="bench-writer")
        thread.start()
        reads: list[float] = []
        deadline = perf_counter() + seconds
        try:
            while perf_counter() < deadline or not writes:
                for target in targets:
                    reads.append(timed(self.conn.request, "GET", target)[0])
        finally:
            stop.set()
            thread.join()
        return {
            "service.contended_read_p50_ms": p50(reads) * 1000.0,
            "service.contended_write_p50_ms": p50(writes) * 1000.0,
        }

    def ingest_layer_metrics(self) -> dict[str, float]:
        """Library-side cost of the ingests the service performed (the
        oracle's independent builds of the same bytes)."""
        spans = self.rec.spans
        return {
            "xmlio.parse_s": seconds_per_round(spans, "xmlio.parse"),
            "xmlio.events": self.xml_events,
            "xmlio.bytes": self.xml_total,
            "bulkload.load_s": seconds_per_round(spans, "bulkload.load"),
            "storage.build_s": seconds_per_round(spans, "storage.build"),
            "storage.warm_up_s": seconds_per_round(spans, "storage.warm_up"),
            "index.build_s": seconds_per_round(spans, "index.build"),
            "query.values_s": seconds_per_round(spans, "query.values"),
        }

    def coverage(self):
        # a request has no child spans on the client side; what is
        # attributed is the direct engine call plus the bare stack
        return (self.direct_query_ms + self.stack["service.healthz_ms"]) / self.client_query_ms


class SvcHot(ServiceWorkload):
    """Cached queries: the service stack with the engine bypassed."""

    name = "svc_hot"
    CONFIG = {"query_cache": 512}
    SHOWS = (0, 3, 5)
    CONNECTIONS = 2  # read-only traffic: at most nproc closed loops
    FULL = {
        "xmark_scale": 0.003,
        "base_sized": (7970, 3),
        "base_docs": 4,
        "fresh_docs": 2,
        "repeats": 18,
        "contend_s": 1.0,
    }
    SMOKE = {
        "xmark_scale": 0.0005,
        "base_sized": (),
        "base_docs": 4,
        "fresh_docs": 2,
        "repeats": 1,
        "contend_s": 0.2,
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.readers: list[Connection] = []

    def generate(self, rounds):
        self.base = [self.base_xmark("base", i) for i in range(self.size["base_docs"])]
        self.base_answers = [oracle.LibraryAnswers(xml) for xml, _ in self.base]
        self.fresh = {
            r: [self.xmark("fresh", r, slot) for slot in range(self.size["fresh_docs"])]
            for r in rounds
        }
        pairs = [(xpath, show) for xpath in ALL_QUERIES.values() for show in self.SHOWS]
        #: the 45 cached keys: (base document index, xpath, show)
        self.keys = [(i % len(self.base), xpath, show) for i, (xpath, show) in enumerate(pairs)]
        self.schedules = [
            shuffled(self.keys * self.size["repeats"], derive(self.seed, "hot-schedule", c))
            for c in range(self.CONNECTIONS)
        ]
        check_read_mix(self.schedules[0] + self.schedules[1])

    def description(self):
        return {
            **self.size,
            "query_cache": self.CONFIG["query_cache"],
            "cached_keys": len(self.keys),
            "clients": f"{self.CONNECTIONS} closed-loop connections (reads), 1 (writes)",
        }

    def set_up(self, **overrides):
        self.server = self.boot(**overrides)
        self.conn = Connection(self.server.port)
        for i, (xml, _) in enumerate(self.base):
            self.conn.request("POST", f"/documents?id=base-{i}", xml)
        for slot in range(self.size["fresh_docs"]):
            # placeholders the first round replaces, so every round deletes
            self.conn.request("POST", f"/documents?id=fresh-{slot}", self.base[0][0])
        for doc, xpath, show in self.keys:  # prime the cache
            self.conn.request("GET", query_target(f"base-{doc}", xpath, show))
        self.readers = [Connection(self.server.port) for _ in range(self.CONNECTIONS)]

    def tear_down(self):
        for reader in self.readers:
            reader.close()
        self.readers = []
        super().tear_down()

    def read_phase(self) -> tuple[float, list]:
        """Every connection runs its schedule as one closed loop."""
        out = [([], []) for _ in self.readers]

        def loop(conn, schedule, latencies, responses):
            for doc, xpath, show in schedule:
                start = perf_counter()
                response = conn.request("GET", query_target(f"base-{doc}", xpath, show))
                latencies.append(perf_counter() - start)
                responses.append(response)

        threads = [
            threading.Thread(target=loop, args=(conn, schedule, *slot), name="bench-reader")
            for conn, schedule, slot in zip(self.readers, self.schedules, out)
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return perf_counter() - start, out

    def run_round(self, index):
        rec = self.rec
        posts = []
        for slot, (xml, nodes) in enumerate(self.fresh[index]):
            with rec.other("delete"):
                deleted = self.conn.request("DELETE", f"/documents/fresh-{slot}")
            with rec.write(nodes):
                posted = self.conn.request("POST", f"/documents?id=fresh-{slot}", xml)
            posts.append((xml, deleted, posted))
        with rec.read_phase():
            _, reads = self.read_phase()
        for latencies, _ in reads:
            rec.add_reads(latencies)
        return posts, reads

    def verify(self, index, outcome):
        rec = self.rec
        posts, reads = outcome
        for slot, (xml, (deleted, _), (status, info)) in enumerate(posts):
            what = f"round {index} fresh-{slot}"
            oracle.http_status(rec.fail, f"{what} DELETE", deleted)
            with rec.probing(index):
                answers = self.library(xml)
            oracle.http_ingest(rec.fail, what, status, info, answers)
            self.count_document(xml, answers)
        for schedule, (_, responses) in zip(self.schedules, reads):
            for (doc, xpath, show), (status, payload) in zip(schedule, responses):
                oracle.http_query(
                    rec.fail,
                    f"round {index} base-{doc}",
                    status,
                    payload,
                    self.base_answers[doc],
                    xpath,
                    show,
                )

    # -- traced run -----------------------------------------------------------

    def finish_probes(self):
        xml = self.fresh[0][0][0]
        self.stack = self.stack_probes()
        keys = [(f"base-{doc}", xpath, show) for doc, xpath, show in self.keys]
        self.overhead = self.overhead_probes("probe", xml, keys)
        targets = [query_target(*key) for key in keys]
        self.contended = self.contention_probe(xml, targets, self.size["contend_s"])
        default_rate = statistics.median(
            r.read_ops_per_s() for r in self.rec.kept(traced=False)
        )
        # the same read phase with every observability feature off; the
        # enabled flag is process-wide, so it is cleared while this runs
        self.tear_down()
        telemetry.disable()
        try:
            self.set_up(tracing=False, heat=False, enable_telemetry=False)
            rates = []
            for _ in range(3):
                wall, reads = self.read_phase()
                rates.append(sum(len(latencies) for latencies, _ in reads) / wall)
        finally:
            telemetry.enable()
        self.all_off_ratio = statistics.median(rates) / default_rate

    def layer_metrics(self):
        return {
            **self.ingest_layer_metrics(),
            **self.stack,
            **self.overhead,
            **self.contended,
            "telemetry.service_overhead_ratio": self.all_off_ratio,
        }


class SvcMixed(ServiceWorkload):
    """Default service: engine-heavy reads beside ingests, one connection."""

    name = "svc_mixed"
    MIX = ("Q2", "Q4", "Q6", "Q7", "E7")
    FULL = {"xmark_scale": 0.003, "base_sized": (7970, 3), "blocks": 3, "contend_s": 1.0}
    SMOKE = {"xmark_scale": 0.0005, "base_sized": (), "blocks": 2, "contend_s": 0.2}

    def generate(self, rounds):
        self.base_xml, _ = self.base_xmark("base")
        self.base_answers = oracle.LibraryAnswers(self.base_xml)
        self.fresh = {
            r: [self.xmark("fresh", r, block) for block in range(self.size["blocks"])]
            for r in rounds
        }
        # 15 distinct reads a block: every query on the fresh document, on
        # the base document, and once more with show=3 on alternating sides
        ops = []
        for k in range(len(self.MIX) * 3):
            xpath = ALL_QUERIES[self.MIX[k % len(self.MIX)]]
            variant = k % 3
            on_base = variant == 1 or (variant == 2 and k % 2 == 1)
            ops.append(("base" if on_base else None, xpath, 3 if variant == 2 else 0))
        self.block_reads = shuffled(ops, derive(self.seed, "mixed-schedule"))
        check_read_mix(self.block_reads * self.size["blocks"])

    def description(self):
        return {
            **self.size,
            "query_cache": 0,
            "reads_per_block": len(self.block_reads),
            "clients": "1 closed-loop connection (reads and writes interleaved)",
        }

    def set_up(self):
        super().set_up()
        self.conn.request("POST", "/documents?id=base", self.base_xml)

    def run_round(self, index):
        rec = self.rec
        conn = self.conn
        blocks = []
        for block, (xml, nodes) in enumerate(self.fresh[index]):
            doc_id = f"fresh-{block}"
            with rec.write(nodes):
                posted = conn.request("POST", f"/documents?id={doc_id}", xml)
            responses = []
            with rec.read_phase():
                for doc, xpath, show in self.block_reads:
                    with rec.read():
                        response = conn.request(
                            "GET", query_target(doc or doc_id, xpath, show)
                        )
                    responses.append(response)
            with rec.other("delete"):
                deleted = conn.request("DELETE", f"/documents/{doc_id}")
            blocks.append((xml, posted, responses, deleted))
        return blocks

    def verify(self, index, outcome):
        rec = self.rec
        for block, (xml, (status, info), responses, (deleted, _)) in enumerate(outcome):
            what = f"round {index} fresh-{block}"
            with rec.probing(index):
                answers = self.library(xml)
            oracle.http_ingest(rec.fail, what, status, info, answers)
            self.count_document(xml, answers)
            with rec.probing(index):
                for (doc, xpath, show), (status, payload) in zip(self.block_reads, responses):
                    side = self.base_answers if doc else answers
                    oracle.http_query(rec.fail, what, status, payload, side, xpath, show)
            oracle.http_status(rec.fail, f"{what} DELETE", deleted)

    # -- traced run -----------------------------------------------------------

    def finish_probes(self):
        xml = self.fresh[0][0][0]
        self.stack = self.stack_probes()
        self.overhead = self.overhead_probes("probe", xml, self.block_reads)
        self.conn.request("POST", "/documents?id=probe", xml)
        targets = [query_target(doc or "probe", xpath, show) for doc, xpath, show in self.block_reads]
        self.contended = self.contention_probe(xml, targets, self.size["contend_s"])
        self.conn.request("DELETE", "/documents/probe")

    def layer_metrics(self):
        return {
            **self.ingest_layer_metrics(),
            **self.stack,
            **self.overhead,
            **self.contended,
        }
