"""Concurrency hammer and crash-resume correctness for the service.

The hammer drives mixed ingest+query traffic from many threads (each
with its own keep-alive connection) against one server and then checks
the three properties the service advertises:

* **no corrupt reads** — every query against the shared document returns
  byte-identical measurements, while ingests churn other documents;
* **lock-exact telemetry** — the request/queries/ingest counters equal
  the client-side tallies exactly (no lost updates under contention);
* **zero failed requests** — every response is a 2xx.

The crash-resume test injects a fault mid-ingest via ``repro.faults``
and proves the journal makes the ingest resumable to a state identical
to an uninterrupted control ingest.
"""

from __future__ import annotations

import threading

import pytest

from repro.faults.plan import FaultPlan, active
from repro.service.client import ServiceClient, ServiceClientError
from tests.service.conftest import SAMPLE_XML

THREADS = 8
QUERIES_PER_THREAD = 12


class TestConcurrentMixedLoad:
    def test_hammer_no_corrupt_reads_and_exact_telemetry(self, server):
        with ServiceClient(port=server.port) as setup:
            setup.ingest(SAMPLE_XML, doc_id="shared")

        results: dict[int, list[dict]] = {}
        errors: list[str] = []
        requests_sent = [0] * THREADS
        barrier = threading.Barrier(THREADS, timeout=30)

        def worker(index: int) -> None:
            mine: list[dict] = []
            try:
                with ServiceClient(port=server.port) as conn:
                    barrier.wait()
                    for step in range(QUERIES_PER_THREAD):
                        run = conn.query("shared", "//keyword")
                        requests_sent[index] += 1
                        mine.append(run)
                        if step == QUERIES_PER_THREAD // 2:
                            conn.ingest(SAMPLE_XML, doc_id=f"own-{index}")
                            requests_sent[index] += 1
                    own = conn.query(f"own-{index}", "//keyword")
                    requests_sent[index] += 1
                    mine.append(own)
            except ServiceClientError as exc:  # pragma: no cover - failure path
                errors.append(f"thread {index}: {exc}")
            results[index] = mine

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # no corrupt reads: every shared-document measurement identical
        reference = results[0][0]
        for index in range(THREADS):
            for run in results[index][:QUERIES_PER_THREAD]:
                assert run == reference, f"thread {index} diverged"

        # zero failed requests + lock-exact telemetry
        with ServiceClient(port=server.port) as check:
            snapshot = check.metrics_json()
        counters = snapshot["counters"]
        total_sent = sum(requests_sent) + 1 + 1  # setup ingest + this scrape
        assert counters["service.requests"] == total_sent
        # the scrape snapshots counters before its own 2xx is recorded
        assert counters["service.responses.2xx"] == total_sent - 1
        assert counters.get("service.responses.4xx", 0) == 0
        assert counters.get("service.responses.5xx", 0) == 0
        assert counters["service.queries"] == THREADS * (QUERIES_PER_THREAD + 1)
        assert counters["service.documents.ingested"] == THREADS + 1
        assert counters.get("service.errors.internal", 0) == 0

    def test_interleaved_index_answered_queries_agree(self, server):
        # two documents queried from many threads at once: every run must
        # report the same measurements for its document. The service
        # indexes what it ingests, so //keyword is answered by window
        # steps and makes no hops; per-run hop counts under concurrency
        # are pinned by tests/query/test_engine.py instead
        with ServiceClient(port=server.port) as setup:
            setup.ingest(SAMPLE_XML, doc_id="left")
            setup.ingest(SAMPLE_XML.replace("person", "robot"), doc_id="right")

        outcomes: list[tuple[str, dict]] = []
        lock = threading.Lock()

        def worker(doc_id: str) -> None:
            with ServiceClient(port=server.port) as conn:
                for _ in range(6):
                    run = conn.query(doc_id, "//keyword")
                    with lock:
                        outcomes.append((doc_id, run))

        threads = [
            threading.Thread(target=worker, args=("left" if i % 2 else "right",))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        by_doc: dict[str, set[tuple]] = {}
        for doc_id, run in outcomes:
            by_doc.setdefault(doc_id, set()).add(
                (run["results"], run["intra_steps"], run["cross_steps"], run["cost"])
            )
        # a corrupt read would show up as divergent measurements
        assert all(len(variants) == 1 for variants in by_doc.values()), by_doc


class TestCrashResume:
    @pytest.mark.faults
    def test_fault_mid_ingest_then_journal_resume(self, client):
        control = client.ingest(SAMPLE_XML, doc_id="control", journal=True)
        control_run = client.query("control", "//keyword")

        plan = FaultPlan.from_spec("bulkload.finalize:raise@1;seed=11")
        with active(plan):
            with pytest.raises(ServiceClientError) as excinfo:
                client.ingest(SAMPLE_XML, doc_id="crashy", journal=True)
        assert excinfo.value.status == 503
        assert excinfo.value.problem["resumable"] is True

        info = client.document("crashy")
        assert info["status"] == "failed"
        assert info["resumable"] is True

        # the injected fault shows up as a degradation signal
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["degradation"]["faults.injected"] >= 1

        resumed = client.ingest(SAMPLE_XML, doc_id="crashy", resume=True)
        assert resumed["status"] == "ready"
        assert resumed["resumed"] is True
        for key in ("nodes", "partitions", "total_weight"):
            assert resumed[key] == control[key], key

        crashy_run = client.query("crashy", "//keyword")
        for key in ("results", "intra_steps", "cross_steps", "cost"):
            assert crashy_run[key] == control_run[key], key

    @pytest.mark.faults
    def test_resume_without_journal_is_rejected(self, client):
        client.ingest(SAMPLE_XML, doc_id="whole")
        with pytest.raises(ServiceClientError) as excinfo:
            client.ingest(SAMPLE_XML, doc_id="whole", resume=True)
        assert excinfo.value.status == 409
