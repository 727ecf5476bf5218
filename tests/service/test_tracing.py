"""End-to-end request tracing: span trees, /debug endpoints, no bleed.

The two load-bearing properties:

* **one rooted tree per request** — every sampled request resolves via
  ``/debug/traces/{id}`` to exactly one parent-less root whose children
  (handler + engine spans, including those run on the executor) all
  link back to it;
* **no trace-id bleed** — under an 8-thread hammer whose requests the
  single event loop interleaves, every captured trace contains only its
  own request's spans (the ``contextvars`` propagation across
  ``run_blocking`` is what makes this true).
"""

from __future__ import annotations

import io
import json
import threading
from typing import Iterator

import pytest

from repro.telemetry import load_chrome_trace
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient, ServiceClientError
from tests.service.conftest import SAMPLE_XML

THREADS = 8
QUERIES_PER_THREAD = 6


def _span_tree_is_rooted(spans: list[dict]) -> dict:
    """Assert one parent-less root and full linkage; returns the root."""
    roots = [s for s in spans if s.get("parent_id") is None]
    assert len(roots) == 1, [s["name"] for s in spans]
    by_id = {s["span_id"]: s for s in spans}
    for span in spans:
        if span is roots[0]:
            continue
        parent = span["parent_id"]
        assert parent in by_id, f"{span['name']} orphaned (parent {parent})"
    return roots[0]


class TestSingleSpanTree:
    def test_query_request_produces_one_rooted_tree(self, client):
        client.ingest(SAMPLE_XML, doc_id="d1")
        client.query("d1", "//keyword", show=2)

        traces = client.debug_traces()
        assert traces["tracing"]["started"] >= 2
        query_traces = [
            t
            for t in traces["traces"]
            if t["attrs"].get("route") == "query"
        ]
        assert len(query_traces) == 1

        trace = client.debug_trace(query_traces[0]["trace_id"])
        spans = trace["spans"]
        root = _span_tree_is_rooted(spans)
        assert root["name"] == "service.request"
        assert root["attrs"]["doc"] == "d1"
        assert root["attrs"]["xpath"] == "//keyword"
        # the engine span ran on the executor and still joined the tree
        names = [s["name"] for s in spans]
        assert "query.run" in names
        assert all(
            s.get("trace_id") == trace["trace_id"] for s in spans
        )

    def test_ingest_request_traced_too(self, client):
        client.ingest(SAMPLE_XML, doc_id="d2")
        traces = client.debug_traces()
        ingest = [
            t
            for t in traces["traces"]
            if t["attrs"].get("route") == "ingest"
        ]
        assert len(ingest) == 1
        trace = client.debug_trace(ingest[0]["trace_id"])
        _span_tree_is_rooted(trace["spans"])

    def test_inbound_request_id_becomes_trace_id(self, client):
        client.ingest(SAMPLE_XML, doc_id="d3")
        client.request_json(
            "GET",
            "/documents/d3/query",
            params={"xpath": "//keyword"},
            headers={"x-request-id": "my-custom-id"},
        )
        trace = client.debug_trace("my-custom-id")
        assert trace["trace_id"] == "my-custom-id"
        _span_tree_is_rooted(trace["spans"])

    def test_w3c_traceparent_joins_remote_trace(self, client):
        client.ingest(SAMPLE_XML, doc_id="d4")
        remote_trace = "ab" * 16
        header = f"00-{remote_trace}-{'cd' * 8}-01"
        client.request_json(
            "GET",
            "/documents/d4/query",
            params={"xpath": "//keyword"},
            headers={"traceparent": header},
        )
        trace = client.debug_trace(remote_trace)
        assert trace["trace_id"] == remote_trace

    def test_malformed_traceparent_falls_back_to_request_id(self, client):
        client.ingest(SAMPLE_XML, doc_id="d5")
        client.request_json(
            "GET",
            "/documents/d5/query",
            params={"xpath": "//keyword"},
            headers={
                "traceparent": "00-not-a-trace-header",
                "x-request-id": "fallback-id",
            },
        )
        assert client.debug_trace("fallback-id")["trace_id"] == "fallback-id"

    def test_error_requests_are_traced_with_error(self, client):
        client.ingest(SAMPLE_XML, doc_id="d6")
        with pytest.raises(ServiceClientError):
            client.request_json(
                "GET",
                "/documents/d6/query",
                params={"xpath": "//("},
                headers={"x-request-id": "broken-query"},
            )
        trace = client.debug_trace("broken-query")
        root = _span_tree_is_rooted(trace["spans"])
        assert root["error"] == "QuerySyntaxError"
        assert root["attrs"]["status"] == 400


class TestDebugEndpoints:
    def test_chrome_export_round_trips_through_loader(self, client):
        client.ingest(SAMPLE_XML, doc_id="d1")
        client.request_json(
            "GET",
            "/documents/d1/query",
            params={"xpath": "//keyword"},
            headers={"x-request-id": "chrome-me"},
        )
        plain = client.debug_trace("chrome-me")
        chrome = client.debug_trace("chrome-me", chrome=True)
        events = load_chrome_trace(io.StringIO(json.dumps(chrome)))
        assert len(events) == len(plain["spans"])
        assert chrome["otherData"]["trace_id"] == "chrome-me"

    def test_unknown_trace_id_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.debug_trace("never-seen")
        assert excinfo.value.status == 404

    def test_unknown_trace_format_is_400(self, client):
        client.ingest(SAMPLE_XML, doc_id="d1", )
        trace_id = client.debug_traces()["traces"][0]["trace_id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_json(
                "GET",
                f"/debug/traces/{trace_id}",
                params={"format": "speedscope"},
            )
        assert excinfo.value.status == 400

    def test_heat_endpoint_reflects_query_navigation(
        self, fresh_telemetry, tmp_path
    ):
        # heat tallies navigation hops, so this server skips the
        # structural index — window evaluation takes no hops to count
        config = ServiceConfig(
            port=0, index=False, journal_dir=str(tmp_path / "nav-journals")
        )
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as conn:
                conn.ingest(SAMPLE_XML, doc_id="d1")
                conn.query("d1", "//keyword")
                heat = conn.debug_heat(edges=True)
        doc = heat["documents"]["d1"]
        assert doc["steps"] > 0
        assert doc["partitions"]
        assert doc["edges"]
        assert heat["hottest"][0]["doc"] == "d1"

    def test_heat_resets_on_delete(self, client):
        client.ingest(SAMPLE_XML, doc_id="gone")
        client.query("gone", "//keyword")
        client.delete("gone")
        heat = client.debug_heat()
        assert "gone" not in heat["documents"]


class TestDisabledModes:
    @pytest.fixture
    def untraced_server(self, fresh_telemetry, tmp_path) -> Iterator[ServiceThread]:
        config = ServiceConfig(
            port=0, tracing=False, heat=False,
            journal_dir=str(tmp_path / "journals"),
        )
        with ServiceThread(config) as thread:
            yield thread

    def test_debug_endpoints_reject_when_disabled(self, untraced_server):
        with ServiceClient(port=untraced_server.port) as conn:
            conn.ingest(SAMPLE_XML, doc_id="d1")
            assert conn.query("d1", "//keyword")["results"] == 30
            for call in (conn.debug_traces, conn.debug_slow, conn.debug_heat):
                with pytest.raises(ServiceClientError) as excinfo:
                    call()
                assert excinfo.value.status == 400

    @pytest.fixture
    def unsampled_server(self, fresh_telemetry, tmp_path) -> Iterator[ServiceThread]:
        config = ServiceConfig(
            port=0, trace_sample_rate=0,
            journal_dir=str(tmp_path / "journals"),
        )
        with ServiceThread(config) as thread:
            yield thread

    def test_sample_rate_zero_counts_but_retains_nothing(self, unsampled_server):
        with ServiceClient(port=unsampled_server.port) as conn:
            conn.ingest(SAMPLE_XML, doc_id="d1")
            conn.query("d1", "//keyword")
            traces = conn.debug_traces()
        assert traces["traces"] == []
        assert traces["tracing"]["started"] >= 2
        assert traces["tracing"]["sampled"] == 0


class TestSlowQueryLog:
    @pytest.fixture
    def slow_server(self, fresh_telemetry, tmp_path) -> Iterator[ServiceThread]:
        config = ServiceConfig(
            port=0, slow_query_seconds=0.0,
            journal_dir=str(tmp_path / "journals"),
        )
        with ServiceThread(config) as thread:
            yield thread

    def test_slow_log_captures_query_text_doc_and_spans(self, slow_server):
        with ServiceClient(port=slow_server.port) as conn:
            conn.ingest(SAMPLE_XML, doc_id="d1")
            conn.query("d1", "//keyword")
            slow = conn.debug_slow()
        assert slow["threshold_seconds"] == 0.0
        queries = [e for e in slow["slow"] if e["route"] == "query"]
        assert len(queries) == 1
        entry = queries[0]
        assert entry["query"] == "//keyword"
        assert entry["doc"] == "d1"
        assert entry["seconds"] > 0
        assert [s["name"] for s in entry["spans"]][0] == "service.request"

    def test_default_threshold_keeps_fast_requests_out(self, client):
        client.ingest(SAMPLE_XML, doc_id="d1")
        client.query("d1", "//keyword")
        slow = client.debug_slow()
        # sub-millisecond local requests never cross the 1s default
        assert slow["slow"] == []


class TestNoTraceBleed:
    def test_hammer_has_no_cross_request_contamination(self, server):
        """8 client threads, one event loop interleaving them, each
        request under its own X-Request-Id: every captured trace must
        contain exactly its own request's spans."""
        with ServiceClient(port=server.port) as setup:
            for index in range(THREADS):
                setup.ingest(SAMPLE_XML, doc_id=f"doc-{index}")

        errors: list[str] = []
        barrier = threading.Barrier(THREADS, timeout=30)

        def worker(index: int) -> None:
            try:
                with ServiceClient(port=server.port) as conn:
                    barrier.wait()
                    for step in range(QUERIES_PER_THREAD):
                        conn.request_json(
                            "GET",
                            f"/documents/doc-{index}/query",
                            params={"xpath": "//keyword"},
                            headers={
                                "x-request-id": f"hammer-{index}-{step}"
                            },
                        )
            except ServiceClientError as exc:  # pragma: no cover
                errors.append(f"thread {index}: {exc}")

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

        with ServiceClient(port=server.port) as check:
            for index in range(THREADS):
                for step in range(QUERIES_PER_THREAD):
                    trace_id = f"hammer-{index}-{step}"
                    trace = check.debug_trace(trace_id)
                    spans = trace["spans"]
                    root = _span_tree_is_rooted(spans)
                    # identity: the trace is this request's, start to end
                    assert root["attrs"]["request_id"] == trace_id
                    assert root["attrs"]["doc"] == f"doc-{index}"
                    assert all(
                        s["trace_id"] == trace_id for s in spans
                    ), trace_id
                    # exactly one engine execution joined this tree — a
                    # bleed would splice in another request's query.run
                    engine = [s for s in spans if s["name"] == "query.run"]
                    assert len(engine) == 1, [s["name"] for s in spans]
