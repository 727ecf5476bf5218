"""HTTP-level behavior: routing, protocol errors, problem-JSON, metrics."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro import telemetry
from repro.service.app import Router, ServiceConfig, ServiceThread
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.middleware import (
    MethodNotAllowedError,
    MiddlewareStack,
    Request,
    Response,
    RouteNotFoundError,
    map_exception,
)
from tests.service.conftest import SAMPLE_XML


def _request(route: str = "r") -> Request:
    return Request(
        method="GET", path="/", params={}, headers={}, route_name=route
    )


class TestRouter:
    def _router(self) -> Router:
        async def handler(request):
            return Response.json({"ok": True})

        router = Router()
        router.add("GET", "/documents", handler, "documents")
        router.add("POST", "/documents", handler, "ingest")
        router.add("GET", "/documents/{doc_id}/query", handler, "query")
        return router

    def test_resolves_literal_and_placeholder_routes(self):
        router = self._router()
        _handler, name, params = router.resolve("GET", "/documents")
        assert (name, params) == ("documents", {})
        _handler, name, params = router.resolve("get", "/documents/d1/query")
        assert (name, params) == ("query", {"doc_id": "d1"})

    def test_unknown_path_404_and_wrong_method_405(self):
        router = self._router()
        with pytest.raises(RouteNotFoundError):
            router.resolve("GET", "/nope")
        with pytest.raises(MethodNotAllowedError) as excinfo:
            router.resolve("DELETE", "/documents")
        assert "GET" in str(excinfo.value)


class TestMiddleware:
    def test_request_id_minted_and_propagated(self):
        stack = MiddlewareStack(max_concurrency=2, request_timeout=5.0)

        async def handler(request):
            return Response.json({"id": request.request_id})

        async def scenario():
            minted = await stack.run(_request(), handler)
            tagged_request = _request()
            tagged_request.headers["x-request-id"] = "trace-me-7"
            tagged = await stack.run(tagged_request, handler)
            return minted, tagged

        minted, tagged = asyncio.run(scenario())
        assert minted.headers["x-request-id"].startswith("req-")
        assert tagged.headers["x-request-id"] == "trace-me-7"
        assert json.loads(tagged.body)["id"] == "trace-me-7"

    def test_handler_timeout_maps_to_504(self):
        stack = MiddlewareStack(max_concurrency=2, request_timeout=0.05)

        async def slow(request):
            await asyncio.sleep(1.0)
            return Response.json({})

        response = asyncio.run(stack.run(_request(), slow))
        assert response.status == 504
        assert json.loads(response.body)["title"] == "Gateway Timeout"

    def test_saturation_maps_to_503_retryable(self):
        stack = MiddlewareStack(max_concurrency=1, request_timeout=0.1)

        async def handler(request):
            return Response.json({})

        async def scenario():
            # hold the only admission slot so the request can never get it
            await stack._semaphore.acquire()
            try:
                return await stack.run(_request(), handler)
            finally:
                stack._semaphore.release()

        response = asyncio.run(scenario())
        assert response.status == 503
        assert json.loads(response.body)["retryable"] is True

    def test_unexpected_exception_maps_to_500_problem(self):
        stack = MiddlewareStack(max_concurrency=2, request_timeout=5.0)

        async def broken(request):
            raise RuntimeError("boom")

        response = asyncio.run(stack.run(_request(), broken))
        assert response.status == 500
        payload = json.loads(response.body)
        assert payload["type"] == "about:blank"
        assert "boom" in payload["detail"]

    def test_map_exception_is_problem_json_for_unknown_errors(self):
        response = map_exception(ValueError("odd"), "req-1")
        assert response.status == 500
        assert response.content_type == "application/problem+json"
        assert json.loads(response.body)["request_id"] == "req-1"


class TestEndpoints:
    def test_ingest_then_query_round_trip(self, client):
        info = client.ingest(SAMPLE_XML, doc_id="d1")
        assert info["status"] == "ready"
        assert info["nodes"] > 0 and info["partitions"] >= 1

        result = client.query("d1", "//keyword", show=2)
        assert result["results"] == 30
        assert len(result["values"]) == 2
        # the default service builds a structural index at ingest, so the
        # descendant step is answered by one window lookup (no hop costs)
        assert result["window_steps"] >= 1
        assert result["cost"] >= 0

    def test_document_listing_info_and_delete(self, client):
        client.ingest(SAMPLE_XML, doc_id="a")
        client.ingest(SAMPLE_XML, doc_id="b")
        listed = [doc["id"] for doc in client.documents()]
        assert listed == ["a", "b"]
        assert client.document("a")["queries"] == 0
        assert client.delete("a")["status"] == "deleted"
        assert [doc["id"] for doc in client.documents()] == ["b"]

    def test_error_statuses(self, client):
        client.ingest(SAMPLE_XML, doc_id="dup")
        cases = [
            # (method call, expected status)
            (lambda: client.ingest(SAMPLE_XML, doc_id="dup"), 409),
            (lambda: client.ingest("<open>", doc_id="bad"), 400),
            (lambda: client.ingest(SAMPLE_XML, doc_id="neg", limit=0), 400),
            (lambda: client.query("missing", "//a"), 404),
            (lambda: client.query("dup", "//("), 400),
            (lambda: client.request_json("PUT", "/documents"), 405),
            (lambda: client.request_json("GET", "/nope"), 404),
            (lambda: client.request_json("POST", "/documents"), 400),
        ]
        for call, expected in cases:
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == expected
            assert excinfo.value.problem["status"] == expected

    @pytest.mark.parametrize("param", ["parallel", "jounal"])
    def test_unknown_ingest_parameter_400_names_it(self, client, param):
        # a removed or misspelt knob must not ingest as if it were unset
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_json(
                "POST",
                "/documents",
                params={"id": "d", param: "1"},
                body=SAMPLE_XML.encode(),
            )
        assert excinfo.value.status == 400
        assert repr(param) in excinfo.value.problem["detail"]
        assert client.documents() == []

    @pytest.mark.parametrize("doc_id", ["../escaped", "a/b"])
    def test_document_id_that_is_no_path_segment_400(self, client, tmp_path, doc_id):
        with pytest.raises(ServiceClientError) as excinfo:
            client.ingest("<a><b>", doc_id=doc_id, journal=True)
        assert excinfo.value.status == 400
        assert "document id" in excinfo.value.problem["detail"]
        assert client.documents() == []
        assert {p.name for p in tmp_path.iterdir()} <= {"journals"}
        assert list((tmp_path / "journals").glob("*")) == []

    def test_query_missing_xpath_param_400(self, client):
        client.ingest(SAMPLE_XML, doc_id="q")
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_json("GET", "/documents/q/query")
        assert excinfo.value.status == 400
        assert "xpath" in excinfo.value.problem["detail"]

    def test_healthz_reports_documents_and_degradation(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["documents"]) >= {"ready", "loading", "failed"}
        assert all(value == 0 for value in health["degradation"].values())

        client.ingest(SAMPLE_XML, doc_id="h")
        health = client.healthz()
        assert health["documents"]["ready"] == 1
        assert health["uptime_seconds"] >= 0

    def test_metrics_json_and_prometheus_agree(self, client):
        client.ingest(SAMPLE_XML, doc_id="m")
        client.query("m", "//keyword")
        snapshot = client.metrics_json()
        assert snapshot["schema"] == "repro-telemetry/1"
        assert snapshot["counters"]["service.documents.ingested"] == 1
        assert snapshot["counters"]["service.queries"] == 1

        prom = client.metrics_text()
        assert "repro_service_documents_ingested_total 1" in prom
        assert "repro_service_queries_total 1" in prom
        # the text scrape itself was one request beyond the json scrape
        json_requests = snapshot["counters"]["service.requests"]
        for line in prom.splitlines():
            if line.startswith("repro_service_requests_total "):
                assert int(line.split()[-1]) == json_requests + 1

    def test_per_request_spans_recorded(self, client, fresh_telemetry):
        client.ingest(SAMPLE_XML, doc_id="s")
        client.query("s", "//keyword")
        names = {record.name for record in fresh_telemetry.trace}
        assert {"service.request", "service.ingest", "service.query"} <= names
        request_spans = [
            record
            for record in fresh_telemetry.trace
            if record.name == "service.request"
        ]
        assert all(record.attrs["request_id"] for record in request_spans)
        assert {record.attrs["route"] for record in request_spans} == {
            "ingest",
            "query",
        }


class TestProtocol:
    def _raw(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_malformed_request_line_gets_problem_400(self, server):
        raw = self._raw(server.port, b"NOT-HTTP\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"application/problem+json" in raw

    def test_unsupported_version_rejected(self, server):
        raw = self._raw(server.port, b"GET / HTTP/9.9\r\nhost: x\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_chunked_upload_rejected_501(self, server):
        raw = self._raw(
            server.port,
            b"POST /documents HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 501 ")

    def test_oversized_body_rejected_413(self, fresh_telemetry):
        config = ServiceConfig(port=0, max_body_bytes=64)
        with ServiceThread(config) as server:
            raw = self._raw(
                server.port,
                b"POST /documents HTTP/1.1\r\ncontent-length: 100000\r\n\r\n"
                + b"x" * 100,
            )
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        request = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(3):
                sock.sendall(request)
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(65536)
                header_blob, _, rest = head.partition(b"\r\n\r\n")
                length = int(
                    [
                        line.split(b":")[1]
                        for line in header_blob.split(b"\r\n")
                        if line.lower().startswith(b"content-length:")
                    ][0]
                )
                while len(rest) < length:
                    rest += sock.recv(65536)
                assert header_blob.startswith(b"HTTP/1.1 200 ")
        reg = telemetry.registry()
        assert reg.counters["service.requests"].value == 3
        assert reg.counters["service.connections"].value == 1
