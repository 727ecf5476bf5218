"""Route handlers for the document-store service.

Async methods here never touch the engine directly: every blocking call
— parse, partition, page I/O, even registry dict work — rides
``DocumentService.run_blocking`` so the event-loop thread only shuffles
sockets and JSON. repro-lint rule RB002 enforces the discipline for the
engine entry points.

Exceptions are the observability endpoints: ``/healthz``, ``/metrics``
and the trace-reading ``/debug/*`` endpoints read the telemetry
registry / tracer (all internally locked, microsecond critical
sections) directly on the loop so they stay responsive even when the
worker pool is saturated with ingests — exactly when you want a health
probe or a trace lookup to answer. ``/debug/heat`` is the one debug
route that *does* offload: orienting raw hop tallies onto tree edges is
O(distinct hops), engine-grade work that belongs on the executor.
"""

from __future__ import annotations

import json

from typing import TYPE_CHECKING

from repro import telemetry
from repro.service.middleware import (
    DocumentNotFoundError,
    Request,
    Response,
    ValidationError,
)

if TYPE_CHECKING:  # import cycle: app builds Handlers
    from repro.service.app import DocumentService, Router

#: the query parameters ``POST /documents`` reads
_INGEST_PARAMS = frozenset({"id", "algorithm", "limit", "journal", "resume"})

#: counters surfaced (and summed) by /healthz as degradation signals —
#: every one of these is zero in a healthy process
DEGRADATION_COUNTERS = (
    "faults.injected",
    "partition.fallback.downgrades",
    "storage.buffer.corrupt_reads",
    "service.documents.failed",
    "service.errors.corrupt",
    "service.errors.fault",
    "service.errors.internal",
    "service.errors.io",
    "service.recovery.wal_quarantined",
)


class Handlers:
    """The service's route handlers, bound to one :class:`DocumentService`."""

    def __init__(self, service: "DocumentService"):
        self.service = service
        self.state = service.state

    def install(self, router: "Router") -> None:
        router.add("GET", "/", self.root, "root")
        router.add("GET", "/healthz", self.healthz, "healthz")
        router.add("GET", "/metrics", self.metrics, "metrics")
        router.add("POST", "/documents", self.ingest, "ingest")
        router.add("GET", "/documents", self.list_documents, "documents")
        router.add("GET", "/documents/{doc_id}", self.document_info, "document")
        router.add("DELETE", "/documents/{doc_id}", self.delete_document, "delete")
        router.add("GET", "/documents/{doc_id}/query", self.query, "query")
        router.add("GET", "/debug/traces", self.debug_traces, "debug_traces")
        router.add(
            "GET", "/debug/traces/{trace_id}", self.debug_trace, "debug_trace"
        )
        router.add("GET", "/debug/slow", self.debug_slow, "debug_slow")
        router.add("GET", "/debug/heat", self.debug_heat, "debug_heat")

    # -- document lifecycle ----------------------------------------------

    async def ingest(self, request: Request) -> Response:
        """``POST /documents[?id=&algorithm=&limit=&journal=&resume=]``

        Body: the XML document. 201 with the document info on success.
        Any other query parameter is a 400: a misspelt ``?jounal=1``
        must not ingest without the journal it asked for.
        """
        unknown = sorted(request.params.keys() - _INGEST_PARAMS)
        if unknown:
            raise ValidationError(
                f"POST /documents does not take query parameter(s) "
                f"{', '.join(map(repr, unknown))}; allowed: "
                f"{', '.join(sorted(_INGEST_PARAMS))}"
            )
        if not request.body:
            raise ValidationError("POST /documents requires a non-empty XML body")
        info = await self.service.run_blocking(
            self.state.ingest_document,
            request.body,
            doc_id=request.params.get("id"),
            algorithm=request.params.get("algorithm"),
            limit=request.param_int("limit", minimum=1),
            journal=request.param_flag("journal"),
            resume=request.param_flag("resume"),
        )
        return Response.json(info, status=201)

    async def query(self, request: Request) -> Response:
        """``GET /documents/{doc_id}/query?xpath=...[&show=N]``"""
        xpath = request.params.get("xpath")
        if not xpath:
            raise ValidationError("query requires an ?xpath=... parameter")
        show = request.param_int("show", default=0, minimum=0)
        payload = await self.service.run_blocking(
            self.state.query_document,
            request.path_params["doc_id"],
            xpath,
            show or 0,
        )
        return Response.json(payload)

    async def list_documents(self, request: Request) -> Response:
        documents = await self.service.run_blocking(self.state.list_documents)
        return Response.json({"documents": documents})

    async def document_info(self, request: Request) -> Response:
        info = await self.service.run_blocking(
            self.state.document_info, request.path_params["doc_id"]
        )
        return Response.json(info)

    async def delete_document(self, request: Request) -> Response:
        info = await self.service.run_blocking(
            self.state.delete_document, request.path_params["doc_id"]
        )
        return Response.json(info)

    # -- observability ---------------------------------------------------

    async def root(self, request: Request) -> Response:
        return Response.json(
            {
                "service": "repro-service",
                "description": "tree-sibling-partitioned XML document store",
                "endpoints": [
                    "POST /documents",
                    "GET /documents",
                    "GET /documents/{doc_id}",
                    "GET /documents/{doc_id}/query?xpath=...",
                    "DELETE /documents/{doc_id}",
                    "GET /healthz",
                    "GET /metrics",
                    "GET /debug/traces",
                    "GET /debug/traces/{trace_id}",
                    "GET /debug/slow",
                    "GET /debug/heat",
                ],
            }
        )

    async def healthz(self, request: Request) -> Response:
        """Liveness + degradation counters; always 200 while serving."""
        reg = telemetry.registry()
        degradation = {}
        for name in DEGRADATION_COUNTERS:
            counter = reg.counters.get(name)
            degradation[name] = counter.value if counter is not None else 0
        degradation["telemetry.sink_errors"] = reg.sink_errors
        degraded = any(value > 0 for value in degradation.values())
        payload = {
            "status": "degraded" if degraded else "ok",
            "uptime_seconds": round(
                telemetry.clock() - self.service.started_at, 3
            ),
            "documents": self.state.status_counts(),
            "inflight": self.service.middleware.inflight,
            "max_concurrency": self.service.middleware.max_concurrency,
            "degradation": degradation,
            # what boot_recovery swept out of the journal dir at startup
            "recovery": self.state.recovery,
            # structural-index coverage (and cache occupancy if enabled)
            "index": self.state.index_status(),
        }
        return Response.json(payload)

    async def metrics(self, request: Request) -> Response:
        """``GET /metrics[?format=json|prom]`` — registry export.

        Default is the Prometheus text exposition (what a scraper
        expects); ``?format=json`` or an ``Accept: application/json``
        header selects the JSON snapshot.
        """
        fmt = request.params.get("format")
        if fmt not in (None, "json", "prom", "prometheus"):
            raise ValidationError(
                f"unknown metrics format {fmt!r} (use json or prom)"
            )
        reg = telemetry.registry()
        wants_json = fmt == "json" or (
            fmt is None and "application/json" in request.headers.get("accept", "")
        )
        if wants_json:
            return Response.json(telemetry.snapshot(reg))
        return Response.text(
            telemetry.prometheus_text(reg),
            content_type=telemetry.PROMETHEUS_CONTENT_TYPE,
        )

    # -- debug: tracing / slow queries / heat -----------------------------

    def _tracer(self) -> "telemetry.Tracer":
        tracer = self.service.tracer
        if tracer is None:
            raise ValidationError(
                "tracing is disabled for this service instance "
                "(ServiceConfig.tracing)"
            )
        return tracer

    async def debug_traces(self, request: Request) -> Response:
        """``GET /debug/traces`` — recent sampled traces, oldest first."""
        tracer = self._tracer()
        return Response.json(
            {
                "tracing": tracer.stats(),
                "sample_rate": tracer.sample_rate,
                "traces": [trace.summary() for trace in tracer.traces()],
            }
        )

    async def debug_trace(self, request: Request) -> Response:
        """``GET /debug/traces/{trace_id}[?format=chrome]`` — one span tree.

        ``?format=chrome`` renders the trace through the telemetry
        Chrome-trace exporter: the payload round-trips through
        :func:`repro.telemetry.load_chrome_trace` and opens in
        ``chrome://tracing`` / Perfetto.
        """
        tracer = self._tracer()
        trace_id = request.path_params["trace_id"]
        trace = tracer.trace(trace_id)
        if trace is None:
            raise DocumentNotFoundError(
                f"no sampled trace {trace_id!r} in the ring buffer "
                f"(capacity {tracer.capacity})"
            )
        fmt = request.params.get("format")
        if fmt in ("chrome", "perfetto"):
            payload = {
                "traceEvents": telemetry.chrome_trace_events(trace.spans),
                "displayTimeUnit": "ms",
                "otherData": {
                    "schema": telemetry.CHROME_SCHEMA,
                    "trace_id": trace.trace_id,
                },
            }
            return Response.text(
                json.dumps(payload, sort_keys=True) + "\n",
                content_type="application/json",
            )
        if fmt is not None:
            raise ValidationError(
                f"unknown trace format {fmt!r} (use chrome)"
            )
        return Response.json(trace.as_dict())

    async def debug_slow(self, request: Request) -> Response:
        """``GET /debug/slow`` — requests over the slow-query threshold."""
        tracer = self._tracer()
        return Response.json(
            {
                "threshold_seconds": tracer.slow_threshold,
                "slow": [entry.as_dict() for entry in tracer.slow()],
            }
        )

    async def debug_heat(self, request: Request) -> Response:
        """``GET /debug/heat[?top=N][&edges=1]`` — access heat per
        (document, partition); ``edges=1`` includes the oriented edge
        counts that feed ``repro.partition.workload``."""
        heat = self.service.heat
        if heat is None:
            raise ValidationError(
                "heat accounting is disabled for this service instance "
                "(ServiceConfig.heat)"
            )
        top = request.param_int("top", default=10, minimum=1)
        include_edges = request.param_flag("edges")
        profile = await self.service.run_blocking(heat.profile)
        return Response.json(
            profile.as_dict(top=top, include_edges=include_edges)
        )
