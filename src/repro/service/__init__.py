"""repro.service — concurrent HTTP front end over the document store.

A stdlib-only asyncio service (see ``docs/SERVICE.md``):

* ``POST /documents`` — bulk-load ingest
  (:class:`~repro.bulkload.importer.BulkLoader`), with journaled
  crash-safe resume (``?journal=1`` / ``?resume=1``),
* ``GET /documents/{doc_id}/query?xpath=...`` — measured XPath
  execution over :mod:`repro.query`,
* ``GET /healthz`` — liveness plus the degradation counters the fault
  and fallback layers maintain,
* ``GET /metrics`` — the :mod:`repro.telemetry` registry as JSON or
  Prometheus text exposition.

Layering: ``app`` (HTTP + lifecycle) → ``middleware`` (ids, admission,
timeouts, problem-JSON) → ``handlers`` (routes) → ``state`` (store
registry + locks); ``client`` is the blocking test/bench client.

Start one from the CLI (``repro serve --port 8080``), or in-process::

    from repro.service import ServiceConfig, ServiceThread, ServiceClient

    with ServiceThread(ServiceConfig(port=0)) as server:
        with ServiceClient(port=server.port) as client:
            client.ingest("<doc><a/></doc>", doc_id="d1")
            client.query("d1", "//a")
"""

from repro.service.app import (
    DocumentService,
    Router,
    ServiceConfig,
    ServiceThread,
    run,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.middleware import (
    MiddlewareStack,
    Request,
    Response,
    ServiceError,
    problem,
)
from repro.service.state import StoreRegistry

__all__ = [
    "DocumentService",
    "MiddlewareStack",
    "Request",
    "Response",
    "Router",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "StoreRegistry",
    "problem",
    "run",
]
