"""End-to-end service smoke: boot, ingest, query, scrape, shut down.

``python -m repro.service.smoke`` (also ``make service-smoke`` and the
CI ``service-smoke`` job) boots a real server on an ephemeral port,
drives it over real sockets with the blocking client, and checks every
endpoint once. Exit 0 means the whole request path — parser, router,
middleware, executor offload, engine, telemetry export — works.
"""

from __future__ import annotations

import io
import json
import sys

from repro.telemetry import load_chrome_trace
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient, ServiceClientError

SMOKE_XML = (
    "<site><people>"
    + "".join(
        f"<person id='p{i}'><name>person {i}</name>"
        f"<interest><keyword>k{i % 7}</keyword></interest></person>"
        for i in range(40)
    )
    + "</people></site>"
)


def main() -> int:
    failures: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(label)

    config = ServiceConfig(
        port=0,
        max_concurrency=8,
        # a zero threshold pushes every request into the slow-query log,
        # so the /debug/slow check below has something to find
        slow_query_seconds=0.0,
    )
    with ServiceThread(config) as server:
        print(f"service-smoke: listening on 127.0.0.1:{server.port}")
        with ServiceClient(port=server.port) as client:
            info = client.ingest(SMOKE_XML, doc_id="smoke", journal=True)
            check(
                "ingest",
                info["status"] == "ready" and info["nodes"] > 0,
                f"{info['nodes']} nodes, {info['partitions']} partitions",
            )

            result = client.query("smoke", "//keyword", show=3)
            check(
                "query //keyword",
                result["results"] == 40 and len(result["values"]) == 3,
                f"{result['results']} results, cost {result['cost']:.1f}",
            )

            health = client.healthz()
            check(
                "healthz",
                health["status"] == "ok"
                and health["documents"]["ready"] == 1,
                f"status={health['status']}",
            )

            snapshot = client.metrics_json()
            requests_total = snapshot["counters"].get("service.requests", 0)
            check(
                "metrics json",
                snapshot["schema"] == "repro-telemetry/1" and requests_total >= 3,
                f"{requests_total} requests counted",
            )

            prom = client.metrics_text()
            check(
                "metrics prometheus",
                "# TYPE repro_service_requests_total counter" in prom
                and "repro_service_request_seconds_count" in prom,
                f"{len(prom.splitlines())} lines",
            )

            try:
                client.query("smoke", "//(")
                check("query syntax error -> 400", False)
            except ServiceClientError as exc:
                check(
                    "query syntax error -> 400",
                    exc.status == 400 and exc.problem.get("status") == 400,
                )

            traces = client.debug_traces()
            query_traces = [
                t for t in traces["traces"] if t["attrs"].get("route") == "query"
            ]
            check(
                "debug traces",
                traces["tracing"]["sampled"] >= 1 and len(query_traces) >= 1,
                f"{len(traces['traces'])} buffered",
            )

            trace_id = query_traces[-1]["trace_id"]
            trace = client.debug_trace(trace_id)
            roots = [s for s in trace["spans"] if s.get("parent_id") is None]
            engine_spans = [
                s for s in trace["spans"] if s["name"] == "query.run"
            ]
            check(
                "debug trace span tree",
                len(roots) == 1
                and roots[0]["name"] == "service.request"
                and len(engine_spans) == 1,
                f"{len(trace['spans'])} spans, {len(roots)} root(s)",
            )

            chrome = client.debug_trace(trace_id, chrome=True)
            reloaded = load_chrome_trace(io.StringIO(json.dumps(chrome)))
            check(
                "debug trace chrome round-trip",
                len(reloaded) == len(trace["spans"])
                and chrome["otherData"]["trace_id"] == trace_id,
                f"{len(reloaded)} events",
            )

            slow = client.debug_slow()
            slow_queries = [
                entry for entry in slow["slow"] if entry["route"] == "query"
            ]
            check(
                "debug slow",
                len(slow_queries) >= 1
                and slow_queries[0]["query"] == "//keyword",
                f"{len(slow['slow'])} entries",
            )

            heat = client.debug_heat()
            hottest = heat.get("hottest", [])
            smoke_heat = heat["documents"].get("smoke", {})
            check(
                "debug heat",
                len(hottest) >= 1
                and hottest[0]["doc"] == "smoke"
                and smoke_heat.get("steps", 0) > 0,
                f"{len(hottest)} hot partitions, "
                f"{smoke_heat.get('steps', 0)} steps",
            )

            deleted = client.delete("smoke")
            check("delete", deleted["status"] == "deleted")
    print(
        "service-smoke: "
        + ("OK" if not failures else f"FAILED ({', '.join(failures)})")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
