"""repro.telemetry — instrumentation, tracing and perf baselines.

The measurement substrate of the repo (see ``docs/TELEMETRY.md``):

* a metrics core (:class:`Counter` / :class:`Gauge` / :class:`Histogram`
  in a :class:`MetricRegistry`) with a **no-op fast path** while
  disabled,
* nestable, thread-local, exception-safe trace :class:`Span`s,
* pluggable sinks (in-memory registry, streaming
  :class:`JsonLinesSink`) and schema-versioned exports
  (:func:`snapshot`, :func:`export_jsonl`, :func:`load_jsonl`),
* an environment fingerprint for baseline files
  (:func:`environment_fingerprint`),
* Chrome-trace / Perfetto export of span records
  (:func:`export_chrome_trace`, :func:`load_chrome_trace`) and a
  deterministic self-time profile over the span tree
  (:func:`build_profile`, :func:`format_profile`).

Instrumentation hooks live in the hot layers themselves —
``Partitioner.partition``, the storage engine's buffer pool and record
manager, ``bulkload.BulkLoader`` and ``query.run_query`` — and all
route through the helpers here (``count`` / ``observe`` / ``gauge_set``
/ ``gauge_max`` / ``span``). Manual ``time.time()`` timing outside this
package is rejected by ``repro-lint`` rule OBS001.

Enable with ``REPRO_TELEMETRY=1``, or::

    from repro import telemetry

    with telemetry.capture() as reg:
        partition_tree(tree, 256, "ekm")
    print(telemetry.format_metrics(reg))
"""

from repro.telemetry.core import (
    Counter,
    Gauge,
    Histogram,
    JsonLinesSink,
    MetricRegistry,
    Sink,
    Span,
    SpanRecord,
    TraceContext,
    capture,
    clock,
    count,
    current_span,
    current_trace,
    disable,
    enable,
    enabled,
    enabled_scope,
    gauge_max,
    gauge_set,
    next_span_id,
    observe,
    registry,
    reset_trace,
    set_registry,
    set_trace,
    span,
    trace_scope,
)
from repro.telemetry.env import environment_fingerprint
from repro.telemetry.export import (
    CHROME_SCHEMA,
    PROMETHEUS_CONTENT_TYPE,
    SCHEMA,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    format_metrics,
    load_chrome_trace,
    load_jsonl,
    prometheus_text,
    snapshot,
)
from repro.telemetry.heat import DocumentHeat, HeatAccumulator, HeatProfile
from repro.telemetry.profile import (
    ProfileNode,
    build_profile,
    format_profile,
    profile_registry,
)
from repro.telemetry.trace import (
    SlowQuery,
    Trace,
    Tracer,
    format_trace,
    parse_traceparent,
)

__all__ = [
    "CHROME_SCHEMA",
    "Counter",
    "DocumentHeat",
    "Gauge",
    "HeatAccumulator",
    "HeatProfile",
    "Histogram",
    "JsonLinesSink",
    "MetricRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "ProfileNode",
    "SCHEMA",
    "Sink",
    "SlowQuery",
    "Span",
    "SpanRecord",
    "Trace",
    "TraceContext",
    "Tracer",
    "build_profile",
    "capture",
    "chrome_trace_events",
    "clock",
    "count",
    "current_span",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "environment_fingerprint",
    "export_chrome_trace",
    "export_jsonl",
    "format_metrics",
    "format_profile",
    "format_trace",
    "gauge_max",
    "gauge_set",
    "load_chrome_trace",
    "load_jsonl",
    "next_span_id",
    "observe",
    "parse_traceparent",
    "profile_registry",
    "prometheus_text",
    "registry",
    "reset_trace",
    "set_registry",
    "set_trace",
    "snapshot",
    "span",
    "trace_scope",
]
