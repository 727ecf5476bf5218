"""Registry snapshots, JSON-lines export and human-readable rendering.

The on-disk formats are **schema-versioned** so baseline files
(``BENCH_*.json``) and exported metric streams can be validated instead
of rotting silently:

* :func:`snapshot` — one JSON-safe dict of the whole registry, tagged
  with :data:`SCHEMA`;
* :func:`export_jsonl` / :func:`load_jsonl` — a line-oriented stream
  (one metric or span per line, ``meta`` header first) that round-trips
  back into the snapshot shape;
* :func:`format_metrics` — the table the ``repro stats`` subcommand
  prints;
* :func:`prometheus_text` — the Prometheus/OpenMetrics text exposition
  served by ``GET /metrics`` and ``repro stats --prom``;
* :func:`export_chrome_trace` / :func:`load_chrome_trace` — span records
  as Chrome-trace / Perfetto JSON (``repro stats --chrome-trace`` and the
  service's ``/debug/traces/{id}?format=chrome``).
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, TextIO, Union

from repro.errors import ReproError
from repro.telemetry.core import MetricRegistry, SpanRecord, registry as _default_registry

#: bump when the snapshot/JSONL layout changes incompatibly
SCHEMA = "repro-telemetry/1"


def snapshot(
    reg: Optional[MetricRegistry] = None, include_trace: bool = False
) -> dict[str, Any]:
    """A JSON-safe view of every metric in ``reg`` (default: global)."""
    reg = reg if reg is not None else _default_registry()
    out: dict[str, Any] = {
        "schema": SCHEMA,
        "counters": {name: c.value for name, c in sorted(reg.counters.items())},
        "gauges": {
            name: {"value": g.value, "max": g.max}
            for name, g in sorted(reg.gauges.items())
        },
        "histograms": {
            name: h.as_dict() for name, h in sorted(reg.histograms.items())
        },
    }
    if include_trace:
        out["trace"] = [record.as_dict() for record in reg.trace]
        out["dropped_spans"] = reg.dropped_spans
    return out


def export_jsonl(
    stream: TextIO, reg: Optional[MetricRegistry] = None, include_trace: bool = True
) -> int:
    """Write the registry as JSON lines; returns the number of lines."""
    reg = reg if reg is not None else _default_registry()
    lines = 0

    def emit(obj: dict[str, Any]) -> None:
        nonlocal lines
        stream.write(json.dumps(obj, sort_keys=True) + "\n")
        lines += 1

    emit({"kind": "meta", "schema": SCHEMA})
    for name, counter in sorted(reg.counters.items()):
        emit({"kind": "counter", "name": name, "value": counter.value})
    for name, gauge in sorted(reg.gauges.items()):
        emit({"kind": "gauge", "name": name, "value": gauge.value, "max": gauge.max})
    for name, histogram in sorted(reg.histograms.items()):
        emit({"kind": "histogram", "name": name, **histogram.as_dict()})
    if include_trace:
        for record in reg.trace:
            emit({"kind": "span", **record.as_dict()})
    return lines


def load_jsonl(stream: TextIO) -> dict[str, Any]:
    """Parse a JSON-lines export back into the :func:`snapshot` shape.

    Raises :class:`ReproError` on a missing/mismatched schema header, so
    stale exports fail loudly instead of being silently misread.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, Any] = {}
    histograms: dict[str, Any] = {}
    trace: list[dict[str, Any]] = []
    schema: Optional[str] = None
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid telemetry JSONL at line {lineno}: {exc}") from None
        kind = obj.get("kind")
        if kind == "meta":
            schema = obj.get("schema")
            if schema != SCHEMA:
                raise ReproError(
                    f"telemetry schema mismatch: file has {schema!r}, reader expects {SCHEMA!r}"
                )
        elif kind == "counter":
            counters[obj["name"]] = obj["value"]
        elif kind == "gauge":
            gauges[obj["name"]] = {"value": obj["value"], "max": obj["max"]}
        elif kind == "histogram":
            histograms[obj["name"]] = {
                key: obj[key]
                for key in ("count", "total", "mean", "min", "max", "last", "p50", "p95", "p99")
                if key in obj  # quantiles are absent in pre-quantile exports
            }
        elif kind == "span":
            trace.append({key: value for key, value in obj.items() if key != "kind"})
        else:
            raise ReproError(f"unknown telemetry record kind {kind!r} at line {lineno}")
    if schema is None:
        raise ReproError("telemetry JSONL has no meta/schema header line")
    out: dict[str, Any] = {
        "schema": schema,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
    if trace:
        out["trace"] = trace
    return out


#: Content-Type a Prometheus scraper expects for the text exposition
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: quantile labels emitted per histogram (matching the JSON p50/p95/p99)
_PROM_QUANTILES = (("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99))


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """Sanitize a registry metric name into a Prometheus metric name.

    Prometheus names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; our dotted
    names (``service.requests``, ``span.query.run``) map every
    disallowed character to ``_``. The mapping is not injective in
    general, but registry names only use ``[a-z0-9._-]`` in practice,
    and the sorted rendering keeps any collision deterministic.
    """
    safe = "".join(
        ch if (ch.isascii() and ch.isalnum()) or ch == "_" else "_" for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return prefix + safe


def _prom_value(value: float) -> str:
    """Render a sample value; ``repr`` keeps floats round-trippable."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"non-numeric metric value: {value!r}")
    return repr(value)


def prometheus_text(reg: Optional[MetricRegistry] = None) -> str:
    """Render the registry in the Prometheus text exposition format.

    Deterministic: metric names are sorted within each kind and the
    float rendering is ``repr``-stable, so the same registry state
    always yields byte-identical output (pinned by tests).

    * counters → ``<name>_total`` counter samples,
    * gauges → ``<name>`` plus a ``<name>_max`` high-water-mark gauge,
    * histograms → Prometheus *summaries*: ``{quantile="0.5|0.95|0.99"}``
      samples from the deterministic reservoir plus ``_sum``/``_count``.

    A histogram carrying an exemplar (the trace id of the request behind
    its latest annotated observation) additionally emits an
    exemplar-style comment line — summaries cannot carry OpenMetrics
    ``#``-exemplar syntax proper, and a comment keeps the exposition
    parseable by every scraper while still surfacing the trace id::

        # EXEMPLAR repro_service_request_seconds trace_id="req-0001" value=0.0123

    Registries without exemplars render byte-identically to before.

    Registry names are sanitized via :func:`_prom_name` (dots become
    underscores, everything gains a ``repro_`` prefix).
    """
    reg = reg if reg is not None else _default_registry()
    lines: list[str] = []
    for name, counter in sorted(reg.counters.items()):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(counter.value)}")
    for name, gauge in sorted(reg.gauges.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauge.value)}")
        lines.append(f"# TYPE {metric}_max gauge")
        lines.append(f"{metric}_max {_prom_value(gauge.max)}")
    for name, histogram in sorted(reg.histograms.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} summary")
        for label, q in _PROM_QUANTILES:
            value = histogram.quantile(q)
            if value is not None:
                lines.append(f'{metric}{{quantile="{label}"}} {_prom_value(value)}')
        lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
        lines.append(f"{metric}_count {_prom_value(histogram.count)}")
        exemplar = histogram.exemplar
        if exemplar is not None:
            trace_id, value = exemplar
            lines.append(
                f'# EXEMPLAR {metric} trace_id="{trace_id}" '
                f"value={_prom_value(value)}"
            )
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def format_metrics(reg: Optional[MetricRegistry] = None) -> str:
    """Render the registry as aligned text (the ``repro stats`` output)."""
    reg = reg if reg is not None else _default_registry()
    sections: list[str] = []
    if reg.counters:
        width = max(len(name) for name in reg.counters)
        lines = [
            f"  {name:<{width}}  {counter.value}"
            for name, counter in sorted(reg.counters.items())
        ]
        sections.append("counters:\n" + "\n".join(lines))
    if reg.gauges:
        width = max(len(name) for name in reg.gauges)
        lines = [
            f"  {name:<{width}}  {gauge.value:g} (max {gauge.max:g})"
            for name, gauge in sorted(reg.gauges.items())
        ]
        sections.append("gauges:\n" + "\n".join(lines))
    if reg.histograms:
        width = max(len(name) for name in reg.histograms)
        lines = []
        for name, h in sorted(reg.histograms.items()):
            p50, p95, p99 = h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
            lines.append(
                f"  {name:<{width}}  n={h.count}  mean={h.mean:.6f}  "
                f"min={0.0 if h.min is None else h.min:.6f}  "
                f"max={0.0 if h.max is None else h.max:.6f}  "
                f"p50={0.0 if p50 is None else p50:.6f}  "
                f"p95={0.0 if p95 is None else p95:.6f}  "
                f"p99={0.0 if p99 is None else p99:.6f}"
            )
        sections.append("histograms (seconds for span.*):\n" + "\n".join(lines))
    if not sections:
        return "no metrics recorded (is telemetry enabled?)"
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Chrome trace (``chrome://tracing`` / https://ui.perfetto.dev)
#
# Every completed span carries its ``perf_counter()`` entry reading
# (``SpanRecord.start``), so a registry trace converts losslessly into
# Chrome's JSON-object trace format using *complete* events (``"ph": "X"``).
# Timestamps are re-based to the earliest span in the trace (Chrome wants
# microseconds from an arbitrary epoch), span attributes and the nesting
# path travel in ``args``, and the registry's counters are attached as
# process metadata so a trace file is self-describing.
# ---------------------------------------------------------------------------

#: schema marker stored in the trace's otherData block
CHROME_SCHEMA = "repro-chrome-trace/1"

Record = Union[SpanRecord, Mapping[str, Any]]


def _as_mapping(record: Record) -> Mapping[str, Any]:
    if isinstance(record, SpanRecord):
        return record.as_dict()
    return record


def chrome_trace_events(records, pid: int = 1, tid: int = 1) -> list[dict[str, Any]]:
    """Convert span records into Chrome *complete* events.

    Accepts live :class:`SpanRecord` objects or dicts loaded from a JSONL
    export. Event order follows the input (completion order); viewers
    re-sort by timestamp anyway.
    """
    mapped = [_as_mapping(r) for r in records]
    if not mapped:
        return []
    epoch = min(float(m.get("start", 0.0)) for m in mapped)
    events: list[dict[str, Any]] = []
    for m in mapped:
        args: dict[str, Any] = {"path": m["path"], "depth": m["depth"]}
        if m.get("error") is not None:
            args["error"] = m["error"]
        args.update(m.get("attrs") or {})
        events.append(
            {
                "name": m["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (float(m.get("start", 0.0)) - epoch) * 1e6,
                "dur": float(m["seconds"]) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return events


def export_chrome_trace(
    stream: TextIO, reg: Optional[MetricRegistry] = None, indent: Optional[int] = None
) -> int:
    """Write the registry's trace as a Chrome trace JSON object.

    Returns the number of trace events written. Counters ride along as
    ``otherData`` so the file identifies its workload without the
    matching metrics export.
    """
    reg = reg if reg is not None else _default_registry()
    payload = {
        "traceEvents": chrome_trace_events(reg.trace),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": CHROME_SCHEMA,
            "dropped_spans": reg.dropped_spans,
            "counters": {name: c.value for name, c in sorted(reg.counters.items())},
        },
    }
    json.dump(payload, stream, indent=indent, sort_keys=True)
    stream.write("\n")
    return len(payload["traceEvents"])


def load_chrome_trace(stream: TextIO) -> list[dict[str, Any]]:
    """Parse a Chrome trace written by :func:`export_chrome_trace`.

    Returns the event list; raises :class:`ReproError` on malformed input
    or a foreign/missing schema marker, so stale or third-party traces
    fail loudly instead of being half-read.
    """
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid chrome trace JSON: {exc}") from None
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ReproError("chrome trace has no traceEvents array")
    schema = payload.get("otherData", {}).get("schema")
    if schema != CHROME_SCHEMA:
        raise ReproError(
            f"chrome trace schema mismatch: file has {schema!r}, reader expects {CHROME_SCHEMA!r}"
        )
    events = payload["traceEvents"]
    for idx, event in enumerate(events):
        for key in ("name", "ph", "ts", "dur"):
            if key not in event:
                raise ReproError(f"chrome trace event {idx} is missing {key!r}")
    return events
