"""Request-correlated tracing: ring buffer, head sampling, slow-query log.

The :class:`Tracer` closes the gap between per-span telemetry (PR 2/4)
and per-request observability: the service middleware mints one
:class:`~repro.telemetry.core.TraceContext` per request, the tracer
decides deterministically whether that request is *sampled*, and — being
attached to the :class:`~repro.telemetry.core.MetricRegistry` as a sink
— it collects every completed span that carries the request's trace id.
When the middleware finishes the request it hands the tracer the root
record; the assembled :class:`Trace` (root + engine spans, one joined
tree) lands in a bounded ring buffer served by ``GET /debug/traces``.

Head sampling is **seeded and deterministic**: the keep/drop decision is
``crc32(f"{seed}:{trace_id}") % sample_rate == 0``, so a given trace id
is sampled or not identically across runs and processes — benchmark
baselines and the smoke script rely on that. Sampling only gates
*retention*; span linkage (trace/span ids on records) happens for every
traced request, so an unsampled request still produces a single joined
span tree for anything else observing the stream.

Independently of sampling, any request slower than ``slow_threshold``
seconds is appended to the slow-query log with its query text, document
id, wall time and (when sampled) the captured span tree.

Everything here is off the hot path: with tracing disabled the service
never constructs a context and the sink is never attached, so the cost
is exactly the pre-existing no-op fast path of :mod:`repro.telemetry`.
"""

from __future__ import annotations

import re
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.telemetry.core import SpanRecord, TraceContext, next_span_id

#: ``00-<32 hex trace id>-<16 hex parent span>-<2 hex flags>``
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def parse_traceparent(value: str) -> Optional[tuple[str, str, bool]]:
    """Parse a W3C ``traceparent`` header.

    Returns ``(trace_id, parent_span_id, sampled_flag)`` or ``None`` when
    the header is absent/malformed (malformed headers are ignored, per
    spec: the request simply starts a fresh trace).
    """
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    trace_id, parent_id, flags = match.groups()
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id, bool(int(flags, 16) & 0x01)


@dataclass(frozen=True)
class Trace:
    """One completed, sampled request: the root span plus every engine
    span that joined its tree."""

    trace_id: str
    root: SpanRecord
    spans: tuple[SpanRecord, ...]

    @property
    def seconds(self) -> float:
        return self.root.seconds

    def summary(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "seconds": self.root.seconds,
            "spans": len(self.spans),
            "error": self.root.error,
            "attrs": dict(self.root.attrs),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "seconds": self.root.seconds,
            "spans": [record.as_dict() for record in self.spans],
        }


@dataclass(frozen=True)
class SlowQuery:
    """One request that exceeded the slow threshold."""

    trace_id: str
    seconds: float
    #: XPath text for query requests, ``None`` for other routes
    query: Optional[str]
    #: document id the request touched, when known
    doc: Optional[str]
    route: str
    error: Optional[str] = None
    #: captured span tree — empty unless the request was also sampled
    spans: tuple[SpanRecord, ...] = field(default=())

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "seconds": self.seconds,
            "query": self.query,
            "doc": self.doc,
            "route": self.route,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.spans:
            out["spans"] = [record.as_dict() for record in self.spans]
        return out


#: hard cap on in-flight (begun, unfinished) traces — a leaked context
#: must never grow memory without bound
_PENDING_CAP = 4096


class Tracer:
    """Registry sink that assembles per-request span trees.

    Thread-safe: ``emit`` fires from executor threads while ``begin`` /
    ``finish`` run on the event loop, and the debug endpoints read
    concurrently.
    """

    def __init__(
        self,
        capacity: int = 256,
        sample_rate: int = 1,
        seed: int = 2006,
        slow_threshold: Optional[float] = None,
        slow_capacity: int = 64,
    ):
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.seed = seed
        self.slow_threshold = slow_threshold
        self.slow_capacity = slow_capacity
        self._lock = threading.Lock()
        #: sampled, in-flight traces: trace_id -> collected records
        self._pending: dict[str, list[SpanRecord]] = {}  # repro: guarded-by(_lock)
        #: completed sampled traces, oldest first
        self._traces: OrderedDict[str, Trace] = OrderedDict()  # repro: guarded-by(_lock)
        self._slow: list[SlowQuery] = []  # repro: guarded-by(_lock)
        self.started = 0  # repro: guarded-by(_lock)
        self.sampled = 0  # repro: guarded-by(_lock)
        self.evicted = 0  # repro: guarded-by(_lock)
        self.dropped_pending = 0  # repro: guarded-by(_lock)

    # sampling ---------------------------------------------------------------

    def should_sample(self, trace_id: str) -> bool:
        """Deterministic seeded head-sampling decision for ``trace_id``."""
        if self.sample_rate <= 0:
            return False
        if self.sample_rate == 1:
            return True
        digest = zlib.crc32(f"{self.seed}:{trace_id}".encode("utf-8"))
        return digest % self.sample_rate == 0

    # lifecycle --------------------------------------------------------------

    def begin(
        self,
        trace_id: str,
        path: str = "service.request",
        remote_parent: Optional[str] = None,
    ) -> TraceContext:
        """Open a trace for one request; returns its context to install."""
        sampled = self.should_sample(trace_id)
        ctx = TraceContext(
            trace_id=trace_id,
            span_id=next_span_id(),
            path=path,
            depth=0,
            sampled=sampled,
            remote_parent=remote_parent,
        )
        with self._lock:
            self.started += 1
            if sampled:
                self.sampled += 1
                if len(self._pending) >= _PENDING_CAP:
                    # drop the arbitrary oldest insertion to stay bounded
                    self._pending.pop(next(iter(self._pending)))
                    self.dropped_pending += 1
                self._pending[trace_id] = []
        return ctx

    def emit(self, record: SpanRecord) -> None:
        """Sink hook: collect spans belonging to a pending sampled trace."""
        trace_id = record.trace_id
        if trace_id is None:
            return
        with self._lock:
            bucket = self._pending.get(trace_id)
            if bucket is not None:
                bucket.append(record)

    def finish(
        self,
        ctx: TraceContext,
        root: SpanRecord,
        query: Optional[str] = None,
        doc: Optional[str] = None,
    ) -> Optional[Trace]:
        """Seal the request: assemble its tree, retire it to the buffers.

        ``root`` is the request-level record the middleware built (it has
        already been through ``record_span``, so if the trace is sampled
        it is sitting in the pending bucket too — spans are deduplicated
        by span id). Returns the stored :class:`Trace` when sampled.
        """
        trace = None
        with self._lock:
            records = self._pending.pop(ctx.trace_id, None)
            if ctx.sampled and records is not None:
                seen: set[Optional[int]] = set()
                ordered: list[SpanRecord] = []
                for record in [root, *records]:
                    if record.span_id in seen:
                        continue
                    seen.add(record.span_id)
                    ordered.append(record)
                # chronological after the root, for readable trees
                ordered[1:] = sorted(ordered[1:], key=lambda r: (r.start, r.depth))
                trace = Trace(
                    trace_id=ctx.trace_id, root=root, spans=tuple(ordered)
                )
                self._traces[ctx.trace_id] = trace
                self._traces.move_to_end(ctx.trace_id)
                while len(self._traces) > self.capacity:
                    self._traces.popitem(last=False)
                    self.evicted += 1
            if (
                self.slow_threshold is not None
                and root.seconds >= self.slow_threshold
            ):
                entry = SlowQuery(
                    trace_id=ctx.trace_id,
                    seconds=root.seconds,
                    query=query,
                    doc=doc,
                    route=str(root.attrs.get("route", root.name)),
                    error=root.error,
                    spans=trace.spans if trace is not None else (),
                )
                self._slow.append(entry)
                if len(self._slow) > self.slow_capacity:
                    del self._slow[: len(self._slow) - self.slow_capacity]
        return trace

    # accessors --------------------------------------------------------------

    def traces(self) -> list[Trace]:
        """Completed sampled traces, most recent last."""
        with self._lock:
            return list(self._traces.values())

    def trace(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            return self._traces.get(trace_id)

    def slow(self) -> list[SlowQuery]:
        with self._lock:
            return list(self._slow)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "started": self.started,
                "sampled": self.sampled,
                "buffered": len(self._traces),
                "evicted": self.evicted,
                "pending": len(self._pending),
                "dropped_pending": self.dropped_pending,
                "slow": len(self._slow),
            }


def format_trace(trace: Trace) -> str:
    """Render a trace as an indented text tree (for ``repro stats``)."""
    lines = [
        f"trace {trace.trace_id}  {trace.seconds * 1000:.3f} ms  "
        f"{len(trace.spans)} spans"
    ]
    children: dict[Optional[int], list[SpanRecord]] = {}
    for record in trace.spans:
        children.setdefault(record.parent_id, []).append(record)

    root = trace.spans[0] if trace.spans else trace.root
    # explicit stack: trace depth tracks query nesting, not the C stack
    stack: list[tuple[SpanRecord, int]] = [(root, 1)]
    while stack:
        record, indent = stack.pop()
        attrs = ""
        if record.attrs:
            attrs = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(record.attrs.items())
            )
        error = f"  !{record.error}" if record.error else ""
        lines.append(
            f"{'  ' * indent}- {record.name}  "
            f"{record.seconds * 1000:.3f} ms{error}{attrs}"
        )
        for child in reversed(children.get(record.span_id, [])):
            stack.append((child, indent + 1))
    return "\n".join(lines)
