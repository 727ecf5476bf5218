"""Low-overhead metrics and tracing core.

Three metric kinds live in a :class:`MetricRegistry`:

* :class:`Counter` — monotonically increasing totals (events, cells,
  page hits),
* :class:`Gauge` — last/maximum observed values (peak resident weight,
  root weight of the last partitioning),
* :class:`Histogram` — count/total/min/max summaries of repeated
  observations; every finished span feeds one automatically.

Trace :class:`Span`s nest through a **thread-local** stack, so
concurrent sessions never interleave paths. A span always measures its
wall time (``.elapsed`` is available to the caller either way) but only
*records* — registry histogram, trace buffer, sinks — while telemetry is
enabled.

The whole module is built around a **no-op fast path**: one module-level
boolean, checked first by every helper. With telemetry disabled (the
default) an instrumented hot loop pays a single attribute load and a
falsy branch per hook — the disabled-mode tests in ``tests/telemetry``
pin the behaviour, and ``telemetry.lib_overhead_ratio`` of the
``BENCHMARK.json`` benchmark reports what switching it on costs.

Enable globally with ``REPRO_TELEMETRY=1`` in the environment, or
programmatically via :func:`enable` / :func:`enabled_scope` /
:func:`capture`. Recording sinks are pluggable: the in-memory registry
is always on; attach a :class:`JsonLinesSink` to stream completed spans
as JSON lines (see :mod:`repro.telemetry.export` for whole-registry
exports).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Iterator, Optional, Protocol, TextIO


def _enabled_by_env() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
        "no",
    )


#: global on/off switch — the no-op fast path checks this first
_enabled: bool = _enabled_by_env()


def enabled() -> bool:
    """Is telemetry currently recording?"""
    return _enabled


def enable() -> None:
    """Turn recording on for the whole process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn recording off (hooks fall back to the no-op fast path)."""
    global _enabled
    _enabled = False


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force telemetry on (or off); restores the prior state."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer total.

    ``inc`` is atomic: ``self.value += n`` alone compiles to separate
    load and store bytecodes, so two threads interleaving there lose
    updates (repro-lint rule CC003). Metrics created through a
    :class:`MetricRegistry` share that registry's lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.RLock] = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.value = 0  # repro: guarded-by(_lock)

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value; tracks the maximum it ever held.

    ``set``/``set_max`` are compare-and-update sequences, so they hold
    the (per-registry) lock to keep the value/max pair consistent under
    concurrent writers.
    """

    __slots__ = ("name", "value", "max", "_lock")

    def __init__(self, name: str, lock: Optional[threading.RLock] = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.value: float = 0  # repro: guarded-by(_lock)
        self.max: float = 0  # repro: guarded-by(_lock)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def set_max(self, value: float) -> None:
        """Keep only the high-water mark (``value`` if it is a new peak)."""
        with self._lock:
            if value > self.max:
                self.max = value
            self.value = self.max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value}, max={self.max})"


#: quantile reservoir size bound; decimation keeps memory constant beyond it
_SAMPLE_CAP = 1024


class Histogram:
    """Streaming count/total/min/max/last summary plus quantile estimates.

    Mean and extrema are exact and constant-memory. Quantiles come from a
    **deterministic decimating reservoir**: every ``stride``-th observation
    is retained; when the reservoir hits :data:`_SAMPLE_CAP` entries, every
    other retained sample is dropped and the stride doubles. No randomness
    — the same observation sequence always yields the same estimates, so
    repeated ``repro stats`` runs stay diffable.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "last", "_samples", "_stride",
        "_tick", "_lock", "exemplar",
    )

    def __init__(self, name: str, lock: Optional[threading.RLock] = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.count = 0  # repro: guarded-by(_lock)
        self.total: float = 0.0  # repro: guarded-by(_lock)
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.last: Optional[float] = None
        self._samples: list[float] = []  # repro: guarded-by(_lock)
        self._stride = 1  # repro: guarded-by(_lock)
        self._tick = 0  # repro: guarded-by(_lock)
        #: latest ``(trace_id, value)`` annotation, exemplar-style — ties
        #: the aggregate back to one concrete sampled request
        self.exemplar: Optional[tuple[str, float]] = None  # repro: guarded-by(_lock)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.last = value
            if exemplar is not None:
                self.exemplar = (exemplar, value)
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._tick += 1
            if self._tick >= self._stride:
                self._tick = 0
                self._samples.append(value)
                if len(self._samples) >= _SAMPLE_CAP:
                    del self._samples[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile estimate over the retained reservoir.

        ``q`` is a fraction in ``[0, 1]``; returns ``None`` before the
        first observation. Exact while ``count < _SAMPLE_CAP``, an
        evenly-decimated approximation afterwards.
        """
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return None
        rank = -(-int(q * 1000) * len(ordered) // 1000)  # ceil without floats drifting
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6g})"


# ---------------------------------------------------------------------------
# Trace context — request correlation across threads and the event loop
# ---------------------------------------------------------------------------


#: process-wide span-id mint; ids only need to be unique, not dense
_span_id_lock = threading.Lock()
_span_id_next = 0


def next_span_id() -> int:
    """A fresh process-unique span id (monotonic, thread-safe)."""
    global _span_id_next
    with _span_id_lock:
        _span_id_next += 1
        return _span_id_next


@dataclass(frozen=True)
class TraceContext:
    """The request-scoped identity a span tree hangs from.

    Created once per request (by the service middleware, or by
    :func:`trace_scope` in CLI sessions) and carried in a
    :class:`~contextvars.ContextVar`, so it follows a logical request
    across ``await`` points — unlike the thread-local span stack, which
    is per-OS-thread. ``DocumentService.run_blocking`` copies the
    current context onto the executor thread, so engine spans opened on
    a worker thread still see the request's :class:`TraceContext` and
    join its span tree instead of forming an orphan per-thread trace.

    ``sampled`` is the head-sampling decision: linkage (trace/span ids
    on records) happens for *every* traced request; only retention in
    the :class:`~repro.telemetry.trace.Tracer` ring buffer is gated.
    """

    trace_id: str
    #: span id of the request root (spans opened with no local parent
    #: attach here)
    span_id: int
    #: root span path; child paths extend it slash-joined
    path: str
    depth: int = 0
    sampled: bool = True
    #: span id carried in an inbound ``traceparent`` header, if any
    remote_parent: Optional[str] = None

    def child_of(self, span_id: int, path: str, depth: int) -> "TraceContext":
        """Rebase the context under an already-open span (executor hop)."""
        return replace(self, span_id=span_id, path=path, depth=depth)


_trace_var: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> Optional[TraceContext]:
    """The :class:`TraceContext` of the logical request, if one is active."""
    return _trace_var.get()


def set_trace(ctx: Optional[TraceContext]) -> Token:
    """Install ``ctx`` for the current logical context; returns the reset
    token."""
    return _trace_var.set(ctx)


def reset_trace(token: Token) -> None:
    """Undo a matching :func:`set_trace`."""
    _trace_var.reset(token)


@contextmanager
def trace_scope(ctx: TraceContext) -> Iterator[TraceContext]:
    """Run a block under ``ctx``; restores the previous context on exit."""
    token = _trace_var.set(ctx)
    try:
        yield ctx
    finally:
        _trace_var.reset(token)


# ---------------------------------------------------------------------------
# Spans and sinks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, as handed to the registry and the sinks."""

    name: str
    #: slash-joined nesting path, e.g. ``cli.partition/partition.ekm``
    path: str
    seconds: float
    depth: int
    #: ``perf_counter()`` reading at span entry — same arbitrary epoch for
    #: every span of a process, so *offsets* between spans are meaningful
    #: (the Chrome-trace exporter relies on this)
    start: float = 0.0
    error: Optional[str] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: request correlation — set only when the span ran under an active
    #: :class:`TraceContext`
    trace_id: Optional[str] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "path": self.path,
            "seconds": self.seconds,
            "depth": self.depth,
            "start": self.start,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attrs:
            out["attrs"] = self.attrs
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
            out["parent_id"] = self.parent_id
        return out


class Sink(Protocol):
    """Anything that wants completed spans pushed to it."""

    def emit(self, record: SpanRecord) -> None: ...  # pragma: no cover


class JsonLinesSink:
    """Streams every completed span as one JSON object per line."""

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.emitted = 0

    def emit(self, record: SpanRecord) -> None:
        import json

        self.stream.write(json.dumps({"kind": "span", **record.as_dict()}) + "\n")
        self.emitted += 1


class MetricRegistry:
    """In-memory sink: all metrics plus a bounded trace of spans."""

    def __init__(self, max_trace: int = 10_000):
        #: reentrant so ``record_span`` can call the locked accessors;
        #: every metric this registry creates shares it
        self._lock = threading.RLock()
        self.counters: dict[str, Counter] = {}  # repro: guarded-by(_lock)
        self.gauges: dict[str, Gauge] = {}  # repro: guarded-by(_lock)
        self.histograms: dict[str, Histogram] = {}  # repro: guarded-by(_lock)
        self.trace: list[SpanRecord] = []  # repro: guarded-by(_lock)
        self.max_trace = max_trace
        self.dropped_spans = 0  # repro: guarded-by(_lock)
        self.sinks: list[Sink] = []  # repro: guarded-by(_lock)
        self.sink_errors = 0  # repro: guarded-by(_lock)

    # get-or-create accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self.counters.get(name)
            if metric is None:
                metric = self.counters[name] = Counter(name, lock=self._lock)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self.gauges.get(name)
            if metric is None:
                metric = self.gauges[name] = Gauge(name, lock=self._lock)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self.histograms.get(name)
            if metric is None:
                metric = self.histograms[name] = Histogram(name, lock=self._lock)
            return metric

    # span intake ------------------------------------------------------------

    def record_span(self, record: SpanRecord) -> None:
        """Fold a finished span into the duration histogram ``span.<name>``,
        keep it in the (bounded) trace, and fan it out to the sinks.

        A sink raising mid-emit must never crash the instrumented
        application (the span fires inside ``__exit__`` of arbitrary hot
        paths), so sink failures are counted in :attr:`sink_errors` and
        the remaining sinks still receive the record.
        """
        with self._lock:
            self.histogram(f"span.{record.name}").observe(record.seconds)
            if len(self.trace) < self.max_trace:
                self.trace.append(record)
            else:
                self.dropped_spans += 1
            sinks = list(self.sinks)
        for sink in sinks:
            try:
                sink.emit(record)
            except Exception:
                with self._lock:
                    self.sink_errors += 1

    def add_sink(self, sink: Sink) -> None:
        with self._lock:
            self.sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        with self._lock:
            self.sinks.remove(sink)

    # lifecycle --------------------------------------------------------------

    def reset(self) -> None:
        """Drop every metric and the trace (sinks stay attached)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.trace.clear()
            self.dropped_spans = 0
            self.sink_errors = 0

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.trace)


#: the process-wide default registry (swappable for tests / CLI sessions)
_registry = MetricRegistry()


def registry() -> MetricRegistry:
    """The registry hooks currently record into."""
    return _registry


def set_registry(new: MetricRegistry) -> MetricRegistry:
    """Swap the global registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = new
    return previous


@contextmanager
def capture(enabled_: bool = True) -> Iterator[MetricRegistry]:
    """A measurement session: fresh registry + telemetry on (by default).

    Restores both the previous registry and the previous enabled state,
    so tests and CLI commands can measure without leaking global state::

        with telemetry.capture() as reg:
            partition_tree(tree, 256, "ekm")
        print(reg.counters["partition.ekm.runs"].value)
    """
    fresh = MetricRegistry()
    previous = set_registry(fresh)
    with enabled_scope(enabled_):
        try:
            yield fresh
        finally:
            set_registry(previous)


# ---------------------------------------------------------------------------
# Module-level helpers — the instrumentation surface used by hooks.
# Each begins with the disabled fast path.
# ---------------------------------------------------------------------------


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op while disabled)."""
    if not _enabled:
        return
    _registry.counter(name).inc(n)


def observe(name: str, value: float, exemplar: Optional[str] = None) -> None:
    """Feed ``value`` into histogram ``name`` (no-op while disabled).

    ``exemplar`` optionally annotates the histogram with the trace id of
    the request that produced this observation (Prometheus
    exemplar-style; surfaced by :func:`prometheus_text`).
    """
    if not _enabled:
        return
    _registry.histogram(name).observe(value, exemplar=exemplar)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    _registry.gauge(name).set(value)


def gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if it is a new peak (no-op while
    disabled)."""
    if not _enabled:
        return
    _registry.gauge(name).set_max(value)


def clock() -> float:
    """A monotonic clock reading in seconds (arbitrary epoch).

    The sanctioned escape hatch for code that cannot scope a
    :class:`Span` around the region it measures. The span stack is
    **thread-local**, which is exactly right for threads but wrong for
    asyncio: one event-loop thread interleaves many logical requests, so
    a span opened before an ``await`` would adopt whatever request
    happens to be on top of the stack when it closes. Such callers take
    two :func:`clock` readings and feed the difference to
    :func:`observe` — keeping OBS001's property that only
    :mod:`repro.telemetry` ever reads the process clock.
    """
    return perf_counter()


# thread-local span stack
_tls = threading.local()


def _span_stack() -> list["Span"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_span() -> Optional["Span"]:
    """The innermost open span on this thread, if any is being recorded."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class Span:
    """A nestable timed section, used as a context manager.

    Always measures wall time — ``.elapsed`` is valid after exit whether
    or not telemetry records anything — so callers that need the duration
    (CLI output, benchmark tables) never fall back to manual
    ``time.perf_counter()`` pairs (which ``repro-lint`` rule OBS001
    forbids outside this package).

    Exception-safe: the thread-local stack is unwound in ``__exit__``
    even when the body raises, and the resulting :class:`SpanRecord`
    carries the exception class name in ``error``. Exceptions are never
    swallowed.
    """

    __slots__ = (
        "name", "attrs", "path", "depth", "elapsed", "_recording", "_start",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.path = name
        self.depth = 0
        self.elapsed: float = 0.0
        self._recording = False
        self._start: float = 0.0
        self.trace_id: Optional[str] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    def __enter__(self) -> "Span":
        self._recording = _enabled
        if self._recording:
            stack = _span_stack()
            if stack:
                parent = stack[-1]
                self.path = f"{parent.path}/{self.name}"
                self.depth = len(stack)
                if parent.trace_id is not None:
                    self.trace_id = parent.trace_id
                    self.parent_id = parent.span_id
                    self.span_id = next_span_id()
            else:
                ctx = _trace_var.get()
                if ctx is not None:
                    # Root of a thread-local subtree under an active
                    # request: hang it off the request's context so the
                    # whole tree joins one trace.
                    self.path = f"{ctx.path}/{self.name}"
                    self.depth = ctx.depth + 1
                    self.trace_id = ctx.trace_id
                    self.parent_id = ctx.span_id
                    self.span_id = next_span_id()
            stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = perf_counter() - self._start
        if self._recording:
            stack = _span_stack()
            # Unwind defensively: this span may not be on top if an inner
            # span escaped its `with` block through an exception.
            while stack:
                top = stack.pop()
                if top is self:
                    break
            _registry.record_span(
                SpanRecord(
                    name=self.name,
                    path=self.path,
                    seconds=self.elapsed,
                    depth=self.depth,
                    start=self._start,
                    error=exc_type.__name__ if exc_type is not None else None,
                    attrs=self.attrs,
                    trace_id=self.trace_id,
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                )
            )
        return False  # never swallow exceptions


def span(name: str, **attrs: Any) -> Span:
    """Open a trace span: ``with telemetry.span("query.run") as sp: ...``."""
    return Span(name, attrs)
