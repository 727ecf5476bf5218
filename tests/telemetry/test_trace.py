"""Request-correlated tracing: contexts, the tracer, heat accounting."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import contextvars
import functools

import pytest

from repro import telemetry
from repro.telemetry.heat import pack_hop
from repro.telemetry import (
    HeatAccumulator,
    MetricRegistry,
    SpanRecord,
    TraceContext,
    Tracer,
    format_trace,
    parse_traceparent,
)


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Every test runs against a fresh, disabled global state."""
    previous = telemetry.set_registry(MetricRegistry())
    was_enabled = telemetry.enabled()
    telemetry.disable()
    yield
    telemetry.set_registry(previous)
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


def _root_record(trace_id, span_id, seconds=0.01, **attrs):
    return SpanRecord(
        name="service.request",
        path="service.request/query",
        seconds=seconds,
        depth=0,
        start=0.0,
        attrs={"route": "query", **attrs},
        trace_id=trace_id,
        span_id=span_id,
    )


class TestTraceparent:
    def test_valid_header_parses(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        trace_id, parent, sampled = parse_traceparent(header)
        assert trace_id == "ab" * 16
        assert parent == "cd" * 8
        assert sampled is True

    def test_not_sampled_flag(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-00"
        assert parse_traceparent(header)[2] is False

    def test_case_and_whitespace_normalized(self):
        header = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        assert parse_traceparent(header)[0] == "ab" * 16

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "garbage",
            "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # unknown version
            "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",  # zero parent
            "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",  # short trace id
        ],
    )
    def test_malformed_headers_rejected(self, header):
        assert parse_traceparent(header) is None


class TestSpanAdoption:
    def test_span_without_context_carries_no_trace(self):
        telemetry.enable()
        with telemetry.span("query.run"):
            pass
        (record,) = telemetry.registry().trace
        assert record.trace_id is None
        assert "trace_id" not in record.as_dict()

    def test_root_span_adopts_active_context(self):
        telemetry.enable()
        ctx = TraceContext(
            trace_id="req-1", span_id=77, path="service.request/query"
        )
        with telemetry.trace_scope(ctx):
            with telemetry.span("query.run"):
                pass
        (record,) = telemetry.registry().trace
        assert record.trace_id == "req-1"
        assert record.parent_id == 77
        assert record.path == "service.request/query/query.run"
        assert record.depth == 1

    def test_nested_spans_inherit_trace_linkage(self):
        telemetry.enable()
        ctx = TraceContext(trace_id="req-2", span_id=5, path="cli.stats")
        with telemetry.trace_scope(ctx):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        inner, outer = telemetry.registry().trace
        assert outer.trace_id == inner.trace_id == "req-2"
        assert outer.parent_id == 5
        assert inner.parent_id == outer.span_id
        assert inner.path == "cli.stats/outer/inner"

    def test_context_propagates_across_executor_copy(self):
        """The run_blocking pattern: contextvars.copy_context carries the
        TraceContext onto a worker thread, so spans there join the tree."""
        telemetry.enable()
        ctx = TraceContext(trace_id="req-3", span_id=9, path="service.request")

        def engine_work():
            with telemetry.span("query.run"):
                pass
            return telemetry.current_trace()

        with telemetry.trace_scope(ctx):
            snapshot = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=1) as pool:
            seen = pool.submit(functools.partial(snapshot.run, engine_work))
            assert seen.result() is ctx
        (record,) = telemetry.registry().trace
        assert record.trace_id == "req-3"
        assert record.parent_id == 9

    def test_child_of_rebases_under_open_span(self):
        ctx = TraceContext(trace_id="t", span_id=1, path="root", depth=0)
        child = ctx.child_of(span_id=42, path="root/sub", depth=2)
        assert child.trace_id == "t"
        assert child.span_id == 42
        assert child.sampled is ctx.sampled


class TestTracerSampling:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1)
        assert all(tracer.should_sample(f"req-{i}") for i in range(20))

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0)
        assert not any(tracer.should_sample(f"req-{i}") for i in range(20))

    def test_deterministic_and_seed_dependent(self):
        ids = [f"req-{i:04d}" for i in range(200)]
        a = [Tracer(sample_rate=7, seed=1).should_sample(i) for i in ids]
        b = [Tracer(sample_rate=7, seed=1).should_sample(i) for i in ids]
        c = [Tracer(sample_rate=7, seed=2).should_sample(i) for i in ids]
        assert a == b
        assert a != c
        # roughly 1-in-7, not all-or-nothing
        assert 0 < sum(a) < len(ids)

    def test_unsampled_requests_still_counted(self):
        tracer = Tracer(sample_rate=0)
        ctx = tracer.begin("req-1")
        assert ctx.sampled is False
        tracer.finish(ctx, _root_record("req-1", ctx.span_id))
        stats = tracer.stats()
        assert stats["started"] == 1
        assert stats["sampled"] == 0
        assert stats["buffered"] == 0


class TestTracerAssembly:
    def test_finish_assembles_one_rooted_tree(self):
        tracer = Tracer()
        ctx = tracer.begin("req-1")
        engine = SpanRecord(
            name="query.run",
            path="service.request/query/query.run",
            seconds=0.002,
            depth=1,
            start=1.0,
            trace_id="req-1",
            span_id=ctx.span_id + 1,
            parent_id=ctx.span_id,
        )
        tracer.emit(engine)
        root = _root_record("req-1", ctx.span_id)
        trace = tracer.finish(ctx, root)
        assert trace is not None
        assert trace.spans[0] is root
        roots = [s for s in trace.spans if s.parent_id is None]
        assert roots == [root]
        assert {s.name for s in trace.spans} == {"service.request", "query.run"}

    def test_root_passed_both_ways_is_deduplicated(self):
        tracer = Tracer()
        ctx = tracer.begin("req-1")
        root = _root_record("req-1", ctx.span_id)
        tracer.emit(root)  # the registry sink path
        trace = tracer.finish(ctx, root)  # the middleware handoff path
        assert len(trace.spans) == 1

    def test_emit_ignores_foreign_and_untraced_records(self):
        tracer = Tracer()
        ctx = tracer.begin("req-1")
        tracer.emit(SpanRecord("loose", "loose", 0.0, 0))
        tracer.emit(_root_record("other-trace", 999))
        trace = tracer.finish(ctx, _root_record("req-1", ctx.span_id))
        assert len(trace.spans) == 1

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            ctx = tracer.begin(f"req-{i}")
            tracer.finish(ctx, _root_record(f"req-{i}", ctx.span_id))
        assert [t.trace_id for t in tracer.traces()] == ["req-2", "req-3"]
        assert tracer.trace("req-0") is None
        assert tracer.stats()["evicted"] == 2

    def test_pending_cap_bounds_leaked_contexts(self):
        from repro.telemetry.trace import _PENDING_CAP

        tracer = Tracer()
        for i in range(_PENDING_CAP + 5):
            tracer.begin(f"req-{i}")  # never finished
        stats = tracer.stats()
        assert stats["pending"] == _PENDING_CAP
        assert stats["dropped_pending"] == 5

    def test_concurrent_emit_and_finish_is_safe(self):
        tracer = Tracer(capacity=64)
        contexts = [tracer.begin(f"req-{i}") for i in range(32)]

        def hammer(ctx):
            for _ in range(25):
                tracer.emit(
                    SpanRecord(
                        name="query.run",
                        path="x/query.run",
                        seconds=0.0,
                        depth=1,
                        trace_id=ctx.trace_id,
                        span_id=telemetry.next_span_id(),
                        parent_id=ctx.span_id,
                    )
                )
            tracer.finish(ctx, _root_record(ctx.trace_id, ctx.span_id))

        threads = [
            threading.Thread(target=hammer, args=(ctx,)) for ctx in contexts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(tracer.traces()) == 32
        for trace in tracer.traces():
            assert len(trace.spans) == 26
            assert all(s.trace_id == trace.trace_id for s in trace.spans)


class TestSlowLog:
    def test_slow_request_captured_with_query_and_doc(self):
        tracer = Tracer(slow_threshold=0.005)
        ctx = tracer.begin("req-slow")
        tracer.finish(
            ctx,
            _root_record("req-slow", ctx.span_id, seconds=0.02),
            query="//keyword",
            doc="d1",
        )
        (entry,) = tracer.slow()
        assert entry.query == "//keyword"
        assert entry.doc == "d1"
        assert entry.route == "query"
        assert entry.seconds == 0.02
        assert len(entry.spans) >= 1  # sampled: span tree rides along

    def test_fast_requests_not_captured(self):
        tracer = Tracer(slow_threshold=0.5)
        ctx = tracer.begin("req-fast")
        tracer.finish(ctx, _root_record("req-fast", ctx.span_id, seconds=0.001))
        assert tracer.slow() == []

    def test_no_threshold_disables_the_log(self):
        tracer = Tracer(slow_threshold=None)
        ctx = tracer.begin("req-1")
        tracer.finish(ctx, _root_record("req-1", ctx.span_id, seconds=99.0))
        assert tracer.slow() == []

    def test_slow_log_is_bounded(self):
        tracer = Tracer(slow_threshold=0.0, slow_capacity=3)
        for i in range(6):
            ctx = tracer.begin(f"req-{i}")
            tracer.finish(ctx, _root_record(f"req-{i}", ctx.span_id))
        entries = tracer.slow()
        assert [e.trace_id for e in entries] == ["req-3", "req-4", "req-5"]

    def test_unsampled_slow_request_has_no_spans(self):
        tracer = Tracer(sample_rate=0, slow_threshold=0.0)
        ctx = tracer.begin("req-1")
        tracer.finish(ctx, _root_record("req-1", ctx.span_id, seconds=1.0))
        (entry,) = tracer.slow()
        assert entry.spans == ()


class TestFormatTrace:
    def test_renders_an_indented_tree(self):
        tracer = Tracer()
        ctx = tracer.begin("req-1")
        child = SpanRecord(
            name="query.run",
            path="service.request/query/query.run",
            seconds=0.001,
            depth=1,
            start=2.0,
            attrs={"xpath": "//k"},
            trace_id="req-1",
            span_id=ctx.span_id + 1,
            parent_id=ctx.span_id,
        )
        tracer.emit(child)
        trace = tracer.finish(ctx, _root_record("req-1", ctx.span_id))
        text = format_trace(trace)
        lines = text.splitlines()
        assert lines[0].startswith("trace req-1")
        assert "- service.request" in lines[1]
        assert lines[2].startswith("    - query.run")
        assert "xpath=//k" in lines[2]


class TestHeatAccumulator:
    @staticmethod
    def _store():
        from repro.partition.lukes import lukes_partition
        from repro.storage.store import DocumentStore
        from repro.xmlio import parse_tree

        tree = parse_tree(
            "<lib><hot><a><x/><y/></a></hot><cold><b/><b/></cold></lib>"
        )
        # a small slot limit forces several records, so hops can cross
        _value, partitioning = lukes_partition(tree, 3)
        assert len(partitioning) > 1
        return tree, DocumentStore.build(tree, partitioning)

    def test_navigation_is_accounted(self):
        from repro.query.engine import evaluate

        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        evaluate(store, "//x")
        profile = heat.profile()
        doc = profile.docs["d1"]
        assert doc.steps > 0
        assert sum(doc.edges.values()) > 0
        assert doc.partitions  # at least one partition touched

    def test_edges_are_oriented_parent_to_child(self):
        from repro.query.engine import evaluate

        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        evaluate(store, "//x")
        counts = heat.profile().edge_counts("d1")
        nodes = tree.nodes
        for parent_id, child_id in counts:
            assert nodes[child_id].parent is nodes[parent_id]

    def test_sibling_hops_credit_both_parent_edges(self):
        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        hot = tree.root.children[0].children[0]
        x, y = hot.children
        store.heat.append(pack_hop(x.node_id, y.node_id))
        counts = heat.profile().edge_counts("d1")
        assert counts[(hot.node_id, x.node_id)] == 1
        assert counts[(hot.node_id, y.node_id)] == 1

    def test_fault_hops_attributed_to_target_partition(self):
        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        cold = tree.root.children[1]
        # a fault hop lands in both buffers (it is still a hop)
        store.heat.cross(pack_hop(tree.root.node_id, cold.node_id), True)
        doc = heat.profile().docs["d1"]
        assert doc.faults == 1
        target_record = store.record_of[cold.node_id]
        assert doc.partitions[target_record]["faults"] == 1
        assert doc.partitions[target_record]["cross"] >= 1

    def test_detach_stops_accounting(self):
        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        heat.detach("d1")
        assert store.heat is None
        assert heat.profile().docs == {}

    def test_reattach_resets_tallies(self):
        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        store.heat.append(pack_hop(0, 1))
        heat.attach("d1", store)
        assert heat.profile().docs["d1"].steps == 0

    def test_missing_doc_yields_empty_counts(self):
        heat = HeatAccumulator()
        assert heat.profile().edge_counts("nope") == {}

    def test_as_dict_top_and_edges(self):
        tree, store = self._store()
        heat = HeatAccumulator()
        heat.attach("d1", store)
        store.heat.append(pack_hop(0, 1))
        payload = heat.profile().as_dict(top=1, include_edges=True)
        assert len(payload["hottest"]) == 1
        assert payload["documents"]["d1"]["edges"]
