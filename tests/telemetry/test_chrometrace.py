"""Chrome-trace export of span records and its round-trip loader."""

from __future__ import annotations

import io
import json

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.telemetry import (
    CHROME_SCHEMA,
    MetricRegistry,
    chrome_trace_events,
    export_chrome_trace,
    load_chrome_trace,
)


@pytest.fixture
def populated() -> MetricRegistry:
    reg = MetricRegistry()
    previous = telemetry.set_registry(reg)
    with telemetry.enabled_scope():
        telemetry.count("events", 2)
        with telemetry.span("outer", tag="x"):
            with telemetry.span("inner"):
                pass
    telemetry.set_registry(previous)
    return reg


class TestEvents:
    def test_complete_events_with_rebased_microseconds(self, populated):
        events = chrome_trace_events(populated.trace)
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        assert min(e["ts"] for e in events) == 0.0
        by_name = {e["name"]: e for e in events}
        # the outer span starts first: its rebased timestamp is the epoch
        assert by_name["outer"]["ts"] == 0.0
        assert by_name["inner"]["ts"] >= 0.0
        assert by_name["outer"]["dur"] >= by_name["inner"]["dur"]

    def test_durations_match_span_seconds(self, populated):
        events = chrome_trace_events(populated.trace)
        for event, span_record in zip(events, populated.trace):
            assert event["dur"] == pytest.approx(span_record.seconds * 1e6)

    def test_args_carry_path_depth_and_attrs(self, populated):
        by_name = {e["name"]: e for e in chrome_trace_events(populated.trace)}
        assert by_name["outer"]["args"]["path"] == "outer"
        assert by_name["outer"]["args"]["tag"] == "x"
        assert by_name["inner"]["args"]["path"] == "outer/inner"
        assert by_name["inner"]["args"]["depth"] == 1

    def test_accepts_dict_records(self, populated):
        dicts = [r.as_dict() for r in populated.trace]
        assert chrome_trace_events(dicts) == chrome_trace_events(populated.trace)

    def test_no_records_no_events(self):
        assert chrome_trace_events([]) == []


class TestRoundTrip:
    def test_export_then_load(self, populated):
        buf = io.StringIO()
        written = export_chrome_trace(buf, populated)
        assert written == 2
        buf.seek(0)
        events = load_chrome_trace(buf)
        assert [e["name"] for e in events] == [r.name for r in populated.trace]

    def test_other_data_identifies_workload(self, populated):
        buf = io.StringIO()
        export_chrome_trace(buf, populated)
        payload = json.loads(buf.getvalue())
        other = payload["otherData"]
        assert other["schema"] == CHROME_SCHEMA
        assert other["counters"]["events"] == 2
        assert other["dropped_spans"] == 0
        assert payload["displayTimeUnit"] == "ms"

    def test_empty_registry_round_trips(self):
        reg = MetricRegistry()
        buf = io.StringIO()
        assert export_chrome_trace(buf, reg) == 0
        buf.seek(0)
        assert load_chrome_trace(buf) == []


class TestLoaderRejections:
    def test_invalid_json(self):
        with pytest.raises(ReproError, match="invalid chrome trace"):
            load_chrome_trace(io.StringIO("{nope"))

    def test_missing_trace_events(self):
        with pytest.raises(ReproError, match="traceEvents"):
            load_chrome_trace(io.StringIO('{"foo": 1}'))

    def test_foreign_schema(self):
        payload = {"traceEvents": [], "otherData": {"schema": "perfetto/999"}}
        with pytest.raises(ReproError, match="schema mismatch"):
            load_chrome_trace(io.StringIO(json.dumps(payload)))

    def test_event_missing_required_key(self):
        payload = {
            "traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}],  # no dur
            "otherData": {"schema": CHROME_SCHEMA},
        }
        with pytest.raises(ReproError, match="missing 'dur'"):
            load_chrome_trace(io.StringIO(json.dumps(payload)))
