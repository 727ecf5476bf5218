"""The deterministic self-time profiler over span records."""

from __future__ import annotations

from repro import telemetry
from repro.telemetry import MetricRegistry, build_profile, format_profile, profile_registry
from repro.tree.builders import tree_from_spec

from tests.conftest import FIG3_SPEC


def record(path: str, seconds: float, name: str | None = None) -> dict:
    return {
        "path": path,
        "name": name or path.rpartition("/")[2],
        "seconds": seconds,
        "depth": path.count("/"),
    }


class TestBuildProfile:
    def test_aggregates_calls_and_totals(self):
        root = build_profile(
            [record("a", 1.0), record("a", 2.0), record("b", 4.0)]
        )
        nodes = {n.path: n for n in root.walk()}
        assert nodes["a"].calls == 2
        assert nodes["a"].total == 3.0
        assert nodes["b"].calls == 1
        assert root.total == 7.0

    def test_self_time_subtracts_direct_children(self):
        root = build_profile(
            [record("a", 10.0), record("a/b", 4.0), record("a/b/c", 1.0)]
        )
        nodes = {n.path: n for n in root.walk()}
        assert nodes["a"].self_seconds == 6.0  # 10 - 4 (grandchild not counted)
        assert nodes["a/b"].self_seconds == 3.0
        assert nodes["a/b/c"].self_seconds == 1.0

    def test_self_time_clamped_at_zero(self):
        # measurement jitter: child total exceeds parent total
        root = build_profile([record("a", 1.0), record("a/b", 1.5)])
        nodes = {n.path: n for n in root.walk()}
        assert nodes["a"].self_seconds == 0.0

    def test_orphan_spans_attach_to_nearest_ancestor(self):
        # "a/b" never recorded (e.g. trace truncation); its child still shows
        root = build_profile([record("a", 5.0), record("a/b/c", 2.0)])
        nodes = {n.path: n for n in root.walk()}
        assert "a/b" in nodes  # placeholder node
        assert nodes["a/b"].calls == 0
        assert nodes["a/b"].total == 0.0
        assert nodes["a/b/c"].total == 2.0
        # placeholder contributes no phantom time to the parent's self time
        assert nodes["a"].self_seconds == 5.0

    def test_children_sorted_by_total_then_path(self):
        root = build_profile(
            [record("z", 1.0), record("a", 1.0), record("m", 3.0)]
        )
        order = [n.path for n in root.sorted_children()]
        assert order == ["m", "a", "z"]

    def test_walk_is_deterministic(self):
        records = [record("b/x", 1.0), record("b", 2.0), record("a", 2.0)]
        first = [n.path for n in build_profile(records).walk()]
        second = [n.path for n in build_profile(list(records)).walk()]
        assert first == second


class TestFormatProfile:
    def test_empty_profile_hint(self):
        text = format_profile(build_profile([]))
        assert "no spans recorded" in text

    def test_table_lists_phases_with_percentages(self):
        root = build_profile([record("a", 3.0), record("a/b", 1.0)])
        text = format_profile(root)
        assert "total s" in text and "self s" in text
        assert "(all)" in text
        assert " 100.0" in text
        assert "a" in text and "b" in text

    def test_min_fraction_hides_small_phases(self):
        root = build_profile([record("big", 99.0), record("tiny", 1.0)])
        text = format_profile(root, min_fraction=0.05)
        assert "big" in text
        assert "tiny" not in text


class TestRegistryIntegration:
    def test_dhw_phase_spans_show_up(self):
        tree = tree_from_spec(FIG3_SPEC)
        reg = MetricRegistry()
        previous = telemetry.set_registry(reg)
        try:
            with telemetry.enabled_scope():
                from repro.partition import get_algorithm

                get_algorithm("dhw").partition(tree, 5)
        finally:
            telemetry.set_registry(previous)
        root = profile_registry(reg)
        nodes = {n.path: n for n in root.walk()}
        parent = nodes["partition.dhw"]
        assert nodes["partition.dhw/dhw.dp"].calls == 1
        assert nodes["partition.dhw/dhw.extract"].calls == 1
        assert parent.self_seconds >= 0.0
        assert parent.total >= nodes["partition.dhw/dhw.dp"].total

    def test_profile_accepts_live_span_records(self):
        reg = MetricRegistry()
        previous = telemetry.set_registry(reg)
        try:
            with telemetry.enabled_scope():
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        pass
        finally:
            telemetry.set_registry(previous)
        root = build_profile(reg.trace)
        nodes = {n.path: n for n in root.walk()}
        assert nodes["outer"].calls == 1
        assert nodes["outer/inner"].calls == 1
