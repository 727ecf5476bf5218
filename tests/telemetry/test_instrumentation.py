"""The instrumentation hooks in the hot layers actually emit.

Covers the acceptance criteria of the telemetry subsystem: disabled-mode
runs add nothing to the registry, and an enabled session collects the
documented per-algorithm / storage / bulkload / query metric families.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.bulkload import BulkLoader
from repro.partition import available_algorithms, get_algorithm
from repro.query import run_query
from repro.storage import DocumentStore
from repro.telemetry import MetricRegistry
from repro.tree.builders import flat_tree, tree_from_spec
from repro.xmlio.serialize import tree_to_xml

from tests.conftest import FIG3_SPEC

LIMIT = 256


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    previous = telemetry.set_registry(MetricRegistry())
    was_enabled = telemetry.enabled()
    telemetry.disable()
    yield
    telemetry.set_registry(previous)
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


def _tree_for(name: str, xmark):
    """Every registered algorithm on a real document where it applies:
    fdw only handles flat trees, brute only very small instances."""
    if name == "fdw":
        return flat_tree(3, [2, 4, 1, 3, 2, 5]), 8
    if name == "brute":
        return tree_from_spec(FIG3_SPEC), 5
    return xmark, LIMIT


class TestDisabledMode:
    def test_partition_adds_no_metrics(self, tiny_xmark):
        assert not telemetry.enabled()
        get_algorithm("ekm").partition(tiny_xmark, LIMIT)
        assert telemetry.registry().empty

    def test_full_pipeline_adds_no_metrics(self, tiny_xmark):
        partitioning = get_algorithm("ekm").partition(tiny_xmark, LIMIT)
        store = DocumentStore.build(tiny_xmark, partitioning)
        store.warm_up()
        run_query(store, "//item")
        BulkLoader("ekm", LIMIT).load(tree_to_xml(tiny_xmark))
        assert telemetry.registry().empty


class TestPartitionerMetrics:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_every_registered_algorithm_emits(self, name, tiny_xmark):
        tree, limit = _tree_for(name, tiny_xmark)
        with telemetry.capture() as reg:
            partitioning = get_algorithm(name).partition(tree, limit)
        prefix = f"partition.{name}"
        assert reg.counters[f"{prefix}.runs"].value == 1
        assert reg.counters[f"{prefix}.nodes"].value == len(tree)
        assert reg.counters[f"{prefix}.partitions"].value == partitioning.cardinality
        assert reg.gauges[f"{prefix}.root_weight"].value >= 1
        hist = reg.histograms[f"span.{prefix}"]
        assert hist.count == 1
        assert hist.total > 0.0

    @pytest.mark.parametrize("name", ["dhw", "ghdw"])
    def test_dp_algorithms_report_cells(self, name, tiny_xmark):
        with telemetry.capture() as reg:
            get_algorithm(name).partition(tiny_xmark, LIMIT)
        assert reg.counters[f"partition.{name}.dp_cells"].value > 0

    def test_dhw_reports_nearly_optimal_usage_counter(self, tiny_xmark):
        with telemetry.capture() as reg:
            get_algorithm("dhw").partition(tiny_xmark, LIMIT)
        # The counter always exists for a dhw run; its value counts the
        # Q-chains actually chosen, which may legitimately be zero.
        assert "partition.dhw.nearly_optimal_used" in reg.counters

    def test_runs_accumulate_across_calls(self, tiny_xmark):
        with telemetry.capture() as reg:
            algo = get_algorithm("ekm")
            algo.partition(tiny_xmark, LIMIT)
            algo.partition(tiny_xmark, LIMIT)
        assert reg.counters["partition.ekm.runs"].value == 2
        assert reg.histograms["span.partition.ekm"].count == 2


class TestStorageMetrics:
    def test_store_build_emits_pages_and_records(self, tiny_xmark):
        partitioning = get_algorithm("ekm").partition(tiny_xmark, LIMIT)
        with telemetry.capture() as reg:
            store = DocumentStore.build(tiny_xmark, partitioning)
        assert reg.counters["storage.records.written"].value == store.record_count
        assert (
            reg.counters["storage.pages.allocated"].value
            == store.space_report().pages
        )
        assert reg.counters["storage.record_bytes.written"].value > 0
        assert reg.histograms["span.storage.build"].count == 1

    def test_buffer_pool_mirrors_into_registry(self, tiny_xmark):
        partitioning = get_algorithm("km").partition(tiny_xmark, LIMIT)
        store = DocumentStore.build(tiny_xmark, partitioning)
        with telemetry.capture() as reg:
            store.warm_up()
            run_query(store, "//item")
        stats = store.buffer.stats
        assert reg.counters["storage.buffer.hits"].value == stats.hits
        assert stats.hits > 0
        assert reg.counters["storage.buffer.warmups"].value > 0
        # no misses: the pool is larger than the document (paper protocol)
        assert "storage.buffer.misses" not in reg.counters


class TestBulkloadMetrics:
    def test_import_counters_match_result(self, tiny_xmark):
        xml = tree_to_xml(tiny_xmark)
        with telemetry.capture() as reg:
            result = BulkLoader("ekm", LIMIT, spill_threshold=LIMIT * 4).load(xml)
        assert reg.counters["bulkload.runs"].value == 1
        assert reg.counters["bulkload.events"].value == result.events
        assert reg.counters["bulkload.spills"].value == result.spills
        assert (
            reg.counters["bulkload.partitions"].value == result.emitted_partitions
        )
        assert reg.counters["bulkload.nodes"].value == len(result.tree)
        assert (
            reg.gauges["bulkload.peak_resident_weight"].max
            == result.peak_resident_weight
        )
        assert reg.histograms["span.bulkload.import"].count == 1

    def test_peak_gauge_keeps_high_water_mark_across_runs(self, tiny_xmark):
        xml = tree_to_xml(tiny_xmark)
        with telemetry.capture() as reg:
            unbounded = BulkLoader("ekm", LIMIT).load(xml)
            BulkLoader("ekm", LIMIT, spill_threshold=LIMIT).load(xml)
        # the bounded run's smaller peak must not lower the gauge
        assert (
            reg.gauges["bulkload.peak_resident_weight"].max
            == unbounded.peak_resident_weight
        )


class TestQueryMetrics:
    def test_query_counters_match_run(self, tiny_xmark):
        partitioning = get_algorithm("ekm").partition(tiny_xmark, LIMIT)
        store = DocumentStore.build(tiny_xmark, partitioning)
        store.warm_up()
        with telemetry.capture() as reg:
            run = run_query(store, "//item")
        assert reg.counters["query.runs"].value == 1
        assert reg.counters["query.results"].value == run.result_count
        assert reg.counters["query.steps.intra"].value == run.intra_steps
        assert reg.counters["query.steps.cross"].value == run.cross_steps
        assert reg.counters["query.nodes_visited"].value > 0
        assert reg.histograms["span.query.run"].count == 1
        (record,) = [r for r in reg.trace if r.name == "query.run"]
        assert record.attrs == {
            "xpath": "//item",
            "index": "absent",
            "results": run.result_count,
        }
