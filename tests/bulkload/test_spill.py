"""Spill-threshold behaviour (Sec. 4.3): bounded memory, graceful quality
degradation, and — crucially — feasibility in every configuration."""

import pytest

from repro.bulkload import BulkLoader, STREAMING_STRATEGIES, bulk_import
from repro.partition import evaluate_partitioning
from repro.xmlio import tree_to_xml

from tests.partition.oracles import ReferenceKM


@pytest.fixture(scope="module")
def star_xml():
    """The worst case: thousands of tuples under one root."""
    from repro.datasets import partsupp_document

    return tree_to_xml(partsupp_document(rows=300, seed=11))


@pytest.fixture(scope="module")
def nested_xml():
    from repro.datasets import xmark_document

    return tree_to_xml(xmark_document(scale=0.003, seed=11))


class TestFeasibilityUnderSpill:
    @pytest.mark.parametrize("algorithm", STREAMING_STRATEGIES)
    @pytest.mark.parametrize("threshold", [256, 512, 2048, 8192])
    def test_always_feasible(self, star_xml, nested_xml, algorithm, threshold):
        for xml in (star_xml, nested_xml):
            result = bulk_import(
                xml, algorithm=algorithm, limit=256, spill_threshold=threshold
            )
            report = evaluate_partitioning(result.tree, result.partitioning, 256)
            assert report.feasible


class TestMemoryBound:
    def test_star_memory_capped(self, star_xml):
        unbounded = bulk_import(star_xml, algorithm="ekm", limit=256)
        assert unbounded.peak_resident_fraction == pytest.approx(1.0)
        bounded = bulk_import(
            star_xml, algorithm="ekm", limit=256, spill_threshold=1024
        )
        assert bounded.spills > 0
        assert bounded.peak_resident_weight < unbounded.peak_resident_weight / 4

    def test_peak_close_to_threshold(self, star_xml):
        threshold = 2048
        result = bulk_import(
            star_xml, algorithm="rs", limit=256, spill_threshold=threshold
        )
        # Peak may exceed the threshold by at most ~one partition's worth
        # of unfinished nodes plus the open path.
        assert result.peak_resident_weight <= threshold + 2 * 256

    def test_tighter_threshold_less_memory(self, nested_xml):
        peaks = []
        for threshold in (8192, 2048, 512):
            result = bulk_import(
                nested_xml, algorithm="ekm", limit=256, spill_threshold=threshold
            )
            peaks.append(result.peak_resident_weight)
        assert peaks[0] >= peaks[1] >= peaks[2]


class TestQualityTrade:
    def test_quality_degrades_monotonically_in_spirit(self, star_xml):
        """Tighter thresholds can only produce >= partitions than batch."""
        batch = bulk_import(star_xml, algorithm="ekm", limit=256).partitioning
        for threshold in (8192, 1024, 512):
            spilled = bulk_import(
                star_xml, algorithm="ekm", limit=256, spill_threshold=threshold
            ).partitioning
            assert spilled.cardinality >= batch.cardinality

    def test_huge_threshold_never_spills(self, nested_xml):
        result = bulk_import(
            nested_xml, algorithm="km", limit=256, spill_threshold=10**9
        )
        assert result.spills == 0
        from repro.xmlio import parse_tree

        tree = parse_tree(nested_xml)
        assert result.partitioning == ReferenceKM().partition(tree, 256)

    def test_spill_counters_reported(self, star_xml):
        result = bulk_import(
            star_xml, algorithm="km", limit=256, spill_threshold=1024
        )
        assert result.spills > 0
        assert result.emitted_partitions == result.partitioning.cardinality
