"""Streaming bulkloader: batch equivalence, tree fidelity, memory."""

import pytest

from repro.bulkload import BulkLoader, STREAMING_STRATEGIES, bulk_import
from repro.errors import InfeasiblePartitioningError, ReproError, XmlFormatError
from repro.partition import evaluate_partitioning
from repro.xmlio import parse_tree, tree_to_xml

from tests.conftest import tree_signature
from tests.partition.oracles import HEURISTIC_ORACLES


@pytest.fixture(scope="module")
def corpus_xml(tiny_corpus):
    return {name: tree_to_xml(tree) for name, tree in tiny_corpus.items()}


#: documents that stress the root's own frame: no children, root-only
#: text, root attributes, text between the root's children, one deep chain
EDGE_DOCUMENTS = [
    "<r/>",
    "<r>just text, no child elements</r>",
    '<r a="1" b="2"><c/></r>',
    "<r>before<a>x</a>between<b>y</b>after</r>",
    "<r><only><child><chain>deep</chain></child></only></r>",
]


class TestTreeFidelity:
    def test_same_tree_as_parser(self, corpus_xml):
        cases = [(xml, True) for xml in corpus_xml.values()]
        cases += [(xml, True) for xml in EDGE_DOCUMENTS]
        cases.append(("<r>  <a>x</a>\n  <b/>  </r>", False))
        for xml, strip in cases:
            parsed = parse_tree(xml, strip_whitespace=strip)
            loaded = BulkLoader("ekm", 256, strip_whitespace=strip).load(xml).tree
            assert tree_signature(loaded) == tree_signature(parsed), xml[:60]


class TestBatchEquivalence:
    @pytest.mark.parametrize("algorithm", STREAMING_STRATEGIES)
    def test_no_spill_equals_batch(self, corpus_xml, tiny_corpus, algorithm):
        for name, xml in corpus_xml.items():
            result = bulk_import(xml, algorithm=algorithm, limit=256)
            batch = HEURISTIC_ORACLES[algorithm]().partition(tiny_corpus[name], 256)
            assert result.partitioning == batch, (name, algorithm)

    @pytest.mark.parametrize("limit", [32, 64, 256])
    def test_equivalence_across_limits(self, corpus_xml, tiny_corpus, limit):
        xml = corpus_xml["SigmodRecord.xml"]
        tree = tiny_corpus["SigmodRecord.xml"]
        for algorithm in STREAMING_STRATEGIES:
            result = bulk_import(xml, algorithm=algorithm, limit=limit)
            batch = HEURISTIC_ORACLES[algorithm]().partition(tree, limit)
            assert result.partitioning == batch


class TestMemoryAccounting:
    def test_peak_below_total_for_nested_docs(self, corpus_xml):
        xml = corpus_xml["xmark0p1.xml"]
        result = bulk_import(xml, algorithm="ekm", limit=256)
        assert result.peak_resident_fraction < 0.9

    def test_star_document_holds_everything_without_spill(self, corpus_xml):
        result = bulk_import(corpus_xml["partsupp.xml"], algorithm="ekm", limit=256)
        assert result.peak_resident_fraction == pytest.approx(1.0)

    def test_final_resident_is_root_partition(self, corpus_xml):
        xml = corpus_xml["SigmodRecord.xml"]
        result = bulk_import(xml, algorithm="km", limit=256)
        report = evaluate_partitioning(result.tree, result.partitioning, 256)
        assert result.final_resident_weight == report.root_weight

    def test_total_weight_reported(self, corpus_xml, tiny_corpus):
        xml = corpus_xml["uwm.xml"]
        result = bulk_import(xml, algorithm="rs", limit=256)
        assert result.total_weight == tiny_corpus["uwm.xml"].total_weight()


class TestValidationErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(ReproError):
            BulkLoader(algorithm="dhw")  # not main-memory friendly

    def test_threshold_below_limit(self):
        with pytest.raises(ReproError):
            BulkLoader(spill_threshold=10, limit=256)

    def test_oversized_node(self):
        xml = "<a>" + "x" * 10_000 + "</a>"
        with pytest.raises(InfeasiblePartitioningError):
            bulk_import(xml, limit=16)

    def test_malformed_document(self):
        with pytest.raises(XmlFormatError):
            bulk_import("<a><b></a>")

    def test_events_counted(self, corpus_xml):
        result = bulk_import(corpus_xml["SigmodRecord.xml"], limit=256)
        assert result.events > 100
