"""ParallelBulkLoader: bit-identical to the sequential loader.

The whole point of the split/fan-out/merge design is that a parallel
import is indistinguishable from a sequential one — same tree (ids,
labels, weights, kinds, contents, sibling order), same partitioning,
same journal. Every test here compares against ``BulkLoader.load``.
"""

import pytest

from repro.bulkload.importer import BulkLoader
from repro.bulkload.journal import read_journal, resume_import
from repro.bulkload.parallel import ParallelBulkLoader
from repro.errors import JournalError, ReproError, XmlFormatError

from tests.conftest import tree_signature

SMALL_DOC = """
<catalog>
  <item id="1"><name>alpha</name><price>10</price></item>
  <item id="2"><name>beta</name><desc>a much longer description text</desc></item>
  <item id="3"/>
  <item id="4"><sub><subsub>deep</subsub></sub></item>
</catalog>
"""


def corpus_xml():
    from repro.datasets import sigmod_record_document
    from repro.xmlio.serialize import tree_to_xml

    return tree_to_xml(sigmod_record_document(issues=2, seed=7))


def assert_same_import(sequential, parallel):
    assert parallel.partitioning == sequential.partitioning
    assert tree_signature(parallel.tree) == tree_signature(sequential.tree)
    assert parallel.events == sequential.events
    assert parallel.total_weight == sequential.total_weight
    assert parallel.spills == 0 and parallel.seals == 0


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["ekm", "rs", "km"])
    def test_small_document(self, algorithm):
        sequential = BulkLoader(algorithm=algorithm, limit=16).load(SMALL_DOC)
        parallel = ParallelBulkLoader(algorithm=algorithm, limit=16, workers=2).load(
            SMALL_DOC
        )
        assert_same_import(sequential, parallel)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_corpus_document(self, workers):
        xml = corpus_xml()
        sequential = BulkLoader(algorithm="ekm", limit=64).load(xml)
        parallel = ParallelBulkLoader(algorithm="ekm", limit=64, workers=workers).load(
            xml
        )
        assert_same_import(sequential, parallel)

    def test_keep_whitespace(self):
        xml = "<r>  <a>x</a>\n  <b/>  </r>"
        sequential = BulkLoader(algorithm="ekm", limit=8, strip_whitespace=False).load(
            xml
        )
        parallel = ParallelBulkLoader(
            algorithm="ekm", limit=8, workers=2, strip_whitespace=False
        ).load(xml)
        assert_same_import(sequential, parallel)


class TestEdgeDocuments:
    CASES = [
        "<r/>",
        "<r>just text, no child elements</r>",
        '<r a="1" b="2"><c/></r>',
        "<r>before<a>x</a>between<b>y</b>after</r>",
        "<r><only><child><chain>deep</chain></child></only></r>",
    ]

    @pytest.mark.parametrize("xml", CASES)
    def test_matches_sequential(self, xml):
        sequential = BulkLoader(algorithm="ekm", limit=8).load(xml)
        parallel = ParallelBulkLoader(algorithm="ekm", limit=8, workers=2).load(xml)
        assert_same_import(sequential, parallel)


class TestJournal:
    def test_commit_matches_sequential_journal(self, tmp_path):
        seq_journal = tmp_path / "seq.journal"
        par_journal = tmp_path / "par.journal"
        sequential = BulkLoader(algorithm="ekm", limit=16).load(
            SMALL_DOC, journal_path=seq_journal
        )
        parallel = ParallelBulkLoader(algorithm="ekm", limit=16, workers=2).load(
            SMALL_DOC, journal_path=par_journal
        )
        assert_same_import(sequential, parallel)
        seq_state = read_journal(seq_journal)
        par_state = read_journal(par_journal)
        assert par_state.committed and seq_state.committed
        assert par_state.header["algorithm"] == "ekm"
        assert par_state.header["spill_threshold"] is None

    def test_resume_verifies_parallel_journal(self, tmp_path):
        # A committed parallel journal replays cleanly through the
        # *sequential* resume path — the crash-resume contract.
        journal = tmp_path / "import.journal"
        parallel = ParallelBulkLoader(algorithm="ekm", limit=16, workers=2).load(
            SMALL_DOC, journal_path=journal
        )
        resumed = resume_import(SMALL_DOC, journal)
        assert resumed.resumed
        assert resumed.partitioning == parallel.partitioning
        assert tree_signature(resumed.tree) == tree_signature(parallel.tree)

    def test_existing_journal_rejected(self, tmp_path):
        journal = tmp_path / "import.journal"
        journal.write_text("{}\n")
        with pytest.raises(JournalError):
            ParallelBulkLoader(algorithm="ekm", limit=16).load(
                SMALL_DOC, journal_path=journal
            )


class TestErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(ReproError):
            ParallelBulkLoader(algorithm="nope")

    def test_bad_worker_count(self):
        with pytest.raises(ReproError):
            ParallelBulkLoader(workers=0)

    def test_text_outside_document_element(self):
        with pytest.raises(XmlFormatError):
            ParallelBulkLoader(algorithm="ekm", limit=8, strip_whitespace=False).load(
                "<r><a/></r>trailing"
            )


class TestCli:
    def test_parallel_flag_rejects_spill_threshold(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_DOC)
        rc = main(
            [
                "import",
                str(doc),
                "--limit",
                "16",
                "--parallel",
                "2",
                "--spill-threshold",
                "100",
            ]
        )
        assert rc != 0

    def test_parallel_flag_runs(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "doc.xml"
        doc.write_text(SMALL_DOC)
        rc = main(["import", str(doc), "--limit", "16", "--parallel", "2"])
        assert rc == 0
        assert "imported" in capsys.readouterr().out
