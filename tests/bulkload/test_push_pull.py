"""Push ≡ pull: expat calling the loader's handlers directly
(``BulkLoader.load``) and the event adapter
(``load_events(iter_events(xml))``) are the same import — same tree,
partitions, counters, journal bytes and fault indices."""

from __future__ import annotations

import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bulkload import BulkLoader, resume_import
from repro.errors import InfeasiblePartitioningError, InjectedFaultError
from repro.faults import plan as faults
from repro.faults.plan import FaultPlan, FaultRule
from repro.tree.node import Tree
from repro.xmlio import iter_events, tree_to_xml
from repro.xmlio import events as xml_events
from repro.xmlio.parser import _CHUNK

from tests.bulkload.test_roundtrip_properties import xml_documents
from tests.conftest import tree_signature

#: a document with attributes, text between elements and enough content
#: to spill many times at K=16 / threshold 64
DOC = (
    "<root>"
    + "".join(f"<sec n=\"{i}\">{'<p>word</p>' * 12}tail</sec>" for i in range(20))
    + "</root>"
)

#: sha256 of the journal ``BulkLoader(alg, 16, 64).load(DOC, journal_path=…)``
#: wrote on the commit before the loader became a push consumer (PR 20)
JOURNAL_DIGESTS = {
    "ekm": "46bc9a4d197ad35107521bbe1530a81f8ade1acfa7d13e2cc06b96f2c7a9dae1",
    "km": "4c43971250eaca66cef4e4646972cb939595e282ece68ed9c8da0ee05533e123",
    "rs": "4226db50eae3e839dcebeb97349a7a51af749ae61fd8b6f3be6e2f256c8ca87f",
}


def outcome(result):
    return (
        tree_signature(result.tree),
        result.partitioning,
        result.events,
        result.spills,
        result.seals,
        result.peak_resident_weight,
    )


class TestPushEqualsPull:
    @settings(max_examples=120, deadline=None)
    @given(
        xml_documents(),
        st.sampled_from(["ekm", "km", "rs"]),
        st.sampled_from([None, 1, 4]),
        st.booleans(),
        st.booleans(),
    )
    def test_load_agrees_with_the_event_adapter(
        self, tree, algorithm, spill_factor, strip_whitespace, pretty
    ):
        xml = tree_to_xml(tree)
        if pretty:  # whitespace-only runs between tags: dropped or kept
            xml = xml.replace("><", ">\n  <")
        limit = max(16, tree.max_node_weight())
        loader = BulkLoader(
            algorithm,
            limit,
            spill_threshold=None if spill_factor is None else spill_factor * limit,
            strip_whitespace=strip_whitespace,
        )
        assert outcome(loader.load(xml)) == outcome(loader.load_events(iter_events(xml)))

    def test_fixed_document_spills_the_same_both_ways(self):
        for algorithm in ("ekm", "km", "rs"):
            loader = BulkLoader(algorithm, 16, 64)
            pushed = loader.load(DOC)
            assert pushed.spills > 10
            assert outcome(pushed) == outcome(loader.load_events(iter_events(DOC)))


class TestJournalBytes:
    @pytest.mark.parametrize("algorithm", sorted(JOURNAL_DIGESTS))
    def test_spilled_journal_is_byte_identical_to_the_pull_loader(self, tmp_path, algorithm):
        path = tmp_path / "run.journal"
        result = BulkLoader(algorithm, 16, 64).load(DOC, journal_path=str(path))
        assert result.seals == result.spills > 10
        assert hashlib.sha256(path.read_bytes()).hexdigest() == JOURNAL_DIGESTS[algorithm]

    def test_resume_after_a_spill_crash_is_byte_identical(self, tmp_path):
        control = tmp_path / "control.journal"
        baseline = BulkLoader("ekm", 16, 64).load(DOC, journal_path=str(control))
        crashed = tmp_path / "crashed.journal"
        with pytest.raises(InjectedFaultError):
            with faults.active(FaultPlan([FaultRule("bulkload.spill", "raise", hit=7)])):
                BulkLoader("ekm", 16, 64).load(DOC, journal_path=str(crashed))
        assert crashed.read_bytes() != control.read_bytes()
        resumed = resume_import(DOC, crashed)
        assert crashed.read_bytes() == control.read_bytes()
        assert outcome(resumed) == outcome(baseline)


class _RecordingPlan(FaultPlan):
    """Keeps the context (``index=…``) of every injection that fired."""

    def __init__(self, rules):
        super().__init__(rules)
        self.contexts = []

    def fire(self, point, **ctx):
        action = super().fire(point, **ctx)
        if action is not None:
            self.contexts.append(ctx)
        return action


class TestParserEventFaultPoint:
    def test_fires_at_the_same_index_pulled_and_pushed(self):
        events = sum(1 for _ in iter_events(DOC))
        checked = events - 2  # StartDocument / EndDocument are not fault points
        for hit in (1, 2, checked // 2, checked):
            indices = []
            for run in (
                lambda: list(iter_events(DOC)),
                lambda: BulkLoader("ekm", 16).load(DOC),
            ):
                plan = _RecordingPlan([FaultRule("parser.event", "raise", hit=hit)])
                with pytest.raises(InjectedFaultError) as info:
                    with faults.active(plan):
                        run()
                assert info.value.point == "parser.event"
                assert plan.hits["parser.event"] == hit
                indices.append(plan.contexts)
            # StartDocument is event 1, so the k-th checked event is k + 1
            assert indices[0] == indices[1] == [{"index": hit + 1}]

    def test_one_past_the_last_event_never_fires(self):
        events = sum(1 for _ in iter_events(DOC))
        plan = FaultPlan([FaultRule("parser.event", "raise", hit=events - 1)])
        with faults.active(plan):
            result = BulkLoader("ekm", 16).load(DOC)
        assert plan.fired == [] and result.events == events


class TestErrorsSurfaceUnchanged:
    """The loader's own errors pass through ``parser.Parse`` as raised."""

    def test_infeasible_text_node(self):
        with pytest.raises(InfeasiblePartitioningError, match="exceeds K=16"):
            BulkLoader("ekm", 16).load("<a>\n<b>" + "x" * 1000 + "</b></a>")

    def test_injected_fault_and_io_error(self):
        for action, error in (("raise", InjectedFaultError), ("io-error", OSError)):
            with pytest.raises(error, match="parser.event"):
                with faults.active(FaultPlan([FaultRule("parser.event", action, hit=5)])):
                    BulkLoader("ekm", 16).load(DOC)

    def test_value_error_from_loader_code(self, monkeypatch):
        from repro.partition.streaming import EKMStreamStrategy

        def broken_close(self, node_id, children):
            raise ValueError("strategy bug")

        monkeypatch.setattr(EKMStreamStrategy, "close", broken_close)
        with pytest.raises(ValueError, match="^strategy bug$"):
            BulkLoader("ekm", 16).load(DOC)


class TestReadBoundary:
    def test_text_straddling_the_chunk_boundary_is_one_node(self):
        # 16 370 empty elements put a 100-character run across byte
        # 65 536, where the parser core ends its first read: expat hands
        # the run over in two pieces (two events), the loader merges them
        filler = (_CHUNK - 50 - len("<r><t>")) // len("<e/>")
        xml = "<r>" + "<e/>" * filler + "<t>" + "y" * 100 + "</t></r>"
        assert xml.index("y") < _CHUNK < xml.index("</t>")
        texts = [e.text for e in iter_events(xml) if isinstance(e, xml_events.Characters)]
        assert texts == ["y" * 50, "y" * 50]
        loader = BulkLoader("ekm", 64)
        result = loader.load(xml)
        assert result.events == 32_748  # what the pull loader counted
        assert len(result.tree) == filler + 3
        text = result.tree.nodes[-1]
        assert (text.label, text.content, text.weight) == ("#text", "y" * 100, 14)
        assert outcome(result) == outcome(loader.load_events(iter_events(xml)))


class TestNoPerEventObjects:
    """Clock-free design guard: the load path allocates no event object
    and never looks a parent up by id, however large the document."""

    def test_load_constructs_no_events_and_never_calls_tree_node(self, monkeypatch):
        xml = (
            "<root>"
            + "".join(f'<item id="i{i}"><name>n{i}</name>text</item>' for i in range(400))
            + "</root>"
        )
        constructed = []
        for cls in (xml_events.StartElement, xml_events.EndElement, xml_events.Characters):
            original = cls.__init__

            def counting_init(self, *args, _original=original, **kwargs):
                constructed.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        lookups = []
        monkeypatch.setattr(
            Tree, "node", lambda self, node_id: lookups.append(node_id) or self.nodes[node_id]
        )
        result = BulkLoader("ekm", 64, spill_threshold=256).load(xml)
        assert len(result.tree) == 2001 and result.spills > 0
        assert constructed == [] and lookups == []
        # the guard can see: the pull adapter does construct them
        pulled = sum(1 for _ in iter_events(xml))
        assert len(constructed) == pulled - 2 == result.events - 2
