"""Streaming parser and weighted-tree construction tests."""

import io

import pytest

from repro.errors import XmlFormatError
from repro.tree.node import NodeKind
from repro.xmlio import iter_events, parse_tree
from repro.xmlio.events import Characters, EndDocument, EndElement, StartDocument, StartElement
from repro.xmlio.parser import tree_from_events
from repro.xmlio.weights import SlotWeightModel


SIMPLE = '<a x="1"><b>hello</b><c/></a>'


class TestIterEvents:
    def test_event_sequence(self):
        events = list(iter_events(SIMPLE))
        assert isinstance(events[0], StartDocument)
        assert isinstance(events[-1], EndDocument)
        kinds = [type(e).__name__ for e in events[1:-1]]
        assert kinds == [
            "StartElement",
            "StartElement",
            "Characters",
            "EndElement",
            "StartElement",
            "EndElement",
            "EndElement",
        ]

    def test_attributes_in_document_order(self):
        events = list(iter_events('<a b="1" a="2" c="3"/>'))
        start = events[1]
        assert start.attributes == (("b", "1"), ("a", "2"), ("c", "3"))

    def test_accepts_bytes_path_and_stream(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(SIMPLE)
        for source in (SIMPLE, SIMPLE.encode(), str(path), path, io.BytesIO(SIMPLE.encode())):
            tree = parse_tree(source)
            assert len(tree) == 5

    def test_malformed_raises(self):
        with pytest.raises(XmlFormatError):
            list(iter_events("<a><b></a>"))

    def test_unsupported_source(self):
        with pytest.raises(XmlFormatError):
            list(iter_events(12345))  # type: ignore[arg-type]

    def test_large_document_streams(self):
        body = "<r>" + "<x>t</x>" * 20_000 + "</r>"
        count = sum(1 for e in iter_events(body) if isinstance(e, StartElement))
        assert count == 20_001


class TestMalformedInput:
    """Hardening: every malformed source fails as XmlFormatError with a
    location — never a bare ValueError/KeyError or a silent partial tree."""

    def test_truncated_document(self):
        with pytest.raises(XmlFormatError, match="line"):
            parse_tree("<a><b>tex")

    def test_eof_inside_a_tag(self):
        with pytest.raises(XmlFormatError, match="parse error"):
            parse_tree('<a><b attr="v')

    def test_undefined_entity_reports_position(self):
        with pytest.raises(XmlFormatError) as info:
            parse_tree("<a>\n  text &nosuch; more\n</a>")
        assert info.value.line == 2
        assert info.value.column is not None
        assert f"line 2, column {info.value.column}" in str(info.value)

    def test_mismatched_close_reports_position(self):
        with pytest.raises(XmlFormatError) as info:
            parse_tree("<a><b></a>")
        assert info.value.line == 1

    def test_not_xml_at_all(self):
        for junk in ("just words", "{}", b"\x00\x01\x02\x03"):
            with pytest.raises(XmlFormatError):
                parse_tree(junk)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(XmlFormatError):
            parse_tree(b"<a>\xff\xfe</a>")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(XmlFormatError, match="cannot open"):
            parse_tree(str(tmp_path / "absent.xml"))

    def test_truncation_mid_stream_never_yields_partial_tree(self):
        # the error must surface from parse_tree, not leave a short tree
        whole = "<r>" + "<x>t</x>" * 50 + "</r>"
        for cut in (len(whole) // 3, len(whole) // 2, len(whole) - 3):
            with pytest.raises(XmlFormatError):
                parse_tree(whole[:cut])


class TestParseTree:
    def test_structure_and_kinds(self):
        tree = parse_tree(SIMPLE)
        kinds = [(n.label, n.kind) for n in tree]
        assert kinds == [
            ("a", NodeKind.ELEMENT),
            ("x", NodeKind.ATTRIBUTE),
            ("b", NodeKind.ELEMENT),
            ("#text", NodeKind.TEXT),
            ("c", NodeKind.ELEMENT),
        ]

    def test_weights_follow_slot_model(self):
        tree = parse_tree("<a>12345678X</a>")  # 9 bytes of text
        text = tree.nodes[1]
        assert text.weight == 1 + 2  # metadata + ceil(9/8)

    def test_whitespace_stripped_by_default(self):
        tree = parse_tree("<a>\n  <b/>\n</a>")
        assert len(tree) == 2

    def test_whitespace_kept_on_request(self):
        tree = parse_tree("<a>\n  <b/>\n</a>", strip_whitespace=False)
        assert len(tree) == 4
        assert tree.nodes[1].kind is NodeKind.TEXT

    def test_adjacent_character_runs_merge(self):
        events = [
            StartDocument(),
            StartElement("a", ()),
            Characters("one "),
            Characters("two"),
            EndElement("a"),
            EndDocument(),
        ]
        tree = tree_from_events(events)
        assert len(tree) == 2
        assert tree.nodes[1].content == "one two"

    def test_entities_and_unicode(self):
        tree = parse_tree("<a>&lt;tag&gt; &amp; ümläut</a>")
        assert tree.nodes[1].content == "<tag> & ümläut"
        # weight counts UTF-8 bytes, not code points
        assert tree.nodes[1].weight == 1 + -(-len("<tag> & ümläut".encode()) // 8)

    def test_custom_weight_model(self):
        wm = SlotWeightModel(slot_size=4)
        tree = parse_tree("<a>12345678</a>", weight_model=wm)
        assert tree.nodes[1].weight == 1 + 2  # ceil(8/4)

    def test_empty_document_rejected(self):
        with pytest.raises(XmlFormatError):
            parse_tree("   ")

    def test_unclosed_stream_rejected(self):
        events = [StartDocument(), StartElement("a", ()), EndDocument()]
        with pytest.raises(XmlFormatError):
            tree_from_events(events)

    def test_stray_end_rejected(self):
        events = [StartDocument(), StartElement("a", ()), EndElement("a"), EndElement("a")]
        with pytest.raises(XmlFormatError):
            tree_from_events(events)


class TestPushCore:
    """``push_parse``: expat calls the handler trio directly."""

    def test_handlers_see_names_flat_attributes_and_text(self):
        from repro.xmlio.parser import push_parse

        calls = []
        push_parse(
            '<a x="1" y="2"><b>hi</b></a>',
            lambda name, attrs: calls.append(("start", name, list(attrs))),
            lambda name: calls.append(("end", name)),
            lambda data: calls.append(("text", data)),
        )
        assert calls == [
            ("start", "a", ["x", "1", "y", "2"]),
            ("start", "b", []),
            ("text", "hi"),
            ("end", "b"),
            ("end", "a"),
        ]

    def test_replay_is_the_inverse_of_iter_events(self):
        from repro.xmlio.events import replay
        from repro.xmlio.parser import push_parse

        pushed, replayed = [], []
        for sink, drive, document in (
            (pushed, push_parse, SIMPLE),
            (replayed, replay, iter_events(SIMPLE)),
        ):
            drive(
                document,
                lambda name, attrs, sink=sink: sink.append((name, list(attrs))),
                lambda name, sink=sink: sink.append(name),
                lambda data, sink=sink: sink.append(("#", data)),
            )
        assert replayed == pushed

    def test_handler_exceptions_are_not_laundered_into_parse_errors(self):
        # real work runs inside parser.Parse now: a ValueError out of a
        # handler is the consumer's bug, not "XML parse error: ..."
        from repro.xmlio.parser import push_parse

        def start(name, attrs):
            if name == "b":
                raise ValueError("handler bug")

        with pytest.raises(ValueError, match="^handler bug$") as info:
            push_parse("<a>\n<b/></a>", start, lambda name: None, lambda data: None)
        assert not isinstance(info.value, XmlFormatError)

        def characters(data):
            raise LookupError("no such key")

        with pytest.raises(LookupError, match="no such key"):
            push_parse("<a>t</a>", lambda n, a: None, lambda n: None, characters)

    @pytest.mark.parametrize(
        "document, line, column",
        [
            ("<a>\n  <b>tex", 2, 9),  # truncated (offset 8 is the end of input)
            ("<a>\n<b></a>", 2, 6),  # mismatched tag
            ("<a/>\n\n junk", 3, 2),  # junk after the root
        ],
    )
    def test_expat_errors_keep_their_one_based_position(self, document, line, column):
        from repro.xmlio.parser import push_parse

        for parse in (
            lambda: push_parse(document, lambda n, a: None, lambda n: None, lambda d: None),
            lambda: list(iter_events(document)),
            lambda: parse_tree(document),
        ):
            with pytest.raises(XmlFormatError, match="XML parse error") as info:
                parse()
            assert (info.value.line, info.value.column) == (line, column)

    def test_undecodable_declared_encodings_are_format_errors(self):
        # pyexpat raises these itself (ValueError / LookupError, not
        # ExpatError); they originate in the parser, so they are wrapped
        for encoding in ("shift_jis", "no-such-encoding"):
            document = f'<?xml version="1.0" encoding="{encoding}"?><a/>'.encode()
            with pytest.raises(XmlFormatError, match="XML parse error") as info:
                parse_tree(document)
            assert info.value.line == 1
