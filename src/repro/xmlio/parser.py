"""Streaming XML parsing and weighted-tree construction (Sec. 6.1).

One push core drives everything: :func:`push_parse` creates the
:mod:`xml.parsers.expat` parser, feeds the input in ``_CHUNK``-sized
reads (so arbitrarily large documents never have to be resident as a
whole), maps expat's errors to :class:`~repro.errors.XmlFormatError`
with a 1-based line/column, and lets expat call a handler trio
``start(name, attrs)`` / ``end(name)`` / ``characters(data)`` directly —
``attrs`` is expat's flat ``[name, value, name, value, ...]`` list. No
event object, buffer or generator sits between the parser and its
consumer. The consumers are thin:

* :func:`parse_tree` hands the core a :class:`TreeBuilder`, the one
  owner of the tree-building rules (adjacent character runs merge,
  whitespace-only runs drop, content outside the document element is an
  error) — the bulk loader's ``_LoadState`` extends it;
* :func:`iter_events` is the *pull adapter*: handlers that append
  :class:`~repro.xmlio.events.ParseEvent` objects to a per-chunk buffer
  it yields from;
* :func:`tree_from_events` replays recorded events into a
  :class:`TreeBuilder` (:func:`~repro.xmlio.events.replay`).

The weighted :class:`~repro.tree.node.Tree` the builder produces has

* one :data:`~repro.tree.node.NodeKind.ELEMENT` node per element,
* one :data:`~repro.tree.node.NodeKind.ATTRIBUTE` node per attribute
  (placed before the element's content children, mirroring DOM order),
* one :data:`~repro.tree.node.NodeKind.TEXT` node per maximal run of
  character data (whitespace-only runs are dropped by default — they are
  formatting noise, not document content).
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterable, Iterator, Optional, Union
from xml.parsers import expat

from repro.errors import XmlFormatError
from repro.faults import plan as faults
from repro.tree.node import NodeKind, Tree, TreeNode
from repro.xmlio.events import (
    Characters,
    CharactersHandler,
    EndDocument,
    EndElement,
    EndHandler,
    ParseEvent,
    StartDocument,
    StartElement,
    StartHandler,
    replay,
)
from repro.xmlio.weights import SlotWeightModel

Source = Union[str, bytes, os.PathLike, IO[bytes], IO[str]]

_CHUNK = 64 * 1024


def _open_source(source: Source) -> tuple[IO[bytes], bool]:
    """Normalize the polymorphic source into a binary stream.

    Returns ``(stream, owned)``; owned streams are closed by the caller.
    """
    if isinstance(source, bytes):
        return io.BytesIO(source), True
    if isinstance(source, str):
        # Heuristic: document text if it looks like markup, else a path.
        if not source.strip():
            raise XmlFormatError("empty document")
        if source.lstrip()[:1] == "<":
            return io.BytesIO(source.encode("utf-8")), True
        return _open_path(source), True
    if isinstance(source, os.PathLike):
        return _open_path(source), True
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, str):
            return io.BytesIO(source.read().encode("utf-8")), True  # type: ignore[arg-type]
        return source, False  # type: ignore[return-value]
    raise XmlFormatError(f"unsupported XML source: {type(source).__name__}")


def _open_path(path: Union[str, os.PathLike]) -> IO[bytes]:
    """Open a document path, folding I/O failure into the library's
    error hierarchy (a string that is neither markup nor a readable file
    would otherwise escape as a bare ``FileNotFoundError``)."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise XmlFormatError(
            f"cannot open XML source {os.fspath(path)!r}: {exc}"
        ) from exc


def _feed(
    source: Source,
    start: StartHandler,
    end: EndHandler,
    characters: CharactersHandler,
) -> Iterator[None]:
    """The one parse loop: expat calls the three handlers directly while
    this generator feeds it ``_CHUNK``-sized reads, pausing after each so
    the pull adapter can hand out what the chunk produced.

    ``buffer_text`` stays on (adjacent character data arrives merged up
    to expat's buffer size): where expat flushes text decides the event
    indices journals and fault plans refer to.
    """
    stream, owned = _open_source(source)
    parser = expat.ParserCreate(namespace_separator=None)
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    try:
        while True:
            chunk = stream.read(_CHUNK)
            final = not chunk
            try:
                parser.Parse(chunk, final)
            except expat.ExpatError as exc:
                # Truncated documents, undefined entities, mid-element
                # EOF, junk after the root — every malformed input
                # surfaces as XmlFormatError with the 1-based position.
                offset = getattr(exc, "offset", None)
                raise XmlFormatError(
                    f"XML parse error: {expat.ErrorString(exc.code)}",
                    line=getattr(exc, "lineno", None),
                    column=offset + 1 if offset is not None else None,
                ) from exc
            except (ValueError, LookupError) as exc:
                # pyexpat itself raises these for declared encodings it
                # cannot decode (unknown, multi-byte). An exception that
                # passed through a frame below this one came out of a
                # handler — the consumer's error, not a parse error.
                trace = exc.__traceback__
                if trace is not None and trace.tb_next is not None:
                    raise
                raise XmlFormatError(
                    f"XML parse error: {exc}",
                    line=parser.CurrentLineNumber,
                    column=parser.CurrentColumnNumber + 1,
                ) from exc
            yield
            if final:
                break
    finally:
        if owned:
            stream.close()


def push_parse(
    source: Source,
    start: StartHandler,
    end: EndHandler,
    characters: CharactersHandler,
) -> None:
    """Parse the whole document on the calling thread, expat calling
    ``start(name, attrs)`` / ``end(name)`` / ``characters(data)`` as it
    goes (``attrs`` is the flat ``[name, value, ...]`` list). Handler
    exceptions propagate unchanged; malformed input raises
    :class:`~repro.errors.XmlFormatError`."""
    for _ in _feed(source, start, end, characters):
        pass


def iter_events(source: Source) -> Iterator[ParseEvent]:
    """Stream parse events from an XML document in depth-first preorder
    (the pull adapter over the push core)."""
    buffer: list[ParseEvent] = []
    append = buffer.append

    def start(name: str, attrs: list) -> None:
        append(StartElement(name, tuple(zip(attrs[0::2], attrs[1::2]))))

    def end(name: str) -> None:
        append(EndElement(name))

    def characters(data: str) -> None:
        append(Characters(data))

    yield StartDocument()
    emitted = 1
    for _ in _feed(source, start, end, characters):
        for event in buffer:
            emitted += 1
            if faults.armed():
                faults.check("parser.event", index=emitted)
            yield event
        buffer.clear()
    yield EndDocument()


class TreeBuilder:
    """The tree-building handler trio: ``start`` / ``end`` /
    ``characters`` fold a document into a weighted tree.

    Owns the rules every tree consumer shares: adjacent character runs
    merge into one text node, whitespace-only runs drop (unless
    ``strip_whitespace`` is off), content outside the single document
    element is an :class:`~repro.errors.XmlFormatError`. ``events``
    counts callbacks the way :func:`iter_events` numbers its events
    (``StartDocument`` is event 1), which is the index the
    ``parser.event`` fault point reports.
    """

    def __init__(self, weight_model: SlotWeightModel, strip_whitespace: bool = True):
        self.wm = weight_model
        self.element_weight = weight_model.element_weight()  # content-free
        self.strip_whitespace = strip_whitespace
        self.tree: Optional[Tree] = None
        #: open elements, innermost last
        self.open: list = []
        #: character runs since the last tag
        self.pending: list[str] = []
        self.events = 1  # StartDocument

    def start(self, name: str, attrs: list) -> None:
        self.events += 1
        if faults.armed():
            faults.check("parser.event", index=self.events)
        if self.pending:
            self._flush_text()
        wm = self.wm
        stack = self.open
        node = self._element(name, self.element_weight, stack[-1] if stack else None)
        stack.append(node)
        tree = self.tree
        for i in range(0, len(attrs), 2):
            value = attrs[i + 1]
            tree.add_child(  # type: ignore[union-attr]
                node, attrs[i], wm.attribute_weight(value), NodeKind.ATTRIBUTE, value
            )

    def end(self, name: str) -> None:
        self.events += 1
        if faults.armed():
            faults.check("parser.event", index=self.events)
        if self.pending:
            self._flush_text()
        if not self.open:
            raise XmlFormatError(f"unexpected closing tag {name!r}")
        self.open.pop()

    def characters(self, data: str) -> None:
        self.events += 1
        if faults.armed():
            faults.check("parser.event", index=self.events)
        self.pending.append(data)

    def finish(self) -> Tree:
        """The finished tree (call after the last event)."""
        self.events += 1  # EndDocument
        if self.pending:
            self._flush_text()
        if self.tree is None:
            raise XmlFormatError("document contains no elements")
        if self.open:
            raise XmlFormatError("document ended with unclosed elements")
        return self.tree

    # -- shared with the bulk loader's richer handlers ----------------------

    def _element(self, name: str, weight: int, parent: Optional[TreeNode]) -> TreeNode:
        """A new element node under the innermost open element
        (``None``: nothing is open, so it can only be the document
        element)."""
        tree = self.tree
        if tree is None:
            tree = self.tree = Tree(name, weight, NodeKind.ELEMENT)
            return tree.nodes[0]
        if parent is None:
            raise XmlFormatError("multiple document elements")
        return tree.add_child(parent, name, weight, NodeKind.ELEMENT)

    def _take_text(self) -> Optional[str]:
        """Consume the pending character runs: the merged text, or
        ``None`` when it is dropped as whitespace."""
        text = "".join(self.pending)
        self.pending.clear()
        if self.strip_whitespace and not text.strip():
            return None
        if not self.open:
            raise XmlFormatError("character data outside the document element")
        return text

    def _flush_text(self) -> None:
        text = self._take_text()
        if text is not None:
            self.tree.add_child(  # type: ignore[union-attr]
                self.open[-1], "#text", self.wm.text_weight(text), NodeKind.TEXT, text
            )


def parse_tree(
    source: Source,
    weight_model: SlotWeightModel | None = None,
    strip_whitespace: bool = True,
) -> Tree:
    """Parse a document into a weighted tree using the slot model."""
    builder = TreeBuilder(weight_model or SlotWeightModel(), strip_whitespace)
    push_parse(source, builder.start, builder.end, builder.characters)
    return builder.finish()


def tree_from_events(
    events: Iterable[ParseEvent],
    weight_model: SlotWeightModel | None = None,
    strip_whitespace: bool = True,
) -> Tree:
    """Fold a recorded parse-event stream into a weighted tree."""
    builder = TreeBuilder(weight_model or SlotWeightModel(), strip_whitespace)
    replay(events, builder.start, builder.end, builder.characters)
    return builder.finish()
