"""Parse events: the currency of the pull adapter.

The bulkloader (Sec. 4.3) consumes documents in depth-first preorder —
"the typical result delivery of XML parsers". Inside the library that
delivery is a *push*: expat calls a ``start`` / ``end`` / ``characters``
handler trio directly (:func:`repro.xmlio.parser.push_parse`) and no
event object exists. The small SAX-like vocabulary below is what
:func:`~repro.xmlio.parser.iter_events` materializes for callers that
want to pull, record or hand-write a stream; :func:`replay` turns such
a stream back into handler calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union


@dataclass(frozen=True)
class StartDocument:
    """Emitted once before any content."""


@dataclass(frozen=True)
class EndDocument:
    """Emitted once after all content."""


@dataclass(frozen=True)
class StartElement:
    """An opening tag with its attributes (in document order)."""

    name: str
    attributes: tuple[tuple[str, str], ...] = field(default=())


@dataclass(frozen=True)
class EndElement:
    """A closing tag."""

    name: str


@dataclass(frozen=True)
class Characters:
    """A run of character data (adjacent runs may arrive split)."""

    text: str


ParseEvent = Union[StartDocument, EndDocument, StartElement, EndElement, Characters]

#: the handler trio, with the signatures expat calls:
#: ``start(name, [k, v, k, v, ...])``, ``end(name)``, ``characters(data)``
StartHandler = Callable[[str, list], None]
EndHandler = Callable[[str], None]
CharactersHandler = Callable[[str], None]


def replay(
    events: Iterable[ParseEvent],
    start: StartHandler,
    end: EndHandler,
    characters: CharactersHandler,
) -> None:
    """Pull to push: call a handler trio once per recorded event
    (``start`` gets the flat ``[name, value, ...]`` attribute list, as
    from expat). ``StartDocument`` / ``EndDocument`` carry nothing to
    deliver."""
    for event in events:
        if isinstance(event, StartElement):
            start(event.name, [part for pair in event.attributes for part in pair])
        elif isinstance(event, EndElement):
            end(event.name)
        elif isinstance(event, Characters):
            characters(event.text)
