"""XPath-subset query engine over the document store (paper Sec. 6.4).

Supports exactly what the XPathMark queries Q1–Q7 need — and a bit more:
the ``child``, ``descendant``, ``descendant-or-self``, ``self``,
``parent``, ``ancestor``, ``ancestor-or-self``, ``following-sibling`` and
``preceding-sibling`` axes, name and wildcard node tests, abbreviated
``/`` / ``//`` syntax, and predicates combining relative-path existence
tests with ``or`` / ``and``.

Every axis walk navigates :class:`~repro.storage.store.StoredNode`
handles, so query cost directly measures partition quality.
"""

from repro.query.ast import LocationPath, Step, Predicate
from repro.query.parser import parse_xpath
from repro.query.engine import evaluate, run_query, run_query_nodes, QueryRun
from repro.query.xpathmark import XPATHMARK_QUERIES, XPathMarkQuery

__all__ = [
    "LocationPath",
    "Step",
    "Predicate",
    "parse_xpath",
    "evaluate",
    "run_query",
    "run_query_nodes",
    "QueryRun",
    "XPATHMARK_QUERIES",
    "XPathMarkQuery",
]
