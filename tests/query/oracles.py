"""The handle walk the query engine used to navigate with, kept as the
reference its counters are held to (the ``tests/partition/oracles.py``
pattern).

The engine now walks node ids inside the navigator and makes handles
only for the nodes a step matches. Before that, every hop went through a
handle: :func:`_axis_nodes` expanded one context by ``first_child`` /
``next_sibling`` / ``parent`` / ``prev_sibling`` hops and :func:`_matches`
tested each handle it produced. That walk is kept here verbatim, around
the evaluation loop it ran in, using nothing of the engine but its
single-hop handle methods (and its task driver). The order of its hops
is the order the cost model must see: the LRU buffer turns it into page
faults, so an id walk that charges the same hops in another order shows
up here as different ``page_faults`` or ``BufferStats``.
"""

from __future__ import annotations

from repro.errors import QueryEvaluationError
from repro.query.ast import (
    Axis,
    BooleanExpr,
    Comparison,
    LocationPath,
    NodeTest,
    NodeTestKind,
    Position,
    PredicateExpr,
    STAR,
)
from repro.query.engine import _nth, _run
from repro.query.parser import parse_xpath
from repro.tree.node import NodeKind

#: node id of the XPath virtual root
_VIRTUAL = -1


def _matches(node, test: NodeTest) -> bool:
    if test.kind is NodeTestKind.ANY:
        return True
    if test.kind is NodeTestKind.TEXT:
        return node.kind is NodeKind.TEXT
    if test.kind is NodeTestKind.ATTRIBUTE:
        return node.kind is NodeKind.ATTRIBUTE and (
            test.name == STAR or node.label == test.name
        )
    return node.is_element() and (test.name == STAR or node.label == test.name)


def _children(node):
    """First-child / next-sibling walk over all children."""
    child = node.first_child()
    while child is not None:
        yield child
        child = child.next_sibling()


def _descendants_or_self(node):
    """Document-order walk of the subtree (self first), step-charged."""
    yield node
    stack = []
    first = node.first_child()
    if first is not None:
        stack.append(first)
    while stack:
        node = stack.pop()
        yield node
        sibling = node.next_sibling()
        if sibling is not None:
            stack.append(sibling)
        child = node.first_child()
        if child is not None:
            stack.append(child)


def _axis_nodes(context, axis: Axis):
    """Generate the axis population for one context node (all hops are
    charged to its navigator). Order is proximity order for reverse
    axes, document order otherwise."""
    if axis is Axis.CHILD:
        yield from _children(context)
    elif axis is Axis.ATTRIBUTE:
        # attributes are the leading children of an element
        for child in _children(context):
            if child.kind is not NodeKind.ATTRIBUTE:
                break
            yield child
    elif axis is Axis.SELF:
        yield context
    elif axis is Axis.DESCENDANT:
        walker = _descendants_or_self(context)
        next(walker)  # drop self
        yield from walker
    elif axis is Axis.DESCENDANT_OR_SELF:
        yield from _descendants_or_self(context)
    elif axis is Axis.PARENT:
        parent = context.parent()
        if parent is not None:
            yield parent
    elif axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        if axis is Axis.ANCESTOR_OR_SELF:
            yield context
        node = context.parent()
        while node is not None:
            yield node
            node = node.parent()
    elif axis is Axis.FOLLOWING_SIBLING:
        node = context.next_sibling()
        while node is not None:
            yield node
            node = node.next_sibling()
    elif axis is Axis.PRECEDING_SIBLING:
        node = context.prev_sibling()
        while node is not None:
            yield node
            node = node.prev_sibling()
    else:  # pragma: no cover - exhaustive enum
        raise QueryEvaluationError(f"unsupported axis {axis}")


class _ReferenceRoot:
    """The XPath root node: its only child is the document element,
    reached without a charged hop."""

    __slots__ = ("navigator", "node_id", "_doc_root")

    kind = NodeKind.OTHER

    def __init__(self, navigator, doc_root):
        self.navigator = navigator
        self.node_id = _VIRTUAL
        self._doc_root = doc_root

    def is_element(self) -> bool:
        return False

    def parent(self):
        return None

    def first_child(self):
        return self._doc_root

    def next_sibling(self):
        return None

    def prev_sibling(self):
        return None


class ReferenceEvaluator:
    """Navigation-only evaluation through handle hops. ``offered`` counts
    the nodes a step handed to its boolean predicates and its result,
    one per node not already kept by that step: the handles the id walk
    may make."""

    def __init__(self, navigator):
        self.navigator = navigator
        self.offered = 0

    def evaluate(self, xpath: str) -> list:
        navigator = self.navigator
        path = parse_xpath(xpath)
        return _run(self._path_task([navigator.root()], path))

    def _navigate_step(self, contexts, step, positions):
        for context in contexts:
            matched = [
                node
                for node in _axis_nodes(context, step.axis)
                if _matches(node, step.node_test)
            ]
            for position in positions:
                matched = _nth(matched, position)
            yield from matched

    def _step_task(self, contexts, step):
        boolean_preds = [p for p in step.predicates if not isinstance(p.expr, Position)]
        positions = [p.expr for p in step.predicates if isinstance(p.expr, Position)]
        seen: set[int] = set()
        out = []
        for node in self._navigate_step(contexts, step, positions):
            if node.node_id in seen:
                continue
            self.offered += 1
            holds = True
            for pred in boolean_preds:
                holds = yield self._holds_task(node, pred.expr)
                if not holds:
                    break
            if holds:
                seen.add(node.node_id)
                out.append(node)
        rank = self.navigator.store.order_rank
        out.sort(key=lambda n: rank(n.node_id) if n.node_id != _VIRTUAL else -1)
        return out

    def _holds_task(self, node, expr: PredicateExpr):
        if isinstance(expr, BooleanExpr):
            for operand in expr.operands:
                holds = yield self._holds_task(node, operand)
                if expr.op == "or" and holds:
                    return True
                if expr.op != "or" and not holds:
                    return False
            return expr.op != "or"
        if isinstance(expr, Comparison):
            selected = yield self._path_task([node], expr.path)
            values = (string_value(n) for n in selected)
            if expr.op == "=":
                return any(v == expr.literal for v in values)
            return any(v != expr.literal for v in values)
        if isinstance(expr, LocationPath):
            return bool((yield self._path_task([node], expr)))
        raise QueryEvaluationError(f"unsupported predicate expression {expr!r}")

    def _path_task(self, contexts, path: LocationPath):
        navigator = self.navigator
        if path.absolute:
            contexts = [_ReferenceRoot(navigator, navigator.root())]
        current = contexts
        for step in path.steps:
            if not current:
                return []
            current = yield self._step_task(current, step)
        if path.absolute and not path.steps:
            return [navigator.root()]
        return current


def string_value(node) -> str:
    """XPath string-value: own content for text/attribute nodes, the
    concatenation of descendant text for elements."""
    if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
        return node.content or ""
    parts = []
    for descendant in _descendants_or_self(node):
        if descendant.kind is NodeKind.TEXT:
            parts.append(descendant.content or "")
    return "".join(parts)
