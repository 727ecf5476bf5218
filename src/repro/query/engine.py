"""Evaluation of the XPath subset over a document store.

Each evaluation walks through one navigator
(:class:`~repro.storage.store.Navigator`), which owns the walk's
counters. A store with a valid structural index answers each location
step once for its whole context list, on node ids, and charges the cost
model for the records the step decodes. Without one, context nodes are
expanded axis by axis through handle hops (first-child / next-sibling /
parent), as Natix' navigational query processor does; both paths return
identical node lists.

Results are duplicate-free and in document order. Supported beyond the
paper's Table 3 needs: the attribute axis (attributes are modelled as
leading children of their element), ``text()``/``node()`` kind tests,
positional predicates (``[2]``, ``[last()]``) and string-value
comparisons (``[@id = "x"]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro import telemetry
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
    Step,
)
from repro.query.parser import parse_xpath
from repro.storage.constants import StorageConfig
from repro.storage.store import DocumentStore, Navigator, StoredNode
from repro.tree.node import NodeKind


def _matches(node: StoredNode, test: NodeTest) -> bool:
    if test.kind is NodeTestKind.ANY:
        return True
    if test.kind is NodeTestKind.TEXT:
        return node.kind is NodeKind.TEXT
    if test.kind is NodeTestKind.ATTRIBUTE:
        return node.kind is NodeKind.ATTRIBUTE and (
            test.name == STAR or node.label == test.name
        )
    return node.is_element() and (test.name == STAR or node.label == test.name)


def _axis_nodes(context: StoredNode, axis: Axis):
    """Generate the axis population for one context node (all hops are
    charged to its navigator). Order is proximity order for reverse
    axes, document order otherwise."""
    if axis is Axis.CHILD:
        yield from context.children()
    elif axis is Axis.ATTRIBUTE:
        # attributes are the leading children of an element
        for child in context.children():
            if child.kind is not NodeKind.ATTRIBUTE:
                break
            yield child
    elif axis is Axis.SELF:
        yield context
    elif axis is Axis.DESCENDANT:
        walker = context.descendants_or_self()
        next(walker)  # drop self
        yield from walker
    elif axis is Axis.DESCENDANT_OR_SELF:
        yield from context.descendants_or_self()
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


# ---------------------------------------------------------------------------
# Set-at-a-time axis evaluation over the structural index.
#
# When a store carries a valid repro.index.StructuralIndex, a location
# step is answered once for the whole context list from typed preorder
# columns, on bare node ids: descendant axes as a staircase of disjoint
# preorder windows (contexts nested in a kept window are skipped; a
# named test is one bisect pair per window over the label's postings),
# ancestor axes as a parent-column climb that stops at the first node
# already collected, the other axes as CSR slices. Handles are made once
# per step, from the merged result. The cost model is charged once per
# step as well: one buffer fetch per page holding a record the step
# decodes — exactly the records holding a node of its windows
# (descendant) or of its climb (ancestor); the others are *pruned*,
# counted in NavigationStats.partitions_pruned — and the result's
# records for the point axes. Results are bit-identical to navigation
# (tests/index pins this); without a valid index the step navigates
# (_navigate_step), counted once per step as index.fallbacks when the
# index is there but stale.
# ---------------------------------------------------------------------------

_KIND_ELEMENT = int(NodeKind.ELEMENT)
_KIND_TEXT = int(NodeKind.TEXT)
_KIND_ATTRIBUTE = int(NodeKind.ATTRIBUTE)

#: node id of the XPath virtual root: its own identity in dedup, before
#: every stored node in document order
_VIRTUAL = -1

_DESCENDANT_AXES = (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)
_ANCESTOR_AXES = (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF)
_OR_SELF_AXES = (Axis.DESCENDANT_OR_SELF, Axis.ANCESTOR_OR_SELF)


def _usable_index(store):
    """The store's structural index, if present and valid (else None —
    with the stale case counted as one fallback for the calling step)."""
    index = store.structural_index
    if index is None:
        return None
    if not index.valid:
        if telemetry.enabled():
            telemetry.count("index.fallbacks")
        return None
    return index


def _filter_ids(index, ids, test: NodeTest) -> list[int]:
    """Column-wise node-test filter: mirrors `_matches` over the index's
    kind/label columns without materializing handles."""
    if test.kind is NodeTestKind.ANY:
        return list(ids)
    kind_of = index.kind_of
    if test.kind is NodeTestKind.TEXT:
        return [i for i in ids if kind_of[i] == _KIND_TEXT]
    kind = _KIND_ATTRIBUTE if test.kind is NodeTestKind.ATTRIBUTE else _KIND_ELEMENT
    if test.name == STAR:
        return [i for i in ids if kind_of[i] == kind]
    lid = index.label_id(test.name)
    if lid is None:
        return []
    label_of = index.label_id_of
    return [i for i in ids if label_of[i] == lid and kind_of[i] == kind]


def _window_test_ids(index, windows, test: NodeTest) -> list[int]:
    """Matching ids inside ascending preorder windows, document order. A
    named element test bisects the label's sorted postings (the
    accelerator fast path); other tests scan the windows' node_at
    slices."""
    if test.kind is NodeTestKind.ELEMENT and test.name != STAR:
        lid = index.label_id(test.name)
        if lid is None:
            return []
        return index.label_ids_in_windows(lid, windows)
    window_ids = chain.from_iterable(index.ids_in_window(lo, hi) for lo, hi in windows)
    return _filter_ids(index, window_ids, test)


#: ``(index, node id) -> ids``: one stored node's unfiltered population on
#: a non-descendant axis, in axis order (proximity order for reverse
#: axes, like `_axis_nodes`)
_POPULATION = {
    Axis.CHILD: lambda index, nid: index.children_of(nid),
    Axis.ATTRIBUTE: lambda index, nid: index.attributes_of(nid),
    Axis.SELF: lambda index, nid: (nid,),
    Axis.PARENT: lambda index, nid: (
        index.parent_of[nid : nid + 1] if index.parent_of[nid] >= 0 else ()
    ),
    Axis.ANCESTOR: lambda index, nid: index.ancestor_ids(nid, False),
    Axis.ANCESTOR_OR_SELF: lambda index, nid: index.ancestor_ids(nid, True),
    Axis.FOLLOWING_SIBLING: lambda index, nid: index.following_siblings(nid),
    Axis.PRECEDING_SIBLING: lambda index, nid: index.preceding_siblings(nid),
}


def _index_step(index, contexts, step: Step, positions):
    """Answer one location step for the whole context list (document
    order, duplicate-free) from the structural index: handles of the
    step's result before boolean predicates, in document order and
    duplicate-free. Without positional predicates the contexts are
    merged into one group; with them every context keeps its own group,
    in axis order, for the positions to index into. The XPath virtual
    root is an ordinary context whose window is the whole document and
    whose only child is the document element; it matches ``node()``."""
    axis, test = step.axis, step.node_test
    virtual = isinstance(contexts[0], _VirtualRoot)
    navigator = contexts[0].navigator
    store = navigator.store
    ids = [context.node_id for context in contexts[virtual:]]
    or_self = axis in _OR_SELF_AXES
    root_matches = virtual and test.kind is NodeTestKind.ANY
    if axis in _DESCENDANT_AXES:
        if virtual:
            merged = [(0, index.node_count)]
        else:
            merged = index.descendant_windows(ids, or_self)
        window_groups = [merged]
        if positions:
            window_groups = [[index.descendant_window(nid, or_self)] for nid in ids]
            if virtual:
                window_groups.insert(0, merged)
        groups = [_window_test_ids(index, ws, test) for ws in window_groups]
        if root_matches and or_self:
            groups[0].insert(0, _VIRTUAL)
        decoded = index.records_overlapping(merged)
    else:
        population = _POPULATION[axis]
        climbed = index.ancestors_of(ids, or_self) if axis in _ANCESTOR_AXES else None
        if positions:
            groups = [_filter_ids(index, population(index, nid), test) for nid in ids]
        elif climbed is not None:
            groups = [_filter_ids(index, climbed, test)]
        else:
            runs = [population(index, nid) for nid in ids]
            everything = runs[0] if len(runs) == 1 else chain.from_iterable(runs)
            groups = [_filter_ids(index, everything, test)]
        if virtual and axis is Axis.CHILD:
            groups.insert(0, _filter_ids(index, index.node_at[:1], test))
        elif root_matches and (axis is Axis.SELF or or_self):
            groups.insert(0, [_VIRTUAL])
        # an ancestor step decodes the records of the nodes it climbed, a
        # point axis just the records holding its result
        decoded = None if climbed is None else set(map(store.record_of.__getitem__, climbed))
    for position in positions:
        groups = [_nth(group, position) for group in groups]
    if len(groups) == 1 and axis in _DESCENDANT_AXES:
        out = groups[0]  # the staircase: ordered and duplicate-free as read
        with_root = out[:1] == [_VIRTUAL]
        if with_root:
            del out[0]
    else:
        found = set(chain.from_iterable(groups))
        with_root = _VIRTUAL in found
        found.discard(_VIRTUAL)
        out = sorted(found, key=index.pre_of.__getitem__)
    store.charge_index_step(navigator.stats, out, decoded)
    handles = navigator.handles(out)
    if with_root:
        handles.insert(0, contexts[0])
    return handles


#
# Location paths and predicate expressions nest mutually: a step's
# predicate may contain a comparison whose operand is another path, whose
# steps carry further predicates, and so on. Written as plain functions
# that shape is mutual recursion whose depth tracks the *query*, so a
# hostile or generated expression could exhaust the interpreter stack.
# Instead, each evaluation routine below is a generator "task" that
# `yield`s the sub-task it needs a result from; `_run` drives the task
# tree with an explicit stack. Yielding a freshly created generator only
# instantiates it — no Python frame is pushed until `_run` decides to —
# so evaluation depth is bounded by heap, not by the C stack.
# (`repro-lint` recognizes this pattern: a call that is the immediate
# operand of a `yield` inside a generator is stack-safe by construction.)
# ---------------------------------------------------------------------------


def _run(task):
    """Drive a task tree to completion with an explicit frame stack."""
    stack = [task]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            value = stop.value
        else:
            stack.append(sub)
            value = None
    return value


def _nth(group: list, position: Position) -> list:
    """A positional predicate's pick from one context's group."""
    at = position.index if position.index != -1 else len(group)
    return group[at - 1 : at] if at >= 1 else []


def _navigate_step(contexts, step: Step, positions):
    """Hop-by-hop evaluation of one step, context by context: the
    fallback when no valid index is there, and the oracle the index is
    held to. Yields in context order; duplicates and order are the
    caller's to settle."""
    for context in contexts:
        matched = [
            node
            for node in _axis_nodes(context, step.axis)
            if _matches(node, step.node_test)
        ]
        # positional predicates filter within this context's axis result
        for position in positions:
            matched = _nth(matched, position)
        yield from matched


def _apply_step_task(contexts: list[StoredNode], step: Step):
    boolean_preds = [
        p for p in step.predicates if not isinstance(p.expr, Position)
    ]
    positions = [
        p.expr for p in step.predicates if isinstance(p.expr, Position)
    ]
    store = contexts[0].navigator.store
    # one index evaluation for the whole context list when the store
    # carries a valid structural index; hop-by-hop navigation otherwise
    # (bit-identical results)
    index = _usable_index(store)
    if index is not None:
        candidates = _index_step(index, contexts, step, positions)
    else:
        candidates = _navigate_step(contexts, step, positions)
    seen: set[int] = set()
    out: list[StoredNode] = []
    for node in candidates:
        if node.node_id in seen:
            continue
        holds = True
        for pred in boolean_preds:
            holds = yield _expr_holds_task(node, pred.expr)
            if not holds:
                break
        if holds:
            seen.add(node.node_id)
            out.append(node)
    if index is None:  # document order; the virtual root leads
        rank = store.order_rank
        out.sort(key=lambda n: rank(n.node_id) if n.node_id != _VIRTUAL else -1)
    return out


def string_value(node: StoredNode) -> str:
    """XPath string-value: own content for text/attribute nodes, the
    concatenation of descendant text for elements."""
    if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
        return node.content or ""
    parts = []
    for descendant in node.descendants_or_self():
        if descendant.kind is NodeKind.TEXT:
            parts.append(descendant.content or "")
    return "".join(parts)


def _expr_holds_task(node: StoredNode, expr: PredicateExpr):
    if isinstance(expr, BooleanExpr):
        for operand in expr.operands:
            holds = yield _expr_holds_task(node, operand)
            if expr.op == "or" and holds:
                return True
            if expr.op != "or" and not holds:
                return False
        return expr.op != "or"
    if isinstance(expr, Comparison):
        selected = yield _evaluate_path_task([node], expr.path, node.navigator)
        values = (string_value(n) for n in selected)
        if expr.op == "=":
            return any(v == expr.literal for v in values)
        return any(v != expr.literal for v in values)
    if isinstance(expr, LocationPath):
        return bool((yield _evaluate_path_task([node], expr, node.navigator)))
    raise QueryEvaluationError(f"unsupported predicate expression {expr!r}")


def _evaluate_path_task(
    contexts: list[StoredNode], path: LocationPath, navigator: Navigator
):
    if path.absolute:
        contexts = [_VirtualRoot(navigator, navigator.root())]  # type: ignore[list-item]
    current = contexts
    for step in path.steps:
        if not current:
            return []
        current = yield _apply_step_task(current, step)
    # A bare "/" selects the virtual root; report the document element.
    if path.absolute and not path.steps:
        return [navigator.root()]
    return current


class _VirtualRoot:
    """The XPath root node: parent of the document element.

    Duck-typed so it wraps any navigator's document-element handle
    (tree-backed :class:`StoredNode` or record-backed
    :class:`~repro.storage.navigator.RecordNode`); it carries the same
    navigator, so steps from it are charged to the same walk.
    """

    __slots__ = ("navigator", "node_id", "_doc_root")

    def __init__(self, navigator: Navigator, doc_root):
        self.navigator = navigator
        self.node_id = _VIRTUAL
        self._doc_root = doc_root

    @property
    def kind(self) -> NodeKind:
        return NodeKind.OTHER

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

    def children(self):
        yield self._doc_root

    def descendants_or_self(self):
        yield self
        yield from self._doc_root.descendants_or_self()


@dataclass(frozen=True)
class QueryRun:
    """Outcome of one measured query execution."""

    xpath: str
    result_count: int
    intra_steps: int
    cross_steps: int
    page_faults: int
    cost: float
    #: location steps the structural index answered (one per step)
    window_steps: int = 0
    #: partitions those steps skipped (window non-overlap), summed
    partitions_pruned: int = 0

    @property
    def total_steps(self) -> int:
        return self.intra_steps + self.cross_steps

    @property
    def cross_ratio(self) -> float:
        return self.cross_steps / self.total_steps if self.total_steps else 0.0


def evaluate(source, xpath: str) -> list[StoredNode]:
    """Evaluate an expression; returns matching nodes in document order.

    ``source`` is a :class:`DocumentStore`, walked by a fresh
    :meth:`~DocumentStore.navigator`, or a :class:`Navigator` (e.g. a
    :class:`~repro.storage.navigator.RecordNavigator` for fully
    record-backed evaluation) that counts the walk in its ``stats``.
    """
    navigator = source.navigator() if isinstance(source, DocumentStore) else source
    path = parse_xpath(xpath)
    return _run(_evaluate_path_task([navigator.root()], path, navigator))


def run_query_nodes(
    store: DocumentStore, xpath: str, config: StorageConfig | None = None
) -> tuple[QueryRun, list[StoredNode]]:
    """Evaluate once through a fresh navigator; returns the measured
    :class:`QueryRun` and the matching nodes it counted (buffer content
    is left warm across runs, matching the paper's protocol)."""
    config = config or store.config
    navigator = store.navigator()
    index = store.structural_index
    # how the steps are answered: "window", or why they navigate
    answered = "absent" if index is None else "window" if index.valid else "invalid"
    with telemetry.span("query.run", xpath=xpath, index=answered) as sp:
        results = evaluate(navigator, xpath)
        sp.attrs["results"] = len(results)
    stats = navigator.stats
    if navigator.heat is not None:
        navigator.heat.drain()  # park this query's buffered hops
    if telemetry.enabled():
        telemetry.count("query.runs")
        telemetry.count("query.results", len(results))
        telemetry.count("query.nodes_visited", stats.node_visits)
        telemetry.count("query.steps.intra", stats.intra_steps)
        telemetry.count("query.steps.cross", stats.cross_steps)
        telemetry.count("query.page_faults", stats.page_faults)
        if stats.window_steps:
            telemetry.count("index.window_hits", stats.window_steps)
            if stats.partitions_pruned:
                telemetry.count(
                    "index.partitions_pruned", stats.partitions_pruned
                )
    run = QueryRun(
        xpath=xpath,
        result_count=len(results),
        intra_steps=stats.intra_steps,
        cross_steps=stats.cross_steps,
        page_faults=stats.page_faults,
        cost=stats.cost(config),
        window_steps=stats.window_steps,
        partitions_pruned=stats.partitions_pruned,
    )
    return run, results


def run_query(
    store: DocumentStore, xpath: str, config: StorageConfig | None = None
) -> QueryRun:
    """The measured :class:`QueryRun` of :func:`run_query_nodes`."""
    return run_query_nodes(store, xpath, config)[0]
