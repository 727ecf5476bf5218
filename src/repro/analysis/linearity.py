"""The LIN (linearity) rule family of ``repro-lint``.

The paper's central result is that optimal sibling partitioning runs in
time *linear* in the tree size; the flat-array DP kernels were hand-audited
for that property. These passes machine-check the two ways linearity
quietly dies in kernel code:

======  ================================================================
LIN001  nested loops that *both* iterate a node/child collection where
        the inner iterable is independent of the outer loop variable —
        the accidental O(n²) sweep
LIN002  ``list.insert``, ``list.pop(0)`` or ``in``-on-a-list inside a
        per-node loop — an O(n) primitive executed O(n) times
======  ================================================================

Scope: the passes only fire inside *kernel modules* — modules under
``repro.partition`` and ``repro.tree.flat``, or any module defining a
``Partitioner`` subclass (so fixtures and future kernels opt in by
inheritance, and glue code elsewhere stays unconstrained).

The nested-loop check is deliberately handshake-aware: iterating
``node.children`` inside ``for node in tree.nodes()`` is O(sum of child
counts) = O(n) and is *not* flagged, because the inner iterable is
derived from the outer loop variable. Only an inner node-collection
independent of the outer target (``for u in nodes: for v in nodes:``)
trips LIN001. Intentionally super-linear reference implementations
(e.g. the brute-force enumerator) belong in ``analysis-baseline.json``
or carry a ``# repro-lint: skip=LIN001`` pragma with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import SourceFile
from repro.analysis.passes import LintContext, LintPass, Violation, register_lint_pass
from repro.analysis.rules import _partitioner_classes

#: identifier stems that mark an iterable as a node/child collection
_NODE_STEMS = (
    "node",
    "child",
    "sibling",
    "subtree",
    "leaf",
    "leaves",
    "frontier",
    "postorder",
    "preorder",
    "descendant",
    "ancestor",
)

#: module prefixes that are kernel code regardless of class contents
_KERNEL_PREFIXES = ("repro.partition", "repro.tree.flat")


def _is_kernel_module(ctx: LintContext, source: SourceFile) -> bool:
    if source.module.startswith(_KERNEL_PREFIXES):
        return True
    return bool(_partitioner_classes(ctx, source))


def _identifiers(expr: ast.expr) -> set[str]:
    """Every Name id and Attribute attr mentioned in an expression."""
    out: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
    return out


def _is_node_collection(expr: ast.expr) -> bool:
    """Does the iterable look like a collection of tree nodes?"""
    for ident in _identifiers(expr):
        lowered = ident.lower()
        if any(stem in lowered for stem in _NODE_STEMS):
            return True
    return False


def _target_names(target: ast.expr) -> set[str]:
    return {
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _derived_names(loop: ast.For) -> set[str]:
    """The loop targets plus every local derived from them.

    ``children = node.children`` inside ``for node in ...`` makes
    ``children`` node-derived, so a subsequent ``for c in children[1:]``
    is the O(n)-total handshake pattern, not a quadratic sweep. Computed
    as a fixpoint over single-target assignments in the loop body."""
    names = _target_names(loop.target)
    assigns: list[ast.Assign] = []
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            assigns.append(node)
        stack.extend(ast.iter_child_nodes(node))
    changed = True
    while changed:
        changed = False
        for assign in assigns:
            target = assign.targets[0].id
            if target not in names and _identifiers(assign.value) & names:
                names.add(target)
                changed = True
    return names


def _body_loops(stmts: list[ast.stmt]) -> Iterator[ast.For]:
    """For loops in a block, not descending into nested function scopes."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.For):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _functions(source: SourceFile) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register_lint_pass
class QuadraticNodeSweepPass(LintPass):
    """Nested independent sweeps over node collections are O(n²).

    The optimal-partitioning DP visits each node a constant number of
    times; any doubly-nested full sweep silently converts the linear
    kernel into a quadratic one that only shows up on large documents."""

    code = "LIN001"
    name = "quadratic-node-sweep"
    description = (
        "nested loops both iterate a node/child collection and the inner "
        "iterable does not depend on the outer loop variable — an O(n²) "
        "sweep in code the paper proves O(n)"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            if not _is_kernel_module(ctx, source):
                continue
            yield from self._scan(source)

    def _scan(self, source: SourceFile) -> Iterator[Violation]:
        for fn in _functions(source):
            for outer in _body_loops(fn.body):
                if not _is_node_collection(outer.iter):
                    continue
                outer_names = _derived_names(outer)
                for inner in _body_loops(outer.body):
                    if not _is_node_collection(inner.iter):
                        continue
                    if _identifiers(inner.iter) & outer_names:
                        continue  # derived from the outer node: O(n) total
                    yield Violation(
                        path=str(source.path),
                        lineno=inner.lineno,
                        code=self.code,
                        message=(
                            f"nested node sweep in `{fn.name}`: inner loop over "
                            f"`{ast.unparse(inner.iter)}` is independent of the "
                            f"outer loop (line {outer.lineno}) — O(n²) where "
                            "the kernel must stay O(n)"
                        ),
                    )


@register_lint_pass
class LinearPrimitiveInLoopPass(LintPass):
    """O(n) list primitives inside per-node loops are O(n²) in disguise.

    ``list.insert`` and ``list.pop(0)`` shift every trailing element;
    ``x in some_list`` scans it. Run once per node, each turns a linear
    kernel quadratic. Use ``collections.deque`` for queue ends and a
    ``set`` for membership."""

    code = "LIN002"
    name = "linear-primitive-in-loop"
    description = (
        "list insert/pop(0)/`in`-membership inside a per-node loop; each "
        "is O(n) per call — use deque endpoints or set membership"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            if not _is_kernel_module(ctx, source):
                continue
            yield from self._scan(source)

    def _scan(self, source: SourceFile) -> Iterator[Violation]:
        for fn in _functions(source):
            list_locals = self._list_locals(fn)
            for loop in _body_loops(fn.body):
                if not _is_node_collection(loop.iter):
                    continue
                for node in self._loop_nodes(loop.body):
                    violation = self._check_node(node, source, fn, list_locals)
                    if violation is not None:
                        yield violation

    @staticmethod
    def _loop_nodes(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(stmts)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _list_locals(fn: ast.AST) -> set[str]:
        """Names bound to a list literal / ``list(...)`` / list comp."""
        out: set[str] = set()
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, (ast.List, ast.ListComp)):
                out.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "sorted")
            ):
                out.add(target.id)
        return out

    def _check_node(
        self,
        node: ast.AST,
        source: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        list_locals: set[str],
    ) -> Optional[Violation]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = ast.unparse(node.func.value)
            if node.func.attr == "insert":
                return self._violation(
                    source, node.lineno,
                    f"`{receiver}.insert(...)` in per-node loop of `{fn.name}` "
                    "shifts every trailing element (O(n) per call); append "
                    "and reverse once, or use a deque",
                )
            if (
                node.func.attr == "pop"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                return self._violation(
                    source, node.lineno,
                    f"`{receiver}.pop(0)` in per-node loop of `{fn.name}` "
                    "shifts the whole list (O(n) per call); use "
                    "`collections.deque.popleft()`",
                )
        if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(
            node.ops[0], (ast.In, ast.NotIn)
        ):
            comparator = node.comparators[0]
            if isinstance(comparator, ast.Name) and comparator.id in list_locals:
                return self._violation(
                    source, node.lineno,
                    f"membership test on list `{comparator.id}` in per-node "
                    f"loop of `{fn.name}` scans the list (O(n) per test); "
                    "keep a parallel `set`",
                )
        return None

    def _violation(self, source: SourceFile, lineno: int, message: str) -> Violation:
        return Violation(
            path=str(source.path), lineno=lineno, code=self.code, message=message
        )
