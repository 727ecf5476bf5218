"""Module-level def-use / escape analysis over the call graph.

Where :mod:`repro.analysis.callgraph` answers *who calls whom*, this
pass answers *who touches what shared state*. It is the substrate of the
concurrency rule family (``CC001``–``CC003``): a rule never walks raw
ASTs itself — it queries the :class:`DataflowInfo` tables built here.

The pass classifies three tiers of long-lived mutable state:

* **module state** — module-level assignments whose value is a mutable
  container (dict/list/set/``OrderedDict``/``deque``/...), a lock, or
  an instance of an analyzed class. Annotation-only
  declarations (``_active: Optional[FaultPlan] = None``) classify
  through the named class.
* **class state** — assignments in a class body (shared by every
  instance).
* **instance state** — ``self.x = ...`` assignments inside methods.

For every classified state object the pass records its *kind tags*
(``mutable``, ``lock``, ``scalar``).

On top of the state tables the pass computes:

* **accesses** — every read and write of a state object per function,
  including mutation through methods (``.append``, ``.clear``,
  ``[k] = v``) and the read-modify-write flag for augmented assignments;
  each access knows which locks were lexically held (``with lock:``
  blocks plus ``# repro: holds(lock)`` declarations).
* **shared classes** — classes whose instances are reachable from
  module globals (directly, through a ``global x; x = C()`` factory, or
  transitively: a class instantiated by a shared class's methods is
  itself shared).
* **escapes** — states that leak out of their module through a
  ``return``/``yield``.

Two source annotations drive the checkers (see ``docs/ANALYSIS.md``):

* ``# repro: guarded-by(<lock>)`` on a state declaration names the lock
  that must be held for every write (checked by CC001);
* ``# repro: holds(<lock>)`` on a ``def`` line asserts the caller holds
  that lock for the whole body (the body is then treated as locked).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.callgraph import (
    CallGraph,
    SourceFile,
    _dotted_name,
    _Imports,
)

#: ``# repro: guarded-by(lock)`` / ``# repro: holds(lock)`` directives
ANNOTATION_RE = re.compile(
    r"#\s*repro:\s*(?P<directive>guarded-by|holds)\s*\(\s*(?P<arg>[^)]*?)\s*\)"
)

KIND_MUTABLE = "mutable"
KIND_LOCK = "lock"
#: plain int/float instance attribute — a counter-style accumulator
KIND_SCALAR = "scalar"

#: constructor names (last dotted component) per kind tag
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter", "bytearray"}
)
_LOCK_CALLS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)

#: method names whose call mutates the receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "insert",
        "extend",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "move_to_end",
        "write",
    }
)


def parse_annotations(lines: list[str]) -> dict[int, dict[str, str]]:
    """``# repro:`` directives keyed by 1-based line number.

    Returns ``{lineno: {"guarded-by": "_lock"}}``-style maps; at most one
    of each directive per line is kept.
    """
    out: dict[int, dict[str, str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "repro:" not in line:
            continue
        for match in ANNOTATION_RE.finditer(line):
            out.setdefault(lineno, {})[match.group("directive")] = match.group(
                "arg"
            ).strip()
    return out


@dataclass
class StateVar:
    """One classified long-lived mutable state object."""

    qualname: str  # "mod._registry", "mod.Pool._cached" (instance attr)
    module: str
    name: str  # bare variable / attribute name
    scope: str  # "module" | "class" | "instance"
    owner: Optional[str]  # owning class qualname for class/instance scope
    path: Path
    lineno: int
    kinds: frozenset[str] = frozenset()
    #: analyzed class the value instantiates (or the annotation names)
    value_class: Optional[str] = None
    #: lock name from ``# repro: guarded-by(<lock>)`` on the declaration
    guard: Optional[str] = None
    #: does the object leak out of its module via return/yield?
    escapes: bool = False


@dataclass(frozen=True)
class StateAccess:
    """One read or write of a state object inside a function body."""

    state: str  # StateVar qualname
    function: str  # accessing function qualname
    kind: str  # "read" | "write"
    path: Path
    lineno: int
    #: non-atomic read-modify-write (augmented assignment)
    rmw: bool = False
    #: lock names lexically held at the access site
    locks_held: frozenset[str] = frozenset()
    #: how the write happened ("store", "augassign", "mutcall", "subscript")
    via: str = "store"


@dataclass
class DataflowInfo:
    """The def-use tables the concurrency rules query."""

    graph: CallGraph
    states: dict[str, StateVar] = field(default_factory=dict)
    accesses: list[StateAccess] = field(default_factory=list)
    shared_classes: set[str] = field(default_factory=set)
    #: Class() instantiation sites: (caller, class qualname)
    instantiations: list[tuple[str, str]] = field(default_factory=list)

    def accesses_of(self, state: str) -> list[StateAccess]:
        return [a for a in self.accesses if a.state == state]

    def writes_of(self, state: str) -> list[StateAccess]:
        return [a for a in self.accesses if a.state == state and a.kind == "write"]

    def states_of_module(self, module: str) -> list[StateVar]:
        return [s for s in self.states.values() if s.module == module]

    def instance_states_of(self, class_qualname: str) -> list[StateVar]:
        return [
            s
            for s in self.states.values()
            if s.owner == class_qualname and s.scope in ("instance", "class")
        ]

    def escaping_states(self) -> list[StateVar]:
        return [s for s in self.states.values() if s.escapes]


# ---------------------------------------------------------------------------
# value classification
# ---------------------------------------------------------------------------


def _call_tail(func: ast.expr) -> Optional[str]:
    dotted = _dotted_name(func)
    return dotted.rsplit(".", 1)[-1] if dotted else None


class _ClassResolver:
    """Resolve a dotted name to an analyzed class qualname."""

    def __init__(self, graph: CallGraph, module: str, imports: _Imports):
        self.graph = graph
        self.module = module
        self.imports = imports

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        candidates = [dotted, f"{self.module}.{dotted}"]
        imported = self.imports.resolve(head)
        if imported is not None:
            candidates.append(f"{imported}.{rest}" if rest else imported)
        for candidate in candidates:
            if candidate in self.graph.classes:
                return candidate
        return None


def _classify_value(
    expr: Optional[ast.expr], resolver: _ClassResolver
) -> tuple[set[str], Optional[str]]:
    """Kind tags and (optionally) the analyzed class a value instantiates."""
    if expr is None:
        return set(), None
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return {KIND_MUTABLE}, None
    if isinstance(expr, ast.Call):
        tail = _call_tail(expr.func)
        if tail in _MUTABLE_CALLS:
            return {KIND_MUTABLE}, None
        if tail in _LOCK_CALLS:
            return {KIND_MUTABLE, KIND_LOCK}, None
        cls = resolver.resolve(_dotted_name(expr.func))
        if cls is not None:
            return {KIND_MUTABLE}, cls
    return set(), None


def _annotation_class(
    annotation: Optional[ast.expr], resolver: _ClassResolver
) -> Optional[str]:
    """The analyzed class an annotation names (``Optional[FaultPlan]``)."""
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        dotted: Optional[str] = None
        if isinstance(node, ast.Name):
            dotted = node.id
        elif isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
        if dotted is not None:
            cls = resolver.resolve(dotted)
            if cls is not None:
                return cls
    return None


# ---------------------------------------------------------------------------
# per-module walker
# ---------------------------------------------------------------------------


def _lock_name(expr: ast.expr) -> Optional[str]:
    """The bare lock name of a ``with`` context expression.

    ``with self._lock:`` and ``with module._lock:`` both name ``_lock``;
    ``with lock.acquire_timeout(..)``-style calls name the receiver's
    last attribute before the call.
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
        if isinstance(expr, ast.Attribute):
            expr = expr.value
    dotted = _dotted_name(expr)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


class _ModuleWalker:
    """One pass over a module: declarations, accesses."""

    def __init__(
        self,
        source: SourceFile,
        graph: CallGraph,
        imports: _Imports,
        info: DataflowInfo,
    ):
        self.source = source
        self.graph = graph
        self.imports = imports
        self.info = info
        self.resolver = _ClassResolver(graph, source.module, imports)
        self.annotations = parse_annotations(source.lines)
        #: module-state name -> qualname (filled by collect_declarations)
        self.module_states: dict[str, str] = {}

    # -- declarations -----------------------------------------------------

    def collect_declarations(self) -> None:
        module = self.source.module
        for stmt in self.source.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not isinstance(target, ast.Name):
                continue
            kinds, value_class = _classify_value(value, self.resolver)
            if value_class is None:
                value_class = _annotation_class(annotation, self.resolver)
                if value_class is not None:
                    kinds |= {KIND_MUTABLE}
            # lowercase int/float module globals are accumulators; ALL_CAPS
            # names are constants by convention and stay unclassified
            if (
                not kinds
                and isinstance(value, ast.Constant)
                and isinstance(value.value, (int, float))
                and not isinstance(value.value, bool)
                and target.id.upper() != target.id
            ):
                kinds = {KIND_SCALAR}
            guard = self.annotations.get(stmt.lineno, {}).get("guarded-by")
            if not kinds and guard is None:
                continue
            qualname = f"{module}.{target.id}"
            self.module_states[target.id] = qualname
            self.info.states[qualname] = StateVar(
                qualname=qualname,
                module=module,
                name=target.id,
                scope="module",
                owner=None,
                path=self.source.path,
                lineno=stmt.lineno,
                kinds=frozenset(kinds),
                value_class=value_class,
                guard=guard,
            )
        for cls in self.graph.classes.values():
            if cls.module == module:
                self._collect_class_declarations(cls.qualname)

    def _class_node(self, qualname: str) -> Optional[ast.ClassDef]:
        cls = self.graph.classes[qualname]
        for node in ast.walk(self.source.tree):
            if isinstance(node, ast.ClassDef) and node.lineno == cls.lineno:
                return node
        return None

    def _collect_class_declarations(self, class_qualname: str) -> None:
        node = self._class_node(class_qualname)
        if node is None:
            return
        # class-body assignments: state shared by every instance
        for stmt in node.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name):
                kinds, value_class = _classify_value(value, self.resolver)
                guard = self.annotations.get(stmt.lineno, {}).get("guarded-by")
                if kinds or guard is not None:
                    self._add_attr_state(
                        class_qualname, target.id, "class", stmt.lineno, kinds,
                        value_class, guard,
                    )
        # instance attributes: ``self.x = ...`` in any method
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(stmt):
                target = None
                value = None
                annotation = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value, annotation = sub.target, sub.value, sub.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                kinds, value_class = _classify_value(value, self.resolver)
                if value_class is None and annotation is not None:
                    value_class = _annotation_class(annotation, self.resolver)
                    if value_class is not None:
                        kinds |= {KIND_MUTABLE}
                # int/float initializers are accumulators (hits, counts):
                # `self.x += 1` on them is the classic non-atomic RMW
                if not kinds and isinstance(value, ast.Constant) and isinstance(
                    value.value, (int, float)
                ) and not isinstance(value.value, bool):
                    kinds = {KIND_SCALAR}
                guard = self.annotations.get(sub.lineno, {}).get("guarded-by")
                existing = f"{class_qualname}.{target.attr}"
                if existing in self.info.states:
                    # keep the first declaration; later plain reassignments
                    # must not erase a guard or a classification
                    continue
                if kinds or guard is not None:
                    self._add_attr_state(
                        class_qualname, target.attr, "instance", sub.lineno,
                        kinds, value_class, guard,
                    )

    def _add_attr_state(
        self,
        class_qualname: str,
        attr: str,
        scope: str,
        lineno: int,
        kinds: set[str],
        value_class: Optional[str],
        guard: Optional[str],
    ) -> None:
        qualname = f"{class_qualname}.{attr}"
        self.info.states[qualname] = StateVar(
            qualname=qualname,
            module=self.source.module,
            name=attr,
            scope=scope,
            owner=class_qualname,
            path=self.source.path,
            lineno=lineno,
            kinds=frozenset(kinds),
            value_class=value_class,
            guard=guard,
        )

    # -- accesses ---------------------------------------------------------

    def collect_accesses(self) -> None:
        self._walk_scope(self.source.tree, self.source.module, None, None)

    def _holds(self, lineno: int) -> frozenset[str]:
        holds = self.annotations.get(lineno, {}).get("holds")
        return frozenset({holds}) if holds else frozenset()

    def _walk_scope(
        self,
        node: ast.AST,
        scope_qual: str,
        class_qual: Optional[str],
        function: Optional[str],
    ) -> None:
        stack: list[tuple[ast.AST, str, Optional[str]]] = [
            (node, scope_qual, class_qual)
        ]
        while stack:
            current, scope, cls = stack.pop()
            for child in ast.iter_child_nodes(current):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}.{child.name}"
                    if qualname in self.graph.functions:
                        self._scan_function(child, qualname, cls)
                        stack.append((child, qualname, cls))
                elif isinstance(child, ast.ClassDef):
                    qualname = f"{scope}.{child.name}"
                    stack.append((child, qualname, qualname))
                else:
                    stack.append((child, scope, cls))

    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_qual: Optional[str],
    ) -> None:
        # names the body declares `global` — stores to those hit module
        # state; other stored names shadow module state (nested scopes
        # bind their own names, so the scan stops at nested defs)
        globals_decl: set[str] = set()
        locals_assigned: set[str] = set()
        stack: list[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(sub, ast.Global):
                globals_decl.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                locals_assigned.add(sub.id)
            stack.extend(ast.iter_child_nodes(sub))
        #: shadowed module-state names: assigned locally without `global`
        shadowed = (locals_assigned - globals_decl) & set(self.module_states)
        instance_states = (
            {s.name for s in self.info.instance_states_of(class_qual)}
            if class_qual is not None
            else set()
        )
        base_locks = self._holds(node.lineno)
        self._scan_block(
            list(node.body),
            qualname,
            class_qual,
            globals_decl,
            shadowed,
            instance_states,
            base_locks,
        )

    def _scan_block(
        self,
        stmts: list[ast.stmt],
        function: str,
        class_qual: Optional[str],
        globals_decl: set[str],
        shadowed: set[str],
        instance_states: set[str],
        locks: frozenset[str],
    ) -> None:
        # worklist of (block, locks held on entry) — with-blocks push their
        # body back with the widened lock set
        work: list[tuple[list[ast.stmt], frozenset[str]]] = [(list(stmts), locks)]
        while work:
            block, held_locks = work.pop()
            for stmt in block:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue  # nested scopes are scanned on their own
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    held = set(held_locks)
                    for item in stmt.items:
                        name = _lock_name(item.context_expr)
                        if name is not None:
                            held.add(name)
                        self._scan_expr(
                            item.context_expr, function, class_qual, shadowed,
                            instance_states, held_locks, writes=False,
                        )
                    work.append((stmt.body, frozenset(held)))
                    continue
                handled_blocks = False
                for attr in ("body", "orelse", "finalbody", "handlers"):
                    if getattr(stmt, attr, None):
                        handled_blocks = True
                if handled_blocks:
                    for expr in self._stmt_exprs(stmt):
                        self._scan_stmt_expr(
                            expr, stmt, function, class_qual, globals_decl,
                            shadowed, instance_states, held_locks,
                        )
                    for attr in ("body", "orelse", "finalbody"):
                        blocks = getattr(stmt, attr, None)
                        if blocks:
                            work.append((blocks, held_locks))
                    for handler in getattr(stmt, "handlers", ()) or ():
                        work.append((handler.body, held_locks))
                else:
                    self._scan_statement(
                        stmt, function, class_qual, globals_decl, shadowed,
                        instance_states, held_locks,
                    )

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
        """Header expressions of a compound statement (test, iter, ...)."""
        out: list[ast.expr] = []
        for attr in ("test", "iter", "target", "subject"):
            value = getattr(stmt, attr, None)
            if isinstance(value, ast.expr):
                out.append(value)
        return out

    def _scan_stmt_expr(
        self, expr, stmt, function, class_qual, globals_decl, shadowed,
        instance_states, locks,
    ) -> None:
        self._scan_expr(
            expr, function, class_qual, shadowed, instance_states, locks,
            writes=False,
        )

    def _scan_statement(
        self,
        stmt: ast.stmt,
        function: str,
        class_qual: Optional[str],
        globals_decl: set[str],
        shadowed: set[str],
        instance_states: set[str],
        locks: frozenset[str],
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            rmw = isinstance(stmt, ast.AugAssign)
            for target in targets:
                self._record_target_write(
                    target, function, class_qual, globals_decl, shadowed,
                    instance_states, locks, rmw,
                )
            if stmt.value is not None:
                self._scan_expr(
                    stmt.value, function, class_qual, shadowed, instance_states,
                    locks, writes=False,
                )
            return
        if isinstance(stmt, (ast.Return, ast.Expr, ast.Delete, ast.Assert, ast.Raise)):
            escaping = isinstance(stmt, ast.Return)
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    escaping = True
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.expr):
                    self._scan_expr(
                        sub, function, class_qual, shadowed, instance_states,
                        locks, writes=False, escaping=escaping, walk=False,
                    )
            return
        # anything else: scan embedded expressions for reads/mutcalls
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.expr):
                self._scan_expr(
                    sub, function, class_qual, shadowed, instance_states,
                    locks, writes=False, walk=False,
                )

    # -- expression-level helpers ----------------------------------------

    def _state_for_expr(
        self,
        expr: ast.expr,
        class_qual: Optional[str],
        shadowed: set[str],
        instance_states: set[str],
    ) -> Optional[str]:
        """The state qualname an expression designates, if any."""
        if isinstance(expr, ast.Name):
            if expr.id in shadowed:
                return None
            return self.module_states.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_qual is not None
            and expr.attr in instance_states
        ):
            return f"{class_qual}.{expr.attr}"
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            # module.state through an import alias
            imported = self.imports.resolve(expr.value.id)
            if imported is not None:
                qualname = f"{imported}.{expr.attr}"
                if qualname in self.info.states:
                    return qualname
        return None

    def _record(self, state, function, kind, lineno, rmw, locks, via) -> None:
        self.info.accesses.append(
            StateAccess(
                state=state,
                function=function,
                kind=kind,
                path=self.source.path,
                lineno=lineno,
                rmw=rmw,
                locks_held=locks,
                via=via,
            )
        )

    def _record_target_write(
        self, target, function, class_qual, globals_decl, shadowed,
        instance_states, locks, rmw,
    ) -> None:
        pending: list[ast.expr] = [target]
        while pending:
            item = pending.pop()
            if isinstance(item, (ast.Tuple, ast.List)):
                pending.extend(item.elts)
            elif isinstance(item, ast.Starred):
                pending.append(item.value)
            else:
                self._record_single_write(
                    item, function, class_qual, globals_decl, shadowed,
                    instance_states, locks, rmw,
                )

    def _record_single_write(
        self, target, function, class_qual, globals_decl, shadowed,
        instance_states, locks, rmw,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in globals_decl and target.id in self.module_states:
                self._record(
                    self.module_states[target.id], function, "write",
                    target.lineno, rmw, locks, "augassign" if rmw else "store",
                )
            return
        # X.attr = v / X[k] = v  where X designates a state object
        base: Optional[ast.expr] = None
        via = "store"
        if isinstance(target, ast.Attribute):
            base = target.value
            via = "augassign" if rmw else "store"
            state = self._state_for_expr(
                target, class_qual, shadowed, instance_states
            )
            if state is not None:
                # writing the state attribute itself (self.x = ..)
                self._record(state, function, "write", target.lineno, rmw, locks, via)
                return
        elif isinstance(target, ast.Subscript):
            base = target.value
            via = "augassign" if rmw else "subscript"
        if base is not None:
            state = self._state_for_expr(base, class_qual, shadowed, instance_states)
            if state is not None:
                self._record(state, function, "write", target.lineno, rmw, locks, via)

    def _scan_expr(
        self,
        expr: ast.expr,
        function: str,
        class_qual: Optional[str],
        shadowed: set[str],
        instance_states: set[str],
        locks: frozenset[str],
        writes: bool,
        escaping: bool = False,
        walk: bool = True,
    ) -> None:
        nodes = ast.walk(expr) if walk else [expr]
        for sub in nodes:
            # mutating method call on a state object
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATOR_METHODS
            ):
                state = self._state_for_expr(
                    sub.func.value, class_qual, shadowed, instance_states
                )
                if state is not None:
                    self._record(
                        state, function, "write", sub.lineno, False, locks, "mutcall"
                    )
                continue
            # instantiation of an analyzed class
            if isinstance(sub, ast.Call):
                cls = self.resolver.resolve(_dotted_name(sub.func))
                if cls is not None:
                    self.info.instantiations.append((function, cls))
                continue
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(
                getattr(sub, "ctx", ast.Load()), ast.Load
            ):
                state = self._state_for_expr(
                    sub, class_qual, shadowed, instance_states
                )
                if state is not None:
                    self._record(state, function, "read", sub.lineno, False, locks, "load")
                    if escaping:
                        self.info.states[state].escapes = True

# ---------------------------------------------------------------------------
# cross-module passes
# ---------------------------------------------------------------------------


def _compute_shared_classes(info: DataflowInfo) -> None:
    """Classes reachable from module globals, transitively through the
    methods of already-shared classes."""
    shared: set[str] = set()
    for state in info.states.values():
        if state.scope == "module" and state.value_class is not None:
            shared.add(state.value_class)
    # `global x; x = C()` factory assignments surface as module-state
    # writes; re-classify through the instantiations of the writer.
    writers = {
        a.function
        for a in info.accesses
        if a.kind == "write"
        and info.states[a.state].scope == "module"
        and a.via == "store"
    }
    changed = True
    while changed:
        changed = False
        for caller, cls in info.instantiations:
            owner = _owning_class(info.graph, caller)
            if cls not in shared and (owner in shared or caller in writers):
                shared.add(cls)
                changed = True
    info.shared_classes = shared


def _owning_class(graph: CallGraph, function: str) -> Optional[str]:
    fn = graph.functions.get(function)
    return fn.class_qualname if fn is not None else None


def build_dataflow(files: Iterable[SourceFile], graph: CallGraph) -> DataflowInfo:
    """Build the def-use/escape tables for the analyzed source set."""
    files = list(files)
    info = DataflowInfo(graph=graph)
    walkers: list[_ModuleWalker] = []
    for source in files:
        imports = _Imports()
        imports.collect(source.tree, source.module)
        walker = _ModuleWalker(source, graph, imports, info)
        walker.collect_declarations()
        walkers.append(walker)
    # declarations of every module must exist before accesses resolve
    # cross-module `module.state` reads
    for walker in walkers:
        walker.collect_accesses()
    _compute_shared_classes(info)
    return info
