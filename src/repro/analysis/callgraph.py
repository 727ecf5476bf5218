"""Static call-graph construction over a set of Python sources.

The graph is the substrate of the recursion detector (and of any future
interprocedural pass): nodes are function/method definitions, edges are
*resolvable* call sites. Resolution is deliberately precise rather than
complete — an edge is only added when the callee can be pinned down
syntactically, so cycle reports stay actionable:

* bare-name calls resolve to nested functions in the enclosing lexical
  scope, then to module-level functions, then through ``import`` /
  ``from .. import`` aliases;
* ``self.m(..)`` / ``cls.m(..)`` resolve through the enclosing class and
  its analyzed bases **and** to every override of ``m`` in analyzed
  subclasses (dynamic dispatch may land there — this is what makes a
  template-method cycle like ``Base.run -> self._step -> Sub._step ->
  Base.run`` visible);
* ``module.f(..)`` and ``Class.m(..)`` resolve through import aliases and
  same-module class names;
* any other attribute call (duck-typed receiver) is *not* linked. This is
  the classic soundness/precision trade: linking every method of the same
  name would flag delegating wrappers such as
  ``store.DocumentStore.warm_up`` calling its buffer pool's ``warm_up``
  as fake recursion.

Two stack-safety facts are recorded per edge so the recursion pass can
exempt them:

* **Trampolined calls** — a call that is the immediate operand of a
  ``yield`` inside a generator function (``result = yield task(..)``)
  only *instantiates* a generator; the frame is driven by an external
  trampoline loop, so the call never grows the Python stack. (Note that
  ``yield from task(..)`` is *not* exempt: delegation keeps every outer
  frame alive.)
* **Pragmas** — a ``# repro-lint: allow-recursion`` comment on the
  ``def`` line marks recursion that is bounded by construction (e.g. a
  parser with an explicit nesting cap). See :mod:`repro.analysis.passes`
  for the general ``skip`` pragma.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*(?P<directive>[A-Za-z-]+)(?:=(?P<args>[^#\s]+))?")

#: directive suppressing violations reported at that line
PRAGMA_SKIP = "skip"
#: directive (on a ``def`` line) marking bounded, intentional recursion
PRAGMA_ALLOW_RECURSION = "allow-recursion"


@dataclass
class Pragma:
    """One ``# repro-lint:`` directive attached to a source line."""

    directive: str
    #: for ``skip``: the lint codes it suppresses (empty = all codes)
    codes: frozenset[str] = frozenset()


def parse_pragmas(lines: list[str]) -> dict[int, list[Pragma]]:
    """Extract ``# repro-lint:`` directives, keyed by 1-based line number."""
    pragmas: dict[int, list[Pragma]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "repro-lint" not in line:
            continue
        for match in PRAGMA_RE.finditer(line):
            args = match.group("args")
            codes = frozenset(a for a in (args or "").split(",") if a)
            pragmas.setdefault(lineno, []).append(
                Pragma(directive=match.group("directive"), codes=codes)
            )
    return pragmas


@dataclass
class SourceFile:
    """A parsed module plus the lookup tables passes need."""

    path: Path
    module: str
    text: str
    lines: list[str]
    tree: ast.Module
    pragmas: dict[int, list[Pragma]]

    def skips(self, lineno: int, code: str) -> bool:
        """Is ``code`` suppressed at ``lineno`` by a ``skip`` pragma?"""
        for pragma in self.pragmas.get(lineno, ()):
            if pragma.directive == PRAGMA_SKIP and (not pragma.codes or code in pragma.codes):
                return True
        return False


def module_name_for(path: Path) -> str:
    """Dotted module name, found by ascending through ``__init__.py`` dirs."""
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def load_source_files(paths: Iterable[Path]) -> list[SourceFile]:
    """Parse every ``.py`` file under the given files/directories."""
    files: list[SourceFile] = []
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            text = resolved.read_text(encoding="utf-8")
            files.append(
                SourceFile(
                    path=path,
                    module=module_name_for(resolved),
                    text=text,
                    lines=text.splitlines(),
                    tree=ast.parse(text, filename=str(path)),
                    pragmas=parse_pragmas(text.splitlines()),
                )
            )
    return files


@dataclass
class FunctionInfo:
    """One analyzed function or method definition."""

    qualname: str
    module: str
    name: str
    path: Path
    lineno: int
    class_qualname: Optional[str] = None
    is_generator: bool = False
    allow_recursion: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.lineno}"


@dataclass
class ClassInfo:
    """One analyzed class: methods by name plus raw base expressions."""

    qualname: str
    module: str
    name: str
    path: Path
    lineno: int
    methods: dict[str, str] = field(default_factory=dict)
    #: base expressions as dotted strings ("Partitioner", "abc.ABC")
    base_names: list[str] = field(default_factory=list)
    #: resolved qualnames of analyzed bases (phase 2)
    bases: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CallEdge:
    """A resolved call site ``caller -> callee``."""

    caller: str
    callee: str
    path: Path
    lineno: int
    #: trampolined generator instantiation — does not grow the stack
    stack_safe: bool = False


@dataclass
class CallGraph:
    """Functions, classes and resolved call edges of an analyzed code set."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    edges: list[CallEdge] = field(default_factory=list)

    def successors(self, qualname: str, include_stack_safe: bool = False) -> set[str]:
        return {
            e.callee
            for e in self.edges
            if e.caller == qualname and (include_stack_safe or not e.stack_safe)
        }

    def subclasses_of(self, class_qualname: str) -> set[str]:
        """Transitive analyzed subclasses (excluding the class itself)."""
        children: dict[str, set[str]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                children.setdefault(base, set()).add(cls.qualname)
        out: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop()
            for sub in children.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def mro_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` through the class and its analyzed bases."""
        frontier = [class_qualname]
        visited: set[str] = set()
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            frontier.extend(cls.bases)
        return None


def _dotted_name(node: ast.expr) -> Optional[str]:
    """Render ``a.b.c`` expressions as dotted strings (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


class _Imports:
    """Alias table of one module: name -> dotted target."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def collect(self, tree: ast.Module, module: str) -> None:
        package = module.rsplit(".", 1)[0] if "." in module else module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # relative import: resolve against the current package
                    prefix_parts = module.split(".")[: -node.level] or [package]
                    base = ".".join(prefix_parts + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    def resolve(self, name: str) -> Optional[str]:
        return self.aliases.get(name)


@dataclass
class _Scope:
    """Lexical scope frame used while walking one module."""

    kind: str  # "module" | "class" | "function"
    qualname: str
    # nested function name -> qualname (function scopes only)
    locals: dict[str, str] = field(default_factory=dict)


def _is_generator(node: ast.AST) -> bool:
    """Does this function body contain a yield (excluding nested defs)?"""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(child))
    return False


def _has_allow_recursion(source: SourceFile, lineno: int) -> bool:
    return any(
        p.directive == PRAGMA_ALLOW_RECURSION for p in source.pragmas.get(lineno, ())
    )


class _DefinitionCollector(ast.NodeVisitor):
    """Phase 1: functions, classes, per-module imports."""

    def __init__(self, graph: CallGraph, source: SourceFile, imports: _Imports):
        self.graph = graph
        self.source = source
        self.imports = imports
        self.scopes: list[_Scope] = [_Scope("module", source.module)]

    # -- helpers ----------------------------------------------------------

    def _qualname(self, name: str) -> str:
        return f"{self.scopes[-1].qualname}.{name}"

    def _enclosing_class(self) -> Optional[str]:
        for scope in reversed(self.scopes):
            if scope.kind == "class":
                return scope.qualname
        return None

    # -- visitors ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.source.module,
            name=node.name,
            path=self.source.path,
            lineno=node.lineno,
            base_names=[b for b in map(_dotted_name, node.bases) if b is not None],
        )
        self.graph.classes[qualname] = info
        self.scopes.append(_Scope("class", qualname))
        self.generic_visit(node)
        self.scopes.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = self._qualname(node.name)
        enclosing_class = self._enclosing_class()
        info = FunctionInfo(
            qualname=qualname,
            module=self.source.module,
            name=node.name,
            path=self.source.path,
            lineno=node.lineno,
            class_qualname=(
                enclosing_class if self.scopes[-1].kind == "class" else None
            ),
            is_generator=_is_generator(node),
            allow_recursion=_has_allow_recursion(self.source, node.lineno),
        )
        self.graph.functions[qualname] = info
        parent = self.scopes[-1]
        if parent.kind == "function":
            parent.locals[node.name] = qualname
        elif parent.kind == "class":
            self.graph.classes[parent.qualname].methods[node.name] = qualname
        self.scopes.append(_Scope("function", qualname))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


class _CallCollector:
    """Phase 2: resolve call sites of one function body to edges."""

    def __init__(self, graph: CallGraph, source: SourceFile, imports: _Imports):
        self.graph = graph
        self.source = source
        self.imports = imports
        # (module, name) -> qualname for module-level functions and classes
        self.module_functions: dict[tuple[str, str], str] = {}
        self.module_classes: dict[tuple[str, str], str] = {}
        for fn in graph.functions.values():
            if fn.class_qualname is None and fn.qualname == f"{fn.module}.{fn.name}":
                self.module_functions[(fn.module, fn.name)] = fn.qualname
        for cls in graph.classes.values():
            if cls.qualname == f"{cls.module}.{cls.name}":
                self.module_classes[(cls.module, cls.name)] = cls.qualname

    def collect(
        self,
        caller: FunctionInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope_locals: dict[str, str],
    ) -> None:
        trampolined = self._trampolined_calls(node) if caller.is_generator else set()
        for call in self._own_calls(node):
            for callee in self._resolve(call, caller, scope_locals):
                self.graph.edges.append(
                    CallEdge(
                        caller=caller.qualname,
                        callee=callee,
                        path=self.source.path,
                        lineno=call.lineno,
                        stack_safe=id(call) in trampolined,
                    )
                )
        # Decorating a nested def/class implicitly *calls* the decorator
        # in this frame; bare-name decorators have no ast.Call node, so
        # resolve them here (factory decorators like `@retry(3)` already
        # surface their factory call through _own_calls).
        for expr in self._nested_decorators(node):
            callees: list[str] = []
            if isinstance(expr, ast.Name):
                callees = self._resolve_name(expr.id, caller, scope_locals)
            elif isinstance(expr, ast.Attribute):
                callees = self._resolve_attribute(expr, caller)
            for callee in callees:
                self.graph.edges.append(
                    CallEdge(
                        caller=caller.qualname,
                        callee=callee,
                        path=self.source.path,
                        lineno=expr.lineno,
                    )
                )

    @staticmethod
    def _own_calls(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
        """Call nodes evaluated in *this* function's frame.

        Starts from the body (the function's own decorators and argument
        defaults run in the enclosing scope, not here) and stops at
        nested def/class bodies — but keeps a nested definition's
        decorators, default values and base-class expressions, because
        those evaluate eagerly in this frame when the ``def``/``class``
        statement executes.
        """
        calls: list[ast.Call] = []
        stack: list[ast.AST] = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(child.decorator_list)
                stack.extend(child.args.defaults)
                stack.extend(d for d in child.args.kw_defaults if d is not None)
                continue
            if isinstance(child, ast.ClassDef):
                stack.extend(child.decorator_list)
                stack.extend(child.bases)
                stack.extend(kw.value for kw in child.keywords)
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            stack.extend(ast.iter_child_nodes(child))
        return calls

    @staticmethod
    def _nested_decorators(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.expr]:
        """Bare decorator expressions of defs/classes nested in this body."""
        out: list[ast.expr] = []
        stack: list[ast.AST] = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.extend(
                    d for d in child.decorator_list if not isinstance(d, ast.Call)
                )
                continue
            stack.extend(ast.iter_child_nodes(child))
        return out

    @staticmethod
    def _trampolined_calls(node: ast.AST) -> set[int]:
        """ids of Call nodes that are the immediate operand of a ``yield``."""
        out: set[int] = set()
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Yield) and isinstance(child.value, ast.Call):
                out.add(id(child.value))
            stack.extend(ast.iter_child_nodes(child))
        return out

    def _resolve(
        self, call: ast.Call, caller: FunctionInfo, scope_locals: dict[str, str]
    ) -> list[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, caller, scope_locals)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, caller)
        return []

    def _resolve_name(
        self, name: str, caller: FunctionInfo, scope_locals: dict[str, str]
    ) -> list[str]:
        # nested function in the enclosing lexical scope
        if name in scope_locals:
            return [scope_locals[name]]
        # module-level function in the same module
        local = self.module_functions.get((caller.module, name))
        if local is not None:
            return [local]
        # imported function
        target = self.imports.resolve(name)
        if target is not None and target in self.graph.functions:
            return [target]
        return []

    def _resolve_attribute(self, func: ast.Attribute, caller: FunctionInfo) -> list[str]:
        receiver = func.value
        method = func.attr
        if isinstance(receiver, ast.Name):
            # self.m() / cls.m(): the enclosing class, its bases, and --
            # because dispatch is dynamic -- every analyzed override.
            if receiver.id in ("self", "cls") and caller.class_qualname is not None:
                targets: list[str] = []
                resolved = self.graph.mro_method(caller.class_qualname, method)
                if resolved is not None:
                    targets.append(resolved)
                for sub in self.graph.subclasses_of(caller.class_qualname):
                    override = self.graph.classes[sub].methods.get(method)
                    if override is not None:
                        targets.append(override)
                return sorted(set(targets))
            # Class.m() on a same-module or imported class
            class_qual = self.module_classes.get((caller.module, receiver.id))
            if class_qual is None:
                imported = self.imports.resolve(receiver.id)
                if imported is not None and imported in self.graph.classes:
                    class_qual = imported
            if class_qual is not None:
                resolved = self.graph.mro_method(class_qual, method)
                return [resolved] if resolved is not None else []
            # module.f() through an import alias
            imported = self.imports.resolve(receiver.id)
            if imported is not None:
                target = f"{imported}.{method}"
                if target in self.graph.functions:
                    return [target]
        dotted = _dotted_name(func)
        if dotted is not None and dotted in self.graph.functions:
            return [dotted]
        # duck-typed receiver: unresolved by design (see module docstring)
        return []


def build_callgraph(files: Iterable[SourceFile]) -> CallGraph:
    """Build the resolved call graph of the given source files."""
    files = list(files)
    graph = CallGraph()
    imports_by_module: dict[str, _Imports] = {}

    # phase 1: definitions + imports
    for source in files:
        imports = _Imports()
        imports.collect(source.tree, source.module)
        imports_by_module[source.module] = imports
        _DefinitionCollector(graph, source, imports).visit(source.tree)

    # phase 1.5: resolve class bases to analyzed classes
    for cls in graph.classes.values():
        imports = imports_by_module[cls.module]
        for base in cls.base_names:
            head = base.split(".")[0]
            candidates = [base, f"{cls.module}.{base}"]
            imported = imports.resolve(head)
            if imported is not None:
                rest = base.split(".")[1:]
                candidates.append(".".join([imported] + rest))
            for candidate in candidates:
                if candidate in graph.classes:
                    cls.bases.append(candidate)
                    break

    # phase 2: call sites (needs the full definition + hierarchy tables)
    for source in files:
        collector = _CallCollector(graph, source, imports_by_module[source.module])
        _collect_calls_in_module(collector, graph, source)
    return graph


def _own_nested_defs(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function definitions bound directly in this function's scope.

    Walks through compound statements (``if``/``for``/``try``/``with``
    blocks bind their defs in the same frame) but not into nested
    def/class bodies, whose definitions live in a different scope.
    """
    out: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    stack: list[ast.AST] = list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(child)
            continue
        if isinstance(child, (ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return out


def _collect_calls_in_module(
    collector: _CallCollector, graph: CallGraph, source: SourceFile
) -> None:
    """Walk every function of one module, tracking lexical nesting."""
    # (ast node, scope_locals of the *enclosing* function chain)
    stack: list[tuple[ast.AST, dict[str, str], str]] = [
        (source.tree, {}, source.module)
    ]
    while stack:
        node, enclosing_locals, scope_qual = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope_qual}.{child.name}"
                info = graph.functions.get(qualname)
                if info is not None:
                    # visible nested defs: every def bound in this
                    # function's own scope, however deeply it sits inside
                    # if/for/try blocks
                    nested = {
                        g.name: f"{qualname}.{g.name}"
                        for g in _own_nested_defs(child)
                        if f"{qualname}.{g.name}" in graph.functions
                    }
                    visible = {**enclosing_locals, qualname.rsplit(".", 1)[-1]: qualname, **nested}
                    collector.collect(info, child, visible)
                    stack.append((child, visible, qualname))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, {}, f"{scope_qual}.{child.name}"))
            else:
                stack.append((child, enclosing_locals, scope_qual))
