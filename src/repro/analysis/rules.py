"""The repo-specific lint passes shipped with ``repro-lint``.

Codes are stable (used in ``# repro-lint: skip=CODE`` pragmas and
``--select``/``--ignore``):

======  ================================================================
REC001  unbounded recursion cycle reachable on document-driven paths
BAN003  float arithmetic on slot weights/limits in partitioner modules
OBS001  manual wall-clock timing outside ``repro.telemetry``
OBS002  span opened with a computed name or an empty attrs dict literal
OBS003  live telemetry span opened inside an ``async def`` body
RB001   bare ``except:``, or a broad handler that silently swallows
RB002   blocking engine entry point called directly from an async body
RB003   rename/close on a durability-critical path without a prior fsync
PERF002 Python observer callback invoked per element on a hot loop path
======  ================================================================

BAN003 identifies "partitioner modules" syntactically — a module defining
a class whose base list names ``Partitioner`` (resolved to
:class:`repro.partition.base.Partitioner` when the base module is part of
the analyzed set, matched by name otherwise, so fixture snippets lint the
same way the real tree does). What a partitioner may do to its input tree
and which method it overrides are checked at run time instead: the
contract's immutability fingerprint (:mod:`repro.analysis.contracts`) and
a registry test over every ``Partitioner`` subclass.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import ClassInfo, SourceFile, _dotted_name
from repro.analysis.passes import LintContext, LintPass, Violation, register_lint_pass
from repro.analysis.recursion import find_recursion_cycles

#: identifier fragments that mark slot-weight arithmetic
_WEIGHT_NAME_FRAGMENTS = ("weight", "limit", "slot", "capac")
#: ``time``-module clock functions whose use constitutes manual timing
_TIMING_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: catch-all exception names whose silent handlers RB001 flags
_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})

PARTITIONER_BASE = "repro.partition.base.Partitioner"


def _is_partitioner_class(cls: ClassInfo) -> bool:
    if PARTITIONER_BASE in cls.bases:
        return True
    return any(
        base == "Partitioner" or base.endswith(".Partitioner") or base.endswith("Partitioner")
        for base in cls.base_names
    )


def _partitioner_classes(ctx: LintContext, source: SourceFile) -> list[ClassInfo]:
    return [
        cls
        for cls in ctx.callgraph.classes.values()
        if cls.module == source.module and _is_partitioner_class(cls)
    ]


def _mentions_weight(node: ast.AST) -> bool:
    for child in ast.walk(node):
        name: Optional[str] = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name
        if name is not None and any(
            frag in name.lower() for frag in _WEIGHT_NAME_FRAGMENTS
        ):
            return True
    return False


@register_lint_pass
class RecursionCyclePass(LintPass):
    """Report every non-suppressed recursion cycle of the call graph."""

    code = "REC001"
    name = "recursion-cycle"
    description = (
        "self- or mutual-recursion whose depth can track input size; "
        "convert to explicit-stack iteration, a generator trampoline, or "
        "annotate every member with `# repro-lint: allow-recursion` after "
        "bounding the depth by construction"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for cycle in find_recursion_cycles(ctx.callgraph):
            if cycle.suppressed:
                continue
            yield Violation(
                path=cycle.path,
                lineno=cycle.lineno,
                code=self.code,
                message=cycle.describe(),
            )


@register_lint_pass
class FloatWeightPass(LintPass):
    """Slot weights are positive integers (paper Sec. 6.1); float
    arithmetic silently breaks feasibility comparisons at page-capacity
    boundaries."""

    code = "BAN003"
    name = "float-weight"
    description = (
        "true division or float literals applied to weights/limits in a "
        "partitioner module; use integer arithmetic (`//`)"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            if not (
                _partitioner_classes(ctx, source)
                or source.module == "repro.partition.flatdp"
            ):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    if _mentions_weight(node.left) or _mentions_weight(node.right):
                        yield Violation(
                            path=str(source.path),
                            lineno=node.lineno,
                            code=self.code,
                            message=(
                                "true division on slot weights produces floats; "
                                "use `//` (weights are integral slot counts)"
                            ),
                        )
                elif isinstance(node, (ast.BinOp, ast.Compare)):
                    operands = (
                        [node.left, node.right]
                        if isinstance(node, ast.BinOp)
                        else [node.left, *node.comparators]
                    )
                    has_float = any(
                        isinstance(op, ast.Constant) and isinstance(op.value, float)
                        for op in operands
                    )
                    if has_float and any(_mentions_weight(op) for op in operands):
                        yield Violation(
                            path=str(source.path),
                            lineno=node.lineno,
                            code=self.code,
                            message="float literal in slot-weight arithmetic",
                        )


@register_lint_pass
class ManualTimingPass(LintPass):
    """All wall-clock measurement belongs to :mod:`repro.telemetry`:
    spans nest, survive exceptions, name their measurements and land in
    one registry, while scattered ``perf_counter()`` pairs produce
    anonymous numbers no experiment can aggregate. Only the telemetry
    package itself may read the clock."""

    code = "OBS001"
    name = "manual-timing"
    description = (
        "direct `time.time()`/`perf_counter()`-style clock call outside "
        "repro.telemetry; wrap the timed region in `telemetry.span(...)` "
        "and read `.elapsed`"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            if source.module.startswith("repro.telemetry"):
                continue
            module_aliases, func_aliases = self._timing_bindings(source.tree)
            if not module_aliases and not func_aliases:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = self._timing_call(node.func, module_aliases, func_aliases)
                if name is not None:
                    yield Violation(
                        path=str(source.path),
                        lineno=node.lineno,
                        code=self.code,
                        message=(
                            f"manual timing via `{name}()`; use "
                            "`with telemetry.span(...) as sp:` and `sp.elapsed`"
                        ),
                    )

    @staticmethod
    def _timing_bindings(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
        """Names the module binds to the ``time`` module / its clocks."""
        module_aliases: set[str] = set()
        func_aliases: dict[str, str] = {}  # local name -> canonical clock name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        module_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIMING_FUNCS:
                        func_aliases[alias.asname or alias.name] = alias.name
        return module_aliases, func_aliases

    @staticmethod
    def _timing_call(
        func: ast.expr, module_aliases: set[str], func_aliases: dict[str, str]
    ) -> Optional[str]:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in module_aliases
            and func.attr in _TIMING_FUNCS
        ):
            return f"{func.value.id}.{func.attr}"
        if isinstance(func, ast.Name) and func.id in func_aliases:
            return func.id
        return None


@register_lint_pass
class SpanHygienePass(LintPass):
    """Span names are the join keys of the whole observability stack:
    the profiler aggregates by them, the Chrome-trace viewer groups by
    them, and ``span.<name>`` histograms are diffed across baselines. A
    name computed at runtime from arbitrary data fragments those
    aggregations into unbounded cardinality; literal names (plain strings
    or f-strings with a literal skeleton) keep the phase set enumerable.
    An empty ``{}`` attrs argument is dead weight on a hot path — the
    keyword form allocates nothing when there are no attributes."""

    code = "OBS002"
    name = "span-hygiene"
    description = (
        "`telemetry.span(...)`/`Span(...)` opened with a non-literal name "
        "expression, or passed an empty attrs dict literal; use a string "
        "literal (or f-string) name and omit empty attrs"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            if source.module.startswith("repro.telemetry"):
                continue
            module_aliases, span_aliases = self._span_bindings(source.tree)
            if not module_aliases and not span_aliases:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                opener = self._span_call(node.func, module_aliases, span_aliases)
                if opener is None:
                    continue
                yield from self._check_call(source, node, opener)

    def _check_call(
        self, source: SourceFile, node: ast.Call, opener: str
    ) -> Iterator[Violation]:
        path = str(source.path)
        name_expr: Optional[ast.expr] = None
        if node.args and not isinstance(node.args[0], ast.Starred):
            name_expr = node.args[0]
        else:
            for kw in node.keywords:
                if kw.arg == "name":
                    name_expr = kw.value
        if name_expr is not None and not self._is_literal_name(name_expr):
            yield Violation(
                path=path,
                lineno=node.lineno,
                code=self.code,
                message=(
                    f"`{opener}(...)` with a computed name fragments span "
                    "aggregation; use a string literal or f-string"
                ),
            )
        for arg in node.args[1:]:
            if isinstance(arg, ast.Dict) and not arg.keys:
                yield Violation(
                    path=path,
                    lineno=node.lineno,
                    code=self.code,
                    message=f"`{opener}(...)` passed an empty attrs dict literal; omit it",
                )
        for kw in node.keywords:
            if kw.arg is None and isinstance(kw.value, ast.Dict) and not kw.value.keys:
                yield Violation(
                    path=path,
                    lineno=node.lineno,
                    code=self.code,
                    message=f"`{opener}(...)` splats an empty attrs dict literal; omit it",
                )

    @staticmethod
    def _is_literal_name(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return True
        # f-strings keep a literal skeleton, so the phase set stays
        # enumerable (e.g. f"partition.{self.name}").
        return isinstance(expr, ast.JoinedStr)

    @staticmethod
    def _span_bindings(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
        """Names bound to the telemetry module / its span openers."""
        module_aliases: set[str] = set()
        span_aliases: dict[str, str] = {}  # local name -> canonical opener
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("repro.telemetry", "repro.telemetry.core"):
                        module_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "repro":
                    for alias in node.names:
                        if alias.name == "telemetry":
                            module_aliases.add(alias.asname or "telemetry")
                elif node.module in ("repro.telemetry", "repro.telemetry.core"):
                    for alias in node.names:
                        if alias.name in ("span", "Span"):
                            span_aliases[alias.asname or alias.name] = alias.name
        return module_aliases, span_aliases

    @staticmethod
    def _span_call(
        func: ast.expr, module_aliases: set[str], span_aliases: dict[str, str]
    ) -> Optional[str]:
        if isinstance(func, ast.Attribute) and func.attr in ("span", "Span"):
            dotted = _dotted_name(func.value)
            if dotted is not None and dotted in module_aliases:
                return f"{dotted}.{func.attr}"
        if isinstance(func, ast.Name) and func.id in span_aliases:
            return func.id
        return None


@register_lint_pass
class AsyncSpanPass(LintPass):
    """The telemetry span stack is **thread-local**: one asyncio loop
    thread interleaves many requests, so a live ``telemetry.span(...)``
    held across an ``await`` splices unrelated requests' engine spans
    into its subtree — and since PR 9 it would also steal the *request
    trace adoption* that belongs to the executor-side engine spans. The
    sanctioned patterns are the ones the service already uses: measure
    with :func:`repro.telemetry.clock` and record a synthetic
    :class:`~repro.telemetry.SpanRecord` (what the middleware does), or
    put the span inside the blocking callable that rides
    ``run_blocking`` (a nested ``def`` / sync function — exempt here,
    exactly mirroring RB002's frame rule)."""

    code = "OBS003"
    name = "async-span"
    description = (
        "live `telemetry.span(...)`/`Span(...)` opened inside an `async "
        "def` body; the span stack is thread-local and the loop thread "
        "interleaves requests — record a synthetic SpanRecord instead, "
        "or move the span into the offloaded callable"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            filename = source.path.name
            if filename.startswith("test_") or filename == "conftest.py":
                continue
            if source.module.startswith("repro.telemetry"):
                continue
            module_aliases, span_aliases = SpanHygienePass._span_bindings(
                source.tree
            )
            if not module_aliases and not span_aliases:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.AsyncFunctionDef):
                    continue
                for call, opener in self._inline_spans(
                    node, module_aliases, span_aliases
                ):
                    yield Violation(
                        path=str(source.path),
                        lineno=call.lineno,
                        code=self.code,
                        message=(
                            f"async `{node.name}` opens a live "
                            f"`{opener}(...)` on the event loop; the "
                            "thread-local span stack interleaves requests "
                            "— record a synthetic `telemetry.SpanRecord` "
                            "or open the span inside the offloaded "
                            "callable"
                        ),
                    )

    @staticmethod
    def _inline_spans(
        fn: ast.AsyncFunctionDef,
        module_aliases: set[str],
        span_aliases: dict[str, str],
    ) -> Iterator[tuple[ast.Call, str]]:
        """Span-opening call sites executing in ``fn``'s own async frame.

        Explicit-stack walk that does not descend into nested
        function/lambda scopes — their bodies run wherever they get
        scheduled (typically on the executor, where a thread-local span
        stack is exactly right), and the enclosing ``ast.walk`` visits
        nested ``async def``s on its own.
        """
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                opener = SpanHygienePass._span_call(
                    node.func, module_aliases, span_aliases
                )
                if opener is not None:
                    yield node, opener
            stack.extend(ast.iter_child_nodes(node))


@register_lint_pass
class ExceptionSwallowPass(LintPass):
    """Robustness work lives or dies on failures being *visible*: a
    ``except Exception: pass`` turns an injected fault, a corrupt page or
    a truncated journal into silent garbage downstream. Library code must
    handle, narrow, or re-raise; only test code (``test_*.py`` /
    ``conftest.py``, matched by filename so fixture snippets still lint)
    may swallow broadly, e.g. when asserting that cleanup survives. A
    bare ``except:`` is flagged everywhere, whatever its body: it also
    catches ``KeyboardInterrupt`` and ``SystemExit``."""

    code = "RB001"
    name = "exception-swallow"
    description = (
        "bare `except:` anywhere, or `except Exception/BaseException:` "
        "whose body only `pass`es outside test code; name the exception, "
        "handle the failure, or re-raise"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            filename = source.path.name
            test_code = filename.startswith("test_") or filename == "conftest.py"
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    message = (
                        "bare `except:` also catches KeyboardInterrupt and "
                        "SystemExit; name the exception"
                    )
                elif (
                    not test_code
                    and self._is_broad(node.type)
                    and self._swallows(node.body)
                ):
                    message = (
                        f"`except {self._describe(node.type)}` with a pass-only "
                        "body silently swallows failures; handle, narrow, or "
                        "re-raise"
                    )
                else:
                    continue
                yield Violation(
                    path=str(source.path),
                    lineno=node.lineno,
                    code=self.code,
                    message=message,
                )

    @staticmethod
    def _is_broad(handler_type: ast.expr) -> bool:
        candidates: list[ast.expr] = (
            list(handler_type.elts)
            if isinstance(handler_type, ast.Tuple)
            else [handler_type]
        )
        for expr in candidates:
            if isinstance(expr, ast.Name) and expr.id in _BROAD_EXCEPTION_NAMES:
                return True
            if isinstance(expr, ast.Attribute) and expr.attr in _BROAD_EXCEPTION_NAMES:
                return True
        return False

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        """True when the handler does nothing observable: only ``pass``,
        ``continue`` or constant expressions (docstrings, ``...``)."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True

    @staticmethod
    def _describe(handler_type: ast.expr) -> str:
        dotted = _dotted_name(handler_type)
        return dotted if dotted is not None else "Exception"


#: blocking engine entry points (functions and methods) an async body
#: must offload to the executor instead of calling inline — each one
#: parses, partitions, or does page I/O for the whole document
_BLOCKING_ENGINE_CALLS = frozenset(
    {
        # module-level entry points
        "parse_tree",
        "iter_events",
        "push_parse",
        "partition_tree",
        "run_query",
        "evaluate",
        "resume_import",
        "tree_to_xml",
        # method entry points (BulkLoader.load,
        # DocumentStore.build/.warm_up, Partitioner.partition)
        "load",
        "build",
        "warm_up",
        "partition",
    }
)

#: wrapper call names that legitimately *receive* a blocking callable;
#: the callable is passed uncalled, so no flagged Call node appears —
#: this set only documents the sanctioned pattern for the message
_EXECUTOR_OFFLOAD_WRAPPERS = ("run_blocking", "run_in_executor", "to_thread")


@register_lint_pass
class AsyncBlockingCallPass(LintPass):
    """An asyncio event loop serves every connection on one thread: a
    handler that calls ``parse_tree`` / ``run_query`` / ``loader.load``
    inline stalls *all* requests for the duration of the parse or the
    page walk. The service routes such work through its executor-offload
    wrapper (``DocumentService.run_blocking``), which passes the callable
    *uncalled* — so this pass simply flags any blocking engine entry
    point invoked directly inside an ``async def`` body. Nested ``def``s
    are exempt (their bodies run wherever they are scheduled — typically
    on the executor), as are test files."""

    code = "RB002"
    name = "async-blocking-call"
    description = (
        "async function body calls a blocking engine entry point "
        "directly; offload it via the executor wrapper "
        f"({' / '.join(_EXECUTOR_OFFLOAD_WRAPPERS)}) so the event loop "
        "keeps serving"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            filename = source.path.name
            if filename.startswith("test_") or filename == "conftest.py":
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.AsyncFunctionDef):
                    continue
                for call, name in self._inline_calls(node):
                    yield Violation(
                        path=str(source.path),
                        lineno=call.lineno,
                        code=self.code,
                        message=(
                            f"async `{node.name}` calls blocking engine "
                            f"entry point `{name}()` on the event loop; "
                            "pass it uncalled through the executor-offload "
                            "wrapper (e.g. `await run_blocking("
                            f"{name}, ...)`)"
                        ),
                    )

    @staticmethod
    def _inline_calls(
        fn: ast.AsyncFunctionDef,
    ) -> Iterator[tuple[ast.Call, str]]:
        """Blocking-call sites executing in ``fn``'s own async frame.

        Explicit-stack walk (analyzer internals stay REC001-clean) that
        does not descend into nested function/lambda scopes: their
        bodies run wherever they get scheduled, and the enclosing
        ``ast.walk`` visits nested ``async def``s on its own.
        """
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                callee: Optional[str] = None
                if isinstance(node.func, ast.Name):
                    callee = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    callee = node.func.attr
                if callee in _BLOCKING_ENGINE_CALLS:
                    arity = len(node.args) + len(node.keywords)
                    # `partition` collides with str.partition(sep) — the
                    # engine entry point always takes (tree, limit, ...)
                    if callee != "partition" or arity >= 2:
                        yield node, callee
            stack.extend(ast.iter_child_nodes(node))


#: module/file-name fragments that mark durability-critical code — the
#: modules whose whole point is surviving a crash
_DURABILITY_NAME_FRAGMENTS = ("wal", "journal", "recovery", "checkpoint", "durab")

#: atomic-rename entry points whose crash-safety depends on the renamed
#: content being durable *first*
_RENAME_CALLS = frozenset(
    {"os.replace", "os.rename", "os.renames", "shutil.move"}
)

#: the calls that actually reach the platter (``flush()`` does not)
_SYNC_NAMES = frozenset({"fsync", "fdatasync"})


@register_lint_pass
class DurabilityFsyncPass(LintPass):
    """The WAL/journal/checkpoint protocols all hinge on one ordering:
    bytes are *on disk* before anything points at them. ``os.replace``
    publishes a file under its final name — done before an ``fsync`` of
    the content, a crash can leave the name pointing at a hole (the
    classic zero-length-file-after-rename bug). Likewise, closing a
    write handle only hands the bytes to the page cache; durability
    needs ``os.fsync(handle.fileno())`` first. This pass enforces both
    orderings, but only inside durability-critical modules (name
    contains ``wal``/``journal``/``recovery``/``checkpoint``/``durab``)
    — everywhere else, losing buffered bytes on a crash is an accepted
    trade."""

    code = "RB003"
    name = "durability-fsync"
    description = (
        "durability-critical module renames a file (`os.replace`/"
        "`os.rename`/`shutil.move`) or closes a write handle without a "
        "preceding `os.fsync`/`os.fdatasync`; a crash can publish "
        "unsynced (possibly empty) content"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            filename = source.path.name
            if filename.startswith("test_") or filename == "conftest.py":
                continue
            name_pool = f"{source.module} {filename}".lower()
            if not any(f in name_pool for f in _DURABILITY_NAME_FRAGMENTS):
                continue
            bare_renames = self._rename_bindings(source.tree)
            frames: list[list[ast.stmt]] = [list(source.tree.body)]
            for node in ast.walk(source.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    frames.append(list(node.body))
            for frame in frames:
                yield from self._check_frame(source, frame, bare_renames)

    def _check_frame(
        self,
        source: SourceFile,
        body: list[ast.stmt],
        bare_renames: dict[str, str],
    ) -> Iterator[Violation]:
        """One function (or module) frame; nested defs are their own frame."""
        path = str(source.path)
        sync_lines: list[int] = []
        renames: list[tuple[ast.Call, str]] = []
        # write-handle lifecycle: var -> lineno of its write-mode open()
        opened: dict[str, int] = {}
        closes: list[tuple[ast.Call, str, int]] = []  # node, var, open lineno
        withs: list[ast.With] = []
        # pre-order, source-ordered walk (close() sites must see the
        # open() assignments that precede them), nested defs skipped
        stack: list[ast.AST] = list(reversed(body))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.With):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and self._is_open_call(item.context_expr)
                        and self._opens_for_write(item.context_expr)
                    ):
                        withs.append(node)
                        break
            elif isinstance(node, ast.Assign):
                if (
                    isinstance(node.value, ast.Call)
                    and self._is_open_call(node.value)
                    and self._opens_for_write(node.value)
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            opened[target.id] = node.lineno
            elif isinstance(node, ast.Call):
                if self._is_sync_call(node.func):
                    sync_lines.append(node.lineno)
                rename = self._rename_name(node.func, bare_renames)
                if rename is not None:
                    renames.append((node, rename))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in opened
                ):
                    var = node.func.value.id
                    closes.append((node, var, opened[var]))
            stack.extend(reversed(list(ast.iter_child_nodes(node))))
        for call, name in renames:
            if not any(line < call.lineno for line in sync_lines):
                yield Violation(
                    path=path,
                    lineno=call.lineno,
                    code=self.code,
                    message=(
                        f"`{name}()` publishes a file with no preceding "
                        "fsync in this function; sync the content first "
                        "or a crash can leave the name pointing at "
                        "unsynced bytes"
                    ),
                )
        for call, var, open_line in closes:
            if not any(
                open_line < line <= call.lineno for line in sync_lines
            ):
                yield Violation(
                    path=path,
                    lineno=call.lineno,
                    code=self.code,
                    message=(
                        f"write handle `{var}` closed without "
                        "`os.fsync(...fileno())`; close() only reaches "
                        "the page cache, not the platter"
                    ),
                )
        for with_node in withs:
            if not self._with_body_syncs(with_node):
                yield Violation(
                    path=path,
                    lineno=with_node.lineno,
                    code=self.code,
                    message=(
                        "`with open(..., <write mode>)` block never "
                        "fsyncs; the implicit close at block exit leaves "
                        "the bytes in the page cache"
                    ),
                )

    def _with_body_syncs(self, with_node: ast.With) -> bool:
        stack: list[ast.AST] = list(with_node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call) and self._is_sync_call(node.func):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    @staticmethod
    def _is_sync_call(func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id in _SYNC_NAMES
        return isinstance(func, ast.Attribute) and func.attr in _SYNC_NAMES

    @staticmethod
    def _is_open_call(call: ast.Call) -> bool:
        """``open(...)`` / ``io.open(...)`` only — not ``os.open`` (fd
        API, used for directory fsyncs) and not arbitrary ``.open()``
        methods."""
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "open"
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and isinstance(func.value, ast.Name)
            and func.value.id == "io"
        )

    @staticmethod
    def _opens_for_write(call: ast.Call) -> bool:
        mode_expr: Optional[ast.expr] = (
            call.args[1] if len(call.args) > 1 else None
        )
        if mode_expr is None:
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode_expr = kw.value
        if not isinstance(mode_expr, ast.Constant) or not isinstance(
            mode_expr.value, str
        ):
            return False  # default "r", or a computed mode we can't judge
        return any(ch in mode_expr.value for ch in "wax+")

    @staticmethod
    def _rename_name(
        func: ast.expr, bare_renames: dict[str, str]
    ) -> Optional[str]:
        dotted = _dotted_name(func)
        if dotted is not None and dotted in _RENAME_CALLS:
            return dotted
        if isinstance(func, ast.Name) and func.id in bare_renames:
            return bare_renames[func.id]
        return None

    @staticmethod
    def _rename_bindings(tree: ast.AST) -> dict[str, str]:
        """Local names bound to the rename entry points via import-from."""
        bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                canonical = f"{node.module}.{alias.name}"
                if canonical in _RENAME_CALLS:
                    bindings[alias.asname or alias.name] = canonical
        return bindings


@register_lint_pass
class PerHopCallbackPass(LintPass):
    """A Python callback invoked once per navigation hop roughly doubles
    the hot loop's cost: the frame push/pop for the observer outweighs
    the step accounting it observes (~50% on navigation-bound queries,
    see ``docs/TELEMETRY.md``, access heat). The batch pattern the
    engine uses instead — append to a plain list, drain under a lock
    every few thousand entries — keeps the per-hop cost to one
    ``list.append``. The pass flags calls through callback-named
    bindings (``*_sink``, ``*_hook``, ``*_callback``, ``*_recorder``,
    ``*_cb``) inside ``for``/``while`` bodies, and anywhere inside the
    per-step charge helpers themselves (functions named ``_charge*`` /
    ``_hop*``), where every statement is per-hop by construction."""

    code = "PERF002"
    name = "per-hop-callback"
    description = (
        "Python callback invoked on a per-element hot path; buffer into "
        "a plain list and drain at a threshold instead"
    )

    #: binding-name suffixes that mark an observer callback
    _SUFFIXES = ("_sink", "_hook", "_callback", "_recorder", "_cb")
    #: bare names that mark one even without a prefix
    _BARE = frozenset({"sink", "hook", "callback", "recorder"})
    #: function-name prefixes whose whole body is per-hop work
    _HOT_FUNC_PREFIXES = ("_charge", "_hop")

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        for source in ctx.files:
            seen: set[tuple[int, int]] = set()
            for scope, call in self._hot_calls(source.tree):
                name = self._callback_name(call.func)
                if name is None:
                    continue
                key = (call.lineno, call.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield Violation(
                    path=str(source.path),
                    lineno=call.lineno,
                    code=self.code,
                    message=(
                        f"`{name}(...)` runs once per element on this "
                        f"{scope}; append to a plain list buffer and "
                        "drain it at a threshold instead"
                    ),
                )

    def _hot_calls(self, tree: ast.AST) -> Iterator[tuple[str, ast.Call]]:
        """Yield ``(scope, call)`` for every call on a per-element path:
        inside a loop body anywhere, or anywhere inside a charge/hop
        helper (loop or not — its caller is the loop)."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        yield "hot loop", inner
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith(self._HOT_FUNC_PREFIXES):
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        yield f"per-hop path (`{node.name}`)", inner

    def _callback_name(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        if name in self._BARE or name.endswith(self._SUFFIXES):
            return name
        return None
