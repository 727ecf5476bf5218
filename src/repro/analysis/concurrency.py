"""The CC (concurrency-safety) rule family of ``repro-lint``.

These passes run over the def-use tables of
:mod:`repro.analysis.dataflow` rather than raw ASTs. They are the
machine-checked half of the concurrency discipline documented in
``docs/ANALYSIS.md``:

======  ================================================================
CC001   a state object declared ``# repro: guarded-by(<lock>)`` is
        written without that lock lexically held
CC003   non-atomic read-modify-write (``+=``-style) on shared state —
        module globals or attributes of classes reachable from module
        globals — outside any lock
======  ================================================================

The convention: declare the latch on the state's own line, hold it in a
``with`` block for every write, and mark lock-expecting internal helpers
with ``# repro: holds(<lock>)`` on their ``def`` line::

    class Pool:
        def __init__(self):
            self._latch = threading.Lock()
            self._cached = OrderedDict()  # repro: guarded-by(_latch)

        def fetch(self, k):
            with self._latch:
                self._cached[k] = load(k)      # OK: latch held

        def _evict_one(self):  # repro: holds(_latch)
            self._cached.popitem(last=False)   # OK: caller holds it
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.dataflow import DataflowInfo, StateAccess, StateVar
from repro.analysis.passes import LintContext, LintPass, Violation, register_lint_pass


def _in_owner_init(info: DataflowInfo, state: StateVar, access: StateAccess) -> bool:
    """Is this access inside the owning class's constructor? Writes there
    happen before the object can be shared, so they need no latch."""
    if state.owner is None:
        return False
    fn = info.graph.functions.get(access.function)
    return (
        fn is not None
        and fn.name == "__init__"
        and fn.class_qualname == state.owner
    )


@register_lint_pass
class GuardedWritePass(LintPass):
    """Writes to ``guarded-by``-annotated state must hold the named lock.

    The annotation is a *contract*, not a comment: once a declaration
    names its latch, every mutation site anywhere in the analyzed set is
    checked — assignment, augmented assignment, ``[k] = v`` and mutating
    method calls alike. Constructor writes are exempt (the object cannot
    be shared before ``__init__`` returns)."""

    code = "CC001"
    name = "guarded-write"
    description = (
        "shared state declared `# repro: guarded-by(<lock>)` is written "
        "without the lock lexically held; wrap the write in `with <lock>:` "
        "or mark the enclosing helper `# repro: holds(<lock>)`"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        info = ctx.dataflow
        for state in info.states.values():
            if state.guard is None:
                continue
            for access in info.writes_of(state.qualname):
                if state.guard in access.locks_held:
                    continue
                if _in_owner_init(info, state, access):
                    continue
                yield Violation(
                    path=str(access.path),
                    lineno=access.lineno,
                    code=self.code,
                    message=(
                        f"`{state.name}` is guarded-by(`{state.guard}`) but "
                        f"written here without it; wrap the write in "
                        f"`with {state.guard}:`"
                    ),
                )


@register_lint_pass
class NonAtomicUpdatePass(LintPass):
    """``x += 1`` on shared state is a lost-update bug, not an increment.

    Augmented assignment compiles to separate LOAD/STORE bytecodes, and
    the GIL may hand the CPU to another thread in between. The pass flags
    read-modify-write updates on module globals and on attributes of
    *shared* classes (classes whose instances are reachable from module
    globals — the telemetry registry, its counters, the fastpath cache)
    unless a lock is lexically held or the enclosing helper declares
    ``# repro: holds(<lock>)``."""

    code = "CC003"
    name = "non-atomic-update"
    description = (
        "non-atomic read-modify-write on shared state (module global or "
        "attribute of a module-reachable class) outside any lock; guard "
        "it or route the update through a locked accessor"
    )

    def run(self, ctx: LintContext) -> Iterator[Violation]:
        info = ctx.dataflow
        for access in info.accesses:
            if not access.rmw or access.kind != "write":
                continue
            if access.locks_held:
                continue
            state = info.states[access.state]
            shared = state.scope == "module" or (
                state.owner is not None and state.owner in info.shared_classes
            )
            if not shared:
                continue
            if _in_owner_init(info, state, access):
                continue
            where = (
                "module global"
                if state.scope == "module"
                else f"attribute of shared `{_class_name(info, state.owner)}`"
            )
            yield Violation(
                path=str(access.path),
                lineno=access.lineno,
                code=self.code,
                message=(
                    f"non-atomic read-modify-write on `{state.name}` "
                    f"({where}); two threads interleaving here lose updates "
                    "— hold a lock or use a locked accessor"
                ),
            )


def _class_name(info: DataflowInfo, qualname: Optional[str]) -> str:
    if qualname is None:
        return "?"
    cls = info.graph.classes.get(qualname)
    return cls.name if cls is not None else qualname
