"""The lint pass framework behind ``repro-lint``.

A *pass* inspects the analyzed sources (and, if it asks for one, the
shared call graph) and yields :class:`Violation` records. Passes are
small classes registered with :func:`register_lint_pass`; the runner
handles file loading, call-graph memoization, ``skip`` pragma
suppression, code selection and deterministic ordering, so a new pass is
~20 lines (see ``docs/ANALYSIS.md`` for a walk-through).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.analysis.callgraph import CallGraph, SourceFile, build_callgraph, load_source_files
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dataflow import DataflowInfo


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, printable as ``path:line: CODE message``."""

    path: str
    lineno: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.lineno}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Everything a pass may look at. The call graph is built lazily so
    purely syntactic runs (e.g. ``--select RB001``) stay fast."""

    files: list[SourceFile] = field(default_factory=list)

    @cached_property
    def callgraph(self) -> CallGraph:
        return build_callgraph(self.files)

    @cached_property
    def dataflow(self) -> "DataflowInfo":
        from repro.analysis.dataflow import build_dataflow

        return build_dataflow(self.files, self.callgraph)

    def file_for(self, path: str) -> Optional[SourceFile]:
        for source in self.files:
            if str(source.path) == path:
                return source
        return None


class LintPass(abc.ABC):
    """Base class for lint passes.

    Subclasses set ``code`` (stable identifier used in output and in
    ``skip=`` pragmas), ``name`` and ``description``, and implement
    :meth:`run`.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    @abc.abstractmethod
    def run(self, ctx: LintContext) -> Iterator[Violation]:
        """Yield every violation this pass finds."""


#: registered pass classes, in registration order
LINT_PASSES: list[type[LintPass]] = []


def register_lint_pass(cls: type[LintPass]) -> type[LintPass]:
    """Class decorator adding a pass to the ``repro-lint`` pipeline."""
    if not cls.code or not cls.name:
        raise ReproError(f"lint pass {cls!r} must define code and name")
    if any(existing.code == cls.code for existing in LINT_PASSES):
        raise ReproError(f"duplicate lint pass code {cls.code!r}")
    LINT_PASSES.append(cls)
    return cls


def available_passes() -> list[type[LintPass]]:
    """All registered passes (rule modules are imported on first use)."""
    import repro.analysis.concurrency  # noqa: F401  - registration side effect
    import repro.analysis.rules  # noqa: F401  - registration side effect

    return list(LINT_PASSES)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: list[Violation]
    files_checked: int
    passes_run: int

    @property
    def clean(self) -> bool:
        return not self.violations


def code_matches(code: str, patterns: Iterable[str]) -> bool:
    """Does a pass code match any selector?

    A selector is either a full code (``CC003``) or a rule *family*
    prefix (``CC``, ``OBS``) — an all-letter selector matches every code
    it prefixes.
    """
    return any(
        code == pattern or (pattern.isalpha() and code.startswith(pattern))
        for pattern in patterns
    )


def select_passes(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[type[LintPass]]:
    """The registered passes surviving ``select``/``ignore`` filtering."""
    selected = list(select) if select else None
    ignored = list(ignore) if ignore else []
    return [
        cls
        for cls in available_passes()
        if (selected is None or code_matches(cls.code, selected))
        and not code_matches(cls.code, ignored)
    ]


def run_lint(
    paths: Sequence[str | Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run the registered passes over files/directories.

    ``select``/``ignore`` filter by pass code or family prefix (``CC``
    selects CC001–CC003). Violations on lines with a matching
    ``# repro-lint: skip`` pragma are dropped.
    """
    passes = [cls() for cls in select_passes(select, ignore)]
    ctx = LintContext(files=load_source_files([Path(p) for p in paths]))
    violations: list[Violation] = []
    for lint_pass in passes:
        for violation in lint_pass.run(ctx):
            source = ctx.file_for(violation.path)
            if source is not None and source.skips(violation.lineno, violation.code):
                continue
            violations.append(violation)
    violations.sort()
    return LintResult(
        violations=violations, files_checked=len(ctx.files), passes_run=len(passes)
    )
