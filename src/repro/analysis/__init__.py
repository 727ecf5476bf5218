"""Static analysis and runtime contract checking (``repro lint``).

This package is the correctness net around the partitioning system:

* :mod:`repro.analysis.callgraph` — AST call-graph construction with
  class-method resolution and stack-safety annotations.
* :mod:`repro.analysis.recursion` — unbounded-recursion (cycle)
  detection over that graph, iterative Tarjan SCCs.
* :mod:`repro.analysis.passes` / :mod:`repro.analysis.rules` — the lint
  pass framework and the repo-specific rules behind ``repro lint``.
* :mod:`repro.analysis.dataflow` — module-level def-use/escape analysis
  (shared state, lock regions) over the call graph.
* :mod:`repro.analysis.concurrency` — the CC rule family (guarded
  writes, atomic updates), the one built on the dataflow tables.
* :mod:`repro.analysis.contracts` — runtime verification that every
  algorithm's output is a feasible sibling partitioning and that the
  input tree survives untouched (``REPRO_CHECK_INVARIANTS=1``).
* :mod:`repro.analysis.cli` — the ``repro lint`` verb (its pragmas keep
  the ``# repro-lint:`` spelling).

Linear time is not a lint rule: ``tests/test_linear_work.py`` measures
every pipeline stage's work at two input sizes. See ``docs/ANALYSIS.md``
for the pass catalogue and extension guide.
"""

from repro.analysis.callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    SourceFile,
    build_callgraph,
    load_source_files,
)
from repro.analysis.contracts import (
    ContractReport,
    ENV_FLAG,
    contracts_enabled,
    tree_fingerprint,
    verify_partition_contract,
)
from repro.analysis.dataflow import (
    DataflowInfo,
    StateAccess,
    StateVar,
    build_dataflow,
)
from repro.analysis.passes import (
    LintContext,
    LintPass,
    LintResult,
    Violation,
    available_passes,
    register_lint_pass,
    run_lint,
)
from repro.analysis.recursion import RecursionCycle, find_recursion_cycles

__all__ = [
    "DataflowInfo",
    "StateAccess",
    "StateVar",
    "build_dataflow",
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "SourceFile",
    "build_callgraph",
    "load_source_files",
    "ContractReport",
    "ENV_FLAG",
    "contracts_enabled",
    "tree_fingerprint",
    "verify_partition_contract",
    "LintContext",
    "LintPass",
    "LintResult",
    "Violation",
    "available_passes",
    "register_lint_pass",
    "run_lint",
    "RecursionCycle",
    "find_recursion_cycles",
]
