"""repro.faults — deterministic fault injection and the fault matrix.

The robustness harness of the repo (see ``docs/ROBUSTNESS.md``):

* :class:`FaultPlan` / :class:`FaultRule` — seeded, reproducible
  failure schedules armed at named fault points across the storage
  engine, the bulkloader and the parser (module :mod:`repro.faults.plan`),
* the ``REPRO_FAULTS`` environment variable — arms a plan for a whole
  process, mirroring ``REPRO_TELEMETRY`` / ``REPRO_CHECK_INVARIANTS``,
* :func:`run_fault_matrix` — the end-to-end kill/resume and bit-flip
  matrix (module :mod:`repro.faults.matrix`), also exposed as the
  ``repro faults`` verb (:mod:`repro.faults.cli`).

With no plan armed every fault hook is one ``is None`` check — the same
no-op fast-path discipline as :mod:`repro.telemetry`.

The matrix names are loaded lazily: the storage and bulkload layers
import :mod:`repro.faults.plan` for their hooks, while the matrix
imports those layers to drive them end to end — eager re-export here
would close that loop into an import cycle.
"""

from repro.faults.plan import (
    FAULT_ACTIONS,
    FAULT_POINTS,
    FaultAction,
    FaultPlan,
    FaultRule,
    active,
    active_plan,
    arm,
    armed,
    check,
    disarm,
    fire,
)

_MATRIX_NAMES = ("FaultScenario", "MatrixReport", "run_fault_matrix", "store_fingerprint")


def __getattr__(name: str):
    if name in _MATRIX_NAMES:
        from repro.faults import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FAULT_ACTIONS",
    "FAULT_POINTS",
    "FaultAction",
    "FaultPlan",
    "FaultRule",
    "FaultScenario",
    "MatrixReport",
    "active",
    "active_plan",
    "arm",
    "armed",
    "check",
    "disarm",
    "fire",
    "run_fault_matrix",
    "store_fingerprint",
]
