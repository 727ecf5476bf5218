"""Partitioner interface and algorithm registry.

Every algorithm is a :class:`Partitioner` subclass with a unique ``name``.
Modules register a default instance via :func:`register`, which makes the
algorithm available to the benchmark harness, the bulkloader and the CLI
through :func:`get_algorithm` / :func:`partition_tree`.

The public :meth:`Partitioner.partition` wrapper is also the hook for
**runtime contract checking**: with ``check=True`` (or globally via the
``REPRO_CHECK_INVARIANTS`` environment variable) every result is verified
against the full sibling-partitioning contract — structural validity,
node coverage, capacity ``<= K`` and input immutability — through
:mod:`repro.analysis.contracts` before it is returned. Benchmarks and the
test suite run whole sessions in checked mode this way; see
``docs/ANALYSIS.md``.

The wrapper is likewise the **telemetry hook** (``docs/TELEMETRY.md``):
every call runs inside a ``partition.<name>`` trace span, and with
telemetry enabled it emits per-algorithm counters (runs, nodes,
partitions produced) and the root weight of the result. Contract
verification happens *outside* the span so checked-mode sessions do not
pollute the measured algorithm wall time.

Finally the wrapper is the **provenance hook**: under an active
:func:`repro.partition.explain.explain_scope` it joins the decisions the
algorithm recorded (via ``explain.decision(...)`` at its cut sites) with
generic per-partition facts into a ``PartitionExplain``
(:func:`explain_partition` is the one-call form). Both the join and the
in-algorithm hooks are guarded no-ops otherwise.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.errors import InfeasiblePartitioningError, ReproError
from repro.partition import explain
from repro.partition.interval import Partitioning
from repro.tree.node import Tree

# name -> factory producing a fresh partitioner instance
ALGORITHMS: dict[str, Callable[[], "Partitioner"]] = {}


class Partitioner(abc.ABC):
    """Base class for all tree sibling partitioning algorithms.

    Subclasses implement :meth:`_partition`; the public :meth:`partition`
    wraps it with the shared infeasibility check (a node heavier than the
    limit can never be placed).
    """

    #: short identifier used in the registry, tables and CLI
    name: str = "abstract"
    #: does the algorithm produce a provably minimal partitioning?
    optimal: bool = False
    #: can the algorithm emit partitions before seeing the whole document?
    main_memory_friendly: bool = False

    def partition(
        self, tree: Tree, limit: int, *, check: Optional[bool] = None
    ) -> Partitioning:
        """Compute a feasible tree sibling partitioning of ``tree``.

        Parameters
        ----------
        tree:
            The document tree.
        limit:
            The weight limit ``K`` (storage unit capacity in slots).
        check:
            Run the result through the runtime invariant contract
            (:func:`repro.analysis.contracts.verify_partition_contract`).
            ``None`` (the default) defers to the
            ``REPRO_CHECK_INVARIANTS`` environment variable, so whole
            benchmark/test sessions can be switched into checked mode
            without touching call sites.

        Raises
        ------
        InfeasiblePartitioningError
            If some node weighs more than ``limit``.
        ContractViolationError
            In checked mode, if the algorithm's output breaks the
            sibling-partitioning contract or the input tree was mutated.
        """
        if limit < 1:
            raise ReproError(f"weight limit must be positive, got {limit}")
        self._check_feasible(tree, limit)
        if check is None:
            from repro.analysis.contracts import contracts_enabled

            check = contracts_enabled()
        fingerprint = None
        if check:
            from repro.analysis.contracts import tree_fingerprint

            fingerprint = tree_fingerprint(tree)
        explaining = explain.explaining()
        if explaining:
            explain.start_run()
        with telemetry.span(f"partition.{self.name}") as sp:
            result = self._partition(tree, limit)
        if check:
            from repro.analysis.contracts import verify_partition_contract

            verify_partition_contract(
                tree, result, limit, algorithm=self.name, fingerprint_before=fingerprint
            )
        if telemetry.enabled():
            self._emit_telemetry(tree, result, sp)
        if explaining:
            explain.finish_run(self.name, tree, result, limit)
        return result

    def _check_feasible(self, tree: Tree, limit: int) -> None:
        """Raise if some node outweighs ``limit``. The DP partitioners
        flatten the tree anyway and check that weight column instead."""
        reject_overweight(tree, tree.weights(), limit)

    def _emit_telemetry(self, tree: Tree, result: Partitioning, sp: telemetry.Span) -> None:
        """Record the per-algorithm metric set (telemetry is enabled).

        The ``partition.<name>`` wall-time histogram is fed by the span
        itself; this adds the produced-output counters. The root-weight
        pass is O(n) and runs after the span closed, so it never skews
        the timing it documents.
        """
        from repro.partition.evaluate import root_weight

        prefix = f"partition.{self.name}"
        telemetry.count(f"{prefix}.runs")
        telemetry.count(f"{prefix}.nodes", len(tree))
        telemetry.count(f"{prefix}.partitions", result.cardinality)
        telemetry.gauge_set(f"{prefix}.root_weight", root_weight(tree, result))

    @abc.abstractmethod
    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        """Algorithm-specific implementation (input already sanity-checked)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


def reject_overweight(tree: Tree, weights: Sequence[int], limit: int) -> None:
    """Raise :class:`InfeasiblePartitioningError` for the first node whose
    weight (``weights`` is indexed by node id) exceeds ``limit``."""
    if max(weights) > limit:
        node = tree.node(next(i for i, w in enumerate(weights) if w > limit))
        raise InfeasiblePartitioningError(
            f"node {node.node_id} ({node.label!r}) weighs {node.weight} > K={limit}",
            node_id=node.node_id,
        )


def register(cls: type[Partitioner]) -> type[Partitioner]:
    """Class decorator adding a partitioner to :data:`ALGORITHMS`."""
    if not cls.name or cls.name == "abstract":
        raise ReproError(f"partitioner {cls!r} must define a name")
    ALGORITHMS[cls.name] = cls
    return cls


def available_algorithms() -> list[str]:
    """Registered algorithm names, in registration (paper) order."""
    return list(ALGORITHMS)


def get_algorithm(name: str) -> Partitioner:
    """Instantiate the partitioner registered under ``name``."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ReproError(
            f"unknown algorithm {name!r}; available: {', '.join(ALGORITHMS)}"
        ) from None
    return factory()


def partition_tree(
    tree: Tree, limit: int, algorithm: str = "ekm", *, check: Optional[bool] = None
) -> Partitioning:
    """One-call convenience API: partition ``tree`` with a named algorithm.

    The default is EKM, the paper's recommendation (and Natix' default
    since this work): near-optimal quality at heuristic speed. ``check``
    is forwarded to :meth:`Partitioner.partition`.
    """
    return get_algorithm(algorithm).partition(tree, limit, check=check)


def explain_partition(
    tree: Tree, limit: int, algorithm: str = "ekm"
) -> explain.PartitionExplain:
    """Partition ``tree`` with a named algorithm and return the provenance."""
    with explain.explain_scope() as collector:
        get_algorithm(algorithm).partition(tree, limit)
    result = collector.explain_for(algorithm)
    assert result is not None  # partition() always records under a scope
    return result
