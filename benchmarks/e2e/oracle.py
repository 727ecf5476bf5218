"""Correctness checks, run outside every timer.

Each check takes ``fail``, a callable that records one failed op with a
reason; ``run.py`` turns recorded failures into ``failed`` /
``ops_ok_ratio`` and a non-zero exit. The expected values come from
library-side evaluation on *independently built* state, never from the
object the timed op produced.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import InvalidPartitioningError, StorageError
from repro.faults import store_fingerprint
from repro.partition import partition_weights, validate_partitioning
from repro.query import evaluate, run_query
from repro.query.engine import string_value
from repro.storage import DocumentStore
from repro.storage.reconstruct import verify_store_integrity

from inputs import K
from spans import direct
from workload import ingest

Fail = Callable[[str], None]

def partitionings(fail: Fail, what: str, tree, parts: dict) -> None:
    """Every layout is a valid sibling partitioning with all partitions
    <= K, and the optimal DHW never uses more partitions than a heuristic."""
    for algorithm, partitioning in parts.items():
        try:
            validate_partitioning(tree, partitioning)
        except InvalidPartitioningError as exc:
            fail(f"{what}/{algorithm}: invalid partitioning: {exc}")
            continue
        heaviest = max(partition_weights(tree, partitioning).values())
        if heaviest > K:
            fail(f"{what}/{algorithm}: partition of weight {heaviest} > K={K}")
    optimal = parts["dhw"].cardinality if "dhw" in parts else 0
    for algorithm, partitioning in parts.items():
        if partitioning.cardinality < optimal:
            fail(
                f"{what}: {algorithm} used {partitioning.cardinality} partitions, "
                f"fewer than optimal dhw's {optimal}"
            )


def store_integrity(fail: Fail, what: str, store: DocumentStore) -> None:
    """Every record decodes and the pages rebuild the stored document."""
    try:
        verify_store_integrity(store)
    except StorageError as exc:
        fail(f"{what}: store integrity: {exc}")


def index_equals_navigation(fail: Fail, what: str, store: DocumentStore, xpaths) -> None:
    """Indexed evaluation returns the node ids navigation returns."""
    index = store.structural_index
    for xpath in xpaths:
        indexed = [node.node_id for node in evaluate(store, xpath)]
        store.structural_index = None
        try:
            navigated = [node.node_id for node in evaluate(store, xpath)]
        finally:
            store.structural_index = index
        if indexed != navigated:
            fail(f"{what}: index != navigation for {xpath}")


def values_of(store: DocumentStore, xpath: str, show: int) -> list[str]:
    """What ``show=`` adds to a query: a second evaluation + string values."""
    return [string_value(node) for node in evaluate(store, xpath)[:show]]


class LibraryAnswers:
    """What the service must answer for one document: an independent
    library-side ingest of the same bytes (same loader, same defaults)."""

    def __init__(self, xml: bytes, call=direct):
        self._call = call
        self.result, self.store = ingest(call, xml)
        self._answers: dict = {}

    def info(self) -> dict:
        return {
            "nodes": len(self.result.tree.nodes),
            "partitions": self.result.emitted_partitions,
            "total_weight": self.result.total_weight,
            "events": self.result.events,
        }

    def answer(self, xpath: str, show: int) -> dict:
        key = (xpath, show)
        if key not in self._answers:
            run = run_query(self.store, xpath)
            expected = {
                "results": run.result_count,
                "intra_steps": run.intra_steps,
                "cross_steps": run.cross_steps,
                "page_faults": run.page_faults,
                "cost": run.cost,
            }
            if show:
                expected["values"] = self._call("query.values", values_of, self.store, xpath, show)
            self._answers[key] = expected
        return self._answers[key]


def http_ingest(fail: Fail, what: str, status: int, info, answers: LibraryAnswers) -> None:
    if status != 201:
        fail(f"{what}: POST answered {status}: {info}")
        return
    for key, want in answers.info().items():
        if info.get(key) != want:
            fail(f"{what}: ingest {key}={info.get(key)!r}, library {want!r}")


def http_query(
    fail: Fail, what: str, status: int, payload, answers: LibraryAnswers, xpath: str, show: int
) -> None:
    if status != 200:
        fail(f"{what}: GET answered {status}: {payload}")
        return
    expected = answers.answer(xpath, show)
    for key, want in expected.items():
        if payload.get(key) != want:
            fail(f"{what}: {xpath} {key}={payload.get(key)!r}, library {want!r}")
            return


def http_status(fail: Fail, what: str, status: int) -> None:
    if status != 200:
        fail(f"{what}: answered {status}, expected 200")


def recovered_equals_control(
    fail: Fail, what: str, recovered: DocumentStore, control: DocumentStore
) -> Optional[bool]:
    """Durability: a store rebuilt from only the bytes flushed before the
    crash holds every acknowledged batch — byte-identical pages to an
    uninterrupted run of the same script."""
    identical = store_fingerprint(recovered) == store_fingerprint(control)
    if not identical:
        fail(f"{what}: recovered store differs from the uninterrupted control")
    return identical
