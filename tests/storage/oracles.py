"""Reference implementations the storage suite compares production
code against (the ``tests/partition/oracles.py`` pattern).

The store serializes a record in one loop,
``DocumentStore.encode_record``: member ids -> packed bytes. Its oracle
is the two-step path production code used to take, kept here:

* :func:`scan_rebuild_record` materializes a :class:`Record` of
  :class:`RecordNode` objects by one pass over the *whole* tree,
  filtered by ``record_of`` — it trusts nothing but the tree and the
  assignment, which makes it the oracle for ``store.members`` too;
* :func:`oracle_encode` packs such a :class:`Record` node by node
  (formerly ``RecordCodec.encode``), with the optional byte capacity.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RecordOverflowError, StorageError
from repro.storage.record import (
    DOCUMENT_ROOT,
    NO_PARENT,
    NODE_FORMAT,
    RECORD_HEADER,
    Record,
    RecordNode,
)


def oracle_encode(record: Record, capacity_bytes: Optional[int] = None) -> bytes:
    """Serialize a materialized record (the layout in
    :mod:`repro.storage.record`), enforcing the format's field limits
    and an optional byte capacity."""
    if len(record.nodes) >= NO_PARENT:
        raise StorageError(f"record {record.record_id} has too many nodes")
    headers = []
    for node in record.nodes:
        if len(node.content) > 0xFFFF:
            raise StorageError(f"node {node.node_id} content exceeds 64 KiB record field")
        if node.position > 0xFFFF:
            raise StorageError(f"node {node.node_id} sibling position exceeds 16 bits")
        headers.append(
            NODE_FORMAT.pack(
                node.node_id,
                node.kind,
                node.label_id,
                node.parent_slot,
                node.parent_node_id,
                node.position,
                len(node.content),
            )
        )
    roots = len(record.fragment_roots())
    blob = b"".join(
        [RECORD_HEADER.pack(len(record.nodes), roots)]
        + headers
        + [node.content for node in record.nodes]
    )
    if capacity_bytes is not None and len(blob) > capacity_bytes:
        raise RecordOverflowError(
            f"record {record.record_id}: {len(blob)} bytes exceed capacity "
            f"{capacity_bytes}"
        )
    return blob


def scan_rebuild_record(store, record_id: int) -> Record:
    """Materialize one record by scanning the whole document.

    Labels are looked up, never interned: a record is only ever compared
    after production code encoded it, so every label already has its id.
    """
    record = Record(record_id)
    record_of = store.record_of
    label_ids = {label: lid for lid, label in enumerate(store.labels)}
    slot_of: dict[int, int] = {}
    for node in store.tree:
        if record_of[node.node_id] != record_id:
            continue
        parent = node.parent
        if parent is not None and record_of[parent.node_id] == record_id:
            parent_slot = slot_of[parent.node_id]
        else:
            parent_slot = NO_PARENT
        slot_of[node.node_id] = len(record.nodes)
        record.nodes.append(
            RecordNode(
                node_id=node.node_id,
                kind=node.kind,
                label_id=label_ids[node.label],
                parent_slot=parent_slot,
                content=(node.content or "").encode("utf-8"),
                parent_node_id=(
                    DOCUMENT_ROOT if parent is None else parent.node_id
                ),
                position=node.index,
            )
        )
    return record


def assert_members_match_scan(store) -> None:
    """``members`` is exactly the assignment, grouped: every node filed
    under one record, ascending, nothing half-assigned."""
    record_of = store.record_of
    assert len(record_of) == len(store.tree)
    assert -1 not in record_of
    assert len(store.members) == store.record_count
    grouped = [[] for _ in range(store.record_count)]
    for node_id, record_id in enumerate(record_of):
        grouped[record_id].append(node_id)
    assert store.members == grouped, "member lists drifted from record_of"


def assert_pages_match_scan(store) -> None:
    """Every page slot holds the bytes the whole-document scan encodes,
    and the store's one encoder produces exactly those bytes."""
    for record_id in range(store.record_count):
        page = store.manager.pages[store.manager.page_of_record[record_id]]
        expected = oracle_encode(scan_rebuild_record(store, record_id))
        assert page.get(record_id) == expected, (
            f"record {record_id} on its page differs from the scan oracle"
        )
        assert store.encode_record(record_id) == expected, (
            f"encode_record({record_id}) differs from the scan oracle"
        )
