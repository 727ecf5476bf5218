"""Reference implementations the storage suite compares production
code against (the ``tests/partition/oracles.py`` pattern).

:func:`scan_rebuild_record` is ``DocumentStore.rebuild_record`` as it
was before the store kept per-record member lists: one pass over the
*whole* tree, filtered by ``record_of``. It trusts nothing but the tree
and the assignment, which is what makes it the oracle for
``store.members`` and for every page slot an update flush writes.
"""

from __future__ import annotations

from repro.storage.record import DOCUMENT_ROOT, NO_PARENT, Record, RecordNode


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
    """Every page slot holds the bytes the whole-document scan encodes."""
    for record_id in range(store.record_count):
        page = store.manager.pages[store.manager.page_of_record[record_id]]
        assert page.get(record_id) == store.codec.encode(
            scan_rebuild_record(store, record_id)
        ), f"record {record_id} on its page differs from the scan oracle"
