"""Shared helpers for the WAL/recovery suite.

Every helper is deterministic on purpose: crash tests compare recovered
page bytes against an uninterrupted control run, which only works if
building the same store twice yields identical bytes (it does — the
bulk loader, the codec and the page allocator are all seed-free).
"""

from __future__ import annotations

from repro.bulkload.importer import BulkLoader
from repro.faults.matrix import store_fingerprint
from repro.recovery import WriteAheadLog
from repro.storage import DocumentStore, StorageConfig, StoreUpdater
from repro.storage.page import Page

LIMIT = 32

XML = (
    "<site>"
    + "".join(
        f"<person><name>user {i}</name><age>{i}</age></person>"
        for i in range(12)
    )
    + "</site>"
)

__all__ = [
    "LIMIT",
    "XML",
    "apply_ops",
    "apply_positional_ops",
    "build_store",
    "control_fingerprints",
    "store_fingerprint",
    "surviving_pages",
]


def build_store(limit: int = LIMIT, xml: str = XML) -> DocumentStore:
    result = BulkLoader("ekm", limit).load(xml)
    return DocumentStore.build(
        result.tree, result.partitioning, StorageConfig(record_limit=limit)
    )


def apply_ops(updater: StoreUpdater, count: int = 3) -> None:
    """The canonical update batch the crash tests kill mid-flush."""
    for i in range(count):
        updater.insert_node(0, f"n{i}")


def apply_positional_ops(updater: StoreUpdater, count: int = 3) -> None:
    """Inserts in front of the root's children: every later sibling is
    renumbered, so records the new nodes never joined must be rewritten."""
    for i in range(count):
        updater.insert_node(0, f"p{i}", position=0)


def surviving_pages(store: DocumentStore) -> dict[int, Page]:
    """What a crash leaves behind: page images only, no memory state."""
    return {
        page_id: Page(
            page.page_id, page.config, dict(page.slots), page.version, page.checksum
        )
        for page_id, page in store.manager.pages.items()
    }


def control_fingerprints(tmp_path) -> tuple[str, str]:
    """(pre-flush, post-flush) fingerprints of the uninterrupted run."""
    store = build_store()
    wal = WriteAheadLog(str(tmp_path / "control.wal")).open()
    store.attach_wal(wal)
    pre = store_fingerprint(store)
    updater = StoreUpdater(store)
    apply_ops(updater)
    updater.flush()
    wal.close()
    return pre, store_fingerprint(store)
