"""ARIES-lite redo recovery: surviving pages + WAL -> consistent store.

What survives a crash in this simulator's failure model is exactly what
survives one on real hardware: the page images (``Page.slots`` is the
"disk") and the write-ahead log file. Everything in memory — the tree,
the node->record assignment, the label dictionary, the buffer pool — is
gone. Recovery rebuilds a byte-identical store in four steps:

1. **Analyze** — :func:`~repro.recovery.wal.read_wal` reads the log,
   discards a torn tail and the (at most one) uncommitted transaction,
   and surfaces every committed transaction's redo after-images.
2. **Repair** — every page is CRC-verified; a corrupt page is
   quarantined and each damaged slot with a logged after-image is
   overwritten from the log, then the page is resealed. Damage to a
   record the log never imaged is unrecoverable by redo and raises
   :class:`~repro.errors.RecoveryError` if the record fails to decode.
3. **Redo** — each record's *newest* committed image is re-applied if
   the pages don't already hold it, in the commit order of the
   transactions those images belong to. The log keeps committed
   transactions until it reaches
   :data:`~repro.recovery.wal.CHECKPOINT_BYTES`, so a record can have
   several images; an older one is superseded history, and installing
   it first could migrate the record to another page (it may not fit
   its page at the newer generation) and break byte identity. Redo is
   idempotent (an image equal to the stored blob is skipped), so
   recovery interrupted by a second crash simply runs again. The
   ``updates.flush`` fault point fires before each re-apply — the chaos
   matrix uses it to kill recovery itself.
4. **Rebuild** — every record is decoded and the document tree is
   reconstructed (:func:`~repro.storage.reconstruct.reconstruct_tree`,
   node ids preserved) with the label dictionary recovered from the
   log's latest BEGIN/CHECKPOINT snapshot; the store adopts the pages
   without re-serializing anything, and a checkpoint truncates the log.

Redo-only recovery is enough because :meth:`StoreUpdater.flush` never
overwrites a page before its transaction is committed — there is nothing
to undo, ever. Per-node weights are re-derived from the slot model
(:class:`~repro.xmlio.weights.SlotWeightModel`), matching how documents
are weighed at parse time; stores updated under custom explicit weights
are outside the WAL's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.errors import CorruptPageError, RecoveryError
from repro.faults import plan as faults
from repro.recovery.wal import WalState, read_wal, write_checkpoint
from repro.storage.constants import DEFAULT_CONFIG, StorageConfig
from repro.storage.manager import RecordManager
from repro.storage.record import Record, RecordCodec
from repro.storage.reconstruct import reconstruct_tree
from repro.storage.store import DocumentStore


@dataclass
class RecoveryReport:
    """What one recovery run found and did."""

    wal_path: str
    committed_transactions: int = 0
    #: transactions that actually needed redo work (ids, commit order)
    replayed_transactions: list[int] = field(default_factory=list)
    records_redone: int = 0
    #: pages that failed CRC verification and were quarantined/repaired
    pages_repaired: list[int] = field(default_factory=list)
    #: records overwritten from logged after-images during page repair
    records_restored: list[int] = field(default_factory=list)
    #: damaged-page records with no after-image (decode-checked only)
    records_unprotected: list[int] = field(default_factory=list)
    torn_bytes_discarded: int = 0
    #: id of the begun-but-uncommitted transaction, if one was dropped
    open_transaction_discarded: Optional[int] = None
    checkpointed: bool = False

    @property
    def clean(self) -> bool:
        """True when the store needed no work (clean shutdown)."""
        return not (
            self.replayed_transactions
            or self.pages_repaired
            or self.torn_bytes_discarded
            or self.open_transaction_discarded is not None
        )

    def summary(self) -> str:
        if self.clean:
            return f"recovery: clean ({self.committed_transactions} committed txns, no work)"
        parts = [
            f"replayed {len(self.replayed_transactions)} txn(s)",
            f"{self.records_redone} record(s) redone",
        ]
        if self.pages_repaired:
            parts.append(
                f"repaired {len(self.pages_repaired)} page(s) "
                f"({len(self.records_restored)} record(s) from images)"
            )
        if self.torn_bytes_discarded:
            parts.append(f"discarded {self.torn_bytes_discarded}B torn tail")
        if self.open_transaction_discarded is not None:
            parts.append(
                f"dropped uncommitted txn {self.open_transaction_discarded}"
            )
        return "recovery: " + ", ".join(parts)


def attach_pages(pages, config: StorageConfig) -> RecordManager:
    """Wrap surviving page images in a fresh :class:`RecordManager`.

    ``page_of_record`` and the byte accounting are rebuilt by scanning
    the slot directories — they are derivable state, not durable state.
    """
    manager = RecordManager(config)
    manager.pages = dict(pages)
    for page_id in sorted(manager.pages):
        for record_id in manager.pages[page_id].slots:
            if record_id in manager.page_of_record:
                raise RecoveryError(
                    f"record {record_id} appears on pages "
                    f"{manager.page_of_record[record_id]} and {page_id}"
                )
            manager.page_of_record[record_id] = page_id
    _refresh_record_bytes(manager)
    return manager


def _refresh_record_bytes(manager: RecordManager) -> None:
    manager._record_bytes = sum(
        len(blob) for page in manager.pages.values() for blob in page.slots.values()
    )


def _repair_pages(
    manager: RecordManager, latest: dict[int, bytes], report: RecoveryReport
) -> None:
    """Quarantine CRC-failing pages; restore imaged slots from the log."""
    for page_id in sorted(manager.pages):
        page = manager.pages[page_id]
        try:
            page.verify()
            continue
        except CorruptPageError:
            pass
        report.pages_repaired.append(page_id)
        for record_id in sorted(page.slots):
            image = latest.get(record_id)
            if image is None:
                report.records_unprotected.append(record_id)
            elif page.slots[record_id] != image:
                page.slots[record_id] = image
                report.records_restored.append(record_id)
        page.seal()
        if page.free_bytes < 0:
            raise RecoveryError(
                f"page {page_id} overflows after repair — the logged "
                "images do not belong to this page generation"
            )
        if telemetry.enabled():
            telemetry.count("recovery.pages.repaired")


def _redo(
    manager: RecordManager, state: WalState, report: RecoveryReport
) -> None:
    """Re-apply each record's newest committed after-image unless the
    pages already hold it."""
    newest = {
        record_id: txn.txn_id for txn in state.committed for record_id, _ in txn.images
    }
    for txn in state.committed:
        replayed = False
        for record_id, blob in txn.images:
            if newest[record_id] != txn.txn_id:
                continue  # a later committed transaction supersedes it
            page_id = manager.page_of_record.get(record_id)
            if (
                page_id is not None
                and manager.pages[page_id].slots.get(record_id) == blob
            ):
                continue  # already applied (before the crash, or by a
                # recovery run a second crash interrupted)
            if faults.armed():
                faults.check("updates.flush", record_id=record_id, redo=True)
            if page_id is not None:
                manager.replace(record_id, blob)
            else:
                manager.store(record_id, blob)
            report.records_redone += 1
            replayed = True
        if replayed:
            report.replayed_transactions.append(txn.txn_id)
    _refresh_record_bytes(manager)
    if telemetry.enabled():
        telemetry.count("recovery.transactions.replayed", len(report.replayed_transactions))
        telemetry.count("recovery.records.redone", report.records_redone)


def _decode_records(manager: RecordManager, codec: RecordCodec) -> list[Record]:
    """Decode every stored record, verifying pages — the zero-corrupt-
    reads guarantee: damage that survived repair must surface here."""
    records: list[Record] = []
    for record_id in sorted(manager.page_of_record):
        page = manager.pages[manager.page_of_record[record_id]]
        page.verify()
        try:
            record = codec.decode(record_id, page.get(record_id))
        except Exception as exc:
            raise RecoveryError(
                f"record {record_id} fails to decode after redo: {exc}"
            ) from exc
        if record.nodes:
            records.append(record)
    return records


def _rebuild(
    manager: RecordManager, codec: RecordCodec, labels: Optional[list], wal_path: str
) -> tuple:
    """Step 4 of both recovery entry points: decode every record and
    reconstruct ``(tree, record_of)`` from the repaired, redone pages."""
    records = _decode_records(manager, codec)
    if labels is None:
        raise RecoveryError(
            f"{wal_path}: no label snapshot in the log — was the "
            "store ever attached to this WAL?"
        )
    tree = reconstruct_tree(records, labels)
    record_of = [-1] * len(tree)
    for record in records:
        for node in record.nodes:
            record_of[node.node_id] = record.record_id
    return tree, record_of


def _count_run(report: RecoveryReport) -> None:
    """The closing counters of both recovery entry points."""
    if telemetry.enabled():
        telemetry.count("recovery.runs")
        if report.torn_bytes_discarded:
            telemetry.count("recovery.torn_bytes", report.torn_bytes_discarded)


def _start_report(state: WalState) -> RecoveryReport:
    return RecoveryReport(
        wal_path=state.path,
        committed_transactions=len(state.committed),
        torn_bytes_discarded=state.torn_bytes,
        open_transaction_discarded=(
            state.open_txn.txn_id if state.open_txn is not None else None
        ),
    )


def recover_store(
    pages,
    wal_path: str,
    config: StorageConfig = DEFAULT_CONFIG,
    *,
    checkpoint: bool = True,
) -> tuple[DocumentStore, RecoveryReport]:
    """Cold-start recovery: surviving pages + log -> a working store.

    Returns the recovered :class:`DocumentStore` (adopting the given
    pages — no re-serialization, so its bytes are exactly the repaired/
    redone page images) and the :class:`RecoveryReport`. With
    ``checkpoint`` (default) the log is truncated once the store is
    consistent, making a follow-up recovery a no-op.
    """
    with telemetry.span("recovery.recover"):
        state = read_wal(wal_path)
        report = _start_report(state)
        manager = attach_pages(pages, config)
        _repair_pages(manager, state.latest_images(), report)
        _redo(manager, state, report)
        tree, record_of = _rebuild(manager, RecordCodec(), state.labels, wal_path)
        store = DocumentStore.adopt(manager, tree, record_of, state.labels, config)
        if checkpoint:
            write_checkpoint(
                wal_path,
                state.labels,
                state.record_limit or config.record_limit,
                state.next_txn,
            )
            report.checkpointed = True
    _count_run(report)
    return store, report


def recover(
    store: DocumentStore, wal_path: Optional[str] = None, *, checkpoint: bool = True
) -> RecoveryReport:
    """Recover a store in place from its (attached or given) log.

    The warm-start twin of :func:`recover_store`: the store's pages are
    repaired and redone, then its in-memory mirrors (tree, assignment,
    labels, weights, buffer) are rebuilt around them via
    :meth:`DocumentStore.rebind`.
    """
    if wal_path is None:
        if store.wal is None:
            raise RecoveryError("store has no WAL attached and no path was given")
        wal_path = store.wal.path
    with telemetry.span("recovery.recover"):
        state = read_wal(wal_path)
        report = _start_report(state)
        _repair_pages(store.manager, state.latest_images(), report)
        _redo(store.manager, state, report)
        labels = state.labels if state.labels is not None else store.labels
        tree, record_of = _rebuild(store.manager, store.codec, labels, wal_path)
        store.rebind(tree, record_of, labels)
        if checkpoint:
            if store.wal is not None and store.wal.is_open:
                store.wal.checkpoint(labels, store.config.record_limit)
            else:
                write_checkpoint(
                    wal_path,
                    labels,
                    state.record_limit or store.config.record_limit,
                    state.next_txn,
                )
            report.checkpointed = True
    _count_run(report)
    return report
