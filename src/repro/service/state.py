"""Store registry: the service's documents and their locking discipline.

Everything in this module **blocks** — parsing, partitioning, page I/O
through the latched :class:`~repro.storage.buffer.BufferPool` — so the
async front end only reaches it through ``DocumentService.run_blocking``
(executor offload; enforced by repro-lint rule RB002).

Locking discipline (see ``docs/SERVICE.md``):

* the registry's entry map is guarded by a plain mutex (``_lock``),
  held only for dict operations — never across engine work;
* each document carries a writer-preferring :class:`ReadWriteLock`:
  ingest, resume and delete take the write side; queries take the read
  side, so *distinct* documents ingest and query fully concurrently;
* the engine's navigation counters (``DocumentStore.stats``, reset and
  bumped unguarded by ``run_query``) are one shared block per store, so
  *same-document* queries additionally serialize on the entry's
  ``_stats_latch``. Cross-document parallelism is what the service
  scales on; a same-document query holds the latch only for the
  evaluation itself.

Crash-safe ingest: ``?journal=1`` routes the load through the fsync'd
import journal. A load that dies mid-way (injected fault, I/O error)
leaves the journal on disk and the entry ``failed``; re-POSTing the same
bytes with ``?resume=1`` replays the journal through
:func:`repro.bulkload.journal.resume_import`, which verifies the source
fingerprint before trusting it. A load that completes deletes its
journal — nothing to resume.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro import telemetry
from repro.bulkload.importer import BulkLoader, ImportResult
from repro.bulkload.journal import resume_import
from repro.errors import WalError
from repro.query.engine import run_query_nodes, string_value
from repro.recovery import read_wal, trim_torn_tail
from repro.service.middleware import (
    DocumentConflictError,
    DocumentNotFoundError,
    ValidationError,
)
from repro.storage.store import DocumentStore

#: caller-chosen document ids: one URL path segment, one file name
_DOC_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


class ReadWriteLock:
    """A writer-preferring reader/writer lock over one condition variable.

    Readers share; a writer excludes everyone. Arriving writers block
    *new* readers (``_writers_waiting``), so a steady query stream can
    never starve an ingest or delete.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # repro: guarded-by(_cond)
        self._writer = False  # repro: guarded-by(_cond)
        self._writers_waiting = 0  # repro: guarded-by(_cond)

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class QueryCache:
    """LRU cache of finished query payloads, keyed ``(doc_id, xpath,
    show)``.

    Staleness discipline rides the per-document ``ReadWriteLock``:
    lookups and inserts happen while the caller holds the document's
    *read* lock, and every writer (ingest, re-ingest, delete)
    invalidates the document's keys while still holding the *write*
    lock — before any blocked reader can resume. A payload therefore
    never outlives the store state it was computed from.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, dict[str, Any]] = (
            OrderedDict()
        )  # repro: guarded-by(_lock)

    def get(self, key: tuple) -> Optional[dict[str, Any]]:
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                telemetry.count("service.cache.misses")
                return None
            self._entries.move_to_end(key)
        telemetry.count("service.cache.hits")
        return dict(payload)

    def put(self, key: tuple, payload: dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = dict(payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_document(self, doc_id: str) -> int:
        """Drop every cached payload for ``doc_id`` (writer holds the
        document's write lock)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == doc_id]
            for key in stale:
                del self._entries[key]
        if stale:
            telemetry.count("service.cache.invalidations", len(stale))
        return len(stale)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "capacity": self.capacity}


class DocumentEntry:
    """One stored document plus its concurrency state.

    Field writes happen under the entry's write lock (ingest/delete) or
    the stats latch (query accounting); readers snapshot via
    :meth:`info` which copies scalars only.
    """

    def __init__(self, doc_id: str, algorithm: str, limit: int):
        self.doc_id = doc_id
        self.algorithm = algorithm
        self.limit = limit
        self.lock = ReadWriteLock()
        #: serializes same-document query execution — ``run_query``
        #: resets and mutates the store's shared stats block unguarded
        self._stats_latch = threading.Lock()
        self.status = "loading"  # loading | ready | failed
        self.store: Optional[DocumentStore] = None
        self.error: Optional[str] = None
        self.journal_path: Optional[str] = None
        self.nodes = 0
        self.partitions = 0
        self.total_weight = 0
        self.spills = 0
        self.events = 0
        self.resumed = False
        self.queries = 0

    def apply_result(self, result: ImportResult, store: DocumentStore) -> None:
        """Publish a finished import (caller holds the write lock)."""
        self.store = store
        self.status = "ready"
        self.error = None
        self.nodes = len(result.tree.nodes)
        self.partitions = result.emitted_partitions
        self.total_weight = result.total_weight
        self.spills = result.spills
        self.events = result.events
        self.resumed = result.resumed

    def info(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.doc_id,
            "status": self.status,
            "algorithm": self.algorithm,
            "limit": self.limit,
            "nodes": self.nodes,
            "partitions": self.partitions,
            "total_weight": self.total_weight,
            "spills": self.spills,
            "events": self.events,
            "resumed": self.resumed,
            "queries": self.queries,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.journal_path is not None:
            out["resumable"] = True
        return out


class StoreRegistry:
    """All documents the service holds, plus the blocking entry points."""

    def __init__(
        self,
        journal_dir: str,
        default_algorithm: str = "ekm",
        default_limit: int = 256,
        heat: Optional[telemetry.HeatAccumulator] = None,
        index: bool = True,
        query_cache: int = 0,
    ):
        self.journal_dir = journal_dir
        self.default_algorithm = default_algorithm
        self.default_limit = default_limit
        #: optional live access-heat accounting; ready stores get a
        #: hop buffer attached under their doc id
        self.heat = heat
        #: build a structural index for each ingested document
        self.index = index
        #: optional (doc, xpath) response cache (see :class:`QueryCache`)
        self.cache: Optional[QueryCache] = (
            QueryCache(query_cache) if query_cache > 0 else None
        )
        self._lock = threading.Lock()
        self._entries: dict[str, DocumentEntry] = {}  # repro: guarded-by(_lock)
        self._seq = 0  # repro: guarded-by(_lock)
        #: last :meth:`boot_recovery` summary, surfaced by ``/healthz``
        self.recovery: dict[str, Any] = {}

    # -- boot-time recovery ------------------------------------------------

    def boot_recovery(self) -> dict[str, Any]:
        """Sweep the journal directory for crash leftovers at startup.

        A previous process that died mid-flush leaves ``*.wal`` files;
        one that died mid-ingest leaves ``*.journal`` files. The sweep
        trims torn WAL tails (so the next attach starts from a clean
        prefix), tallies what survived, and quarantines unreadable logs
        by renaming them to ``*.wal.corrupt`` — boot must come up even
        when a log is lying. Orphan ingest journals are only counted:
        replaying one needs the original document bytes, which arrive
        with the client's ``?resume=1`` re-POST.
        """
        summary = {
            "wal_logs": 0,
            "wal_committed_transactions": 0,
            "wal_torn_bytes_trimmed": 0,
            "wal_quarantined": 0,
            "orphan_journals": 0,
        }
        try:
            names = sorted(os.listdir(self.journal_dir))
        except OSError:
            names = []
        for name in names:
            path = os.path.join(self.journal_dir, name)
            if name.endswith(".wal"):
                summary["wal_logs"] += 1
                try:
                    summary["wal_torn_bytes_trimmed"] += trim_torn_tail(path)
                    summary["wal_committed_transactions"] += len(
                        read_wal(path).committed
                    )
                except (WalError, OSError):
                    os.replace(path, path + ".corrupt")
                    summary["wal_quarantined"] += 1
                    telemetry.count("service.recovery.wal_quarantined")
            elif name.endswith(".journal"):
                summary["orphan_journals"] += 1
        telemetry.count("service.recovery.boots")
        if summary["orphan_journals"]:
            telemetry.count(
                "service.recovery.orphan_journals", summary["orphan_journals"]
            )
        self.recovery = summary
        return summary

    # -- registry map (lock held for dict ops only) ----------------------

    def _reserve(
        self,
        doc_id: Optional[str],
        algorithm: str,
        limit: int,
        resume: bool,
    ) -> DocumentEntry:
        """Claim a document id; on ``resume`` re-arm an existing failure."""
        with self._lock:
            self._seq += 1
            if doc_id is None:
                doc_id = f"doc-{self._seq}"
            existing = self._entries.get(doc_id)
            if existing is not None:
                if not resume:
                    raise DocumentConflictError(
                        f"document {doc_id!r} already exists "
                        f"(status {existing.status}); DELETE it first or "
                        f"resume a failed ingest with ?resume=1"
                    )
                return existing
            if resume:
                raise DocumentNotFoundError(
                    f"cannot resume unknown document {doc_id!r}"
                )
            entry = DocumentEntry(doc_id, algorithm, limit)
            self._entries[doc_id] = entry
            return entry

    def _get(self, doc_id: str) -> DocumentEntry:
        with self._lock:
            entry = self._entries.get(doc_id)
        if entry is None:
            raise DocumentNotFoundError(f"no such document: {doc_id!r}")
        return entry

    def status_counts(self) -> dict[str, int]:
        """Documents per status (for ``/healthz``); cheap, dict-scan only."""
        counts = {"ready": 0, "loading": 0, "failed": 0}
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        return counts

    def index_status(self) -> dict[str, Any]:
        """Structural-index health (for ``/healthz``); dict-scan only.

        Reads each ready store's ``structural_index`` without the entry
        lock — ``valid`` is a single attribute read, and a torn snapshot
        here only mis-counts a document mid-ingest for one poll.
        """
        out: dict[str, Any] = {
            "enabled": self.index,
            "indexed": 0,
            "invalid": 0,
            "missing": 0,
        }
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            store = entry.store
            if store is None or entry.status != "ready":
                continue
            idx = getattr(store, "structural_index", None)
            if idx is None:
                out["missing"] += 1
            elif idx.valid:
                out["indexed"] += 1
            else:
                out["invalid"] += 1
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    # -- blocking operations (executor threads only) ---------------------

    def ingest_document(
        self,
        body: bytes,
        doc_id: Optional[str] = None,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
        journal: bool = False,
        resume: bool = False,
    ) -> dict[str, Any]:
        """Parse, partition and store one document; returns its info dict.

        ``journal=True`` makes the load crash-resumable; ``resume=True``
        replays the journal a previous failed ingest left behind
        (requires the same document bytes). A caller-chosen ``doc_id``
        becomes a URL path segment and a journal file name, so it must
        match ``[A-Za-z0-9][A-Za-z0-9._-]{0,127}``.
        """
        if doc_id is not None and _DOC_ID_RE.fullmatch(doc_id) is None:
            raise ValidationError(
                f"document id {doc_id!r} must match {_DOC_ID_RE.pattern}"
            )
        entry = self._reserve(
            doc_id,
            algorithm or self.default_algorithm,
            limit or self.default_limit,
            resume,
        )
        with entry.lock.write_locked():
            if resume and entry.status == "ready":
                raise DocumentConflictError(
                    f"document {entry.doc_id!r} is already ready; nothing to resume"
                )
            journal_path = entry.journal_path
            if journal_path is None and (journal or resume):
                journal_path = os.path.join(
                    self.journal_dir, f"{entry.doc_id}.journal"
                )
            try:
                with telemetry.span(
                    "service.ingest", doc=entry.doc_id, resume=resume
                ):
                    result = self._load(entry, body, journal_path, resume)
                    store = DocumentStore.build(result.tree, result.partitioning)
                    if self.index:
                        store.build_index()
                    store.warm_up()
            except Exception as exc:
                entry.status = "failed"
                entry.error = f"{type(exc).__name__}: {exc}"
                if journal_path is not None and os.path.exists(journal_path):
                    entry.journal_path = journal_path  # resumable
                telemetry.count("service.documents.failed")
                raise
            entry.apply_result(result, store)
            if self.cache is not None:
                # a re-ingest (resume) replaces the store; stale payloads
                # must go before the write lock releases
                self.cache.invalidate_document(entry.doc_id)
            if self.heat is not None:
                self.heat.attach(entry.doc_id, store)
            if journal_path is not None and os.path.exists(journal_path):
                os.remove(journal_path)  # load completed; nothing to resume
            entry.journal_path = None
        telemetry.count("service.documents.ingested")
        if result.resumed:
            telemetry.count("service.documents.resumed")
        return entry.info()

    def _load(
        self,
        entry: DocumentEntry,
        body: bytes,
        journal_path: Optional[str],
        resume: bool,
    ) -> ImportResult:
        if resume:
            if journal_path is None or not os.path.exists(journal_path):
                raise ValidationError(
                    f"document {entry.doc_id!r} has no journal to resume"
                )
            return resume_import(body, journal_path)
        loader = BulkLoader(algorithm=entry.algorithm, limit=entry.limit)
        return loader.load(body, journal_path=journal_path)

    def query_document(self, doc_id: str, xpath: str, show: int = 0) -> dict[str, Any]:
        """Run one XPath query; returns measured costs (+ values if asked)."""
        entry = self._get(doc_id)
        cache = self.cache
        key = (doc_id, xpath, show)
        with entry.lock.read_locked():
            if entry.status != "ready":
                raise DocumentConflictError(
                    f"document {doc_id!r} is {entry.status}, not ready"
                )
            if cache is not None:
                cached = cache.get(key)
                if cached is not None:
                    with entry._stats_latch:
                        entry.queries += 1
                    telemetry.count("service.queries")
                    return cached
            store = entry.store
            assert store is not None  # implied by status == ready
            with entry._stats_latch:
                with telemetry.span("service.query", doc=doc_id):
                    run, nodes = run_query_nodes(store, xpath)
                    values: Optional[list[str]] = None
                    if show > 0:
                        values = [string_value(node) for node in nodes[:show]]
                entry.queries += 1
            payload: dict[str, Any] = {
                "document": doc_id,
                "xpath": xpath,
                "results": run.result_count,
                "intra_steps": run.intra_steps,
                "cross_steps": run.cross_steps,
                "cross_ratio": run.cross_ratio,
                "page_faults": run.page_faults,
                "cost": run.cost,
                "window_steps": run.window_steps,
                "partitions_pruned": run.partitions_pruned,
            }
            if values is not None:
                payload["values"] = values
            if cache is not None:
                # still under the read lock: a writer can't start until
                # we release, and it invalidates before any later reader
                # resumes — no stale payload survives
                cache.put(key, payload)
        telemetry.count("service.queries")
        return payload

    def document_info(self, doc_id: str) -> dict[str, Any]:
        return self._get(doc_id).info()

    def list_documents(self) -> list[dict[str, Any]]:
        with self._lock:
            entries = sorted(self._entries.items())
        return [entry.info() for _, entry in entries]

    def delete_document(self, doc_id: str) -> dict[str, Any]:
        """Drop a document (and any leftover journal); returns last info."""
        entry = self._get(doc_id)
        with entry.lock.write_locked():
            with self._lock:
                self._entries.pop(doc_id, None)
            if entry.journal_path is not None and os.path.exists(entry.journal_path):
                os.remove(entry.journal_path)
            if self.cache is not None:
                self.cache.invalidate_document(doc_id)
            if self.heat is not None:
                self.heat.detach(doc_id)
            entry.store = None
            entry.status = "deleted"
        telemetry.count("service.documents.deleted")
        return {"id": doc_id, "status": "deleted"}
