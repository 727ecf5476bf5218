"""Record manager: packs record blobs onto pages.

First-fit: each record goes to the first existing page with room, else a
fresh page is allocated. This reproduces the paper's observation that
*smaller* records (KM) pack slightly better than EKM's large ones — big
records leave unusable tails on pages, so EKM occupies marginally more
total disk space despite having far fewer records (Table 3, first row).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.errors import StorageError
from repro.faults import plan as faults
from repro.storage.constants import StorageConfig
from repro.storage.page import Page


@dataclass
class SpaceReport:
    """Disk-space accounting for Table 3."""

    pages: int
    page_bytes: int
    record_bytes: int
    records: int

    @property
    def utilization(self) -> float:
        return self.record_bytes / self.page_bytes if self.page_bytes else 0.0

    @property
    def kib(self) -> float:
        return self.page_bytes / 1024.0


class RecordManager:
    """Allocates records to pages and remembers where everything lives."""

    def __init__(self, config: StorageConfig):
        self.config = config
        self.pages: dict[int, Page] = {}
        self.page_of_record: dict[int, int] = {}
        self._record_bytes = 0

    def store(self, record_id: int, blob: bytes) -> int:
        """Place a record blob; returns the page id it landed on.

        The ``page.write`` fault point fires after the page sealed its
        checksum over the intended bytes — an injected torn write or
        bit-flip damages the *stored* copy, exactly what read-time
        verification must catch.
        """
        page = self._find_page(blob)
        if page is None:
            page = Page(len(self.pages), self.config)
            self.pages[page.page_id] = page
            if telemetry.enabled():
                telemetry.count("storage.pages.allocated")
        page.put(record_id, blob)
        if faults.armed():
            action = faults.fire("page.write", page_id=page.page_id, record_id=record_id)
            if action is not None:
                action.apply_to_page(page)
        self.page_of_record[record_id] = page.page_id
        self._record_bytes += len(blob)
        if telemetry.enabled():
            telemetry.count("storage.records.written")
            telemetry.count("storage.record_bytes.written", len(blob))
        return page.page_id

    def _find_page(self, blob: bytes):
        policy = self.config.allocation_policy
        if policy == "first_fit":
            for page in self.pages.values():
                if page.fits(blob):
                    return page
            return None
        if policy == "best_fit":
            best = None
            for page in self.pages.values():
                if page.fits(blob) and (best is None or page.free_bytes < best.free_bytes):
                    best = page
            return best
        raise StorageError(f"unknown allocation policy {policy!r}")

    def replace(self, record_id: int, blob: bytes) -> int:
        """Rewrite a record after an update; may migrate it to another
        page when it no longer fits its old one. Returns the page id.

        The old page is verified before its slot is touched: rewriting
        on top of undetected corruption would launder the damage into a
        freshly sealed checksum."""
        old_page = self.pages[self.page_of_record[record_id]]
        old_page.verify()
        old_blob = old_page.remove(record_id)
        self._record_bytes -= len(old_blob)
        if old_page.fits(blob):
            old_page.put(record_id, blob)
            self.page_of_record[record_id] = old_page.page_id
            self._record_bytes += len(blob)
            if telemetry.enabled():
                telemetry.count("storage.records.rewritten")
                telemetry.count("storage.record_bytes.written", len(blob))
            return old_page.page_id
        del self.page_of_record[record_id]
        return self.store(record_id, blob)

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            pages=len(self.pages),
            page_bytes=len(self.pages) * self.config.page_size,
            record_bytes=self._record_bytes,
            records=len(self.page_of_record),
        )
