"""Storage engine configuration.

The paper's setup: 8-byte slots, ``K = 256`` slots → 2 KB records, stored
on disk pages that hold several records each. The navigation cost model
assigns one unit to an intra-record step; a cross-record step pays the
record lookup (buffer hit) and a page fault pays much more — though the
paper's query experiment (and ours) runs with a buffer larger than the
document, so faults only occur during warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the simulated Natix storage engine."""

    page_size: int = 8192
    slot_size: int = 8
    #: record capacity in slots; the paper's K
    record_limit: int = 256
    #: pages the buffer pool can hold (default comfortably > documents)
    buffer_pages: int = 4096
    #: cost units per navigation step inside one record
    intra_cost: float = 1.0
    #: extra cost units for following an inter-record proxy (buffer hit)
    cross_cost: float = 20.0
    #: extra cost units when the target page is not buffered
    fault_cost: float = 400.0

    #: fixed per-page header bytes (checksum, LSN, slot count)
    page_header: int = 24
    #: slot directory entry bytes per record on a page
    page_slot_entry: int = 4
    #: fixed per-record header bytes (id, fragment root count, …)
    record_header: int = 16

    @property
    def record_capacity_bytes(self) -> int:
        return self.record_limit * self.slot_size

    @property
    def page_payload(self) -> int:
        return self.page_size - self.page_header


DEFAULT_CONFIG = StorageConfig()
