"""Natix-style storage engine (paper Sec. 1, 6.4).

The engine materializes a partitioned document the way Natix does:

* each partition becomes a **physical record** holding the serialized
  tree fragment (:mod:`repro.storage.record`),
* a **record manager** packs records onto slotted **pages**
  (:mod:`repro.storage.page`, :mod:`repro.storage.manager`) — several
  small records share a page, which is why KM's many small partitions can
  occupy slightly *less* total disk space than EKM's (Table 3),
* a **buffer pool** (:mod:`repro.storage.buffer`) caches pages with LRU
  replacement and counts hits/misses,
* :class:`~repro.storage.store.DocumentStore` exposes navigational
  access through a per-walk navigator (``store.navigator()``) and its
  :class:`~repro.storage.store.StoredNode` handles; every axis step is
  classified intra-record (cheap pointer chase) or cross-record (record
  lookup through the buffer), which is the cost difference the whole
  paper is about, and counted in that walk's ``navigator.stats``.
"""

from repro.storage.constants import StorageConfig, DEFAULT_CONFIG
from repro.storage.record import Record, RecordCodec
from repro.storage.page import Page
from repro.storage.buffer import BufferPool
from repro.storage.manager import RecordManager
from repro.storage.store import DocumentStore, StoredNode, NavigationStats
from repro.storage.updates import StoreUpdater, UpdateStats
from repro.storage.reconstruct import reconstruct_tree, verify_store_integrity
from repro.storage.navigator import RecordNavigator, RecordNode

__all__ = [
    "StoreUpdater",
    "UpdateStats",
    "reconstruct_tree",
    "verify_store_integrity",
    "RecordNavigator",
    "RecordNode",
    "StorageConfig",
    "DEFAULT_CONFIG",
    "Record",
    "RecordCodec",
    "Page",
    "BufferPool",
    "RecordManager",
    "DocumentStore",
    "StoredNode",
    "NavigationStats",
]
