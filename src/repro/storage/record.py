"""Physical records: serialized tree fragments.

A record stores one partition — the forest of subtrees rooted at the
members of one sibling interval. Nodes are serialized in document order.
The format is *self-describing enough to rebuild the document*: every
node carries its sibling position, intra-record parents are referenced by
slot, and fragment roots (nodes whose parent lives in another record)
carry their parent's global node id — the equivalent of Natix' proxy
pointers. :mod:`repro.storage.reconstruct` proves the point by rebuilding
the whole tree from record bytes alone.

Binary layout (little-endian)::

    record header   : node_count u16, fragment_root_count u16
    per node (17 B) : node_id u32, kind u8, label_id u16,
                      parent_slot u16 (0xFFFF = fragment root),
                      parent_node_id u32 (0xFFFFFFFF = document root;
                                          only meaningful for roots),
                      position u16 (index among the parent's children),
                      content_len u16
    then            : content bytes (UTF-8) for each node, in order

:meth:`DocumentStore.encode_record <repro.storage.store.DocumentStore.
encode_record>` writes this layout straight from the tree (no
:class:`Record` in between); :class:`RecordCodec` reads it back. Disk
accounting uses the serialized length plus the configured record header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.tree.node import NodeKind

#: record header: node_count, fragment_root_count
RECORD_HEADER = struct.Struct("<HH")
#: one node: node_id, kind, label_id, parent_slot, parent_node_id,
#: position, content_len
NODE_FORMAT = struct.Struct("<IBHHIHH")
NO_PARENT = 0xFFFF
DOCUMENT_ROOT = 0xFFFFFFFF


@dataclass(slots=True)
class RecordNode:
    """One serialized node inside a record."""

    node_id: int
    kind: NodeKind
    label_id: int
    parent_slot: int  # slot index within this record, NO_PARENT for roots
    content: bytes = b""
    #: global id of the parent for fragment roots (DOCUMENT_ROOT for the
    #: document root); undefined (0) for intra-record nodes
    parent_node_id: int = 0
    #: index of this node among its parent's children
    position: int = 0


@dataclass
class Record:
    """A deserialized (or to-be-serialized) physical record."""

    record_id: int
    nodes: list[RecordNode] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def fragment_roots(self) -> list[RecordNode]:
        return [n for n in self.nodes if n.parent_slot == NO_PARENT]

    def node_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes]


class RecordCodec:
    """Decodes record blobs. Encoding has one implementation,
    :meth:`repro.storage.store.DocumentStore.encode_record`, which packs
    :data:`RECORD_HEADER` and :data:`NODE_FORMAT` straight from the tree."""

    def decode(self, record_id: int, blob: bytes) -> Record:
        if len(blob) < 4:
            raise StorageError("record blob too short")
        count, _roots = RECORD_HEADER.unpack_from(blob, 0)
        offset = 4
        nodes: list[RecordNode] = []
        lengths: list[int] = []
        for _ in range(count):
            (
                node_id,
                kind,
                label_id,
                parent_slot,
                parent_node_id,
                position,
                content_len,
            ) = NODE_FORMAT.unpack_from(blob, offset)
            offset += NODE_FORMAT.size
            nodes.append(
                RecordNode(
                    node_id,
                    NodeKind(kind),
                    label_id,
                    parent_slot,
                    b"",
                    parent_node_id,
                    position,
                )
            )
            lengths.append(content_len)
        for node, length in zip(nodes, lengths):
            node.content = blob[offset : offset + length]
            offset += length
        if offset != len(blob):
            raise StorageError(f"record {record_id}: trailing bytes after decode")
        return Record(record_id, nodes)
