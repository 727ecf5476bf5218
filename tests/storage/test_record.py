"""Record format: binary round-trips, field limits, and the store's one
encoder against the oracle codec (``tests/storage/oracles.py``)."""

import pytest

from repro.errors import RecordOverflowError, StorageError
from repro.partition.interval import Partitioning
from repro.storage import DocumentStore, StorageConfig
from repro.storage.record import (
    NO_PARENT,
    NODE_FORMAT,
    RECORD_HEADER,
    Record,
    RecordCodec,
    RecordNode,
)
from repro.tree.node import NodeKind, Tree
from repro.xmlio import parse_tree
from tests.storage.oracles import oracle_encode, scan_rebuild_record


def sample_record() -> Record:
    return Record(
        record_id=7,
        nodes=[
            RecordNode(10, NodeKind.ELEMENT, label_id=0, parent_slot=NO_PARENT),
            RecordNode(11, NodeKind.ATTRIBUTE, label_id=1, parent_slot=0, content=b"v1"),
            RecordNode(12, NodeKind.TEXT, label_id=2, parent_slot=0, content="héllo".encode()),
            RecordNode(13, NodeKind.ELEMENT, label_id=3, parent_slot=NO_PARENT),
        ],
    )


class TestCodec:
    def test_round_trip(self):
        record = sample_record()
        blob = oracle_encode(record)
        decoded = RecordCodec().decode(7, blob)
        assert decoded.record_id == 7
        assert decoded.node_count == 4
        for orig, back in zip(record.nodes, decoded.nodes):
            assert (orig.node_id, orig.kind, orig.label_id, orig.parent_slot, orig.content) == (
                back.node_id, back.kind, back.label_id, back.parent_slot, back.content
            )

    def test_fragment_roots(self):
        record = sample_record()
        assert [n.node_id for n in record.fragment_roots()] == [10, 13]
        assert record.node_ids() == [10, 11, 12, 13]

    def test_encoded_size_matches(self):
        record = sample_record()
        contents = sum(len(n.content) for n in record.nodes)
        assert len(oracle_encode(record)) == (
            RECORD_HEADER.size + NODE_FORMAT.size * len(record.nodes) + contents
        )
        assert NODE_FORMAT.size == 17

    def test_capacity_enforced(self):
        with pytest.raises(RecordOverflowError):
            oracle_encode(sample_record(), capacity_bytes=16)

    def test_decode_rejects_garbage(self):
        codec = RecordCodec()
        with pytest.raises(StorageError):
            codec.decode(0, b"\x01")
        blob = oracle_encode(sample_record())
        with pytest.raises(StorageError):
            codec.decode(0, blob + b"junk")

    def test_content_too_long_rejected(self):
        record = Record(0, [RecordNode(0, NodeKind.TEXT, 0, NO_PARENT, b"x" * 70_000)])
        with pytest.raises(StorageError):
            oracle_encode(record)

    def test_empty_record(self):
        blob = oracle_encode(Record(1))
        assert RecordCodec().decode(1, blob).node_count == 0


def _flat_store(children: int, intervals) -> DocumentStore:
    """A root with ``children`` empty elements, stored under
    ``intervals`` (weights are not checked by the encoder)."""
    tree = Tree("r")
    root = tree.root
    for _ in range(children):
        tree.add_child(root, "c", 1)
    return DocumentStore.build(
        tree,
        Partitioning(intervals),
        StorageConfig(page_size=1 << 21, record_limit=1 << 20),
    )


class TestEncodeRecord:
    """``DocumentStore.encode_record`` is the only production encoder;
    it must equal the oracle byte for byte and keep its field checks."""

    def test_matches_oracle_and_round_trips(self):
        tree = parse_tree('<a x="v1"><b>héllo</b><c/><d>t<e/>u</d></a>')
        store = DocumentStore.build(
            tree, Partitioning([(0, 0), (6, 6)]), StorageConfig(record_limit=64)
        )
        for record_id in range(store.record_count):
            blob = store.encode_record(record_id)
            assert blob == oracle_encode(scan_rebuild_record(store, record_id))
            decoded = RecordCodec().decode(record_id, blob)
            assert decoded.node_ids() == store.members[record_id]

    def test_content_too_long_rejected(self):
        tree = parse_tree("<a>" + "x" * 70_000 + "</a>")
        with pytest.raises(StorageError, match="64 KiB"):
            DocumentStore.build(tree, Partitioning([(0, 0)]), StorageConfig())

    def test_too_many_nodes_rejected(self):
        with pytest.raises(StorageError, match="too many nodes"):
            _flat_store(NO_PARENT, [(0, 0)])

    def test_position_beyond_16_bits_rejected(self):
        # three records of < 0xFFFF nodes each; the last child sits at
        # sibling position 0x10000
        last = 0x10001
        with pytest.raises(StorageError, match="16 bits"):
            _flat_store(last, [(0, 0), (1, 0x8000), (0x8001, last)])
