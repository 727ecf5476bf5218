"""Unit tests for the write-ahead log: framing, torn tails, protocol.

The torn-tail/interior-corruption distinction is the load-bearing rule:
a crash may legitimately shear the *last* frame (tolerated, trimmed),
but a checksum failure with more data following means the log lies
about history and must refuse to replay (:class:`WalError`).
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest

from repro import telemetry
from repro.errors import WalError
from repro.recovery import (
    WriteAheadLog,
    read_wal,
    trim_torn_tail,
    write_checkpoint,
)
from repro.recovery import wal as wal_mod


def _committed_log(path: str) -> WriteAheadLog:
    """One committed transaction (two images) in a fresh log."""
    wal = WriteAheadLog(path).open()
    txn = wal.begin([0, 2], labels=["a", "b"], record_limit=32)
    wal.log_image(txn, 0, b"blob-zero")
    wal.log_image(txn, 2, b"blob-two")
    wal.commit(txn)
    return wal


class TestFraming:
    def test_missing_file_reads_empty(self, tmp_path):
        state = read_wal(str(tmp_path / "never-written.wal"))
        assert state.frames == 0
        assert state.committed == []
        assert state.open_txn is None
        assert state.torn_bytes == 0
        assert state.labels is None
        assert state.next_txn == 1

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()

        state = read_wal(path)
        assert state.frames == 4  # BEGIN + 2 IMAGE + COMMIT
        assert state.torn_bytes == 0
        assert state.valid_bytes == os.path.getsize(path)
        (txn,) = state.committed
        assert txn.txn_id == 1
        assert txn.dirty == [0, 2]
        assert txn.labels == ["a", "b"]
        assert txn.record_limit == 32
        assert txn.images == [(0, b"blob-zero"), (2, b"blob-two")]
        assert state.labels == ["a", "b"]
        assert state.record_limit == 32
        assert state.next_txn == 2
        assert state.latest_images() == {0: b"blob-zero", 2: b"blob-two"}

    def test_latest_image_wins_across_transactions(self, tmp_path):
        path = str(tmp_path / "log.wal")
        with WriteAheadLog(path) as wal:
            for blob in (b"first", b"second"):
                txn = wal.begin([0], labels=["a"], record_limit=32)
                wal.log_image(txn, 0, blob)
                wal.commit(txn)

        state = read_wal(path)
        assert [txn.txn_id for txn in state.committed] == [1, 2]
        assert state.latest_images() == {0: b"second"}
        assert state.next_txn == 3

    def test_open_transaction_reported_not_committed(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path).open()
        txn = wal.begin([1], labels=["a"], record_limit=32)
        wal.log_image(txn, 1, b"uncommitted")
        wal.close()

        state = read_wal(path)
        assert state.committed == []
        assert state.open_txn is not None
        assert state.open_txn.images == [(1, b"uncommitted")]
        # labels only become durable at COMMIT / CHECKPOINT
        assert state.labels is None
        assert state.next_txn == 2

    def test_checkpoint_frame_carries_snapshot(self, tmp_path):
        path = str(tmp_path / "log.wal")
        write_checkpoint(path, ["x", "y"], 16, next_txn=7)

        state = read_wal(path)
        assert state.frames == 1
        assert state.committed == []
        assert state.labels == ["x", "y"]
        assert state.record_limit == 16
        assert state.next_txn == 7


class TestTornTail:
    def test_partial_header_is_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")

        state = read_wal(path)
        assert state.frames == 4
        assert state.torn_bytes == 3
        assert state.valid_bytes == clean_size
        assert len(state.committed) == 1  # history before the tear survives

    def test_partial_frame_body_is_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        with open(path, "ab") as handle:
            # header claims 100 payload bytes, only 2 follow
            handle.write(struct.pack("<II", 100, 0) + b"xx")

        state = read_wal(path)
        assert state.torn_bytes == struct.calcsize("<II") + 2
        assert len(state.committed) == 1

    def test_crc_failing_final_frame_is_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        payload = b"\x03garbage"
        with open(path, "ab") as handle:
            handle.write(
                struct.pack("<II", len(payload), zlib.crc32(payload) ^ 1) + payload
            )

        state = read_wal(path)  # must not raise: it is the *final* frame
        assert state.torn_bytes == struct.calcsize("<II") + len(payload)
        assert len(state.committed) == 1

    def test_oversize_length_field_is_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", wal_mod.MAX_FRAME_BYTES + 1, 0))
            handle.write(b"\x00" * 64)  # even with bytes following

        state = read_wal(path)
        assert state.torn_bytes == struct.calcsize("<II") + 64
        assert len(state.committed) == 1

    def test_trim_drops_tail_and_reports_bytes(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef\x00")

        assert trim_torn_tail(path) == 5
        assert os.path.getsize(path) == clean_size
        state = read_wal(path)
        assert state.torn_bytes == 0
        assert len(state.committed) == 1

    def test_trim_on_clean_log_is_noop(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        before = open(path, "rb").read()

        assert trim_torn_tail(path) == 0
        assert open(path, "rb").read() == before


class TestInteriorCorruption:
    def _two_txn_log(self, tmp_path) -> str:
        path = str(tmp_path / "log.wal")
        with WriteAheadLog(path) as wal:
            for blob in (b"first", b"second"):
                txn = wal.begin([0], labels=["a"], record_limit=32)
                wal.log_image(txn, 0, blob)
                wal.commit(txn)
        return path

    def test_bitflip_in_interior_frame_raises(self, tmp_path):
        path = self._two_txn_log(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[struct.calcsize("<II") + 1] ^= 0x40  # inside frame 1's payload
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        with pytest.raises(WalError, match="interior corruption"):
            read_wal(path)

    def test_trim_refuses_interior_corruption(self, tmp_path):
        path = self._two_txn_log(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[struct.calcsize("<II") + 1] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        before = open(path, "rb").read()
        with pytest.raises(WalError):
            trim_torn_tail(path)
        # a lying log must be left untouched for forensics
        assert open(path, "rb").read() == before


class TestWriterProtocol:
    def test_begin_inside_transaction_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal")).open()
        wal.begin([0], labels=["a"], record_limit=32)
        with pytest.raises(WalError, match="still open"):
            wal.begin([1], labels=["a"], record_limit=32)
        wal.close()

    def test_image_and_commit_require_matching_txn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal")).open()
        txn = wal.begin([0], labels=["a"], record_limit=32)
        with pytest.raises(WalError):
            wal.log_image(txn + 1, 0, b"blob")
        with pytest.raises(WalError):
            wal.commit(txn + 1)
        wal.commit(txn)
        wal.close()

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal")).open()
        txn = wal.begin([0], labels=["a"], record_limit=32)
        with pytest.raises(WalError, match="checkpoint"):
            wal.checkpoint(["a"], 32)
        wal.commit(txn)
        wal.close()

    def test_append_on_closed_log_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal")).open()
        wal.close()
        with pytest.raises(WalError, match="not open"):
            wal.begin([0], labels=["a"], record_limit=32)

    def test_double_open_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log.wal")).open()
        with pytest.raises(WalError, match="already open"):
            wal.open()
        wal.close()

    def test_checkpoint_truncates_and_preserves_txn_ids(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = _committed_log(path)
        wal.checkpoint(["a", "b"], 32)
        assert wal.frames == 1

        state = read_wal(path)
        assert state.frames == 1
        assert state.committed == []
        assert state.labels == ["a", "b"]
        assert state.next_txn == 2  # ids keep counting across truncation

        assert wal.begin([0], labels=["a", "b"], record_limit=32) == 2
        wal.commit(2)
        wal.close()

    def test_reopen_truncates_dead_open_transaction(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path).open()
        txn = wal.begin([0], labels=["a"], record_limit=32)
        wal.log_image(txn, 0, b"never-committed")
        wal.commit(txn)
        dead = wal.begin([1], labels=["a"], record_limit=32)
        wal.close()  # crash-ish: the second transaction never commits

        reopened = WriteAheadLog(path).open()
        state = read_wal(path)
        # dead history was checkpointed away, not left to trip a new BEGIN
        assert state.frames == 1
        assert state.open_txn is None
        assert state.labels == ["a"]
        assert state.next_txn == dead + 1
        assert reopened.begin([2], labels=["a"], record_limit=32) == dead + 1
        reopened.close()

    def test_reopen_trims_torn_tail(self, tmp_path):
        path = str(tmp_path / "log.wal")
        _committed_log(path).close()
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x99\x99\x99")

        wal = WriteAheadLog(path).open()
        assert os.path.getsize(path) == clean_size
        assert wal.frames == 4
        wal.close()


class TestCounters:
    def test_every_fsync_the_log_issues_is_counted(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(wal_mod.os, "fsync", counting_fsync)
        path = str(tmp_path / "log.wal")
        with telemetry.capture() as reg:
            wal = _committed_log(path)  # commit: file fsync
            wal.checkpoint(["a", "b"], 32)  # temp file + directory
            wal.close()
            with open(path, "ab") as handle:
                handle.write(b"\x01")
            trim_torn_tail(path)  # truncate + fsync
        assert len(calls) == 4
        assert reg.counters["recovery.wal.fsyncs"].value == len(calls)
        assert reg.counters["recovery.wal.checkpoints"].value == 1

    def test_size_tracks_the_file_and_triggers_the_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "log.wal")
        wal = _committed_log(path)
        assert wal.size == os.path.getsize(path)
        monkeypatch.setattr(wal_mod, "CHECKPOINT_BYTES", wal.size + 1)
        assert not wal.checkpoint_if_due(["a", "b"], 32)
        assert len(read_wal(path).committed) == 1
        monkeypatch.setattr(wal_mod, "CHECKPOINT_BYTES", wal.size)
        assert wal.checkpoint_if_due(["a", "b"], 32)
        assert read_wal(path).committed == []
        assert wal.size == os.path.getsize(path)
        wal.close()
        reopened = WriteAheadLog(path).open()
        assert reopened.size == os.path.getsize(path)
        reopened.close()
