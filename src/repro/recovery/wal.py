"""The write-ahead log: length+CRC32-framed redo records, group commit.

Every :meth:`~repro.storage.updates.StoreUpdater.flush` that runs with a
log attached (``store.attach_wal``) writes its intent *before* touching
any page: a ``BEGIN`` frame naming the dirty records (plus the label
dictionary, so cold recovery can rebuild it), one ``IMAGE`` frame per
record carrying the exact blob about to land on a page (the redo
after-image), and a ``COMMIT`` frame. The log is flushed after every
frame but **fsynced once, at commit** — group commit: a transaction's
durability costs a single fsync no matter how many records it touches.

Committed transactions stay in the log after their pages are written;
a flush checkpoints (atomically rewrites the log to one ``CHECKPOINT``
frame: write temp file, fsync, ``os.replace``, directory fsync) only
once the log holds :data:`CHECKPOINT_BYTES` of history. The log is
therefore bounded by ``CHECKPOINT_BYTES`` plus the frames of one flush,
and most flushes pay one fsync instead of three. Recovery redoes each
record's newest committed image (see :mod:`repro.recovery.manager`),
and :func:`~repro.recovery.manager.recover_store` still truncates the
log when it is done.

On-disk format — append-only frames::

    frame   := <u32 payload_len> <u32 crc32(payload)> payload
    payload := <u8 kind> rest

    BEGIN      (1): <u32 txn_id> json{"labels", "record_limit", "dirty"}
    IMAGE      (2): <u32 txn_id> <u32 record_id> blob
    COMMIT     (3): <u32 txn_id>
    CHECKPOINT (4): json{"labels", "record_limit", "next_txn"}

:func:`read_wal` is the single reader. Its torn-tail rule mirrors the
bulk-load journal's: an incomplete or CRC-failing **final** frame is the
expected residue of a crash mid-append and is reported (and skipped) as
a torn tail, while a CRC failure with more data following means interior
corruption and raises :class:`~repro.errors.WalError` — a log that lies
about history must never be replayed quietly.

Fault points (``repro.faults``): ``wal.append`` fires after each frame
is written + flushed — i.e. *at* the record boundary a crash would leave
behind, which is how the chaos matrix kills a flush at every boundary —
and ``wal.fsync`` fires just before each group-commit/checkpoint fsync.
The ``recovery.wal.fsyncs`` counter counts every fsync the log issues:
commits, checkpoint files, directory entries and torn-tail trims.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.errors import WalError
from repro.faults import plan as faults

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_TXN = struct.Struct("<I")  # txn_id
_IMAGE = struct.Struct("<II")  # txn_id, record_id

#: frame kinds (first payload byte)
BEGIN, IMAGE, COMMIT, CHECKPOINT = 1, 2, 3, 4

#: sanity bound on one frame; a length field beyond this is corruption,
#: not a real record (the largest legal image is one page's payload)
MAX_FRAME_BYTES = 1 << 26

#: history a log may hold before a flush checkpoints it (1 MiB)
CHECKPOINT_BYTES = 1 << 20


@dataclass
class WalTransaction:
    """One logged flush: its id, metadata, and redo after-images."""

    txn_id: int
    labels: list[str]
    record_limit: int
    dirty: list[int]
    #: ``(record_id, blob)`` in append order — replay order matters only
    #: across transactions, but keeping it makes redo reproducible
    images: list[tuple[int, bytes]] = field(default_factory=list)


@dataclass
class WalState:
    """Everything :func:`read_wal` learned from one log file."""

    path: str
    #: complete, checksum-valid frames found
    frames: int = 0
    #: transactions with a COMMIT frame, in commit order
    committed: list[WalTransaction] = field(default_factory=list)
    #: a transaction begun but never committed (at most one; discarded)
    open_txn: Optional[WalTransaction] = None
    #: bytes of torn tail after the last valid frame (0 = clean shutdown)
    torn_bytes: int = 0
    #: file offset where the valid prefix ends (truncate target)
    valid_bytes: int = 0
    #: latest durable label dictionary (checkpoint or committed BEGIN)
    labels: Optional[list[str]] = None
    record_limit: Optional[int] = None
    #: next transaction id a writer should hand out
    next_txn: int = 1

    def latest_images(self) -> dict[int, bytes]:
        """Last committed after-image per record — what redo installs."""
        latest: dict[int, bytes] = {}
        for txn in self.committed:
            for record_id, blob in txn.images:
                latest[record_id] = blob
        return latest


def _parse_frames(data: bytes, path: str) -> tuple[list[bytes], int, int]:
    """Split ``data`` into valid payloads; returns (payloads, valid_bytes,
    torn_bytes). Raises :class:`WalError` on interior corruption."""
    payloads: list[bytes] = []
    offset = 0
    size = len(data)
    while offset < size:
        remaining = size - offset
        if remaining < _FRAME_HEADER.size:
            return payloads, offset, remaining  # torn mid-header
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        end = offset + _FRAME_HEADER.size + length
        if length > MAX_FRAME_BYTES or end > size:
            # the frame claims more bytes than exist: an append died
            # mid-frame (or tore the length field itself)
            return payloads, offset, remaining
        payload = data[offset + _FRAME_HEADER.size : end]
        if zlib.crc32(payload) != crc:
            if end >= size:
                return payloads, offset, remaining  # torn final frame
            raise WalError(
                f"{path}: frame at byte {offset} fails its checksum with "
                f"{size - end} bytes following — interior corruption, "
                "not a torn tail"
            )
        payloads.append(payload)
        offset = end
    return payloads, offset, 0


def read_wal(path: str) -> WalState:
    """Read and validate a log file; tolerate (and report) a torn tail.

    A missing file reads as an empty log — recovery on a store that
    never flushed is a no-op, not an error.
    """
    state = WalState(path=str(path))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return state
    payloads, state.valid_bytes, state.torn_bytes = _parse_frames(data, str(path))
    open_txn: Optional[WalTransaction] = None
    for payload in payloads:
        if not payload:
            raise WalError(f"{path}: empty frame payload")
        kind = payload[0]
        if kind == BEGIN:
            (txn_id,) = _TXN.unpack_from(payload, 1)
            if open_txn is not None:
                raise WalError(
                    f"{path}: BEGIN {txn_id} while transaction "
                    f"{open_txn.txn_id} is still open"
                )
            meta = _frame_json(payload[1 + _TXN.size :], path, "BEGIN")
            open_txn = WalTransaction(
                txn_id=txn_id,
                labels=list(meta["labels"]),
                record_limit=int(meta["record_limit"]),
                dirty=list(meta.get("dirty", ())),
            )
        elif kind == IMAGE:
            txn_id, record_id = _IMAGE.unpack_from(payload, 1)
            if open_txn is None or open_txn.txn_id != txn_id:
                raise WalError(
                    f"{path}: IMAGE for transaction {txn_id} outside "
                    "its BEGIN/COMMIT window"
                )
            open_txn.images.append((record_id, payload[1 + _IMAGE.size :]))
        elif kind == COMMIT:
            (txn_id,) = _TXN.unpack_from(payload, 1)
            if open_txn is None or open_txn.txn_id != txn_id:
                raise WalError(
                    f"{path}: COMMIT for transaction {txn_id} that "
                    "was never begun"
                )
            state.committed.append(open_txn)
            state.labels = open_txn.labels
            state.record_limit = open_txn.record_limit
            open_txn = None
        elif kind == CHECKPOINT:
            if open_txn is not None:
                raise WalError(
                    f"{path}: CHECKPOINT inside transaction {open_txn.txn_id}"
                )
            meta = _frame_json(payload[1:], path, "CHECKPOINT")
            state.labels = list(meta["labels"])
            state.record_limit = int(meta["record_limit"])
            state.next_txn = max(state.next_txn, int(meta.get("next_txn", 1)))
        else:
            raise WalError(f"{path}: unknown frame kind {kind}")
        state.frames += 1
    state.open_txn = open_txn
    for txn in state.committed:
        state.next_txn = max(state.next_txn, txn.txn_id + 1)
    if open_txn is not None:
        state.next_txn = max(state.next_txn, open_txn.txn_id + 1)
    return state


def _frame_json(blob: bytes, path: str, kind: str) -> dict:
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalError(f"{path}: unreadable {kind} metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise WalError(f"{path}: {kind} metadata is not an object")
    return meta


def trim_torn_tail(path: str) -> int:
    """Truncate a log to its valid prefix; returns the bytes dropped.

    Safe to call on a clean log (no-op). Interior corruption still
    raises — trimming must never hide a lying log.
    """
    state = read_wal(path)
    if state.torn_bytes:
        with open(path, "r+b") as handle:
            handle.truncate(state.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        _count_fsync()
    return state.torn_bytes


def _frame_bytes(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _count_fsync() -> None:
    if telemetry.enabled():
        telemetry.count("recovery.wal.fsyncs")


def write_checkpoint(
    path: str, labels: list[str], record_limit: int, next_txn: int
) -> int:
    """Atomically replace the log with a single CHECKPOINT frame;
    returns the new log's size in bytes.

    The classic crash-safe rewrite: write a temp file, flush, **fsync**,
    then ``os.replace`` — the log is never observable half-truncated,
    and the rename only happens once the new content is durable.
    """
    meta = json.dumps(
        {"labels": list(labels), "record_limit": record_limit, "next_txn": next_txn},
        sort_keys=True,
    ).encode("utf-8")
    frame = _frame_bytes(bytes([CHECKPOINT]) + meta)
    tmp = f"{path}.ckpt"
    with open(tmp, "wb") as handle:
        handle.write(frame)
        handle.flush()
        if faults.armed():
            faults.check("wal.fsync", path=path, checkpoint=True)
        os.fsync(handle.fileno())
    _count_fsync()
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(path) or ".")
    if telemetry.enabled():
        telemetry.count("recovery.wal.checkpoints")
    return len(frame)


def _fsync_directory(directory: str) -> None:
    """Make a rename durable (the directory entry itself needs a sync)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without O_RDONLY dirs
        return
    try:
        os.fsync(dir_fd)
        _count_fsync()
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(dir_fd)


class WriteAheadLog:
    """Single-writer append handle over one log file.

    Use as a context manager or via :meth:`open`/:meth:`close`. Opening
    an existing log validates it first (raising on interior corruption)
    and trims any torn tail so fresh appends never land after garbage.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._handle = None
        self._next_txn = 1
        self._open_txn: Optional[int] = None
        #: complete frames currently in the file
        self.frames = 0
        #: bytes currently in the file (what :meth:`checkpoint_if_due`
        #: weighs against :data:`CHECKPOINT_BYTES`)
        self.size = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "WriteAheadLog":
        if self._handle is not None:
            raise WalError(f"{self.path}: log already open")
        if os.path.exists(self.path):
            trim_torn_tail(self.path)
        state = read_wal(self.path)
        if state.open_txn is not None:
            # an uncommitted transaction is dead history; appending a new
            # BEGIN after it would violate the protocol, so truncate the
            # log back to its last durable point
            write_checkpoint(
                self.path,
                state.labels or [],
                state.record_limit or 0,
                state.next_txn,
            )
            state = read_wal(self.path)
        self._next_txn = state.next_txn
        self.frames = state.frames
        self.size = state.valid_bytes
        # io.open, not the builtin: inside a method named `open` the bare
        # name reads as self-recursion (REC001)
        self._handle = io.open(self.path, "ab")
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self.open() if self._handle is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    # -- appends -----------------------------------------------------------

    def _append(self, payload: bytes) -> None:
        if self._handle is None:
            raise WalError(f"{self.path}: log is not open")
        frame = _frame_bytes(payload)
        self._handle.write(frame)
        # flush to the OS so the frame is a durable *boundary* in the
        # simulator's failure model; durability proper waits for the
        # group-commit fsync
        self._handle.flush()
        self.frames += 1
        self.size += len(frame)
        if telemetry.enabled():
            telemetry.count("recovery.wal.appends")
            telemetry.count("recovery.wal.bytes", len(frame))
        if faults.armed():
            faults.check("wal.append", path=self.path, frame=self.frames)

    def _sync(self) -> None:
        if faults.armed():
            faults.check("wal.fsync", path=self.path)
        os.fsync(self._handle.fileno())
        _count_fsync()

    def begin(self, dirty, *, labels, record_limit: int) -> int:
        """Open a transaction; logs the label dictionary so cold
        recovery can rebuild it. Returns the transaction id."""
        if self._open_txn is not None:
            raise WalError(f"{self.path}: transaction {self._open_txn} still open")
        txn_id = self._next_txn
        self._next_txn += 1
        meta = json.dumps(
            {
                "labels": list(labels),
                "record_limit": record_limit,
                "dirty": sorted(dirty),
            },
            sort_keys=True,
        ).encode("utf-8")
        self._append(bytes([BEGIN]) + _TXN.pack(txn_id) + meta)
        self._open_txn = txn_id
        return txn_id

    def log_image(self, txn_id: int, record_id: int, blob: bytes) -> None:
        """Log the redo after-image of one record."""
        if self._open_txn != txn_id:
            raise WalError(
                f"{self.path}: image for transaction {txn_id} but "
                f"{self._open_txn} is open"
            )
        self._append(bytes([IMAGE]) + _IMAGE.pack(txn_id, record_id) + blob)

    def commit(self, txn_id: int) -> None:
        """Group commit: one append, one fsync, the whole flush durable."""
        if self._open_txn != txn_id:
            raise WalError(
                f"{self.path}: commit of transaction {txn_id} but "
                f"{self._open_txn} is open"
            )
        self._append(bytes([COMMIT]) + _TXN.pack(txn_id))
        self._sync()
        self._open_txn = None
        if telemetry.enabled():
            telemetry.count("recovery.wal.commits")

    def checkpoint(self, labels, record_limit: int) -> None:
        """Truncate the log once its transactions are applied to pages."""
        if self._open_txn is not None:
            raise WalError(f"{self.path}: cannot checkpoint inside a transaction")
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.size = write_checkpoint(
            self.path, list(labels), record_limit, self._next_txn
        )
        self.frames = 1
        self._handle = io.open(self.path, "ab")

    def checkpoint_if_due(self, labels, record_limit: int) -> bool:
        """:meth:`checkpoint` once the log holds :data:`CHECKPOINT_BYTES`
        of history; returns whether it did. Until then committed
        transactions stay in the log (recovery redoes only each record's
        newest image, so a longer log replays no more records)."""
        if self.size < CHECKPOINT_BYTES:
            return False
        self.checkpoint(labels, record_limit)
        return True
