"""Crash-safe bulk load: the append-only import journal and resume.

A multi-gigabyte import that dies at 90% should not start over from
nothing — and, worse, must never leave a store that *looks* complete.
The journal makes the streaming importer's progress durable:

* ``begin`` — one header line (format version, algorithm, weight limit,
  spill threshold, a fingerprint of the source document), fsync'd before
  any partition is considered sealed;
* ``seal`` — appended at every **spill boundary** with the parse-event
  high-water mark and the sibling intervals emitted since the previous
  seal, then fsync'd — everything up to this line survives any crash;
* ``commit`` — the final line, written only after the last partition was
  decided; its absence is how :func:`resume_import` recognizes an
  interrupted run.

Records are JSON lines, so a torn final line (a crash between ``write``
and ``fsync``) is recognizable and ignored; torn or reordered *interior*
lines raise :class:`~repro.errors.JournalError`.

Resume is **verified deterministic replay**: the streaming strategies
are pure functions of the event stream (pinned by the batch-equivalence
tests), so :func:`resume_import` re-runs the import with the journaled
parameters and cross-checks every sealed interval against the journal as
it passes the corresponding boundary. Any divergence — a changed source
document, a corrupted journal, nondeterminism — fails loudly instead of
producing a silently different store; agreement guarantees the resumed
result (and the store built from it) is byte-identical to an
uninterrupted run, which the fault matrix (:mod:`repro.faults.matrix`)
asserts at every crash point.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import IO, Optional

from repro.errors import JournalError
from repro.partition.interval import SiblingInterval

#: journal format identifier (first line of every journal)
JOURNAL_SCHEMA = "repro-journal/1"


def source_fingerprint(source) -> Optional[str]:
    """SHA-256 of the source document, when it is cheaply re-readable.

    Paths and in-memory documents hash their full contents; unseekable
    streams return ``None`` (they cannot be resumed anyway — replay
    needs to re-read the document from the start).
    """
    if isinstance(source, bytes):
        return hashlib.sha256(source).hexdigest()
    if isinstance(source, str):
        if source.lstrip()[:1] == "<":  # document text (parser heuristic)
            return hashlib.sha256(source.encode("utf-8")).hexdigest()
        return _hash_file(source)
    if isinstance(source, os.PathLike):
        return _hash_file(os.fspath(source))
    return None


def _hash_file(path: str) -> Optional[str]:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


class ImportJournal:
    """Append-only writer for one bulk-load run.

    Every record is one JSON line; ``seal`` and ``commit`` flush and
    ``os.fsync`` before returning, so a crash immediately after a fault
    point finds the sealed prefix on disk.

    **Single-writer.** ``_handle`` is an open file descriptor: sharing
    one journal across threads interleaves half lines. The streaming
    importer honors this by journaling only from the thread that runs
    the load.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: Optional[IO[str]] = None
        self.seals = 0

    def open(self) -> "ImportJournal":
        self._handle = io.open(self.path, "a", encoding="utf-8")
        return self

    def begin(
        self,
        *,
        algorithm: str,
        limit: int,
        spill_threshold: Optional[int],
        strip_whitespace: bool,
        source_sha256: Optional[str],
    ) -> None:
        self._append(
            {
                "kind": "begin",
                "schema": JOURNAL_SCHEMA,
                "algorithm": algorithm,
                "limit": limit,
                "spill_threshold": spill_threshold,
                "strip_whitespace": strip_whitespace,
                "source_sha256": source_sha256,
            }
        )

    def seal(self, events: int, intervals: list[SiblingInterval]) -> None:
        """Make every partition emitted so far durable (spill boundary)."""
        self.seals += 1
        self._append(
            {
                "kind": "seal",
                "events": events,
                "intervals": [[iv.left, iv.right] for iv in intervals],
            }
        )

    def commit(self, events: int, intervals: list[SiblingInterval], nodes: int) -> None:
        self._append(
            {
                "kind": "commit",
                "events": events,
                "intervals": [[iv.left, iv.right] for iv in intervals],
                "nodes": nodes,
            }
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _append(self, record: dict) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is not open")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())


@dataclass
class JournalState:
    """Everything :func:`read_journal` recovered from a journal file."""

    path: str
    header: dict
    #: cumulative sealed intervals, in emission order
    sealed_intervals: list[SiblingInterval] = field(default_factory=list)
    #: per-seal (event high-water mark, number of intervals sealed so far)
    seal_marks: list[tuple[int, int]] = field(default_factory=list)
    committed: bool = False
    commit: Optional[dict] = None

    @property
    def sealed_events(self) -> int:
        """Parse-event high-water mark of the last durable seal."""
        return self.seal_marks[-1][0] if self.seal_marks else 0


def read_journal(path: str | os.PathLike) -> JournalState:
    """Parse a (possibly crash-truncated) journal into a
    :class:`JournalState`.

    A torn **final** line is ignored — that is the expected shape of a
    crash between ``write`` and ``fsync``. Anything else malformed
    (missing header, torn interior line, seal after commit, regressing
    event marks) raises :class:`~repro.errors.JournalError`.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                break  # torn tail from a crash mid-write; the prefix rules
            raise JournalError(
                f"journal {path}: corrupt interior line {index + 1}"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise JournalError(f"journal {path}: line {index + 1} is not a record")
        records.append(record)
    if not records or records[0].get("kind") != "begin":
        raise JournalError(f"journal {path}: missing begin header")
    header = records[0]
    if header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"journal {path}: unsupported schema {header.get('schema')!r}"
        )
    state = JournalState(path=path, header=header)
    for record in records[1:]:
        kind = record.get("kind")
        if state.committed:
            raise JournalError(f"journal {path}: records after commit")
        if kind not in ("seal", "commit"):
            raise JournalError(f"journal {path}: unknown record kind {kind!r}")
        try:
            events = int(record["events"])
            intervals = [SiblingInterval(int(l), int(r)) for l, r in record["intervals"]]
        except (KeyError, TypeError, ValueError):
            raise JournalError(f"journal {path}: malformed {kind} record") from None
        if events < state.sealed_events:
            raise JournalError(f"journal {path}: event high-water mark regressed")
        state.sealed_intervals.extend(intervals)
        if kind == "seal":
            state.seal_marks.append((events, len(state.sealed_intervals)))
        else:
            state.committed = True
            state.commit = record
    return state


def resume_import(source, journal_path: str | os.PathLike):
    """Resume (or verify) a journaled bulk load after a crash.

    Re-runs the import with the parameters recorded in the journal
    header, verifying the deterministic replay against every sealed
    interval; new spill boundaries past the old high-water mark are
    appended to the same journal, and the commit record is written at
    the end — so a resumed run leaves exactly the journal an
    uninterrupted run would have.

    Returns the completed :class:`~repro.bulkload.importer.ImportResult`
    (marked ``resumed=True``). Raises
    :class:`~repro.errors.JournalError` when the journal disagrees with
    the source document or the replay.
    """
    from repro.bulkload.importer import BulkLoader

    state = read_journal(journal_path)
    header = state.header
    fingerprint = source_fingerprint(source)
    recorded = header.get("source_sha256")
    if fingerprint is not None and recorded is not None and fingerprint != recorded:
        raise JournalError(
            f"journal {state.path}: source document changed since the "
            f"interrupted run (sha256 {fingerprint[:12]} != {recorded[:12]})"
        )
    loader = BulkLoader(
        algorithm=header["algorithm"],
        limit=header["limit"],
        spill_threshold=header["spill_threshold"],
        strip_whitespace=header.get("strip_whitespace", True),
    )
    return loader.load(source, journal_path=journal_path, _resume_state=state)
