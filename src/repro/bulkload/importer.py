"""The streaming bulkloader: parser callbacks in, partitions out.

:class:`BulkLoader` is a push consumer: expat calls the three handler
methods of one ``_LoadState`` directly
(:func:`~repro.xmlio.parser.push_parse` — no event object, generator or
type dispatch in between), for plain, journaled and resumed loads alike.
``_LoadState`` extends the parser's
:class:`~repro.xmlio.parser.TreeBuilder` (same node-id assignment, same
text merging and whitespace handling — tests pin this equivalence) and
pushes every closing subtree through a streaming cut strategy
(:mod:`repro.bulkload.strategies`). Partitions are *emitted* the moment
they are decided; the loader tracks the resident weight a real importer
would hold — everything parsed but not yet emitted — and reports its
peak. :meth:`BulkLoader.load_events` is the pull adapter: it replays a
recorded event stream into the same three methods.

The spill threshold implements Sec. 4.3's memory bound: whenever the
resident weight exceeds it, the loader forces partitions out of the open
frames (largest accumulation first) until it fits again. Spilling
degrades partition quality but caps memory at roughly
``threshold + K × document_height``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro import telemetry
from repro.errors import (
    InfeasiblePartitioningError,
    JournalError,
    ReproError,
    XmlFormatError,
)
from repro.bulkload.journal import ImportJournal, JournalState, source_fingerprint
from repro.bulkload.strategies import (
    ChildSummary,
    Frame,
    STRATEGY_CLASSES,
    StreamStrategy,
)
from repro.faults import plan as faults
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.node import NodeKind, Tree
from repro.xmlio.events import ParseEvent, replay
from repro.xmlio.parser import Source, TreeBuilder, push_parse
from repro.xmlio.weights import SlotWeightModel

#: streaming algorithms available to the loader
STREAMING_STRATEGIES = tuple(STRATEGY_CLASSES)


@dataclass
class ImportResult:
    """Everything the bulkloader learned while importing."""

    partitioning: Partitioning
    tree: Tree
    peak_resident_weight: int
    final_resident_weight: int
    total_weight: int
    emitted_partitions: int
    spills: int
    events: int
    #: seal boundaries made durable in the journal (0 without one)
    seals: int = 0
    #: True when this result came from :func:`~repro.bulkload.journal.resume_import`
    resumed: bool = False

    @property
    def peak_resident_fraction(self) -> float:
        """Peak resident weight relative to the whole document."""
        return self.peak_resident_weight / self.total_weight if self.total_weight else 0.0


class BulkLoader:
    """Streaming document import with a pluggable cut strategy.

    Parameters
    ----------
    algorithm:
        ``"km"``, ``"rs"`` or ``"ekm"`` (the main-memory-friendly
        heuristics; EKM is the paper's recommendation).
    limit:
        Partition weight limit ``K``.
    spill_threshold:
        Optional resident-weight bound; ``None`` disables spilling, in
        which case the result is identical to the batch algorithm.
    """

    def __init__(
        self,
        algorithm: str = "ekm",
        limit: int = 256,
        spill_threshold: Optional[int] = None,
        weight_model: Optional[SlotWeightModel] = None,
        strip_whitespace: bool = True,
    ):
        if algorithm not in STRATEGY_CLASSES:
            raise ReproError(
                f"unknown streaming algorithm {algorithm!r}; "
                f"available: {', '.join(STRATEGY_CLASSES)}"
            )
        if spill_threshold is not None and spill_threshold < limit:
            raise ReproError("spill threshold must be at least the weight limit K")
        self.algorithm = algorithm
        self.limit = limit
        self.spill_threshold = spill_threshold
        self.wm = weight_model or SlotWeightModel()
        self.strip_whitespace = strip_whitespace

    def load(
        self,
        source: Source,
        journal_path: Optional[str] = None,
        _resume_state: Optional[JournalState] = None,
    ) -> ImportResult:
        """Import from any XML source (path, text, bytes, stream).

        With ``journal_path`` the import is crash-safe: progress is made
        durable at every spill boundary (see
        :mod:`repro.bulkload.journal`), and an interrupted run can be
        completed with :func:`~repro.bulkload.journal.resume_import`.
        """
        if journal_path is None:
            return self._run(push_parse, source)
        journal = ImportJournal(journal_path)
        if _resume_state is None:
            if os.path.exists(journal.path) and os.path.getsize(journal.path) > 0:
                raise JournalError(
                    f"journal {journal.path} already exists; an interrupted "
                    "run must be completed with resume_import()"
                )
            journal.open()
            journal.begin(
                algorithm=self.algorithm,
                limit=self.limit,
                spill_threshold=self.spill_threshold,
                strip_whitespace=self.strip_whitespace,
                source_sha256=source_fingerprint(source),
            )
        else:
            journal.open()
        try:
            return self._run(push_parse, source, journal, _resume_state)
        finally:
            journal.close()

    def load_events(
        self,
        events: Iterable[ParseEvent],
        journal: Optional[ImportJournal] = None,
        resume: Optional[JournalState] = None,
    ) -> ImportResult:
        """Import a recorded event stream (the pull adapter: the events
        are replayed into the handlers expat calls in :meth:`load`)."""
        return self._run(replay, events, journal, resume)

    def _run(
        self,
        drive: Callable,
        document,
        journal: Optional[ImportJournal] = None,
        resume: Optional[JournalState] = None,
    ) -> ImportResult:
        """One import: ``drive`` (``push_parse`` over a source, ``replay``
        over events) calls the load state's three handlers."""
        with telemetry.span("bulkload.import", algorithm=self.algorithm):
            state = _LoadState(self, journal=journal, resume=resume)
            drive(document, state.start, state.end, state.characters)
            result = state.complete()
        if telemetry.enabled():
            telemetry.count("bulkload.runs")
            telemetry.count("bulkload.events", result.events)
            telemetry.count("bulkload.spills", result.spills)
            telemetry.count("bulkload.partitions", result.emitted_partitions)
            telemetry.count("bulkload.nodes", len(result.tree))
            telemetry.gauge_max(
                "bulkload.peak_resident_weight", result.peak_resident_weight
            )
        return result


def bulk_import(
    source: Source,
    algorithm: str = "ekm",
    limit: int = 256,
    spill_threshold: Optional[int] = None,
    journal_path: Optional[str] = None,
) -> ImportResult:
    """One-call streaming import."""
    return BulkLoader(algorithm, limit, spill_threshold).load(
        source, journal_path=journal_path
    )


class _LoadState(TreeBuilder):
    """Mutable per-import state and the handler trio expat calls: the
    tree under construction (:class:`TreeBuilder`, whose ``open`` stack
    holds :class:`Frame` objects here), the strategy's frames, stats."""

    def __init__(
        self,
        loader: BulkLoader,
        journal: Optional[ImportJournal] = None,
        resume: Optional[JournalState] = None,
    ):
        super().__init__(loader.wm, loader.strip_whitespace)
        self.limit = loader.limit
        self.spill_threshold = loader.spill_threshold
        self.journal = journal
        self.resume = resume
        self.intervals: list[SiblingInterval] = []
        self.resident = 0
        self.peak_resident = 0
        self.total_weight = 0
        self.spills = 0
        self.seals = 0
        #: intervals already covered by a seal (or seal verification)
        self._sealed_intervals = 0
        self.strategy: StreamStrategy = STRATEGY_CLASSES[loader.algorithm](
            loader.limit, self._emit
        )
        self.root_summary: Optional[ChildSummary] = None

    # -- emission & memory accounting -------------------------------------

    def _emit(self, interval: SiblingInterval, freed_weight: int) -> None:
        resume = self.resume
        if resume is not None:
            index = len(self.intervals)
            if index < len(resume.sealed_intervals):
                sealed = resume.sealed_intervals[index]
                if sealed != interval:
                    raise JournalError(
                        f"journal {resume.path}: replay diverged at partition "
                        f"{index}: journal sealed {sealed}, replay emitted "
                        f"{interval} — the source document or journal changed"
                    )
        self.intervals.append(interval)
        self.resident -= freed_weight

    def _grow(self, weight: int) -> None:
        if weight > self.limit:
            raise InfeasiblePartitioningError(
                f"a node of weight {weight} exceeds K={self.limit}"
            )
        self.resident += weight
        self.total_weight += weight
        if self.resident > self.peak_resident:
            self.peak_resident = self.resident

    def _spill(self) -> None:
        """Force partitions out of the open frames until the resident
        weight fits the threshold again (callers check there is one)."""
        threshold = self.spill_threshold
        spilled = False
        while self.resident > threshold:
            frame = max(
                self.open,
                key=self.strategy.spillable_weight,
                default=None,
            )
            if frame is None or self.strategy.spillable_weight(frame) == 0:
                break  # nothing spillable; open nodes dominate
            freed = self.strategy.spill(frame)
            if freed <= 0:
                break
            self.spills += 1
            spilled = True
        if spilled:
            self._seal_boundary()

    def _seal_boundary(self) -> None:
        """Make every partition emitted so far durable, then give the
        fault plan its crash window.

        During resume, boundaries inside the journal's sealed prefix are
        *verified* against the recorded seal instead of re-appended; a
        mismatch means the replay is not the run the journal describes.
        The ``bulkload.spill`` fault point fires after the seal fsync'd —
        a crash here is exactly what resume must recover from.
        """
        self.seals += 1
        resume = self.resume
        if (
            resume is not None
            and self.journal is not None
            and self.seals <= len(resume.seal_marks)
        ):
            mark_events, mark_count = resume.seal_marks[self.seals - 1]
            if mark_events != self.events or mark_count != len(self.intervals):
                raise JournalError(
                    f"journal {resume.path}: replay seal {self.seals} at "
                    f"event {self.events} with {len(self.intervals)} "
                    f"partitions does not match the journaled boundary "
                    f"(event {mark_events}, {mark_count} partitions)"
                )
        elif self.journal is not None:
            self.journal.seal(self.events, self.intervals[self._sealed_intervals:])
        self._sealed_intervals = len(self.intervals)
        if faults.armed():
            faults.check("bulkload.spill", seal=self.seals, events=self.events)

    # -- the handlers expat calls ------------------------------------------

    def start(self, name: str, attrs: list) -> None:
        self.events += 1
        if faults.armed():
            faults.check("parser.event", index=self.events)
        if self.pending:
            self._flush_text()
        weight = self.element_weight
        frames = self.open
        node = self._element(name, weight, frames[-1].node if frames else None)
        self._grow(weight)
        frame = Frame(node.node_id, weight, [], node)
        frames.append(frame)
        if attrs:
            wm = self.wm
            for i in range(0, len(attrs), 2):
                value = attrs[i + 1]
                self._leaf(
                    frame, attrs[i], wm.attribute_weight(value), NodeKind.ATTRIBUTE, value
                )
        if self.spill_threshold is not None:
            self._spill()

    def _flush_text(self) -> None:
        text = self._take_text()
        if text is not None:
            self._leaf(
                self.open[-1], "#text", self.wm.text_weight(text), NodeKind.TEXT, text
            )
            if self.spill_threshold is not None:
                self._spill()

    def _leaf(
        self, frame: Frame, label: str, weight: int, kind: NodeKind, content: str
    ) -> None:
        """A text / attribute node under the open element ``frame``; its
        summary is never cut on its own unless the parent decides so."""
        node = self.tree.add_child(  # type: ignore[union-attr]
            frame.node, label, weight, kind, content
        )
        self._grow(weight)
        frame.children.append(ChildSummary(node.node_id, weight, weight))

    def end(self, name: str) -> None:
        self.events += 1
        if faults.armed():
            faults.check("parser.event", index=self.events)
        if self.pending:
            self._flush_text()
        frames = self.open
        if not frames:
            raise XmlFormatError(f"unexpected closing tag {name!r}")
        summary = self.strategy.close(frames.pop())
        if frames:
            frames[-1].children.append(summary)
        else:
            self.root_summary = summary
        if self.spill_threshold is not None:
            self._spill()

    # -- completion ---------------------------------------------------------

    def complete(self) -> ImportResult:
        tree = self.finish()
        summary = self.root_summary
        assert summary is not None
        # EKM: the root's own binary residual check happens here, because
        # the root has no parent-close to do it (see strategies module).
        if summary.own_weight + summary.res_first > self.limit and summary.res_first:
            self._emit(
                SiblingInterval(summary.first_child, summary.first_chain_end),
                summary.res_first,
            )
        self.intervals.append(SiblingInterval(0, 0))
        self.resident = max(0, self.resident)
        # The finalize fault point fires *before* the commit record: a
        # crash here leaves a sealed-but-uncommitted journal, the state
        # resume_import() exists to recover from.
        if faults.armed():
            faults.check("bulkload.finalize", events=self.events)
        self._commit_journal()
        return ImportResult(
            partitioning=Partitioning(self.intervals),
            tree=tree,
            peak_resident_weight=self.peak_resident,
            final_resident_weight=self.resident,
            total_weight=self.total_weight,
            emitted_partitions=len(self.intervals),
            spills=self.spills,
            events=self.events,
            seals=self.seals,
            resumed=self.resume is not None,
        )

    def _commit_journal(self) -> None:
        if self.journal is None:
            return
        tail = self.intervals[self._sealed_intervals:]
        nodes = len(self.tree) if self.tree is not None else 0
        resume = self.resume
        if resume is not None and resume.committed:
            # Resuming an already-committed journal: pure verification.
            commit = resume.commit or {}
            recorded = [
                SiblingInterval(int(lo), int(hi))
                for lo, hi in commit.get("intervals", [])
            ]
            if (
                int(commit.get("events", -1)) != self.events
                or int(commit.get("nodes", -1)) != nodes
                or recorded != tail
            ):
                raise JournalError(
                    f"journal {resume.path}: committed run does not match "
                    "the replay — the source document or journal changed"
                )
            return
        self.journal.commit(self.events, tail, nodes)
