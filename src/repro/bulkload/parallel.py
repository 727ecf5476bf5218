"""Parallel bulk load: independent top-level subtrees, ordered merge.

The streaming cut strategies (:mod:`repro.bulkload.strategies`) make all
their decisions per closing frame, so the import of one top-level element
subtree (a child of the document element) never depends on any other —
the only coupling points are the document root's own frame and the spill
machinery. Without a spill threshold the sequential loader therefore
decomposes exactly:

1. **Split.** The event stream is parsed once and sliced into one chunk
   per top-level element subtree (plus the document-level events the main
   process keeps: root start/end, root attributes, inter-chunk text).
2. **Fan out.** Each chunk goes to a ``multiprocessing`` worker that runs
   the ordinary :class:`~repro.bulkload.importer.BulkLoader` machinery
   with *local* node ids ``0..m-1`` and returns its partition intervals,
   its closing :class:`~repro.bulkload.strategies.ChildSummary` and a
   picklable :class:`~repro.tree.flat.FlatTree` of the subtree.
3. **Ordered merge.** The main process grafts worker trees in document
   order. Node ids are assigned in creation order, so a subtree whose
   root gets global id ``base`` occupies exactly ``base..base+m-1`` — the
   worker's local ids shift by ``base`` and every interval / summary
   remaps with one addition. Worker intervals are appended in document
   order, then the root frame closes exactly as in the sequential run.

The merged result is **bit-identical** to ``BulkLoader.load`` on the same
source (asserted by ``tests/bulkload/test_parallel.py``), including node
ids, the tree and the emission order of intervals.

Journal/crash-resume semantics are preserved: a parallel run journals
``begin`` + ``commit`` with no interior seals — precisely what a
sequential no-spill run writes — so an interrupted parallel import is
completed by the ordinary sequential
:func:`~repro.bulkload.journal.resume_import` replay, whose
committed-run verification then matches because the outputs are
identical. Spill thresholds are rejected: spilling couples frames across
subtrees and is inherently sequential.
"""

from __future__ import annotations

import os
from multiprocessing import get_context
from typing import Iterable, Optional

from repro import telemetry
from repro.bulkload.importer import BulkLoader, ImportResult, _LoadState
from repro.bulkload.journal import ImportJournal, source_fingerprint
from repro.bulkload.strategies import STRATEGY_CLASSES, ChildSummary
from repro.errors import JournalError, ReproError, XmlFormatError
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.flat import FlatTree
from repro.tree.node import NodeKind, Tree
from repro.xmlio.events import (
    Characters,
    EndDocument,
    EndElement,
    ParseEvent,
    StartDocument,
    StartElement,
)
from repro.xmlio.parser import Source, iter_events
from repro.xmlio.weights import SlotWeightModel


def _load_chunk(args: tuple) -> tuple:
    """Worker: import one top-level subtree with local node ids.

    Module-level so it pickles under every multiprocessing start method.
    Fork-safe by construction (repro-lint rule CC002): everything the
    worker touches is built locally from the pickled ``args`` — no
    module-level lock, open file, or RNG is reachable from here, so the
    fan-out behaves identically under ``fork`` and ``spawn``.
    Returns ``(flat_tree, intervals, summary_fields, peak, total, events)``
    where intervals are ``(left, right, freed)`` triples in emission order
    and all node ids are local (0 = subtree root).
    """
    algorithm, limit, wm, strip_whitespace, events = args
    loader = BulkLoader(
        algorithm=algorithm,
        limit=limit,
        spill_threshold=None,
        weight_model=wm,
        strip_whitespace=strip_whitespace,
    )
    state = _LoadState(loader)
    emitted: list[tuple[int, int, int]] = []
    original_emit = state._emit

    def record_emit(interval: SiblingInterval, freed: int) -> None:
        emitted.append((interval.left, interval.right, freed))
        original_emit(interval, freed)

    state._emit = record_emit  # type: ignore[method-assign]
    state.strategy = STRATEGY_CLASSES[algorithm](limit, record_emit)
    for event in events:
        state.handle(event)
    state._flush_text()
    if state.frames:
        raise XmlFormatError("subtree chunk ended with unclosed elements")
    summary = state.root_summary
    assert summary is not None and state.tree is not None
    fields = (
        summary.node_id,
        summary.own_weight,
        summary.residual,
        summary.emitted,
        summary.first_child,
        summary.first_chain_end,
        summary.res_first,
    )
    return (
        FlatTree.from_tree(state.tree),
        emitted,
        fields,
        state.peak_resident,
        state.total_weight,
        state.events,
    )


class ParallelBulkLoader:
    """Multi-process bulk import with deterministic ordered merge.

    Accepts the :class:`~repro.bulkload.importer.BulkLoader` parameters
    minus ``spill_threshold`` (parallel mode never spills), plus
    ``workers``: the pool size, default ``os.cpu_count()``. ``workers=1``
    (or a failing pool) degrades to in-process chunk execution with the
    same split/merge code path and identical output.
    """

    def __init__(
        self,
        algorithm: str = "ekm",
        limit: int = 256,
        workers: Optional[int] = None,
        weight_model: Optional[SlotWeightModel] = None,
        strip_whitespace: bool = True,
    ):
        if algorithm not in STRATEGY_CLASSES:
            raise ReproError(
                f"unknown streaming algorithm {algorithm!r}; "
                f"available: {', '.join(STRATEGY_CLASSES)}"
            )
        if workers is not None and workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.algorithm = algorithm
        self.limit = limit
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.wm = weight_model or SlotWeightModel()
        self.strip_whitespace = strip_whitespace

    # ------------------------------------------------------------------

    def load(self, source: Source, journal_path: Optional[str] = None) -> ImportResult:
        """Import ``source``; with ``journal_path`` the run is crash-safe
        (sequential ``resume_import`` completes an interrupted run)."""
        journal = None
        if journal_path is not None:
            journal = ImportJournal(journal_path)
            if os.path.exists(journal.path) and os.path.getsize(journal.path) > 0:
                raise JournalError(
                    f"journal {journal.path} already exists; an interrupted "
                    "run must be completed with resume_import()"
                )
            journal.open()
            # Same header a sequential no-spill run writes, so the
            # resume replay reconstructs an equivalent loader.
            journal.begin(
                algorithm=self.algorithm,
                limit=self.limit,
                spill_threshold=None,
                strip_whitespace=self.strip_whitespace,
                source_sha256=source_fingerprint(source),
            )
        try:
            with telemetry.span("bulkload.parallel", algorithm=self.algorithm):
                result = self._load_events(iter_events(source), journal)
            if telemetry.enabled():
                telemetry.count("bulkload.parallel.runs")
                telemetry.count("bulkload.events", result.events)
                telemetry.count("bulkload.partitions", result.emitted_partitions)
                telemetry.count("bulkload.nodes", len(result.tree))
            return result
        finally:
            if journal is not None:
                journal.close()

    # ------------------------------------------------------------------

    def _load_events(
        self, events: Iterable[ParseEvent], journal: Optional[ImportJournal]
    ) -> ImportResult:
        chunks, plan = self._split(events)
        outputs = self._run_chunks(chunks)
        return self._merge(plan, outputs, journal)

    def _split(
        self, events: Iterable[ParseEvent]
    ) -> tuple[list[tuple[ParseEvent, ...]], list]:
        """Slice the stream into top-level subtree chunks.

        Returns the chunks plus the document-level *plan*: an ordered list
        of ``("root", StartElement)``, ``("text", str)``, ``("chunk", i)``
        and ``("end", event_count)`` steps the merge replays.
        """
        chunks: list[tuple[ParseEvent, ...]] = []
        plan: list = []
        depth = 0
        total_events = 0
        current: list[ParseEvent] = []
        pending_text: list[str] = []  # root-level text, merged like the
        saw_root = False  # sequential loader's pending_text buffer

        def flush_text() -> None:
            if pending_text:
                plan.append(("text", "".join(pending_text)))
                pending_text.clear()

        for event in events:
            total_events += 1
            if isinstance(event, (StartDocument, EndDocument)):
                continue
            if depth >= 2 or (depth == 1 and isinstance(event, StartElement)):
                # Inside (or starting) a top-level subtree.
                if not current:
                    flush_text()
                current.append(event)
                if isinstance(event, StartElement):
                    depth += 1
                elif isinstance(event, EndElement):
                    depth -= 1
                    if depth == 1:
                        chunks.append(tuple(current))
                        plan.append(("chunk", len(chunks) - 1))
                        current = []
                continue
            if isinstance(event, StartElement):  # depth 0: the document root
                if saw_root:
                    raise XmlFormatError("multiple document elements")
                saw_root = True
                depth = 1
                plan.append(("root", event))
            elif isinstance(event, EndElement):
                if depth != 1:
                    raise XmlFormatError("unbalanced closing tag")
                flush_text()
                depth = 0
            elif isinstance(event, Characters):
                if not saw_root or depth == 0:
                    if self.strip_whitespace and not event.text.strip():
                        continue
                    raise XmlFormatError("character data outside the document element")
                pending_text.append(event.text)
        if depth != 0 or current:
            raise XmlFormatError("document ended with unclosed elements")
        if not saw_root:
            raise XmlFormatError("document contains no elements")
        plan.append(("end", total_events))
        return chunks, plan

    def _run_chunks(self, chunks: list[tuple[ParseEvent, ...]]) -> list[tuple]:
        """Execute chunks, preserving order. Falls back to in-process
        execution when a pool is pointless (0/1 chunks, 1 worker) or
        cannot be created."""
        args = [
            (self.algorithm, self.limit, self.wm, self.strip_whitespace, chunk)
            for chunk in chunks
        ]
        workers = min(self.workers, len(args))
        if workers > 1:
            try:
                ctx = get_context()
                with ctx.Pool(processes=workers) as pool:
                    return pool.map(_load_chunk, args)
            except OSError:  # pool creation can fail in sandboxes
                telemetry.count("bulkload.parallel.pool_fallbacks")
        return [_load_chunk(a) for a in args]

    def _merge(
        self,
        plan: list,
        outputs: list[tuple],
        journal: Optional[ImportJournal],
    ) -> ImportResult:
        """Deterministic ordered merge, replaying the document-level plan."""
        limit = self.limit
        wm = self.wm
        strategy_cls = STRATEGY_CLASSES[self.algorithm]
        intervals: list[SiblingInterval] = []
        tree: Optional[Tree] = None
        root_children: list[ChildSummary] = []
        root_weight = 0
        peak = 0
        total_weight = 0
        total_events = 0
        emit = lambda iv, freed: intervals.append(iv)  # noqa: E731 — merge never spills
        strategy = strategy_cls(limit, emit)
        for step, payload in plan:
            if step == "root":
                event = payload
                root_weight = wm.element_weight()
                tree = Tree(event.name, root_weight, NodeKind.ELEMENT)
                total_weight += root_weight
                for name, value in event.attributes:
                    aw = wm.attribute_weight(value)
                    attr = tree.add_child(tree.root, name, aw, NodeKind.ATTRIBUTE, value)
                    total_weight += aw
                    root_children.append(strategy.leaf_summary(attr.node_id, aw))
            elif step == "text":
                text = payload
                if self.strip_whitespace and not text.strip():
                    continue
                assert tree is not None
                weight = wm.text_weight(text)
                node = tree.add_child(tree.root, "#text", weight, NodeKind.TEXT, text)
                total_weight += weight
                root_children.append(strategy.leaf_summary(node.node_id, weight))
            elif step == "chunk":
                flat, emitted, fields, chunk_peak, chunk_total, _chunk_events = outputs[
                    payload
                ]
                assert tree is not None
                base = len(tree.nodes)
                self._graft(tree, flat)
                for left, right, _freed in emitted:
                    intervals.append(SiblingInterval(left + base, right + base))
                summary = ChildSummary(
                    node_id=fields[0] + base,
                    own_weight=fields[1],
                    residual=fields[2],
                    emitted=fields[3],
                    first_child=fields[4] + base if fields[4] >= 0 else -1,
                    first_chain_end=fields[5] + base if fields[5] >= 0 else -1,
                    res_first=fields[6],
                )
                root_children.append(summary)
                peak = max(peak, chunk_peak)
                total_weight += chunk_total
            else:  # "end"
                total_events = payload
        assert tree is not None
        # Close the document root exactly like the sequential loader.
        from repro.bulkload.strategies import Frame

        root_frame = Frame(node_id=0, weight=root_weight)
        root_frame.children = root_children
        summary = strategy.close(root_frame)
        if summary.own_weight + summary.res_first > limit and summary.res_first:
            intervals.append(
                SiblingInterval(summary.first_child, summary.first_chain_end)
            )
        intervals.append(SiblingInterval(0, 0))
        if journal is not None:
            journal.commit(total_events, intervals, len(tree))
        return ImportResult(
            partitioning=Partitioning(intervals),
            tree=tree,
            peak_resident_weight=max(peak, root_weight),
            final_resident_weight=0,
            total_weight=total_weight,
            emitted_partitions=len(intervals),
            spills=0,
            events=total_events,
            seals=0,
            resumed=False,
        )

    @staticmethod
    def _graft(tree: Tree, flat: FlatTree) -> None:
        """Append a worker's subtree below the document root.

        Worker trees are parser-built (``add_child`` only), so sibling
        order equals id order and a single id-order pass reattaches every
        node under ``base + parent``.
        """
        base = len(tree.nodes)
        nodes = tree.nodes
        add_child = tree.add_child
        parent = flat.parent
        weight = flat.weight
        labels = flat.labels
        kinds = flat.kinds
        contents = flat.contents
        add_child(tree.root, labels[0], weight[0], NodeKind(kinds[0]), contents[0])
        for i in range(1, flat.n):
            add_child(
                nodes[base + parent[i]],
                labels[i],
                weight[i],
                NodeKind(kinds[i]),
                contents[i],
            )
