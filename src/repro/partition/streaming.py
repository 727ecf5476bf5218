"""KM, RS and EKM: the main-memory friendly heuristics (paper Sec. 4.1, 4.3).

The paper defines these heuristics by one property: every cut is decided
when a subtree closes, from summaries of its already-closed children.
Each heuristic is therefore written once, as a cut strategy: it consumes
a closing element's *frame* (its weight plus summaries of its closed
children), emits the partitions it decides on right now, and returns the
summary the parent will see. Everything an emitted partition needs has
already been seen, and nothing about it is needed later.

Two drivers close the frames:

* :class:`StreamingPartitioner` walks an in-memory :class:`Tree` in
  descending node-id order — every construction path creates a parent
  before its children, so all children of a node have closed when it is
  reached — and is what ``partition_tree(tree, K, "km" | "rs" | "ekm")``
  runs;
* the bulkloader (:mod:`repro.bulkload.importer`) closes a frame per
  parser end-tag and, under its spill threshold, also forces partitions
  out of frames that are still open (:meth:`StreamStrategy.spill`).

Without spills both drivers make the same decisions; tests pin them
against the batch loops kept as oracles in ``tests/partition/oracles.py``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import InfeasiblePartitioningError
from repro.obsv import explain
from repro.partition.base import Partitioner, register
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.node import Tree, TreeNode

#: callback: (interval, freed_weight) -> None
EmitFn = Callable[[SiblingInterval, int], None]


@dataclass(slots=True)
class ChildSummary:
    """What a parent remembers about a closed child subtree."""

    node_id: int
    own_weight: int
    #: KM/RS: residual subtree weight (uncut part); EKM: binary residual,
    #: filled in when the parent closes.
    residual: int = 0
    #: True once the child's component was emitted (close cut or spill).
    emitted: bool = False
    # EKM bookkeeping for the left (first-child) binary edge:
    first_child: int = -1
    first_chain_end: int = -1
    res_first: int = 0


@dataclass(slots=True)
class Frame:
    """An open element: weight so far plus closed-children summaries."""

    node_id: int
    weight: int
    children: list[ChildSummary] = field(default_factory=list)
    #: the element's tree node — the loader hangs children off it
    #: directly instead of looking the parent up by id per child
    node: Optional[TreeNode] = None

    def uncut_children(self) -> list[ChildSummary]:
        return [c for c in self.children if not c.emitted]


class StreamStrategy(abc.ABC):
    """One main-memory friendly cut rule."""

    name: str = "abstract"

    def __init__(self, limit: int, emit: EmitFn):
        self.limit = limit
        self.emit = emit

    @abc.abstractmethod
    def close(self, frame: Frame) -> ChildSummary:
        """Handle a closing element; emit partitions; return its summary."""

    def finish(self, root: ChildSummary) -> None:
        """Last decisions once the root has closed (the root has no
        parent whose close could cut below it)."""

    @abc.abstractmethod
    def spill(self, frame: Frame) -> int:
        """Emit one partition from an *open* frame to free memory.

        Returns the freed weight (0 if nothing can be spilled here).
        """

    def spillable_weight(self, frame: Frame) -> int:
        """Weight a spill on this frame could free (for frame selection)."""
        return sum(c.residual for c in frame.uncut_children())


class KMStreamStrategy(StreamStrategy):
    """Kundu & Misra (1977), Sec. 4.3.3: while the residual subtree of a
    closing node is heavier than ``K``, cut its heaviest remaining child
    subtree into a partition of its own.

    Minimum-cardinality **for partitions connected by parent-child edges
    only**: every interval is a singleton ``(v, v)``, so adjacent sibling
    subtrees are never merged even when they would fit together — the
    weakness sibling partitioning removes (Table 1: > 90 % more
    partitions than DHW on relational documents).
    """

    name = "km"

    def close(self, frame: Frame) -> ChildSummary:
        rest = frame.weight + sum(c.residual for c in frame.uncut_children())
        if rest > self.limit:
            # Heaviest first; the stable sort keeps ties left to right.
            by_weight = sorted(frame.uncut_children(), key=lambda c: -c.residual)
            for child in by_weight:
                if rest <= self.limit:
                    break
                self.emit(SiblingInterval(child.node_id, child.node_id), child.residual)
                rest -= child.residual
                child.emitted = True
                if explain.explaining():
                    explain.decision(
                        child.node_id,
                        "km-cut",
                        parent=frame.node_id,
                        cut_weight=child.residual,
                        rest=rest,
                        considered=len(by_weight),
                    )
        if rest > self.limit:
            raise InfeasiblePartitioningError(
                f"node {frame.node_id} cannot be reduced below K={self.limit}",
                node_id=frame.node_id,
            )
        return ChildSummary(frame.node_id, frame.weight, residual=rest)

    def spill(self, frame: Frame) -> int:
        candidates = frame.uncut_children()
        if not candidates:
            return 0
        child = max(candidates, key=lambda c: c.residual)
        self.emit(SiblingInterval(child.node_id, child.node_id), child.residual)
        child.emitted = True
        return child.residual


class RSStreamStrategy(StreamStrategy):
    """Rightmost siblings, Natix' import algorithm before this paper
    (Sec. 4.3.2): while a closing node's residual exceeds ``K``, pack the
    rightmost remaining children into a new partition, greedily right to
    left until the next sibling would not fit.

    It never reconsiders where a run starts, so a single heavy child can
    strand many light siblings in poorly filled partitions — the paper's
    "peculiar partitioning decisions".
    """

    name = "rs"

    def close(self, frame: Frame) -> ChildSummary:
        rest = frame.weight + sum(c.residual for c in frame.uncut_children())
        while rest > self.limit:
            run = self._pack_rightmost_run(frame, rest)
            if run is None:
                raise InfeasiblePartitioningError(
                    f"node {frame.node_id} cannot be reduced below K={self.limit}",
                    node_id=frame.node_id,
                )
            left_id, size, weight = run
            rest -= weight
            if explain.explaining():
                explain.decision(
                    left_id,
                    "rs-pack",
                    parent=frame.node_id,
                    run=size,
                    run_weight=weight,
                    rest=rest,
                )
        return ChildSummary(frame.node_id, frame.weight, residual=rest)

    def spill(self, frame: Frame) -> int:
        """Spill one run packed to the limit (no residual target)."""
        run = self._pack_rightmost_run(frame, math.inf)
        return 0 if run is None else run[2]

    def _pack_rightmost_run(
        self, frame: Frame, rest: float
    ) -> Optional[tuple[int, int, int]]:
        """Emit the rightmost run of uncut children, extended leftward
        while the next sibling fits and ``rest`` minus the run still
        exceeds the limit; returns (left id, length, weight) of the run,
        or None when every child is cut."""
        kids = frame.children
        end = len(kids) - 1
        while end >= 0 and kids[end].emitted:
            end -= 1
        if end < 0:
            return None
        weight = kids[end].residual
        begin = end
        while rest - weight > self.limit and begin > 0:
            prev = kids[begin - 1]
            if prev.emitted or weight + prev.residual > self.limit:
                break
            begin -= 1
            weight += prev.residual
        for i in range(begin, end + 1):
            kids[i].emitted = True
        self.emit(SiblingInterval(kids[begin].node_id, kids[end].node_id), weight)
        return kids[begin].node_id, end - begin + 1, weight


class EKMStreamStrategy(StreamStrategy):
    """Enhanced Kundu & Misra (Sec. 4.3.4, Natix' default import
    algorithm since this paper): KM on the left-child / right-sibling
    (binary) tree, where a node's binary children are its first child and
    its next sibling.

    Cutting a right edge starts a partition at a run of siblings; cutting
    a left edge evicts a whole child block one level down — the two moves
    whose interplay separates DHW from GHDW (Fig. 6). A binary component
    is the sibling interval of its root plus the uncut right chain, so
    binary components are exactly the *prefix* sibling partitionings:
    those in which the children a node keeps in its own partition are a
    prefix of its children. EKM is Kundu-Misra-optimal over those, hence
    never better than DHW, which may keep any subset.

    When an element closes, its children are processed right to left —
    binary postorder for that sibling group — computing each child's
    binary residual and cutting the heavier binary edge while the
    residual exceeds the limit (ties cut the left, first-child edge).
    """

    name = "ekm"

    def close(self, frame: Frame) -> ChildSummary:
        kids = frame.children
        res_next = 0  # binary residual of the (uncut) right sibling chain
        chain_end_next = -1  # last node of that chain
        for i in range(len(kids) - 1, -1, -1):
            child = kids[i]
            if child.emitted:
                if res_next > 0:
                    # Siblings that arrived *after* a spill emitted this
                    # component are orphans: their binary parent edge
                    # leads into an already-emitted partition, so no later
                    # cut could ever detach them. Emit the group as its
                    # own partition (this only happens after spills; pure
                    # close-time EKM never creates orphans).
                    self.emit(
                        SiblingInterval(kids[i + 1].node_id, chain_end_next),
                        res_next,
                    )
                    kids[i + 1].emitted = True
                # The right edge of this child's left neighbour is
                # effectively cut.
                res_next = 0
                chain_end_next = -1
                continue
            rest = child.own_weight + child.res_first + res_next
            while rest > self.limit:
                left, right = child.res_first, res_next
                if left == 0 and right == 0:
                    raise InfeasiblePartitioningError(
                        f"node {child.node_id} cannot be reduced below "
                        f"K={self.limit}",
                        node_id=child.node_id,
                    )
                if left >= right:
                    cut_id = child.first_child
                    self.emit(SiblingInterval(cut_id, child.first_chain_end), left)
                    child.res_first = 0
                else:
                    nxt = kids[i + 1]
                    cut_id = nxt.node_id
                    self.emit(SiblingInterval(cut_id, chain_end_next), right)
                    nxt.emitted = True
                    res_next = 0
                    chain_end_next = -1
                rest = child.own_weight + child.res_first + res_next
                if explain.explaining():
                    explain.decision(
                        cut_id,
                        "ekm-cut",
                        parent=child.node_id,
                        edge="first-child" if left >= right else "next-sibling",
                        cut_weight=max(left, right),
                        rest=rest,
                    )
            child.residual = rest
            if res_next == 0 or chain_end_next == -1:
                chain_end_next = child.node_id
            res_next = rest
        summary = ChildSummary(frame.node_id, frame.weight)
        first = kids[0] if kids else None
        if first is not None and not first.emitted:
            summary.first_child = first.node_id
            summary.first_chain_end = chain_end_next
            summary.res_first = res_next
        summary.residual = summary.own_weight + summary.res_first
        return summary

    def finish(self, root: ChildSummary) -> None:
        """The root's own binary residual check: its only binary child is
        the first-child chain, cut if the two together exceed ``K``."""
        if root.own_weight + root.res_first > self.limit and root.res_first:
            self.emit(
                SiblingInterval(root.first_child, root.first_chain_end),
                root.res_first,
            )
            if explain.explaining():
                explain.decision(
                    root.first_child,
                    "ekm-cut",
                    parent=root.node_id,
                    edge="first-child",
                    cut_weight=root.res_first,
                    rest=root.own_weight,
                )

    def spill(self, frame: Frame) -> int:
        """Pack the rightmost run of closed children into one partition.

        Unlike close-time EKM the right-sibling chain is still growing, so
        the spilled run can never profit from siblings yet to come — the
        quality-for-memory trade of Sec. 4.3. Each child contributes its
        whole component (itself plus its uncut first-child chain); a child
        whose component alone exceeds the limit first sheds that chain as
        a separate partition.
        """
        kids = frame.children
        end = len(kids) - 1
        while end >= 0 and kids[end].emitted:
            end -= 1
        if end < 0:
            return 0
        last = kids[end]
        weight = last.own_weight + last.res_first
        if weight > self.limit:
            # The component is only over the limit because of its left
            # chain (own_weight <= K is checked upstream): emit the chain.
            self.emit(
                SiblingInterval(last.first_child, last.first_chain_end),
                last.res_first,
            )
            freed = last.res_first
            last.res_first = 0
            return freed
        begin = end
        while begin > 0:
            prev = kids[begin - 1]
            if prev.emitted:
                break
            prev_weight = prev.own_weight + prev.res_first
            if weight + prev_weight > self.limit:
                break
            begin -= 1
            weight += prev_weight
        for i in range(begin, end + 1):
            kids[i].emitted = True
        self.emit(SiblingInterval(kids[begin].node_id, kids[end].node_id), weight)
        return weight

    def spillable_weight(self, frame: Frame) -> int:
        return sum(c.own_weight + c.res_first for c in frame.uncut_children())


class StreamingPartitioner(Partitioner):
    """A cut strategy driven over an in-memory tree."""

    main_memory_friendly = True
    strategy: type[StreamStrategy]

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        root = tree.root
        intervals = [SiblingInterval(root.node_id, root.node_id)]
        strategy = self.strategy(limit, lambda interval, _freed: intervals.append(interval))
        nodes = tree.nodes
        # closed subtrees whose parent has not closed yet
        summaries: dict[int, ChildSummary] = {}
        # Children have larger ids than their parent, so descending ids
        # close every child before its parent; the frame lists them in
        # sibling order, which need not be id order.
        for nid in range(len(nodes) - 1, -1, -1):
            node = nodes[nid]
            if node.children:
                frame = Frame(
                    nid, node.weight, [summaries.pop(c.node_id) for c in node.children]
                )
                summaries[nid] = strategy.close(frame)
            else:
                summaries[nid] = ChildSummary(nid, node.weight, node.weight)
        strategy.finish(summaries[root.node_id])
        return Partitioning(intervals)


@register
class KMPartitioner(StreamingPartitioner):
    """Kundu-Misra single-node-interval baseline."""

    name = "km"
    strategy = KMStreamStrategy


@register
class EKMPartitioner(StreamingPartitioner):
    """Kundu-Misra cuts on the binary view."""

    name = "ekm"
    strategy = EKMStreamStrategy


@register
class RSPartitioner(StreamingPartitioner):
    """Rightmost-siblings packing, Natix' pre-paper import algorithm."""

    name = "rs"
    strategy = RSStreamStrategy


STRATEGY_CLASSES: dict[str, type[StreamStrategy]] = {
    cls.name: cls
    for cls in (KMStreamStrategy, RSStreamStrategy, EKMStreamStrategy)
}
