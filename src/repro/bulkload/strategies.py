"""Streaming cut strategies: the per-close logic of KM, RS and EKM.

Each strategy consumes a closing element's *frame* (its weight plus
summaries of its already-closed children) and decides which partitions to
emit right now, returning the summary the parent will see. This is the
core of main-memory friendliness: everything an emitted partition needs
has already been seen, and nothing about it is needed later.

The strategies replicate their batch counterparts' decisions exactly
(same orders, same tie-breaks); tests assert equality of the resulting
partitionings.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import InfeasiblePartitioningError
from repro.partition.interval import SiblingInterval
from repro.tree.node import TreeNode

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
    """One streaming partitioning algorithm."""

    name: str = "abstract"

    def __init__(self, limit: int, emit: EmitFn):
        self.limit = limit
        self.emit = emit

    @abc.abstractmethod
    def close(self, frame: Frame) -> ChildSummary:
        """Handle a closing element; emit partitions; return its summary."""

    @abc.abstractmethod
    def spill(self, frame: Frame) -> int:
        """Emit one partition from an *open* frame to free memory.

        Returns the freed weight (0 if nothing can be spilled here).
        """

    def spillable_weight(self, frame: Frame) -> int:
        """Weight a spill on this frame could free (for frame selection)."""
        return sum(c.residual for c in frame.uncut_children())


class KMStreamStrategy(StreamStrategy):
    """Streaming Kundu-Misra: cut heaviest closed child until it fits."""

    name = "km"

    def close(self, frame: Frame) -> ChildSummary:
        rest = frame.weight + sum(c.residual for c in frame.uncut_children())
        if rest > self.limit:
            for child in sorted(
                frame.uncut_children(), key=lambda c: -c.residual
            ):
                if rest <= self.limit:
                    break
                self.emit(SiblingInterval(child.node_id, child.node_id), child.residual)
                rest -= child.residual
                child.emitted = True
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
    """Streaming rightmost-siblings: pack maximal right-to-left runs."""

    name = "rs"

    def close(self, frame: Frame) -> ChildSummary:
        rest = frame.weight + sum(c.residual for c in frame.uncut_children())
        while rest > self.limit:
            freed = self._pack_rightmost_run(frame, rest)
            if freed == 0:
                raise InfeasiblePartitioningError(
                    f"node {frame.node_id} cannot be reduced below K={self.limit}",
                    node_id=frame.node_id,
                )
            rest -= freed
        return ChildSummary(frame.node_id, frame.weight, residual=rest)

    def _pack_rightmost_run(self, frame: Frame, rest: int) -> int:
        """One right-to-left run, mirroring the batch RS inner loop."""
        kids = frame.children
        end = len(kids) - 1
        while end >= 0 and kids[end].emitted:
            end -= 1
        if end < 0:
            return 0
        weight = kids[end].residual
        remaining = rest - weight
        begin = end
        while remaining > self.limit and begin > 0:
            prev = kids[begin - 1]
            if prev.emitted or weight + prev.residual > self.limit:
                break
            begin -= 1
            weight += prev.residual
            remaining -= prev.residual
        for i in range(begin, end + 1):
            kids[i].emitted = True
        self.emit(SiblingInterval(kids[begin].node_id, kids[end].node_id), weight)
        return weight

    def spill(self, frame: Frame) -> int:
        """Spill one run packed to the limit (no residual target)."""
        kids = frame.children
        end = len(kids) - 1
        while end >= 0 and kids[end].emitted:
            end -= 1
        if end < 0:
            return 0
        weight = kids[end].residual
        begin = end
        while begin > 0:
            prev = kids[begin - 1]
            if prev.emitted or weight + prev.residual > self.limit:
                break
            begin -= 1
            weight += prev.residual
        for i in range(begin, end + 1):
            kids[i].emitted = True
        self.emit(SiblingInterval(kids[begin].node_id, kids[end].node_id), weight)
        return weight


class EKMStreamStrategy(StreamStrategy):
    """Streaming enhanced Kundu-Misra: binary cuts at parent close.

    When an element closes, its children are processed right-to-left —
    exactly binary postorder for that sibling group — computing each
    child's binary residual and cutting the heavier binary edge while the
    residual exceeds the limit (ties prefer the left/first-child edge,
    like the batch implementation).
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
                    self.emit(
                        SiblingInterval(child.first_child, child.first_chain_end),
                        left,
                    )
                    child.res_first = 0
                else:
                    nxt = kids[i + 1]
                    self.emit(SiblingInterval(nxt.node_id, chain_end_next), right)
                    nxt.emitted = True
                    res_next = 0
                    chain_end_next = -1
                rest = child.own_weight + child.res_first + res_next
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


STRATEGY_CLASSES: dict[str, type[StreamStrategy]] = {
    cls.name: cls
    for cls in (KMStreamStrategy, RSStreamStrategy, EKMStreamStrategy)
}
