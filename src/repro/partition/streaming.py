"""KM, RS and EKM: the main-memory friendly heuristics (paper Sec. 4.1, 4.3).

The paper defines these heuristics by one property: every cut is decided
when a subtree closes, from a few numbers per already-closed child. Each
heuristic is therefore written once, as a cut strategy over node ids: it
keeps those numbers in columns indexed by node id (``residual``, a
``cut`` flag, and for EKM the first-child chain), and when an element
closes it reads its children's entries, emits the partitions it decides
on right now and writes the element's own entry for its parent. Everything
an emitted partition needs has already been seen, and nothing about it is
needed later.

Two drivers close the elements:

* :class:`StreamingPartitioner` walks the :class:`~repro.tree.flat.FlatWeights`
  columns of an in-memory :class:`Tree` in descending node-id order —
  every construction path creates a parent before its children, so all
  children of a node have closed when it is reached — and is what
  ``partition_tree(tree, K, "km" | "rs" | "ekm")`` runs;
* the bulkloader (:mod:`repro.bulkload.importer`) adds each parsed node's
  column entries, closes an element per parser end-tag and, under its
  spill threshold, also forces partitions out of elements that are still
  open (:meth:`StreamStrategy.spill`).

Without spills both drivers make the same decisions; tests pin them
against the batch loops kept as oracles in ``tests/partition/oracles.py``.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional

from repro.errors import InfeasiblePartitioningError
from repro.partition import explain
from repro.partition.base import Partitioner, register, reject_overweight
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.flat import FlatWeights
from repro.tree.node import Tree

#: callback: (interval, freed_weight) -> None
EmitFn = Callable[[SiblingInterval, int], None]


class StreamStrategy(abc.ABC):
    """One main-memory friendly cut rule.

    A driver appends every new node's weight to ``residual`` and a 0 to
    ``cut``, in id order. ``close`` / ``spill`` / ``spillable_weight``
    take an element's id and the ids of its closed children in sibling
    order; children are leaves or elements whose ``close`` already ran.
    """

    name: str = "abstract"

    def __init__(self, limit: int, emit: EmitFn):
        self.limit = limit
        self.emit = emit
        #: per node id, the weight the node still adds to its parent's
        #: partition: ``w(v)`` until it closes, then its uncut subtree
        #: (KM / RS) or itself plus its uncut first-child chain (EKM,
        #: which overwrites it with the binary residual when the parent
        #: closes)
        self.residual: list[int] = []
        #: per node id, 1 once a partition starting at the node was emitted
        self.cut = bytearray()

    @abc.abstractmethod
    def close(self, node_id: int, children: list[int]) -> None:
        """Handle a closing element: emit partitions, set its entries."""

    def finish(self, root: int) -> None:
        """Last decisions once the root has closed (the root has no
        parent whose close could cut below it)."""

    @abc.abstractmethod
    def spill(self, node_id: int, children: list[int]) -> int:
        """Emit one partition from an *open* element to free memory.

        Returns the freed weight (0 if nothing can be spilled here).
        """

    def spillable_weight(self, node_id: int, children: list[int]) -> int:
        """Weight a spill on this element could free (for its selection)."""
        residual, cut = self.residual, self.cut
        return sum([residual[c] for c in children if not cut[c]])

    def _pack_rightmost_run(
        self, children: list[int], rest: float
    ) -> Optional[tuple[int, int, int]]:
        """Emit the rightmost run of uncut children, extended leftward
        while the next sibling fits and ``rest`` minus the run still
        exceeds the limit; returns (left id, length, weight) of the run,
        or None when every child is cut."""
        residual, cut, limit = self.residual, self.cut, self.limit
        end = len(children) - 1
        while end >= 0 and cut[children[end]]:
            end -= 1
        if end < 0:
            return None
        weight = residual[children[end]]
        begin = end
        while rest - weight > limit and begin > 0:
            prev = children[begin - 1]
            if cut[prev] or weight + residual[prev] > limit:
                break
            begin -= 1
            weight += residual[prev]
        for i in range(begin, end + 1):
            cut[children[i]] = 1
        self.emit(SiblingInterval(children[begin], children[end]), weight)
        return children[begin], end - begin + 1, weight


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

    def close(self, node_id: int, children: list[int]) -> None:
        residual, cut, limit = self.residual, self.cut, self.limit
        uncut = [c for c in children if not cut[c]]
        rest = residual[node_id] + sum([residual[c] for c in uncut])
        if rest > limit:
            # Heaviest first; the stable sort keeps ties left to right.
            by_weight = sorted(uncut, key=residual.__getitem__, reverse=True)
            for child in by_weight:
                if rest <= limit:
                    break
                weight = residual[child]
                self.emit(SiblingInterval(child, child), weight)
                rest -= weight
                cut[child] = 1
                if explain.explaining():
                    explain.decision(
                        child,
                        "km-cut",
                        parent=node_id,
                        cut_weight=weight,
                        rest=rest,
                        considered=len(by_weight),
                    )
        if rest > limit:
            raise InfeasiblePartitioningError(
                f"node {node_id} cannot be reduced below K={limit}",
                node_id=node_id,
            )
        residual[node_id] = rest

    def spill(self, node_id: int, children: list[int]) -> int:
        residual, cut = self.residual, self.cut
        candidates = [c for c in children if not cut[c]]
        if not candidates:
            return 0
        child = max(candidates, key=residual.__getitem__)
        self.emit(SiblingInterval(child, child), residual[child])
        cut[child] = 1
        return residual[child]


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

    def close(self, node_id: int, children: list[int]) -> None:
        residual, cut = self.residual, self.cut
        rest = residual[node_id] + sum([residual[c] for c in children if not cut[c]])
        while rest > self.limit:
            run = self._pack_rightmost_run(children, rest)
            if run is None:
                raise InfeasiblePartitioningError(
                    f"node {node_id} cannot be reduced below K={self.limit}",
                    node_id=node_id,
                )
            left_id, size, weight = run
            rest -= weight
            if explain.explaining():
                explain.decision(
                    left_id,
                    "rs-pack",
                    parent=node_id,
                    run=size,
                    run_weight=weight,
                    rest=rest,
                )
        residual[node_id] = rest

    def spill(self, node_id: int, children: list[int]) -> int:
        """Spill one run packed to the limit (no residual target)."""
        run = self._pack_rightmost_run(children, math.inf)
        return 0 if run is None else run[2]


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
    The element keeps its uncut first-child chain in three more columns:
    ``first_child`` and ``first_chain_end`` (the chain's sibling
    interval, ``-1`` if none) and ``res_first`` (its binary residual).
    """

    name = "ekm"

    def __init__(self, limit: int, emit: EmitFn):
        super().__init__(limit, emit)
        self.res_first: list[int] = []
        self.first_child: list[int] = []
        self.first_chain_end: list[int] = []

    def _pad_chains(self) -> None:
        """No first-child chain for the nodes added since the columns were
        last read (drivers append only ``residual`` and ``cut``)."""
        missing = len(self.residual) - len(self.res_first)
        if missing:
            self.res_first += [0] * missing
            self.first_child += [-1] * missing
            self.first_chain_end += [-1] * missing

    def close(self, node_id: int, children: list[int]) -> None:
        self._pad_chains()
        residual, cut, limit = self.residual, self.cut, self.limit
        res_first = self.res_first
        res_next = 0  # binary residual of the (uncut) right sibling chain
        chain_end_next = -1  # last node of that chain
        for i in range(len(children) - 1, -1, -1):
            child = children[i]
            if cut[child]:
                if res_next > 0:
                    # Siblings that arrived *after* a spill emitted this
                    # component are orphans: their binary parent edge
                    # leads into an already-emitted partition, so no later
                    # cut could ever detach them. Emit the group as its
                    # own partition (this only happens after spills; pure
                    # close-time EKM never creates orphans).
                    orphan = children[i + 1]
                    self.emit(SiblingInterval(orphan, chain_end_next), res_next)
                    cut[orphan] = 1
                # The right edge of this child's left neighbour is
                # effectively cut.
                res_next = 0
                chain_end_next = -1
                continue
            # the child's weight plus its first-child chain, plus the right chain
            rest = residual[child] + res_next
            while rest > limit:
                left, right = res_first[child], res_next
                if left == 0 and right == 0:
                    raise InfeasiblePartitioningError(
                        f"node {child} cannot be reduced below K={limit}",
                        node_id=child,
                    )
                if left >= right:
                    cut_id = self.first_child[child]
                    self.emit(SiblingInterval(cut_id, self.first_chain_end[child]), left)
                    res_first[child] = 0
                    rest -= left
                else:
                    cut_id = children[i + 1]
                    self.emit(SiblingInterval(cut_id, chain_end_next), right)
                    cut[cut_id] = 1
                    res_next = 0
                    chain_end_next = -1
                    rest -= right
                if explain.explaining():
                    explain.decision(
                        cut_id,
                        "ekm-cut",
                        parent=child,
                        edge="first-child" if left >= right else "next-sibling",
                        cut_weight=max(left, right),
                        rest=rest,
                    )
            residual[child] = rest
            if res_next == 0 or chain_end_next == -1:
                chain_end_next = child
            res_next = rest
        if children and not cut[children[0]]:
            self.first_child[node_id] = children[0]
            self.first_chain_end[node_id] = chain_end_next
            res_first[node_id] = res_next
            residual[node_id] += res_next

    def finish(self, root: int) -> None:
        """The root's own binary residual check: its only binary child is
        the first-child chain, cut if the two together exceed ``K``."""
        self._pad_chains()
        chain = self.res_first[root]
        if chain and self.residual[root] > self.limit:
            first = self.first_child[root]
            self.emit(SiblingInterval(first, self.first_chain_end[root]), chain)
            if explain.explaining():
                explain.decision(
                    first,
                    "ekm-cut",
                    parent=root,
                    edge="first-child",
                    cut_weight=chain,
                    rest=self.residual[root] - chain,
                )

    def spill(self, node_id: int, children: list[int]) -> int:
        """Pack the rightmost run of closed children into one partition.

        Unlike close-time EKM the right-sibling chain is still growing, so
        the spilled run can never profit from siblings yet to come — the
        quality-for-memory trade of Sec. 4.3. Each child contributes its
        whole component (itself plus its uncut first-child chain); a child
        whose component alone exceeds the limit first sheds that chain as
        a separate partition. A component's weight is its ``residual``
        until the parent closes, so the run is packed as RS packs one.
        """
        self._pad_chains()
        for last in reversed(children):
            if not self.cut[last]:
                break
        else:
            return 0
        if self.residual[last] > self.limit:
            # The component is only over the limit because of its left
            # chain (its own weight <= K is checked upstream): emit the chain.
            freed = self.res_first[last]
            self.emit(
                SiblingInterval(self.first_child[last], self.first_chain_end[last]),
                freed,
            )
            self.res_first[last] = 0
            self.residual[last] -= freed
            return freed
        run = self._pack_rightmost_run(children, math.inf)
        return 0 if run is None else run[2]


class StreamingPartitioner(Partitioner):
    """A cut strategy driven over an in-memory tree's columns."""

    main_memory_friendly = True
    strategy: type[StreamStrategy]

    def _check_feasible(self, tree: Tree, limit: int) -> None:
        """:meth:`_partition` checks the flattened weight column."""

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        flat = FlatWeights(tree)
        reject_overweight(tree, flat.weight, limit)
        intervals = [SiblingInterval(0, 0)]
        strategy = self.strategy(limit, lambda interval, _freed: intervals.append(interval))
        strategy.residual += flat.weight
        strategy.cut += bytes(flat.n)
        close = strategy.close
        offset, child_ids = flat.child_offset, flat.child_ids
        # Children have larger ids than their parent, so descending ids
        # close every child before its parent; the CSR lists them in
        # sibling order, which need not be id order.
        for v in range(flat.n - 1, -1, -1):
            lo, hi = offset[v], offset[v + 1]
            if lo < hi:
                close(v, child_ids[lo:hi])
        strategy.finish(0)
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
