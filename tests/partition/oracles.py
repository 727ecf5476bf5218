"""Legible reference implementations (test oracles).

FDW / GHDW / DHW: the per-node, object-graph versions of the paper's
Fig. 4/5/7 that production ran before the flat-array kernel became the
only path: one :class:`ReferenceFlatDP` per inner node, a postorder walk
over ``TreeNode`` objects, and the Lemma-2 candidate scan recomputed for
every cell. They are slow and easy to read, which is the point — beside
:mod:`repro.partition.brute` they are what the kernel in
``src/repro/partition`` is pinned against (``test_equivalence.py``,
``test_activation.py``): same partitionings interval for interval, same
``Decision`` provenance, same nearly-optimal statistics.

KM / RS / EKM: the batch loops production ran before the heuristics
became cut strategies (:mod:`repro.partition.streaming`) — a postorder
walk with a residual per node id, and for EKM a walk over the
left-child / right-sibling binary view. Both ``partition_tree`` and
unspilled bulkloader imports are pinned against them.

The classes are *not* registered in ``ALGORITHMS``; they reuse the
production names so ``Partitioner.partition`` wraps them identically
(spans, contract check, ``PartitionExplain.algorithm``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import InfeasiblePartitioningError, TreeError
from repro.obsv import explain
from repro.partition.base import Partitioner
from repro.partition.dhw import DHWStats
from repro.partition.flatdp import (
    CARD,
    INF,
    INFEASIBLE_ENTRY,
    ROOTWEIGHT,
    Entry,
    chain_intervals,
)
from repro.partition.ghdw import GHDWStats
from repro.partition.interval import Partitioning, SiblingInterval
from repro.tree.node import Tree, TreeNode
from repro.tree.traversal import iter_postorder


class ReferenceFlatDP:
    """The un-hoisted Lemma-2 table: every cell rescans its intervals."""

    def __init__(
        self,
        child_weights: Sequence[int],
        limit: int,
        deltas: Optional[Sequence[int]] = None,
        exclude_endpoints: bool = False,
    ):
        self.cw = list(child_weights)
        self.limit = limit
        self.deltas = list(deltas) if deltas is not None else None
        self.exclude_endpoints = exclude_endpoints
        n = len(self.cw)
        self.cols: list[dict[int, Entry]] = [{} for _ in range(n + 1)]
        self.needed: list[set[int]] = [set() for _ in range(n + 1)]
        self.cells_computed = 0

    @property
    def n(self) -> int:
        return len(self.cw)

    def top_entry(self, base_s: int) -> Entry:
        if base_s > self.limit:
            return INFEASIBLE_ENTRY
        n = self.n
        if base_s not in self.needed[n]:
            self._extend(base_s)
        return self.cols[n][base_s]

    def _extend(self, base_s: int) -> None:
        """Propagate a new base ``s`` value down the columns and fill the
        newly needed cells bottom-up."""
        n = self.n
        cw = self.cw
        limit = self.limit
        new_per_col: list[set[int]] = [set() for _ in range(n + 1)]
        new_per_col[n] = {base_s}
        self.needed[n].add(base_s)
        for j in range(n, 0, -1):
            w = cw[j - 1]
            below = self.needed[j - 1]
            fresh = set()
            for s in new_per_col[j]:
                if s not in below:
                    fresh.add(s)
                s2 = s + w
                if s2 <= limit and s2 not in below:
                    fresh.add(s2)
            new_per_col[j - 1] = fresh
            below.update(fresh)
        for s in new_per_col[0]:
            self.cols[0][s] = (0, s, None, None, (), None)
            self.cells_computed += 1
        for j in range(1, n + 1):
            col = self.cols[j]
            for s in new_per_col[j]:
                col[s] = self._compute(s, j)
                self.cells_computed += 1

    def _compute(self, s: int, j: int) -> Entry:
        """Lemma 2 recurrence for cell ``D(s, j)``."""
        cw = self.cw
        cols = self.cols
        limit = self.limit
        deltas = self.deltas

        # Candidate 1: c_j joins the root partition — share D(s + cw_j, j-1).
        s2 = s + cw[j - 1]
        best = cols[j - 1][s2] if s2 <= limit else INFEASIBLE_ENTRY
        best_card = best[CARD]
        best_rw = best[ROOTWEIGHT]

        # Candidate 2: append an interval (c_{j-m}, c_j) to D(s, j-m-1).
        w = 0
        dw = 0
        max_m = j if j < limit else limit
        for m in range(max_m):
            idx = j - m - 1  # 0-based index of the interval's first child
            w += cw[idx]
            if deltas is None:
                if w > limit:
                    break
                nearlyopt: tuple[int, ...] = ()
                extra = 1
            else:
                dw += deltas[idx]
                if w - dw > limit:
                    # Even downgrading every member cannot make the
                    # interval fit; wider intervals only get heavier.
                    break
                if w <= limit:
                    nearlyopt = ()
                    extra = 1
                else:
                    picks = self._pick_nearly_optimal(idx, j, w)
                    if picks is None:
                        continue
                    nearlyopt = picks
                    extra = 1 + len(picks)
            prev = cols[idx][s]
            prev_card = prev[CARD]
            if prev_card is INF:
                continue
            crd = prev_card + extra
            rw = prev[ROOTWEIGHT]
            if crd < best_card or (crd == best_card and rw < best_rw):
                best_card = crd
                best_rw = rw
                best = (crd, rw, idx, j - 1, nearlyopt, prev)
        return best

    def _pick_nearly_optimal(self, begin: int, j: int, w: int) -> Optional[tuple[int, ...]]:
        """Greedy downgrade selection for interval members ``begin..j-1``.

        Members are switched to nearly-optimal subtree partitionings in
        order of descending ``ΔW`` until the interval weight drops to the
        limit (Lemma 5 statement 2). Returns ``None`` if infeasible.
        """
        deltas = self.deltas
        assert deltas is not None
        candidates = range(begin + 1, j - 1) if self.exclude_endpoints else range(begin, j)
        order = sorted(
            (i for i in candidates if deltas[i] > 0),
            key=lambda i: deltas[i],
            reverse=True,
        )
        picks: list[int] = []
        limit = self.limit
        for i in order:
            if w <= limit:
                break
            w -= deltas[i]
            picks.append(i)
        if w > limit:
            return None
        return tuple(picks)


def _leaf_entry(weight: int) -> Entry:
    """The trivial solution for a leaf subtree: empty chain, root weight
    equal to the node weight."""
    return (0, weight, None, None, (), None)


def _distinct_s(dp: ReferenceFlatDP) -> int:
    return len(set().union(*dp.needed))


class ReferenceFDW(Partitioner):
    """Fig. 4: one DP over the root's children (flat trees only)."""

    name = "fdw"
    optimal = True

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        root = tree.root
        for child in root.children:
            if child.children:
                raise TreeError(
                    "fdw_partition_flat requires a flat tree (all children are leaves)"
                )
        dp = ReferenceFlatDP([c.weight for c in root.children], limit)
        entry = dp.top_entry(root.weight)
        if entry is INFEASIBLE_ENTRY:  # cannot happen after the weight checks
            raise InfeasiblePartitioningError("no feasible flat partitioning exists")
        intervals = {SiblingInterval(root.node_id, root.node_id)}
        for begin, end, _nearly in chain_intervals(entry):
            intervals.add(
                SiblingInterval(root.children[begin].node_id, root.children[end].node_id)
            )
            if explain.explaining():
                explain.decision(
                    root.children[begin].node_id,
                    "fdw-dp",
                    begin=begin,
                    end=end,
                    children=end - begin + 1,
                )
        return Partitioning(intervals)


class ReferenceGHDW(Partitioner):
    """Sec. 3.3.1: the flat DP bottom-up over collapsed child weights."""

    name = "ghdw"
    optimal = False

    def __init__(self) -> None:
        self.stats = GHDWStats()

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        entries: list[Optional[Entry]] = [None] * len(tree)
        intervals = {SiblingInterval(tree.root.node_id, tree.root.node_id)}
        for node in iter_postorder(tree):
            if not node.children:
                entries[node.node_id] = _leaf_entry(node.weight)
                continue
            child_weights = [entries[c.node_id][ROOTWEIGHT] for c in node.children]
            dp = ReferenceFlatDP(child_weights, limit)
            entry = dp.top_entry(node.weight)
            assert entry[CARD] is not INF, "GHDW subproblem must be feasible"
            entries[node.node_id] = entry
            for begin, end, _nearly in chain_intervals(entry):
                intervals.add(
                    SiblingInterval(
                        node.children[begin].node_id, node.children[end].node_id
                    )
                )
                if explain.explaining():
                    explain.decision(
                        node.children[begin].node_id,
                        "ghdw-dp",
                        parent=node.node_id,
                        children=end - begin + 1,
                    )
            self.stats.dp_cells += dp.cells_computed
            self.stats.inner_nodes += 1
            self.stats.s_values_per_node.append(_distinct_s(dp))
        return Partitioning(intervals)


class ReferenceDHW(Partitioner):
    """Fig. 7: the paper's optimal ``O(n·K³)`` algorithm, node by node."""

    name = "dhw"
    optimal = True

    def __init__(self, exclude_endpoints: bool = False):
        self.exclude_endpoints = exclude_endpoints
        self.stats = DHWStats()

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        n = len(tree)
        opt_entries: list[Optional[Entry]] = [None] * n
        near_entries: list[Optional[Entry]] = [None] * n
        deltas = [0] * n
        self._dp_pass(tree, limit, opt_entries, near_entries, deltas)
        intervals = self._extract(tree, opt_entries, near_entries)
        if explain.explaining():
            explain.note("dhw.nearly_optimal_exists", self.stats.nearly_optimal_exists)
            explain.note("dhw.nearly_optimal_used", self.stats.nearly_optimal_used)
        return Partitioning(intervals)

    def _dp_pass(
        self,
        tree: Tree,
        limit: int,
        opt_entries: list[Optional[Entry]],
        near_entries: list[Optional[Entry]],
        deltas: list[int],
    ) -> None:
        """Fill the per-node optimal/nearly-optimal entry tables."""
        for node in iter_postorder(tree):
            nid = node.node_id
            if not node.children:
                opt_entries[nid] = _leaf_entry(node.weight)
                continue
            child_weights = [opt_entries[c.node_id][ROOTWEIGHT] for c in node.children]
            child_deltas = [deltas[c.node_id] for c in node.children]
            dp = ReferenceFlatDP(
                child_weights,
                limit,
                deltas=child_deltas,
                exclude_endpoints=self.exclude_endpoints,
            )
            opt = dp.top_entry(node.weight)
            assert opt[CARD] is not INF, "DHW subproblem must be feasible"
            opt_entries[nid] = opt

            # Lemma 4: the nearly-optimal variant from the inflated base.
            s_q = node.weight + limit - opt[ROOTWEIGHT] + 1
            if s_q <= limit:
                near = dp.top_entry(s_q)
                if near[CARD] is not INF:
                    # A genuine nearly-minimal solution has exactly one
                    # extra partition; the lean argument of Lemma 4 rules
                    # out anything smaller, and anything larger is not
                    # nearly minimal and must be discarded.
                    assert near[CARD] >= opt[CARD] + 1
                    if near[CARD] == opt[CARD] + 1:
                        near_entries[nid] = near
                        deltas[nid] = limit + 1 - near[ROOTWEIGHT]
                        assert deltas[nid] > 0
            self.stats.dp_cells += dp.cells_computed
            self.stats.inner_nodes += 1
            if near_entries[nid] is not None:
                self.stats.nearly_optimal_exists += 1
            self.stats.s_values_per_node.append(_distinct_s(dp))

    def _extract(
        self,
        tree: Tree,
        opt_entries: list[Optional[Entry]],
        near_entries: list[Optional[Entry]],
    ) -> set[SiblingInterval]:
        """Walk top-down choosing D- or Q-chains (step 5 of the scheme)."""
        intervals = {SiblingInterval(tree.root.node_id, tree.root.node_id)}
        stack: list[tuple[int, bool]] = [(tree.root.node_id, False)]
        while stack:
            nid, use_near = stack.pop()
            node = tree.node(nid)
            entry = near_entries[nid] if use_near else opt_entries[nid]
            assert entry is not None
            if use_near:
                self.stats.nearly_optimal_used += 1
            near_children: set[int] = set()
            for begin, end, nearly in chain_intervals(entry):
                intervals.add(
                    SiblingInterval(
                        node.children[begin].node_id, node.children[end].node_id
                    )
                )
                near_children.update(nearly)
                if explain.explaining():
                    explain.decision(
                        node.children[begin].node_id,
                        "dhw-dp",
                        parent=node.node_id,
                        children=end - begin + 1,
                        q_chain=use_near,
                        downgraded=len(nearly),
                    )
            for idx, child in enumerate(node.children):
                stack.append((child.node_id, idx in near_children))
        return intervals


class ReferenceKM(Partitioner):
    """Sec. 4.3.3: cut the heaviest child subtree until the residual fits."""

    name = "km"
    main_memory_friendly = True

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        residual = [0] * len(tree)
        intervals = {SiblingInterval(tree.root.node_id, tree.root.node_id)}
        for node in iter_postorder(tree):
            rest = node.weight + sum(residual[c.node_id] for c in node.children)
            if rest > limit:
                # Cut heaviest children first; ties resolved left-to-right
                # for determinism.
                by_weight = sorted(
                    node.children, key=lambda c: (-residual[c.node_id], c.index)
                )
                for child in by_weight:
                    if rest <= limit:
                        break
                    intervals.add(SiblingInterval(child.node_id, child.node_id))
                    rest -= residual[child.node_id]
                    if explain.explaining():
                        explain.decision(
                            child.node_id,
                            "km-cut",
                            parent=node.node_id,
                            cut_weight=residual[child.node_id],
                            rest=rest,
                            considered=len(by_weight),
                        )
            residual[node.node_id] = rest
        return Partitioning(intervals)


class ReferenceRS(Partitioner):
    """Sec. 4.3.2: pack maximal rightmost sibling runs until the residual
    fits."""

    name = "rs"
    main_memory_friendly = True

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        residual = [0] * len(tree)
        intervals = {SiblingInterval(tree.root.node_id, tree.root.node_id)}
        for node in iter_postorder(tree):
            rest = node.weight + sum(residual[c.node_id] for c in node.children)
            right = len(node.children) - 1  # rightmost not-yet-cut child
            while rest > limit:
                # Start a new partition at the rightmost remaining child
                # and extend it leftward while the next sibling fits.
                end = right
                weight = residual[node.children[end].node_id]
                rest -= weight
                begin = end
                while (
                    rest > limit
                    and begin > 0
                    and weight + residual[node.children[begin - 1].node_id] <= limit
                ):
                    begin -= 1
                    w = residual[node.children[begin].node_id]
                    weight += w
                    rest -= w
                intervals.add(
                    SiblingInterval(
                        node.children[begin].node_id, node.children[end].node_id
                    )
                )
                if explain.explaining():
                    explain.decision(
                        node.children[begin].node_id,
                        "rs-pack",
                        parent=node.node_id,
                        run=end - begin + 1,
                        run_weight=weight,
                        rest=rest,
                    )
                right = begin - 1
            residual[node.node_id] = rest
        return Partitioning(intervals)


def _first_child(node: TreeNode) -> Optional[TreeNode]:
    """Left binary child: the first n-ary child, if any."""
    return node.children[0] if node.children else None


def _lcrs_postorder(tree: Tree) -> Iterator[TreeNode]:
    """Postorder of the left-child / right-sibling binary view (first
    child's binary subtree, next sibling's, then the node)."""
    stack: list[tuple[TreeNode, bool]] = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            rs = node.next_sibling()
            if rs is not None:
                stack.append((rs, False))
            lc = _first_child(node)
            if lc is not None:
                stack.append((lc, False))


class ReferenceEKM(Partitioner):
    """Sec. 4.3.4: Kundu-Misra cuts on the binary view."""

    name = "ekm"
    main_memory_friendly = True

    def _partition(self, tree: Tree, limit: int) -> Partitioning:
        n = len(tree)
        residual = [0] * n
        cut = bytearray(n)  # 1 where the node's binary parent edge is cut
        for node in _lcrs_postorder(tree):
            rest = node.weight
            kids = []
            lc = _first_child(node)
            if lc is not None:
                kids.append(lc)
                rest += residual[lc.node_id]
            rs = node.next_sibling()
            if rs is not None:
                kids.append(rs)
                rest += residual[rs.node_id]
            while rest > limit and kids:
                # Cut the heavier binary child (the paper's Fig. 8 walk);
                # ties go to the left (first-child) edge for determinism.
                heaviest = max(kids, key=lambda k: residual[k.node_id])
                cut[heaviest.node_id] = 1
                rest -= residual[heaviest.node_id]
                kids.remove(heaviest)
                if explain.explaining():
                    explain.decision(
                        heaviest.node_id,
                        "ekm-cut",
                        parent=node.node_id,
                        edge="first-child" if heaviest is lc else "next-sibling",
                        cut_weight=residual[heaviest.node_id],
                        rest=rest,
                    )
            residual[node.node_id] = rest
        cut[tree.root.node_id] = 1

        # Each cut node roots a component; its interval extends through
        # consecutive right siblings whose own binary parent edge is uncut.
        intervals = set()
        for node in tree:
            if not cut[node.node_id]:
                continue
            end = node
            while True:
                sib = end.next_sibling()
                if sib is None or cut[sib.node_id]:
                    break
                end = sib
            intervals.add(SiblingInterval(node.node_id, end.node_id))
        return Partitioning(intervals)


#: the batch oracle of each main-memory friendly heuristic, by name
HEURISTIC_ORACLES: dict[str, type[Partitioner]] = {
    "km": ReferenceKM,
    "rs": ReferenceRS,
    "ekm": ReferenceEKM,
}
