"""Shared dynamic-programming core for FDW, GHDW and DHW (paper Sec. 3).

The table of the paper's Fig. 4/5/7 is realized by :class:`FlatDP`. One
instance solves the *flat* subproblem for a single parent: given the
sequence of (collapsed) child weights ``cw[0..n-1]`` and a weight limit
``K``, compute for a requested base root weight ``s`` an optimal
partitioning of the flat tree ``T^s_n`` — minimal in the number of
sibling intervals among the children, and *lean* (minimal root-partition
weight) among those.

Entries ``D(s, j)`` follow Lemma 2: either the last child ``c_j`` joins
the root partition (the entry of ``D(s + cw_j, j-1)`` is shared), or a new
interval ``(c_{j-m}, c_j)`` is appended to ``D(s, j-m-1)``.

Memoization (Sec. 3.2.3 / 3.3.6): instead of filling all ``K`` rows, only
the ``s`` values reachable from the requested bases are materialized. New
bases (DHW's inflated root weights, Lemma 4) can be added lazily via
:meth:`FlatDP.top_entry`.

For DHW, per-child ``deltas`` (the ``ΔW`` values) enable *nearly-optimal*
downgrades inside interval candidates (Lemma 5): when an interval's
optimal weight exceeds ``K`` but its best-case weight ``w - Σ ΔW`` does
not, members are greedily switched to their nearly-optimal subtree
partitioning in order of descending ``ΔW``, each switch costing one extra
partition.

Candidate 2's scan — interval weights, the feasibility break and, in
deltas mode, the Lemma-5 downgrade picks — does not depend on the row's
base root weight ``s``: the interval ``(c_{j-m}, c_j)`` has the same
weight and the same pick set in every row. The first cell of column
``j`` therefore materializes a candidate list — begin index, card
increment, downgrade picks — and every later row replays it with a chain
lookup and the card/lean comparison (wide nodes pay the scan once per *column*, not once
per *cell*). Picks are maintained incrementally: extending the interval
head admits one candidate, inserted with :func:`bisect.insort` into a
``(-delta, index)``-ordered pool — descending ``ΔW``, ties by ascending
child index. ``tests/partition/oracles.py`` keeps the un-hoisted
per-cell scan as the reference this must match entry for entry.

Entries are plain tuples ``(card, rootweight, begin, end, nearlyopt,
next_entry)``:

``card``
    number of intervals created among the children *plus* one per
    nearly-optimal downgrade (the paper's ``card`` field, normalized so
    the empty base entry has card 0),
``rootweight``
    weight of the root partition of this sub-solution,
``begin, end``
    0-based child indices of the interval this entry appended (``None``
    for base entries),
``nearlyopt``
    tuple of 0-based child indices downgraded to nearly-optimal,
``next_entry``
    the rest of the interval chain (object reference; ``None`` for base
    entries).
"""

from __future__ import annotations

from bisect import insort
from typing import Optional, Sequence

INF = float("inf")

# Tuple field indices, for readability at use sites.
CARD, ROOTWEIGHT, BEGIN, END, NEARLYOPT, NEXT = range(6)

#: Sentinel for "no feasible partitioning of this subproblem".
INFEASIBLE_ENTRY = (INF, INF, None, None, (), None)

Entry = tuple

#: per-column candidate tuple: (column of D(·, begin), begin index, card
#: increment, downgrades)
Candidate = tuple[dict, int, int, tuple[int, ...]]


class FlatDP:
    """Memoized dynamic-programming table for one flat (sub)tree.

    Parameters
    ----------
    child_weights:
        ``cw[i]`` is the weight of child ``c_{i+1}`` — the plain node
        weight for true flat trees (FDW), or the collapsed optimal root
        weight of the child's subtree for deep trees (GHDW/DHW).
    limit:
        The weight limit ``K``.
    deltas:
        Optional ``ΔW`` per child (DHW only). ``None`` disables
        nearly-optimal downgrades (FDW/GHDW behaviour).
    """

    __slots__ = (
        "cw",
        "limit",
        "deltas",
        "exclude_endpoints",
        "cols",
        "needed",
        "cells_computed",
        "_candidates",
    )

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
        # Sec. 3.3.6: the first and last node of an interval never *need*
        # a nearly-optimal subtree partitioning — an optimal one always
        # suffices for a globally optimal solution — so they can be left
        # out of the downgrade candidate list.
        self.exclude_endpoints = exclude_endpoints
        n = len(self.cw)
        self.cols: list[dict[int, Entry]] = [{} for _ in range(n + 1)]
        self.needed: list[set[int]] = [set() for _ in range(n + 1)]
        #: number of table cells materialized (memoization statistics, A2)
        self.cells_computed = 0
        # The s-independent candidate-2 list of each column, built by the
        # column's first cell and replayed by every later row.
        self._candidates: list[Optional[list[Candidate]]] = [None] * (n + 1)

    @property
    def n(self) -> int:
        return len(self.cw)

    def top_entry(self, base_s: int) -> Entry:
        """The entry ``D(base_s, n)``, i.e. the best partitioning of the
        flat tree whose root (including everything already committed to
        the root partition) weighs ``base_s``.

        Returns :data:`INFEASIBLE_ENTRY` if ``base_s`` exceeds the limit
        or no feasible solution exists.
        """
        if base_s > self.limit:
            return INFEASIBLE_ENTRY
        n = self.n
        if base_s not in self.needed[n]:
            self._extend(base_s)
        return self.cols[n][base_s]

    # ------------------------------------------------------------------
    # internals

    def _extend(self, base_s: int) -> None:
        """Propagate a new base ``s`` value down the columns and fill the
        newly needed cells bottom-up with the Lemma 2 recurrence."""
        n = self.n
        cw = self.cw
        limit = self.limit
        cols = self.cols
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
        col = cols[0]
        for s in new_per_col[0]:
            col[s] = (0, s, None, None, (), None)
        self.cells_computed += len(new_per_col[0])
        for j in range(1, n + 1):
            fresh = new_per_col[j]
            if not fresh:
                continue
            self.cells_computed += len(fresh)
            candidates = self._candidates[j]
            if candidates is None:
                candidates = self._candidates[j] = self._scan_column(j)
            col = cols[j]
            joined = cols[j - 1]
            w = cw[j - 1]
            end = j - 1
            for s in fresh:
                # Candidate 1: c_j joins the root partition — share
                # D(s + cw_j, j-1).
                s2 = s + w
                best = joined[s2] if s2 <= limit else INFEASIBLE_ENTRY
                best_card = best[CARD]
                best_rw = best[ROOTWEIGHT]
                # Candidate 2: append an interval (c_{j-m}, c_j) to
                # D(s, j-m-1), replaying the column's candidate list.
                for prev_col, idx, extra, nearlyopt in candidates:
                    prev = prev_col[s]
                    prev_card = prev[CARD]
                    if prev_card is INF:
                        continue
                    crd = prev_card + extra
                    rw = prev[ROOTWEIGHT]
                    if crd < best_card or (crd == best_card and rw < best_rw):
                        best_card = crd
                        best_rw = rw
                        best = (crd, rw, idx, end, nearlyopt, prev)
                col[s] = best

    def _scan_column(self, j: int) -> list[Candidate]:
        """The s-independent part of candidate 2 for column ``j``, shortest
        interval first (ties between equal entries go to the shorter one)."""
        cw = self.cw
        cols = self.cols
        deltas = self.deltas
        limit = self.limit
        out: list[Candidate] = []
        w = 0
        max_m = j if j < limit else limit
        if deltas is None:
            for m in range(max_m):
                idx = j - m - 1  # 0-based index of the interval's first child
                w += cw[idx]
                if w > limit:
                    break
                out.append((cols[idx], idx, 1, ()))
            return out
        exclude = self.exclude_endpoints
        # Downgrade candidates ordered by (delta desc, index asc).
        pool: list[tuple[int, int]] = []
        dw = 0
        for m in range(max_m):
            idx = j - m - 1
            w += cw[idx]
            dw += deltas[idx]
            if w - dw > limit:
                # Even downgrading every member cannot make the interval
                # fit; wider intervals only get heavier.
                break
            if exclude:
                # Candidates are begin+1 .. j-2, so extending the head by
                # one admits the *previous* head (none before m == 2).
                if m >= 2:
                    joined = idx + 1
                    if deltas[joined] > 0:
                        insort(pool, (-deltas[joined], joined))
            elif deltas[idx] > 0:
                insort(pool, (-deltas[idx], idx))
            if w <= limit:
                out.append((cols[idx], idx, 1, ()))
                continue
            picks = self._walk_picks(pool, w)
            if picks is not None:
                out.append((cols[idx], idx, 1 + len(picks), picks))
        return out

    def _walk_picks(
        self, pool: list[tuple[int, int]], w: int
    ) -> Optional[tuple[int, ...]]:
        """Greedy downgrade selection off the sorted pool: members switch
        to their nearly-optimal subtree partitioning in order of descending
        ``ΔW`` until the interval fits (Lemma 5 statement 2). ``None`` if
        it never does."""
        limit = self.limit
        picks: list[int] = []
        for neg_delta, i in pool:
            if w <= limit:
                break
            w += neg_delta
            picks.append(i)
        if w > limit:
            return None
        return tuple(picks)


#: solved-shape record ``(opt_chain, opt_rootweight, near_chain, delta)``:
#: chains are :func:`chain_intervals` triples in child-index space, so a
#: record replays on every node of the same shape (``ShapeCache``);
#: ``near_chain`` is ``None`` where no nearly-optimal variant exists
OPT_CHAIN, OPT_RW, NEAR_CHAIN, DELTA = range(4)

Record = tuple


def solve_shape(
    own_weight: int,
    child_weights: list[int],
    limit: int,
    child_deltas: Optional[list[int]] = None,
    exclude_endpoints: bool = False,
    stats=None,
) -> Record:
    """Solve one inner node's flat subproblem into a :data:`Record`.

    ``child_deltas`` selects the algorithm: ``None`` is the plain DP of
    FDW/GHDW (no nearly-optimal variant), a list is DHW, which also reads
    the Lemma-4 variant off the same table. ``stats`` (a ``DHWStats`` /
    ``GHDWStats``) is charged for the table when given.
    """
    total = own_weight + sum(child_weights)
    fits = total <= limit
    if fits and child_deltas is not None and child_weights and min(child_weights) > 0:
        # Lemma 4 in closed form. The optimum keeps the whole subtree in
        # the root partition; at the inflated base ``s_q = K + 1 - (W - w)``
        # nothing fits beside the root without an interval, and the leanest
        # single interval is the one holding every child — any other leaves
        # a positive weight behind. (A zero-weight child makes that a tie,
        # which stays the table's to break.)
        return ((), total, ((0, len(child_weights) - 1, ()),), total - own_weight)
    dp = FlatDP(child_weights, limit, deltas=child_deltas, exclude_endpoints=exclude_endpoints)
    if fits:
        # Candidate 1 of Lemma 2 is feasible at every step, so the table's
        # answer is the cardinality-0 base entry with root weight W_T(v).
        opt_chain: tuple = ()
        opt_rw = total
        opt_card = 0
    else:
        opt = dp.top_entry(own_weight)
        assert opt[CARD] is not INF, "flat subproblem must be feasible"
        opt_chain = tuple(chain_intervals(opt))
        opt_rw = opt[ROOTWEIGHT]
        opt_card = opt[CARD]
    near_chain = None
    delta = 0
    if child_deltas is not None:
        # Lemma 4: the nearly-optimal variant — exactly one more partition,
        # minimal root weight — is the table's entry at the inflated base,
        # which makes every minimal-cardinality solution infeasible.
        s_q = own_weight + limit - opt_rw + 1
        if s_q <= limit:
            near = dp.top_entry(s_q)
            if near[CARD] is not INF:
                # The lean argument of Lemma 4 rules out anything smaller;
                # anything larger is not nearly minimal and is discarded.
                assert near[CARD] >= opt_card + 1
                if near[CARD] == opt_card + 1:
                    near_chain = tuple(chain_intervals(near))
                    # the entry carries the inflated base, so the saving
                    # is K + 1 - rootweight, not opt_rw - rootweight
                    delta = limit + 1 - near[ROOTWEIGHT]
                    assert delta > 0
    if stats is not None:
        stats.dp_cells += dp.cells_computed
        stats.s_values_per_node.append(len(set().union(*dp.needed)))
    return (opt_chain, opt_rw, near_chain, delta)


def chain_intervals(entry: Entry) -> list[tuple[int, int, tuple[int, ...]]]:
    """Walk an entry's ``next`` chain and collect its intervals.

    Returns ``(begin, end, nearlyopt)`` triples of 0-based child indices,
    in right-to-left construction order. Base entries contribute nothing.
    """
    out: list[tuple[int, int, tuple[int, ...]]] = []
    cur: Optional[Entry] = entry
    while cur is not None:
        if cur[BEGIN] is not None:
            out.append((cur[BEGIN], cur[END], cur[NEARLYOPT]))
        cur = cur[NEXT]
    return out
