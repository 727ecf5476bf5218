"""Direct unit tests of the shared DP core (FlatDP internals)."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.partition.flatdp import (
    CARD,
    INFEASIBLE_ENTRY,
    FlatDP,
    ROOTWEIGHT,
    chain_intervals,
    solve_shape,
)


class TestEntries:
    def test_leaf_entry(self):
        # a leaf's solution is the childless table's base entry
        entry = FlatDP([], limit=10).top_entry(7)
        assert entry[CARD] == 0
        assert entry[ROOTWEIGHT] == 7
        assert chain_intervals(entry) == []

    def test_infeasible_sentinel(self):
        assert INFEASIBLE_ENTRY[CARD] == float("inf")
        assert chain_intervals(INFEASIBLE_ENTRY) == []


class TestChainSharing:
    def test_candidate_one_shares_entries(self):
        """When the last child joins the root, the new cell must be the
        *same object* as the smaller subproblem's cell (no copying)."""
        dp = FlatDP([1], limit=10)
        top = dp.top_entry(3)
        assert top is dp.cols[0][4]  # shared with D(4, 0)

    def test_chain_reconstruction_order(self):
        # 4 children of weight 3, K=6, root weight 6: root takes nobody;
        # intervals (c1,c2) and (c3,c4).
        dp = FlatDP([3, 3, 3, 3], limit=6)
        entry = dp.top_entry(6)
        assert entry[CARD] == 2
        intervals = sorted(chain_intervals(entry))
        assert [(b, e) for b, e, _ in intervals] == [(0, 1), (2, 3)]

    def test_cardinality_counts_chain_length(self):
        dp = FlatDP([5, 5, 5], limit=5)
        entry = dp.top_entry(5)
        assert entry[CARD] == 3
        assert len(chain_intervals(entry)) == 3


class TestDeltas:
    def test_downgrade_enables_interval(self):
        """The Fig. 6 situation at flat-DP level: children 1,5,1 with
        ΔW = 4 for the middle one. Without downgrades three singleton
        intervals are needed; one downgrade merges them into a single
        interval plus the extra partition below — strictly better."""
        plain = FlatDP([1, 5, 1], limit=5)
        assert plain.top_entry(5)[CARD] == 3
        dp = FlatDP([1, 5, 1], limit=5, deltas=[0, 4, 0])
        entry = dp.top_entry(5)  # root is full
        assert entry[CARD] == 2
        ((begin, end, nearly),) = chain_intervals(entry)
        assert (begin, end) == (0, 2)
        assert nearly == (1,)

    def test_downgrade_not_used_when_needless(self):
        dp = FlatDP([2, 2], limit=6, deltas=[1, 1])
        entry = dp.top_entry(6)
        for _b, _e, nearly in chain_intervals(entry):
            assert nearly == ()

    def test_picks_cache_consistency(self):
        """Cells computed for different root weights share pick sets; the
        cached result must match a cold computation."""
        weights = [3, 4, 5, 2, 6]
        deltas = [2, 3, 4, 1, 5]
        dp1 = FlatDP(weights, limit=8, deltas=deltas)
        a1 = dp1.top_entry(1)
        a2 = dp1.top_entry(5)  # second base reuses the cache
        dp2 = FlatDP(weights, limit=8, deltas=deltas)
        b2 = dp2.top_entry(5)  # cold
        assert a2[CARD] == b2[CARD]
        assert a2[ROOTWEIGHT] == b2[ROOTWEIGHT]

    def test_zero_delta_children_never_picked(self):
        dp = FlatDP([4, 4, 4], limit=8, deltas=[0, 4, 0])
        entry = dp.top_entry(8)
        for _b, _e, nearly in chain_intervals(entry):
            for idx in nearly:
                assert dp.deltas[idx] > 0


class TestRandomizedAgainstBrute:
    def test_flat_dp_equals_oracle_via_trees(self):
        from repro.partition.brute import brute_force_optimal
        from repro.tree.node import Tree

        rng = random.Random(777)
        for _ in range(60):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(0, 7))]
            root_w = rng.randint(1, 5)
            limit = rng.randint(max(weights + [root_w]), 11)
            tree = Tree("t", root_w)
            for i, w in enumerate(weights):
                tree.add_child(tree.root, f"c{i}", w)
            expected = brute_force_optimal(tree, limit)
            dp = FlatDP(weights, limit)
            entry = dp.top_entry(root_w)
            # +1: the oracle counts the root interval, the DP does not
            assert entry[CARD] + 1 == expected[0]
            assert entry[ROOTWEIGHT] == expected[1]


def table_record(own, weights, limit, deltas, exclude_endpoints):
    """The DHW record read off the Lemma-2 table alone (Lemma 4 as the
    paper states it) — what ``solve_shape`` may shortcut but not change."""
    dp = FlatDP(weights, limit, deltas=deltas, exclude_endpoints=exclude_endpoints)
    opt = dp.top_entry(own)
    near_chain, delta = None, 0
    near = dp.top_entry(own + limit - opt[ROOTWEIGHT] + 1)
    if near[CARD] == opt[CARD] + 1:
        near_chain = tuple(chain_intervals(near))
        delta = limit + 1 - near[ROOTWEIGHT]
    return (tuple(chain_intervals(opt)), opt[ROOTWEIGHT], near_chain, delta)


class TestSolveShape:
    @settings(max_examples=300, deadline=None)
    @given(
        own=st.integers(1, 6),
        children=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=8),
        slack=st.integers(0, 6),
        exclude_endpoints=st.booleans(),
    )
    def test_fitting_shapes_match_the_table(self, own, children, slack, exclude_endpoints):
        """Shapes whose collapsed weight fits K take the closed-form
        Lemma-4 record (all child weights positive) or the table (a
        zero-weight child ties); either way the record is the table's."""
        weights = [w for w, _ in children]
        deltas = [min(d, w) for w, d in children]  # ΔW never exceeds the weight
        limit = own + sum(weights) + slack
        got = solve_shape(own, weights, limit, deltas, exclude_endpoints)
        assert got == table_record(own, weights, limit, deltas, exclude_endpoints)
        assert got[0] == () and got[1] == own + sum(weights)

    def test_over_capacity_shapes_match_the_table(self):
        rng = random.Random(11)
        for _ in range(200):
            weights = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
            deltas = [rng.randint(0, w - 1) for w in weights]
            own = rng.randint(1, 6)
            limit = rng.randint(max(weights + [own]), own + sum(weights))
            ee = rng.random() < 0.5
            assert solve_shape(own, weights, limit, deltas, ee) == table_record(
                own, weights, limit, deltas, ee
            )
