"""Frame-level unit tests for the streaming cut strategies."""

import pytest

from repro.partition.streaming import (
    ChildSummary,
    EKMStreamStrategy,
    Frame,
    KMStreamStrategy,
    RSStreamStrategy,
    STRATEGY_CLASSES,
)
from repro.errors import InfeasiblePartitioningError
from repro.partition.interval import SiblingInterval


class Collector:
    def __init__(self):
        self.emitted = []

    def __call__(self, interval, freed):
        self.emitted.append((interval, freed))


def leaf(node_id, weight):
    return ChildSummary(node_id=node_id, own_weight=weight, residual=weight)


class TestKMStrategy:
    def test_no_cut_when_fits(self):
        emit = Collector()
        strategy = KMStreamStrategy(10, emit)
        frame = Frame(node_id=0, weight=2, children=[leaf(1, 3), leaf(2, 3)])
        summary = strategy.close(frame)
        assert emit.emitted == []
        assert summary.residual == 8

    def test_cuts_heaviest(self):
        emit = Collector()
        strategy = KMStreamStrategy(6, emit)
        frame = Frame(node_id=0, weight=1, children=[leaf(1, 2), leaf(2, 5), leaf(3, 2)])
        summary = strategy.close(frame)
        assert emit.emitted == [(SiblingInterval(2, 2), 5)]
        assert summary.residual == 5

    def test_infeasible_raises(self):
        strategy = KMStreamStrategy(3, Collector())
        frame = Frame(node_id=0, weight=4, children=[])
        with pytest.raises(InfeasiblePartitioningError):
            strategy.close(frame)

    def test_spill_picks_heaviest(self):
        emit = Collector()
        strategy = KMStreamStrategy(10, emit)
        frame = Frame(node_id=0, weight=1, children=[leaf(1, 2), leaf(2, 7)])
        freed = strategy.spill(frame)
        assert freed == 7
        assert frame.children[1].emitted
        assert strategy.spillable_weight(frame) == 2


class TestRSStrategy:
    def test_packs_right_to_left(self):
        emit = Collector()
        strategy = RSStreamStrategy(5, emit)
        frame = Frame(
            node_id=0,
            weight=1,
            children=[leaf(i, 2) for i in range(1, 6)],  # total 11
        )
        strategy.close(frame)
        assert emit.emitted[0] == (SiblingInterval(4, 5), 4)

    def test_spill_without_residual_target(self):
        emit = Collector()
        strategy = RSStreamStrategy(5, emit)
        frame = Frame(node_id=0, weight=1, children=[leaf(1, 2), leaf(2, 2), leaf(3, 2)])
        freed = strategy.spill(frame)
        assert freed == 4  # packs (2,3) to the limit
        assert emit.emitted == [(SiblingInterval(2, 3), 4)]

    def test_empty_frame_spill(self):
        strategy = RSStreamStrategy(5, Collector())
        assert strategy.spill(Frame(node_id=0, weight=1)) == 0


class TestEKMStrategy:
    def close_fig6_c(self):
        """The c-subtree of Fig. 6: c:1 with children d:2, e:2 at K=5."""
        emit = Collector()
        strategy = EKMStreamStrategy(5, emit)
        frame = Frame(node_id=2, weight=1, children=[leaf(3, 2), leaf(4, 2)])
        summary = strategy.close(frame)
        return emit, summary

    def test_within_limit_builds_chain(self):
        emit, summary = self.close_fig6_c()
        assert emit.emitted == []
        assert summary.res_first == 4
        assert summary.first_child == 3
        assert summary.first_chain_end == 4
        assert summary.residual == 5

    def test_cut_prefers_left_on_tie(self):
        emit = Collector()
        strategy = EKMStreamStrategy(4, emit)
        # child 1 has a left chain of weight 3 and a right chain of 3
        child = ChildSummary(
            node_id=1, own_weight=2, first_child=10, first_chain_end=11, res_first=3
        )
        frame = Frame(node_id=0, weight=1, children=[child, leaf(2, 3)])
        strategy.close(frame)
        # rest at child 1 = 2 + 3 + 3 = 8 > 4: tie (3 vs 3) -> cut left
        assert emit.emitted[0] == (SiblingInterval(10, 11), 3)

    def test_orphan_group_emitted_after_spill(self):
        emit = Collector()
        strategy = EKMStreamStrategy(10, emit)
        spilled = leaf(2, 3)
        spilled.emitted = True
        frame = Frame(
            node_id=0, weight=1, children=[leaf(1, 2), spilled, leaf(3, 2), leaf(4, 2)]
        )
        strategy.close(frame)
        # children 3,4 arrived after the spill of child 2: they are
        # orphans and must become their own partition
        assert (SiblingInterval(3, 4), 4) in emit.emitted

    def test_infeasible_raises(self):
        strategy = EKMStreamStrategy(3, Collector())
        frame = Frame(node_id=0, weight=1, children=[leaf(1, 4)])
        # child 1 alone weighs more than the limit and has no cuttable edges
        with pytest.raises(InfeasiblePartitioningError):
            strategy.close(frame)


class TestRegistry:
    def test_strategy_names(self):
        assert set(STRATEGY_CLASSES) == {"km", "rs", "ekm"}
        for name, cls in STRATEGY_CLASSES.items():
            assert cls.name == name
