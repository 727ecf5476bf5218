"""Column-level unit tests for the streaming cut strategies."""

import pytest

from repro.partition.streaming import (
    EKMStreamStrategy,
    KMStreamStrategy,
    RSStreamStrategy,
    STRATEGY_CLASSES,
)
from repro.errors import InfeasiblePartitioningError
from repro.partition.interval import SiblingInterval


def with_nodes(cls, limit, weights):
    """A ``cls`` strategy whose columns hold nodes ``0..`` of ``weights``
    (as a driver appends them), and the list its emitted
    ``(interval, freed)`` pairs land in."""
    emitted = []
    strategy = cls(limit, lambda interval, freed: emitted.append((interval, freed)))
    strategy.residual += weights
    strategy.cut += bytes(len(weights))
    return strategy, emitted


class TestKMStrategy:
    def test_no_cut_when_fits(self):
        strategy, emitted = with_nodes(KMStreamStrategy, 10, [2, 3, 3])
        strategy.close(0, [1, 2])
        assert emitted == []
        assert strategy.residual[0] == 8

    def test_cuts_heaviest(self):
        strategy, emitted = with_nodes(KMStreamStrategy, 6, [1, 2, 5, 2])
        strategy.close(0, [1, 2, 3])
        assert emitted == [(SiblingInterval(2, 2), 5)]
        assert strategy.residual[0] == 5

    def test_infeasible_raises(self):
        strategy, _ = with_nodes(KMStreamStrategy, 3, [4])
        with pytest.raises(InfeasiblePartitioningError):
            strategy.close(0, [])

    def test_spill_picks_heaviest(self):
        strategy, _ = with_nodes(KMStreamStrategy, 10, [1, 2, 7])
        freed = strategy.spill(0, [1, 2])
        assert freed == 7
        assert strategy.cut[2]
        assert strategy.spillable_weight(0, [1, 2]) == 2


class TestRSStrategy:
    def test_packs_right_to_left(self):
        # children 1..5 of weight 2 under a root of weight 1: total 11
        strategy, emitted = with_nodes(RSStreamStrategy, 5, [1] + [2] * 5)
        strategy.close(0, [1, 2, 3, 4, 5])
        assert emitted[0] == (SiblingInterval(4, 5), 4)

    def test_spill_without_residual_target(self):
        strategy, emitted = with_nodes(RSStreamStrategy, 5, [1, 2, 2, 2])
        freed = strategy.spill(0, [1, 2, 3])
        assert freed == 4  # packs (2,3) to the limit
        assert emitted == [(SiblingInterval(2, 3), 4)]

    def test_empty_frame_spill(self):
        strategy, _ = with_nodes(RSStreamStrategy, 5, [1])
        assert strategy.spill(0, []) == 0


class TestEKMStrategy:
    def close_fig6_c(self):
        """The c-subtree of Fig. 6 (a=0, b=1, c=2, d=3, e=4): c:1 with
        children d:2, e:2 at K=5."""
        strategy, emitted = with_nodes(EKMStreamStrategy, 5, [3, 2, 1, 2, 2])
        strategy.close(2, [3, 4])
        return strategy, emitted

    def test_within_limit_builds_chain(self):
        strategy, emitted = self.close_fig6_c()
        assert emitted == []
        assert strategy.res_first[2] == 4
        assert strategy.first_child[2] == 3
        assert strategy.first_chain_end[2] == 4
        assert strategy.residual[2] == 5

    def test_cut_prefers_left_on_tie(self):
        # child 1 (weight 2) gets the left chain (3, 4) of weight 3; its
        # right sibling 2 weighs 3
        strategy, emitted = with_nodes(EKMStreamStrategy, 4, [1, 2, 3, 1, 2])
        strategy.close(1, [3, 4])
        assert (strategy.res_first[1], emitted) == (3, [])
        strategy.close(0, [1, 2])
        # rest at child 1 = 2 + 3 + 3 = 8 > 4: tie (3 vs 3) -> cut left
        assert emitted[0] == (SiblingInterval(3, 4), 3)

    def test_orphan_group_emitted_after_spill(self):
        strategy, emitted = with_nodes(EKMStreamStrategy, 10, [1, 2, 3, 2, 2])
        strategy.cut[2] = 1  # spilled
        strategy.close(0, [1, 2, 3, 4])
        # children 3,4 arrived after the spill of child 2: they are
        # orphans and must become their own partition
        assert (SiblingInterval(3, 4), 4) in emitted

    def test_infeasible_raises(self):
        strategy, _ = with_nodes(EKMStreamStrategy, 3, [1, 4])
        # child 1 alone weighs more than the limit and has no cuttable edges
        with pytest.raises(InfeasiblePartitioningError):
            strategy.close(0, [1])

    def test_spill_packs_components_right_to_left(self):
        strategy, emitted = with_nodes(EKMStreamStrategy, 5, [1, 2, 2, 2])
        assert strategy.spill(0, [1, 2, 3]) == 4
        assert emitted == [(SiblingInterval(2, 3), 4)]
        assert strategy.spillable_weight(0, [1, 2, 3]) == 2

    def test_spill_sheds_an_overweight_first_child_chain(self):
        strategy, emitted = with_nodes(EKMStreamStrategy, 4, [1, 2, 1, 2])
        strategy.close(1, [2, 3])  # component of 1: 2 + chain (2, 3) of 3
        assert strategy.spillable_weight(0, [1]) == 5
        assert strategy.spill(0, [1]) == 3
        assert emitted == [(SiblingInterval(2, 3), 3)]
        assert (strategy.res_first[1], strategy.residual[1]) == (0, 2)
        assert not strategy.cut[1]


class TestRegistry:
    def test_strategy_names(self):
        assert set(STRATEGY_CLASSES) == {"km", "rs", "ekm"}
        for name, cls in STRATEGY_CLASSES.items():
            assert cls.name == name
