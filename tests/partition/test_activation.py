"""There is nothing left to activate: the flat kernel is the only path.

``REPRO_FASTPATH`` is no longer read and the ``fastpath=`` constructor
argument is accepted and ignored. What used to force the reference
implementation — an explain scope, ``collect_stats=True`` — now runs the
kernel too, so the kernel has to produce the provenance and statistics
the reference did; the oracles of ``tests/partition/oracles.py`` say what
those are.
"""

import copy
import random

import pytest

from repro.datasets.random_trees import (
    duplicated_subtree_tree,
    random_flat_tree,
    random_tree,
)
from repro.obsv import explain_scope
from repro.partition import dhw as dhw_module
from repro.partition import get_algorithm
from repro.partition.dhw import DHWPartitioner
from repro.partition.fdw import FDWPartitioner
from repro.partition.ghdw import GHDWPartitioner

from tests.partition.oracles import ReferenceDHW, ReferenceFDW, ReferenceGHDW

FASTPATH_ENV = "REPRO_FASTPATH"


@pytest.fixture
def kernel_spy(monkeypatch):
    """Count dhw_partition invocations without changing behaviour."""
    calls = []
    original = dhw_module.dhw_partition

    def spy(tree, limit, **kwargs):
        calls.append((len(tree), limit))
        return original(tree, limit, **kwargs)

    monkeypatch.setattr(dhw_module, "dhw_partition", spy)
    return calls


def random_cases(seed, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        tree = random_tree(
            rng.randint(1, 40), max_weight=5, rng=rng, attach_bias=rng.random()
        )
        yield tree, rng.randint(tree.max_node_weight(), 15)


def explained(partitioner, tree, limit):
    with explain_scope() as collector:
        partitioner.partition(tree, limit)
    out = collector.explain_for(partitioner.name).as_dict()
    # cell counts describe the tables a run built (none on a memo hit),
    # not the partitioning it explains
    out["notes"] = {k: v for k, v in out["notes"].items() if "dp_cells" not in k}
    return out


class TestEnvFlag:
    def test_env_activates_default_instances(self, monkeypatch, fig3_tree, kernel_spy):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        DHWPartitioner().partition(fig3_tree, 5)
        assert len(kernel_spy) == 1

    def test_env_zero_changes_nothing(self, monkeypatch, fig3_tree, kernel_spy):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        unset = DHWPartitioner().partition(fig3_tree, 5)
        for raw in ("0", "1"):
            monkeypatch.setenv(FASTPATH_ENV, raw)
            assert DHWPartitioner().partition(fig3_tree, 5) == unset
        assert len(kernel_spy) == 3


class TestInstanceFlag:
    def test_kwarg_true_takes_kernel(self, fig3_tree, kernel_spy):
        DHWPartitioner(fastpath=True).partition(fig3_tree, 5)
        assert len(kernel_spy) == 1

    def test_kwarg_false_is_ignored(self, fig3_tree, kernel_spy):
        DHWPartitioner(fastpath=False).partition(fig3_tree, 5)
        assert len(kernel_spy) == 1

    def test_incapable_algorithms_ignore_env(self, monkeypatch, fig3_tree):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        get_algorithm("ekm").partition(fig3_tree, 5)


class TestAutoDisable:
    """Nothing auto-disables: provenance and statistics come from the kernel."""

    def test_results_agree_across_activation_modes(self, monkeypatch, fig3_tree):
        reference = ReferenceDHW().partition(fig3_tree, 5)
        assert DHWPartitioner(fastpath=False).partition(fig3_tree, 5) == reference
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert DHWPartitioner().partition(fig3_tree, 5) == reference
        assert DHWPartitioner(fastpath=True).partition(fig3_tree, 5) == reference

    @pytest.mark.parametrize(
        "kernel, oracle",
        [(DHWPartitioner, ReferenceDHW), (GHDWPartitioner, ReferenceGHDW)],
        ids=["dhw", "ghdw"],
    )
    def test_explain_scope_matches_oracle(self, kernel, oracle, fig3_tree, kernel_spy):
        cases = [(fig3_tree, 5), *random_cases(seed=41)]
        cases.append((duplicated_subtree_tree(12, template_size=15, seed=3), 17))
        for tree, limit in cases:
            want = explained(oracle(), tree, limit)
            assert explained(kernel(), tree, limit) == want
            # memo hits replay records, and must replay their decisions too
            assert explained(kernel(), tree, limit) == want
        if kernel is DHWPartitioner:
            assert len(kernel_spy) == 2 * len(cases)

    def test_fdw_explain_matches_oracle(self):
        rng = random.Random(47)
        for _ in range(25):
            tree = random_flat_tree(rng.randint(0, 30), rng=rng)
            limit = rng.randint(tree.max_node_weight(), 12)
            assert explained(FDWPartitioner(), tree, limit) == explained(
                ReferenceFDW(), tree, limit
            )

    def test_collect_stats_is_repeatable(self):
        tree = duplicated_subtree_tree(30, template_size=20, seed=5)
        for cls in (DHWPartitioner, GHDWPartitioner):
            first = cls(collect_stats=True)
            first.partition(tree, 23)
            assert first.stats.dp_cells > 0
            cls().partition(tree, 23)  # warms this thread's shared cache
            second = cls(collect_stats=True)
            second.partition(tree, 23)
            assert second.stats == first.stats
            # one instance accumulates over its runs
            before = copy.deepcopy(second.stats)
            second.partition(tree, 23)
            assert second.stats.dp_cells == 2 * before.dp_cells
            assert second.stats.inner_nodes == 2 * before.inner_nodes

    def test_nearly_optimal_stats_match_oracle(self, fig6_tree):
        for tree, limit in [(fig6_tree, 5), *random_cases(seed=43, count=60)]:
            kernel = DHWPartitioner(collect_stats=True)
            oracle = ReferenceDHW()
            assert kernel.partition(tree, limit) == oracle.partition(tree, limit)
            for field in ("inner_nodes", "nearly_optimal_exists", "nearly_optimal_used"):
                assert getattr(kernel.stats, field) == getattr(oracle.stats, field), field
            assert kernel.stats.dp_cells <= oracle.stats.dp_cells
