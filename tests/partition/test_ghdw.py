"""GHDW: bottom-up greedy application of the flat DP (Sec. 3.3.1)."""

import random

from repro.datasets.random_trees import layered_trap_tree, random_tree
from repro.partition import evaluate_partitioning, get_algorithm
from repro.partition.brute import brute_force_optimal
from repro.partition.ghdw import GHDWPartitioner


class TestGHDWCorrectness:
    def test_always_feasible_on_random_trees(self):
        rng = random.Random(77)
        for _ in range(60):
            tree = random_tree(rng.randint(1, 60), max_weight=4, rng=rng)
            limit = rng.randint(4, 12)
            partitioning = get_algorithm("ghdw").partition(tree, limit)
            report = evaluate_partitioning(tree, partitioning, limit)
            assert report.feasible

    def test_never_better_than_brute_force(self):
        rng = random.Random(88)
        for _ in range(60):
            tree = random_tree(rng.randint(2, 10), max_weight=4, rng=rng)
            limit = rng.randint(4, 9)
            optimal = brute_force_optimal(tree, limit)
            report = evaluate_partitioning(
                tree, get_algorithm("ghdw").partition(tree, limit), limit
            )
            assert report.cardinality >= optimal[0]

    def test_optimal_on_flat_trees(self):
        # On flat trees GHDW degenerates to FDW and is exact.
        rng = random.Random(99)
        from repro.datasets.random_trees import random_flat_tree

        for _ in range(40):
            tree = random_flat_tree(rng.randint(0, 8), max_weight=4, rng=rng)
            limit = rng.randint(4, 9)
            optimal = brute_force_optimal(tree, limit)
            report = evaluate_partitioning(
                tree, get_algorithm("ghdw").partition(tree, limit), limit
            )
            assert report.cardinality == optimal[0]
            assert report.root_weight == optimal[1]

    def test_fig6_suboptimality_reproduced(self, fig6_tree):
        assert get_algorithm("ghdw").partition(fig6_tree, 5).cardinality == 4

    def test_layered_trap_grows_gap(self):
        """On the generalized Fig. 6 trap, GHDW loses to DHW."""
        tree = layered_trap_tree(levels=3, limit=5)
        ghdw = get_algorithm("ghdw").partition(tree, 5).cardinality
        dhw = get_algorithm("dhw").partition(tree, 5).cardinality
        assert dhw <= ghdw
        assert evaluate_partitioning(
            tree, get_algorithm("dhw").partition(tree, 5), 5
        ).feasible


class TestGHDWStats:
    def test_stats_collection(self, fig3_tree):
        algo = GHDWPartitioner(collect_stats=True)
        algo.partition(fig3_tree, 5)
        assert algo.stats.inner_nodes == 2  # a and c
        assert algo.stats.dp_cells > 0
        # one table built: c's subtree fits K, so only a reaches the DP
        assert len(algo.stats.s_values_per_node) == 1

    def test_stats_disabled_by_default(self, fig3_tree):
        algo = GHDWPartitioner()
        algo.partition(fig3_tree, 5)
        assert algo.stats.inner_nodes == 0

    def test_memoization_touches_few_s_values(self, tiny_xmark):
        algo = GHDWPartitioner(collect_stats=True)
        algo.partition(tiny_xmark, 256)
        # Paper Sec. 3.3.6: "on average, less than 4 of the potential 256
        # values for s actually occur" — per inner node; nodes that never
        # reach the DP (subtree fits K, or shape already solved) touch none.
        assert sum(algo.stats.s_values_per_node) / algo.stats.inner_nodes < 4
