"""Page allocation (first fit) and Sec. 3.3.6 DHW optimization
equivalence."""

from repro.storage.constants import StorageConfig
from repro.storage.manager import RecordManager


def config():
    return StorageConfig(page_size=128, page_header=8, page_slot_entry=0)


class TestAllocationPolicies:
    def test_first_fit_takes_earliest(self):
        manager = RecordManager(config())
        manager.store(0, b"x" * 60)  # page 0: 60 free
        manager.store(1, b"x" * 100)  # page 1: 20 free
        manager.store(2, b"x" * 15)  # first fit -> page 0
        assert manager.page_of_record[2] == 0


class TestDHWEndpointOptimization:
    def test_exclude_endpoints_stays_optimal(self):
        """Sec. 3.3.6: leaving interval endpoints out of the downgrade
        candidate list must not cost optimality."""
        import random

        from repro.datasets.random_trees import random_tree
        from repro.partition import evaluate_partitioning
        from repro.partition.brute import brute_force_optimal
        from repro.partition.dhw import DHWPartitioner

        rng = random.Random(31)
        for _ in range(80):
            tree = random_tree(rng.randint(2, 10), max_weight=5, rng=rng)
            limit = rng.randint(tree.max_node_weight(), 12)
            optimal = brute_force_optimal(tree, limit)
            partitioning = DHWPartitioner(exclude_endpoints=True).partition(tree, limit)
            report = evaluate_partitioning(tree, partitioning, limit)
            assert report.feasible
            assert report.cardinality == optimal[0]
            assert report.root_weight == optimal[1]

    def test_both_variants_agree_on_fig6(self, fig6_tree):
        from repro.partition.dhw import DHWPartitioner

        default = DHWPartitioner().partition(fig6_tree, 5)
        optimized = DHWPartitioner(exclude_endpoints=True).partition(fig6_tree, 5)
        assert default.cardinality == optimized.cardinality == 3
