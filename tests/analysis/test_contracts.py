"""Runtime contract checking: fingerprints, breaches, env wiring."""

from __future__ import annotations

import pytest

from repro.analysis.contracts import (
    ENV_FLAG,
    ContractReport,
    contracts_enabled,
    tree_fingerprint,
    verify_partition_contract,
)
from repro.errors import ContractViolationError
from repro.partition import Partitioning, available_algorithms, get_algorithm
from repro.partition.base import Partitioner
from repro.tree.builders import tree_from_spec
from tests.partition import oracles  # noqa: F401  - its partitioners join the walk below

SPEC = (
    "a",
    3,
    [("b", 2), ("c", 1, [("d", 2), ("e", 2)]), ("f", 1), ("g", 1), ("h", 2)],
)
K = 5


@pytest.fixture
def tree():
    return tree_from_spec(SPEC)


class TestFingerprint:
    def test_deterministic_across_rebuilds(self, tree):
        assert tree_fingerprint(tree) == tree_fingerprint(tree_from_spec(SPEC))

    def test_sensitive_to_reweighting(self, tree):
        before = tree_fingerprint(tree)
        tree.root.weight += 1
        assert tree_fingerprint(tree) != before

    def test_sensitive_to_relabeling(self, tree):
        before = tree_fingerprint(tree)
        tree.node(1).label = "zz"
        assert tree_fingerprint(tree) != before

    def test_sensitive_to_appended_nodes(self, tree):
        before = tree_fingerprint(tree)
        tree.add_child(tree.root, "extra", 1)
        assert tree_fingerprint(tree) != before


class TestVerifyPartitionContract:
    def test_good_result_yields_report(self, tree):
        partitioning = get_algorithm("dhw").partition(tree, K, check=False)
        report = verify_partition_contract(
            tree, partitioning, K, algorithm="dhw",
            fingerprint_before=tree_fingerprint(tree),
        )
        assert isinstance(report, ContractReport)
        assert report.algorithm == "dhw"
        assert report.cardinality == partitioning.cardinality
        assert report.nodes_covered == len(tree)
        assert report.max_partition_weight <= K

    def test_mutation_breach(self, tree):
        partitioning = get_algorithm("dhw").partition(tree, K, check=False)
        fingerprint = tree_fingerprint(tree)
        tree.node(1).weight += 1
        with pytest.raises(ContractViolationError, match="mutated"):
            verify_partition_contract(
                tree, partitioning, K + 1, fingerprint_before=fingerprint
            )

    def test_structure_breach(self, tree):
        # (1, 2): b and c are siblings, but d/e stay uncovered only if the
        # root interval is missing — here the root interval is absent, so
        # structural validation must already refuse the result.
        with pytest.raises(ContractViolationError, match="invalid structure"):
            verify_partition_contract(tree, Partitioning([(1, 2)]), K)

    def test_capacity_breach(self, tree):
        # the root-only partitioning is structurally valid but holds all
        # 12 slots in one partition
        with pytest.raises(ContractViolationError, match="exceed K"):
            verify_partition_contract(tree, Partitioning([(0, 0)]), K, algorithm="x")

    def test_breach_records_algorithm(self, tree):
        with pytest.raises(ContractViolationError) as excinfo:
            verify_partition_contract(tree, Partitioning([(0, 0)]), K, algorithm="x")
        assert excinfo.value.algorithm == "x"
        assert "'x'" in str(excinfo.value)


class _MutatingPartitioner(Partitioner):
    """Evil: reweights a node, then hides it behind a feasible result."""

    name = "evil-mutator"

    def _partition(self, tree, limit):
        tree.node(1).weight = 1
        return get_algorithm("dhw").partition(tree, limit, check=False)


class _OverfillPartitioner(Partitioner):
    """Evil: returns the root-only partitioning regardless of K."""

    name = "evil-overfill"

    def _partition(self, tree, limit):
        return Partitioning([(0, 0)])


class TestPartitionerWiring:
    def test_check_true_catches_mutation(self, tree):
        with pytest.raises(ContractViolationError, match="mutated"):
            _MutatingPartitioner().partition(tree, K, check=True)

    def test_check_true_catches_overfill(self, tree):
        with pytest.raises(ContractViolationError, match="exceed K"):
            _OverfillPartitioner().partition(tree, K, check=True)

    def test_check_false_skips_contract(self, tree):
        # same evil algorithm sails through unchecked — the contract layer
        # is the thing standing between it and the caller
        result = _OverfillPartitioner().partition(tree, K, check=False)
        assert result.cardinality == 1

    def test_env_flag_enables_checking(self, tree, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        with pytest.raises(ContractViolationError):
            _OverfillPartitioner().partition(tree, K)

    def test_env_flag_off_by_default(self, tree, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        _OverfillPartitioner().partition(tree, K)

    def test_explicit_check_false_overrides_env(self, tree, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        _OverfillPartitioner().partition(tree, K, check=False)

    @pytest.mark.parametrize("name", available_algorithms())
    def test_real_algorithms_pass_checked_mode(self, tree, name):
        # checked mode includes the input-immutability fingerprint; the
        # 8-node tree is small enough for brute, and fdw takes flat trees
        if name == "fdw":
            tree = tree_from_spec(("r", 1, [("a", 2), ("b", 3), ("c", 2), ("d", 4)]))
        partitioning = get_algorithm(name).partition(tree, K, check=True)
        assert partitioning.cardinality >= 1


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            out.append(sub)
            stack.append(sub)
    return out


def test_no_partitioner_overrides_partition():
    # ``Partitioner.partition`` owns the feasibility pre-check and the
    # contract hook; algorithms plug in through ``_partition`` only
    subclasses = _subclasses(Partitioner)
    assert len(subclasses) > len(available_algorithms())
    assert [cls for cls in subclasses if "partition" in vars(cls)] == []


class TestContractsEnabled:
    @pytest.mark.parametrize("value", ["", "0", "false", "No", "OFF", " 0 "])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not contracts_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert contracts_enabled()

    def test_unset_is_disabled(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not contracts_enabled()
