"""CostDerivation store tests (Equation 1 and Equation 2).

The store keys configurations as bitmasks over index positions; three
positions stand in for three indexes here.
"""

import pytest

from repro.optimizer.derivation import CostDerivation, mask_positions


@pytest.fixture
def indexes():
    """The masks of three single indexes (positions 0, 1 and 5)."""
    return [1 << 0, 1 << 1, 1 << 5]


def union(masks) -> int:
    mask = 0
    for bit in masks:
        mask |= bit
    return mask


class TestMaskPositions:
    def test_lowest_first(self):
        assert mask_positions(0b100101) == [0, 2, 5]
        assert mask_positions(0) == []

    def test_wide_masks(self):
        assert mask_positions(1 << 959 | 1 << 3) == [3, 959]


class TestRecording:
    def test_exact_lookup(self, indexes):
        store = CostDerivation()
        config = union(indexes[:1])
        store.record("q", config, 50.0)
        assert store.known_cost("q", config) == 50.0

    def test_unknown_returns_none(self, indexes):
        assert CostDerivation().known_cost("q", union(indexes[:1])) is None

    def test_higher_rerecord_ignored(self, indexes):
        store = CostDerivation()
        config = union(indexes[:1])
        store.record("q", config, 50.0)
        store.record("q", config, 80.0)
        assert store.known_cost("q", config) == 50.0

    def test_lower_rerecord_wins(self, indexes):
        store = CostDerivation()
        config = union(indexes[:1])
        store.record("q", config, 50.0)
        store.record("q", config, 40.0)
        assert store.known_cost("q", config) == 40.0

    def test_observation_count(self, indexes):
        store = CostDerivation()
        store.record("q", 0, 100.0)
        store.record("q", union(indexes[:1]), 50.0)
        store.record("q", union(indexes[:2]), 30.0)
        assert store.observations("q") == 3
        assert store.observations("other") == 0


class TestDerivedCost:
    def test_empty_knowledge_gives_empty_cost(self, indexes):
        store = CostDerivation()
        assert store.derived_cost("q", union(indexes), 100.0) == 100.0

    def test_singleton_subset_used(self, indexes):
        store = CostDerivation()
        store.record("q", indexes[0], 40.0)
        derived = store.derived_cost("q", union(indexes[:2]), 100.0)
        assert derived == 40.0

    def test_min_over_subsets(self, indexes):
        store = CostDerivation()
        store.record("q", indexes[0], 40.0)
        store.record("q", indexes[1], 25.0)
        store.record("q", union(indexes[:2]), 18.0)
        assert store.derived_cost("q", union(indexes), 100.0) == 18.0

    def test_non_subset_ignored(self, indexes):
        store = CostDerivation()
        store.record("q", union(indexes[:2]), 10.0)
        # Query config {indexes[0]} does not contain the recorded pair.
        assert store.derived_cost("q", union(indexes[:1]), 100.0) == 100.0

    def test_per_query_isolation(self, indexes):
        store = CostDerivation()
        store.record("q1", indexes[0], 10.0)
        assert store.derived_cost("q2", union(indexes), 100.0) == 100.0

    def test_exact_match_fast_path(self, indexes):
        store = CostDerivation()
        config = union(indexes)
        store.record("q", config, 5.0)
        assert store.derived_cost("q", config, 100.0) == 5.0


class TestSingletonDerivation:
    def test_ignores_compound_entries(self, indexes):
        store = CostDerivation()
        store.record("q", indexes[0], 40.0)
        store.record("q", union(indexes[:2]), 5.0)
        # Equation 2 only sees singleton subsets.
        assert store.singleton_derived_cost("q", union(indexes), 100.0) == 40.0

    def test_singleton_costs_copy(self, indexes):
        store = CostDerivation()
        store.record("q", indexes[0], 40.0)
        costs = store.singleton_costs("q")
        assert costs == {0: 40.0}
        costs[1] = 1.0  # mutation does not leak
        assert 1 not in store.singleton_costs("q")
