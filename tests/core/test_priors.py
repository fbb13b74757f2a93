"""Algorithm 4 tests: singleton priors under budget."""

import random

import pytest

from repro.core.priors import (
    compute_singleton_priors,
    prior_pair_count,
    relevant_by_query,
    relevant_indexes,
)
from repro.optimizer.whatif import WhatIfOptimizer


@pytest.fixture
def optimizer(toy_workload):
    return WhatIfOptimizer(toy_workload, budget=1000)


class TestRelevantIndexes:
    def test_only_query_tables(self, optimizer, toy_workload, toy_candidates):
        for query in toy_workload:
            prepared = optimizer.prepared(query)
            tables = {a.table.name for a in prepared.accesses.values()}
            for index in relevant_indexes(optimizer, query, toy_candidates):
                assert index.table in tables

    def test_pair_count_positive(self, optimizer, toy_candidates):
        assert prior_pair_count(relevant_by_query(optimizer, toy_candidates)) > 0


class TestComputePriors:
    def test_priors_in_unit_range(self, optimizer, toy_candidates):
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=30, rng=random.Random(0)
        )
        assert set(priors) == set(toy_candidates)
        assert all(0.0 <= p <= 1.0 for p in priors.values())

    def test_budget_respected(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=1000)
        compute_singleton_priors(
            optimizer, toy_candidates, budget=17, rng=random.Random(0)
        )
        assert optimizer.calls_used <= 17

    def test_unsampled_indexes_have_zero_prior(self, optimizer, toy_candidates):
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=1, rng=random.Random(0)
        )
        zero_count = sum(1 for p in priors.values() if p == 0.0)
        assert zero_count >= len(toy_candidates) - 1

    def test_full_budget_finds_useful_indexes(self, optimizer, toy_candidates):
        pairs = prior_pair_count(relevant_by_query(optimizer, toy_candidates))
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=pairs, rng=random.Random(0)
        )
        assert any(p > 0.02 for p in priors.values())

    def test_priors_lower_bound_true_improvement(self, toy_workload, toy_candidates):
        """Priors never exceed the true singleton improvement.

        Algorithm 4 only refines an index's estimate on the (query, index)
        pairs it evaluates — the query's *own* candidate pairs. Pairs never
        evaluated contribute zero improvement, so the prior is a sound
        lower bound of η(W, {I}).
        """
        optimizer = WhatIfOptimizer(toy_workload, budget=None)
        pairs = prior_pair_count(relevant_by_query(optimizer, toy_candidates))
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=pairs, rng=random.Random(0)
        )
        base = optimizer.empty_workload_cost()
        positive_priors = 0
        for index, prior in priors.items():
            true_cost = optimizer.true_workload_cost(frozenset({index}))
            true_improvement = max(0.0, 1.0 - true_cost / base)
            assert prior <= true_improvement + 1e-9
            if prior > 0:
                positive_priors += 1
                assert true_improvement > 0
        assert positive_priors > 0

    def test_round_robin_spreads_across_queries(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=1000)
        compute_singleton_priors(
            optimizer, toy_candidates, budget=12, rng=random.Random(0),
            query_selection="round_robin",
        )
        touched = {entry.qid for entry in optimizer.call_log}
        assert len(touched) >= 6  # 12 calls over 12 queries: wide coverage

    def test_cost_proportional_mode_runs(self, optimizer, toy_candidates):
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=10, rng=random.Random(0),
            query_selection="cost_proportional",
        )
        assert len(priors) == len(toy_candidates)

    def test_uniform_index_selection_runs(self, optimizer, toy_candidates):
        priors = compute_singleton_priors(
            optimizer, toy_candidates, budget=10, rng=random.Random(0),
            index_selection="uniform",
        )
        assert len(priors) == len(toy_candidates)

    def test_largest_table_first(self, toy_workload, toy_candidates, star_schema):
        optimizer = WhatIfOptimizer(toy_workload, budget=1000)
        compute_singleton_priors(
            optimizer, toy_candidates, budget=5, rng=random.Random(0),
            index_selection="largest_table",
        )
        # The first calls go to fact-table (1M rows) indexes where possible.
        fact_first = [
            entry.configuration for entry in optimizer.call_log[:3]
        ]
        for configuration in fact_first:
            (index,) = configuration
            prepared_tables = {"fact", "dim1", "dim2"}
            assert index.table in prepared_tables
