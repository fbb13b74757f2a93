"""WhatIfOptimizer tests: budget metering, caching, derivation, logging."""

import pytest

from repro.exceptions import BudgetExhaustedError, TuningError
from repro.optimizer.whatif import BudgetMeter, WhatIfOptimizer


@pytest.fixture
def optimizer(toy_workload):
    return WhatIfOptimizer(toy_workload, budget=10)


class TestBudgetMeter:
    def test_counts_down(self):
        meter = BudgetMeter(3)
        meter.charge()
        assert meter.spent == 1
        assert meter.remaining == 2

    def test_exhaustion(self):
        meter = BudgetMeter(1)
        meter.charge()
        assert meter.exhausted
        with pytest.raises(BudgetExhaustedError):
            meter.charge()

    def test_unlimited(self):
        meter = BudgetMeter(None)
        for _ in range(100):
            meter.charge()
        assert not meter.exhausted
        assert meter.remaining is None

    def test_zero_budget_starts_exhausted(self):
        assert BudgetMeter(0).exhausted

    def test_negative_budget_rejected(self):
        with pytest.raises(TuningError):
            BudgetMeter(-1)


class TestWhatIfCost:
    def test_empty_config_is_free(self, optimizer, toy_workload):
        cost = optimizer.whatif_cost(toy_workload[0], frozenset())
        assert cost > 0
        assert optimizer.calls_used == 0

    def test_counted_call(self, optimizer, toy_workload, toy_candidates):
        optimizer.whatif_cost(toy_workload[0], frozenset(toy_candidates[:1]))
        assert optimizer.calls_used == 1

    def test_cache_makes_repeats_free(self, optimizer, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        first = optimizer.whatif_cost(toy_workload[0], config)
        second = optimizer.whatif_cost(toy_workload[0], config)
        assert first == second
        assert optimizer.calls_used == 1

    def test_config_key_ignores_order(self, optimizer, toy_workload, toy_candidates):
        a, b = toy_candidates[:2]
        optimizer.whatif_cost(toy_workload[0], [a, b])
        optimizer.whatif_cost(toy_workload[0], [b, a])
        assert optimizer.calls_used == 1

    def test_budget_enforced(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload, budget=2)
        for i in range(2):
            query = toy_workload[i]
            optimizer.whatif_cost(query, toy_relevant[query.qid][:1])
        assert optimizer.calls_used == 2
        query = toy_workload[3]
        with pytest.raises(BudgetExhaustedError):
            optimizer.whatif_cost(query, toy_relevant[query.qid][:1])

    def test_is_cached(self, optimizer, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        assert not optimizer.is_cached(toy_workload[0], config)
        optimizer.whatif_cost(toy_workload[0], config)
        assert optimizer.is_cached(toy_workload[0], config)
        assert optimizer.is_cached(toy_workload[0], frozenset())


class TestDerivedCost:
    def test_equals_whatif_when_known(self, optimizer, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:2])
        exact = optimizer.whatif_cost(toy_workload[0], config)
        assert optimizer.derived_cost(toy_workload[0], config) == exact

    def test_upper_bounds_whatif(self, optimizer, toy_workload, toy_candidates):
        query = toy_workload[0]
        single = frozenset(toy_candidates[:1])
        optimizer.whatif_cost(query, single)
        pair = frozenset(toy_candidates[:2])
        derived = optimizer.derived_cost(query, pair)
        exact = optimizer.true_cost(query, pair)
        assert derived >= exact - 1e-9

    def test_unknown_config_derives_from_empty(self, optimizer, toy_workload, toy_candidates):
        query = toy_workload[0]
        config = frozenset(toy_candidates[:3])
        assert optimizer.derived_cost(query, config) == optimizer.empty_cost(query)

    def test_derived_is_free(self, optimizer, toy_workload, toy_candidates):
        optimizer.derived_cost(toy_workload[0], frozenset(toy_candidates))
        assert optimizer.calls_used == 0

    def test_workload_level_sums(self, optimizer, toy_workload):
        assert optimizer.derived_workload_cost(frozenset()) == pytest.approx(
            optimizer.empty_workload_cost()
        )


class TestCallLog:
    def test_log_records_layout(self, toy_workload, toy_relevant):
        optimizer = WhatIfOptimizer(toy_workload, budget=10)
        queries = toy_workload.queries[:2]
        configs = [frozenset(toy_relevant[query.qid][:1]) for query in queries]
        for query, config in zip(queries, configs, strict=True):
            optimizer.whatif_cost(query, config)
        log = optimizer.call_log
        assert [entry.ordinal for entry in log] == [1, 2]
        assert [entry.qid for entry in log] == [query.qid for query in queries]
        assert [entry.configuration for entry in log] == configs

    def test_cached_calls_not_logged(self, optimizer, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        optimizer.whatif_cost(toy_workload[0], config)
        optimizer.whatif_cost(toy_workload[0], config)
        assert len(optimizer.call_log) == 1


class TestTrueCost:
    def test_true_cost_uncounted(self, optimizer, toy_workload, toy_candidates):
        optimizer.true_workload_cost(frozenset(toy_candidates[:3]))
        assert optimizer.calls_used == 0

    def test_true_cost_matches_cached_whatif(self, optimizer, toy_workload, toy_candidates):
        config = frozenset(toy_candidates[:1])
        exact = optimizer.whatif_cost(toy_workload[0], config)
        assert optimizer.true_cost(toy_workload[0], config) == exact

    def test_explain_returns_plan(self, optimizer, toy_workload, toy_candidates):
        plan = optimizer.explain(toy_workload[0], frozenset(toy_candidates[:2]))
        assert plan.total_cost > 0
