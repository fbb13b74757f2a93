"""Relevant-index cache normalization: semantics-preserving, calls-saving.

The fast path collapses every what-if cache key to ``C ∩ relevant(q)``.
These tests pin the two halves of the contract: costs (and plans) are
bit-identical to whole-key caching, and configurations differing only in
irrelevant indexes collapse onto one counted call.
"""

import random

import pytest

from repro.optimizer.prepared import index_is_relevant
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workload.candidates import CandidateGenerator


def _random_configs(candidates, rng, count, max_size):
    configs = [frozenset(), frozenset(candidates[:1])]
    for _ in range(count):
        size = rng.randint(1, max_size)
        configs.append(frozenset(rng.sample(candidates, min(size, len(candidates)))))
    return configs


class TestBitIdenticalCosts:
    def test_toy_costs_identical(self, toy_workload, toy_candidates):
        rng = random.Random(0)
        configs = _random_configs(toy_candidates, rng, 40, 5)
        normalized = WhatIfOptimizer(toy_workload, normalize_cache=True)
        whole_key = WhatIfOptimizer(toy_workload, normalize_cache=False)
        for config in configs:
            for query in toy_workload:
                assert normalized.whatif_cost(query, config) == whole_key.whatif_cost(
                    query, config
                )

    def test_tpch_costs_identical(self, tpch):
        rng = random.Random(1)
        candidates = CandidateGenerator(tpch.schema).for_workload(tpch)[:40]
        configs = _random_configs(candidates, rng, 15, 4)
        normalized = WhatIfOptimizer(tpch, normalize_cache=True)
        whole_key = WhatIfOptimizer(tpch, normalize_cache=False)
        for config in configs:
            for query in tpch:
                assert normalized.whatif_cost(query, config) == whole_key.whatif_cost(
                    query, config
                )

    def test_true_costs_identical(self, toy_workload, toy_candidates):
        rng = random.Random(2)
        configs = _random_configs(toy_candidates, rng, 20, 4)
        normalized = WhatIfOptimizer(toy_workload, budget=30, normalize_cache=True)
        whole_key = WhatIfOptimizer(toy_workload, budget=30, normalize_cache=False)
        # Warm both with the same singleton observations, then compare the
        # free interfaces everywhere (including past the budget).
        for index in toy_candidates[:6]:
            for opt in (normalized, whole_key):
                if not opt.meter.exhausted:
                    opt.whatif_cost(toy_workload[0], frozenset({index}))
        for config in configs:
            for query in toy_workload:
                assert normalized.true_cost(query, config) == whole_key.true_cost(
                    query, config
                )

    def test_explain_costs_identical(self, toy_workload, toy_candidates):
        # Plans may tie-break equal-cost options differently (set iteration
        # order), so compare the costed structure, not the rendering.
        normalized = WhatIfOptimizer(toy_workload, normalize_cache=True)
        whole_key = WhatIfOptimizer(toy_workload, normalize_cache=False)
        config = frozenset(toy_candidates[:4])
        for query in toy_workload:
            a = normalized.explain(query, config)
            b = whole_key.explain(query, config)
            assert a.total_cost == b.total_cost
            assert a.sort_cost == b.sort_cost
            assert [j.cost for j in a.joins] == [j.cost for j in b.joins]


class TestCallCollapsing:
    def test_irrelevant_padding_is_free(self, toy_workload, toy_candidates):
        """C and C ∪ {irrelevant} hit the same cache entry."""
        optimizer = WhatIfOptimizer(toy_workload)
        query = toy_workload[0]
        prepared = optimizer.prepared(query)
        relevant = [ix for ix in toy_candidates if index_is_relevant(prepared, ix)]
        irrelevant = [ix for ix in toy_candidates if not index_is_relevant(prepared, ix)]
        if not relevant or not irrelevant:
            pytest.skip("toy pool lacks a relevant/irrelevant split for q0")
        base = frozenset(relevant[:1])
        cost = optimizer.whatif_cost(query, base)
        assert optimizer.calls_used == 1
        padded = base | frozenset(irrelevant)
        assert optimizer.whatif_cost(query, padded) == cost
        assert optimizer.calls_used == 1  # the padded key collapsed
        assert optimizer.stats.normalized_hits >= 1

    def test_fully_irrelevant_config_costs_empty(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload)
        query = toy_workload[0]
        prepared = optimizer.prepared(query)
        irrelevant = [ix for ix in toy_candidates if not index_is_relevant(prepared, ix)]
        if not irrelevant:
            pytest.skip("no irrelevant index for q0")
        cost = optimizer.whatif_cost(query, frozenset(irrelevant))
        assert cost == optimizer.empty_cost(query)
        assert optimizer.calls_used == 0

    def test_normalization_saves_counted_calls(self, toy_workload, toy_candidates):
        rng = random.Random(3)
        configs = _random_configs(toy_candidates, rng, 40, 5)
        normalized = WhatIfOptimizer(toy_workload, normalize_cache=True)
        whole_key = WhatIfOptimizer(toy_workload, normalize_cache=False)
        for config in configs:
            for query in toy_workload:
                normalized.whatif_cost(query, config)
                whole_key.whatif_cost(query, config)
        assert normalized.calls_used < whole_key.calls_used
        assert normalized.stats.normalized_hits > 0

    def test_relevant_subset_returns_same_object_when_all_relevant(
        self, toy_workload, toy_candidates
    ):
        """The collapse rule: a key of relevant indexes normalizes to itself
        (the same mask), so a repeat lookup is a plain hit, not a normalized
        one; adding an irrelevant index collapses onto the same entry."""
        optimizer = WhatIfOptimizer(toy_workload)
        query = toy_workload[0]
        prepared = optimizer.prepared(query)
        relevant = frozenset(
            ix for ix in toy_candidates if index_is_relevant(prepared, ix)
        )
        irrelevant = [ix for ix in toy_candidates if not index_is_relevant(prepared, ix)]
        if not relevant or not irrelevant:
            pytest.skip("q0 needs relevant and irrelevant candidates")
        mask = optimizer._mask(relevant)
        assert optimizer._norm(query.qid, mask) == mask
        padded = optimizer._mask(relevant | {irrelevant[0]})
        assert optimizer._norm(query.qid, padded) == mask

        optimizer.whatif_cost(query, relevant)
        optimizer.whatif_cost(query, relevant)
        assert optimizer.stats.normalized_hits == 0
        optimizer.whatif_cost(query, relevant | {irrelevant[0]})
        assert optimizer.stats.normalized_hits == 1
        assert optimizer.calls_used == 1


class TestStatsCounters:
    def test_hits_and_misses(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload)
        query = toy_workload[0]
        config = frozenset(toy_candidates[:2])
        optimizer.whatif_cost(query, config)
        optimizer.whatif_cost(query, config)
        stats = optimizer.stats
        assert stats.cache_misses == optimizer.calls_used
        assert stats.cache_hits >= 1
        assert 0.0 < stats.hit_rate < 1.0
        assert stats.cost_seconds > 0.0
        assert set(stats.as_dict()) >= {
            "cache_hits",
            "cache_misses",
            "hit_rate",
            "normalized_hits",
            "cost_seconds",
            "batch_calls",
            "batched_pairs",
        }

    def test_idle_hit_rate_is_zero(self, toy_workload):
        assert WhatIfOptimizer(toy_workload).stats.hit_rate == 0.0
