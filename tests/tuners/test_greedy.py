"""Vanilla greedy tests, including Theorem 2 and Theorem 3 verifications."""

import itertools
import random

import pytest

from repro.config import TuningConstraints
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners import VanillaGreedyTuner
from repro.tuners.base import TuningSession
from repro.tuners.greedy import greedy_enumerate


def _greedy(optimizer, candidates, constraints):
    """Algorithm 1 in a session over a live engine."""
    session = TuningSession(optimizer.workload, candidates, constraints, backend=optimizer)
    return greedy_enumerate(session, candidates, constraints)


class TestBasicBehaviour:
    def test_respects_cardinality(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=500,
            constraints=TuningConstraints(max_indexes=2),
            candidates=toy_candidates,
        )
        assert len(result.configuration) <= 2

    def test_respects_budget(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=37, candidates=toy_candidates
        )
        assert result.calls_used <= 37

    def test_improvement_non_negative(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=200, candidates=toy_candidates
        )
        assert result.true_improvement() >= 0.0

    def test_more_budget_never_worse_estimated(self, toy_workload, toy_candidates):
        small = VanillaGreedyTuner().tune(
            toy_workload, budget=50, candidates=toy_candidates
        )
        large = VanillaGreedyTuner().tune(
            toy_workload, budget=2000, candidates=toy_candidates
        )
        assert large.true_improvement() >= small.true_improvement() - 1e-6

    def test_unbudgeted_greedy_is_classic(self, toy_workload, toy_candidates):
        """With unlimited budget, greedy uses exact what-if costs throughout."""
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=None, candidates=toy_candidates[:10]
        )
        assert result.estimated_improvement == pytest.approx(
            result.true_improvement()
        )

    def test_storage_constraint_respected(self, toy_workload, toy_candidates):
        cap = 2 * min(ix.estimated_size_bytes for ix in toy_candidates)
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=500,
            constraints=TuningConstraints(max_indexes=10, max_storage_bytes=cap),
            candidates=toy_candidates,
        )
        used = sum(ix.estimated_size_bytes for ix in result.configuration)
        assert used <= cap

    def test_history_grows_per_greedy_step(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=2000,
            constraints=TuningConstraints(max_indexes=3),
            candidates=toy_candidates,
        )
        sizes = [len(config) for _, config in result.history]
        assert sizes == sorted(sizes)
        assert sizes and sizes[0] == 1


class TestTheorem2GreedyGuarantee:
    """b(W, C_greedy) >= (1 − 1/e) · b(W, C_opt) under singleton derivation."""

    def test_greedy_vs_bruteforce_optimum(self, toy_workload, toy_candidates):
        pool = toy_candidates[:9]
        k = 3
        optimizer = WhatIfOptimizer(toy_workload, budget=None)
        # Evaluate all singletons: greedy then runs on fully-informed
        # singleton-derived costs (the Theorem 1/2 setting).
        for query in toy_workload:
            for index in pool:
                optimizer.whatif_cost(query, frozenset({index}))

        def derived_benefit(config):
            total = 0.0
            for query in toy_workload:
                empty = optimizer.empty_cost(query)
                best = empty
                for index in config:
                    best = min(
                        best, optimizer.true_cost(query, frozenset({index}))
                    )
                total += empty - best
            return total

        best_benefit = max(
            derived_benefit(frozenset(combo))
            for combo in itertools.combinations(pool, k)
        )
        greedy_config = _greedy(optimizer, pool, TuningConstraints(max_indexes=k))
        greedy_benefit = derived_benefit(greedy_config)
        assert greedy_benefit >= (1 - 1 / 2.718281828) * best_benefit - 1e-6


class TestTheorem3OrderInsensitivity:
    """Layouts with the same outcome yield configurations of equal cost."""

    def test_candidate_order_does_not_change_result_cost(
        self, toy_workload, toy_candidates
    ):
        pool = toy_candidates[:12]
        constraints = TuningConstraints(max_indexes=3)
        costs = set()
        for seed in range(4):
            shuffled = list(pool)
            random.Random(seed).shuffle(shuffled)
            optimizer = WhatIfOptimizer(toy_workload, budget=None)
            # Fill the same matrix outcome: all singleton cells.
            for query in toy_workload:
                for index in shuffled:
                    optimizer.whatif_cost(query, frozenset({index}))
            config = _greedy(optimizer, shuffled, constraints)
            costs.add(round(optimizer.derived_workload_cost(config), 6))
        assert len(costs) == 1

    def test_layout_fill_order_does_not_change_result_cost(
        self, toy_workload, toy_candidates
    ):
        """Fill identical cells in different orders before a derived-only run."""
        pool = toy_candidates[:10]
        constraints = TuningConstraints(max_indexes=3)
        cells = [
            (query, frozenset({index}))
            for query in toy_workload
            for index in pool
        ]
        costs = set()
        for seed in range(3):
            ordering = list(cells)
            random.Random(seed).shuffle(ordering)
            optimizer = WhatIfOptimizer(toy_workload, budget=len(ordering))
            for query, config in ordering:
                optimizer.whatif_cost(query, config)
            # Budget exhausted: greedy is purely derived-cost driven.
            config = _greedy(optimizer, pool, constraints)
            costs.add(round(optimizer.derived_workload_cost(config), 6))
        assert len(costs) == 1


class TestRealMSessionPin:
    """Vanilla greedy on Real-M (48 tables, 960 candidates), pinned to the
    values the frozenset-keyed what-if engine produced."""

    def test_real_m_session_is_pinned(self, session_summary):
        from repro.workload.suites.real import real_m_workload

        result = VanillaGreedyTuner().tune(
            real_m_workload(num_tables=48), 1000, TuningConstraints(max_indexes=20)
        )
        assert session_summary(result) == PINNED_REAL_M
        assert result.true_improvement() == PINNED_REAL_M_IMPROVEMENT


PINNED_REAL_M = {
    "call_log": "ef33dc5ee5737678b7db1a61bb0f1010207a105b146c6031f5cdc4c346fb57b7",
    "calls_used": 1000,
    "configuration": [
        "t00000(a0)",
        "t00000(a0) INCLUDE (a2, id)",
        "t00000(a0) INCLUDE (id)",
        "t00000(a0, a3) INCLUDE (id)"
    ],
    "events": {
        "budget_deny": 317,
        "budget_grant": 1000,
        "checkpoint": 4,
        "whatif_call": 1000
    },
    "stats": {
        "batch_calls": 1,
        "batched_pairs": 1000,
        "cache_hits": 1674,
        "cache_misses": 1000,
        "cost_evaluations": 1317,
        "normalized_hits": 440,
        "persistent_hits": 0,
        "speculation_wasted": 0,
        "speculative_priced": 0
    }
}
PINNED_REAL_M_IMPROVEMENT = 27.86618655100722
