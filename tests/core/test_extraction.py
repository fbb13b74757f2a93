"""Extraction strategy tests (BCE and BG, Section 6.3)."""

import pytest

from repro.config import TuningConstraints
from repro.exceptions import BudgetExhaustedError
from repro.core.extraction import (
    BestExploredTracker,
    extract_bce,
    extract_best,
    extract_bg,
)
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession


def _session(optimizer, candidates, constraints):
    """The running session extraction draws through."""
    return TuningSession(optimizer.workload, candidates, constraints, backend=optimizer)


@pytest.fixture
def optimizer(toy_workload):
    return WhatIfOptimizer(toy_workload, budget=300)


@pytest.fixture
def constraints():
    return TuningConstraints(max_indexes=5)


class TestTracker:
    def test_initial_best_is_empty(self, optimizer, constraints):
        tracker = BestExploredTracker(optimizer, constraints)
        assert tracker.best == frozenset()
        assert tracker.best_cost == optimizer.empty_workload_cost()

    def test_observe_improvement(self, optimizer, constraints, toy_candidates):
        tracker = BestExploredTracker(optimizer, constraints)
        config = frozenset(toy_candidates[:2])
        cost = optimizer.empty_workload_cost() * 0.5
        assert tracker.observe(config, cost)
        assert tracker.best == config

    def test_observe_worse_ignored(self, optimizer, constraints, toy_candidates):
        tracker = BestExploredTracker(optimizer, constraints)
        config = frozenset(toy_candidates[:2])
        assert not tracker.observe(config, optimizer.empty_workload_cost() * 2)
        assert tracker.best == frozenset()

    def test_observe_rejects_inadmissible(self, optimizer, toy_candidates):
        tracker = BestExploredTracker(optimizer, TuningConstraints(max_indexes=1))
        config = frozenset(toy_candidates[:3])
        assert not tracker.observe(config, 0.0)

    def test_refresh_tightens_cost(self, optimizer, constraints, toy_workload, toy_candidates):
        tracker = BestExploredTracker(optimizer, constraints)
        config = frozenset(toy_candidates[:1])
        tracker.observe(config, optimizer.empty_workload_cost())  # not better; ignored
        tracker.observe(config, optimizer.empty_workload_cost() - 1)
        for query in toy_workload:
            optimizer.whatif_cost(query, config)
        tracker.refresh()
        assert tracker.best_cost <= optimizer.empty_workload_cost() - 1 or (
            tracker.best_cost == optimizer.derived_workload_cost(config)
        )


class TestExtraction:
    def seed_knowledge(self, optimizer, toy_candidates):
        """Evaluate all singletons so derived costs carry information."""
        for query in optimizer.workload:
            for index in toy_candidates[:10]:
                optimizer.whatif_cost(query, frozenset({index}))

    def test_bg_extracts_under_exhausted_budget(
        self, toy_workload, toy_candidates, constraints
    ):
        optimizer = WhatIfOptimizer(toy_workload, budget=60)
        self_knowledge_budget = optimizer.meter
        try:
            self.seed_knowledge(optimizer, toy_candidates)
        except BudgetExhaustedError:  # repro-lint: off[REP002]
            pass  # exhausting the budget is this test's setup, not a failure
        calls_before = optimizer.calls_used
        config = extract_bg(_session(optimizer, toy_candidates, constraints))
        # BG may use leftover budget (FCFS); with the budget spent it is free.
        assert optimizer.calls_used >= calls_before
        assert len(config) <= constraints.max_indexes

    def test_bg_beats_empty_with_knowledge(
        self, toy_workload, toy_candidates, constraints
    ):
        optimizer = WhatIfOptimizer(toy_workload, budget=1000)
        self.seed_knowledge(optimizer, toy_candidates)
        config = extract_bg(_session(optimizer, toy_candidates, constraints))
        assert optimizer.derived_workload_cost(config) < optimizer.empty_workload_cost()

    def test_dispatch_bce(self, optimizer, constraints, toy_candidates):
        tracker = BestExploredTracker(optimizer, constraints)
        config = frozenset(toy_candidates[:1])
        tracker.observe(config, 0.0)
        chosen = extract_best(
            "bce", _session(optimizer, toy_candidates, constraints), tracker
        )
        assert chosen == config
        assert extract_bce(tracker) == config

    def test_hybrid_returns_better(self, toy_workload, toy_candidates, constraints):
        optimizer = WhatIfOptimizer(toy_workload, budget=1000)
        self.seed_knowledge(optimizer, toy_candidates)
        tracker = BestExploredTracker(optimizer, constraints)
        session = _session(optimizer, toy_candidates, constraints)
        hybrid = extract_best("bg", session, tracker, hybrid=True)
        bg_only = extract_bg(session)
        assert optimizer.derived_workload_cost(hybrid) <= optimizer.derived_workload_cost(
            bg_only
        )
