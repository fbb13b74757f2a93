"""Runtime sanitizer tests: monotonicity and event-stream invariants."""

from __future__ import annotations

import pytest

from repro.budget.events import SessionEvent
from repro.exceptions import InvariantViolationError
from repro.lint.sanitizers import (
    EventStreamValidator,
    MonotonicityChecker,
    install_session_sanitizers,
)
from repro.optimizer.cost_model import CostModel
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners import VanillaGreedyTuner
from repro.tuners.base import TuningSession
from repro.tuners.greedy import greedy_enumerate


class TestMonotonicityChecker:
    def test_monotone_observations_pass(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset(), 100.0)
        checker.on_cost("q1", frozenset({"a"}), 80.0)
        checker.on_cost("q1", frozenset({"a", "b"}), 80.0)
        assert checker.comparisons > 0

    def test_superset_costing_more_raises(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset({"a"}), 80.0)
        with pytest.raises(InvariantViolationError, match="monotonicity"):
            checker.on_cost("q1", frozenset({"a", "b"}), 90.0)

    def test_subset_observed_after_superset_raises(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset({"a", "b"}), 90.0)
        with pytest.raises(InvariantViolationError, match="monotonicity"):
            checker.on_cost("q1", frozenset({"a"}), 80.0)

    def test_queries_are_independent(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset({"a"}), 80.0)
        checker.on_cost("q2", frozenset({"a", "b"}), 500.0)

    def test_incomparable_configs_pass(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset({"a"}), 80.0)
        checker.on_cost("q1", frozenset({"b"}), 500.0)

    def test_tiny_rounding_tolerated(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset(), 100.0)
        checker.on_cost("q1", frozenset({"a"}), 100.0 + 1e-12)

    def test_nondeterministic_repricing_raises(self):
        checker = MonotonicityChecker()
        checker.on_cost("q1", frozenset({"a"}), 80.0)
        with pytest.raises(InvariantViolationError, match="nondeterministic"):
            checker.on_cost("q1", frozenset({"a"}), 81.0)


class _NonMonotoneModel:
    """A cost model violating Assumption 1: every index makes plans worse."""

    def __init__(self, inner: CostModel):
        self._inner = inner

    def prepare(self, bound):
        return self._inner.prepare(bound)

    def cost(self, prepared, key):
        return self._inner.cost(prepared, key) + 1e6 * len(key)

    def explain(self, prepared, key):
        return self._inner.explain(prepared, key)


class TestMonotonicityIntegration:
    def test_injected_nonmonotone_model_is_caught(
        self, toy_workload, toy_candidates, small_constraints
    ):
        optimizer = WhatIfOptimizer(
            toy_workload,
            budget=60,
            cost_model=_NonMonotoneModel(CostModel(toy_workload.schema)),
        )
        session = TuningSession(
            toy_workload, toy_candidates, small_constraints, backend=optimizer
        )
        install_session_sanitizers(session)
        with pytest.raises(InvariantViolationError, match="monotonicity"):
            greedy_enumerate(session, session.candidates, session.constraints)

    def test_real_model_is_clean(
        self, toy_workload, toy_candidates, small_constraints
    ):
        session = TuningSession(
            toy_workload, toy_candidates, small_constraints, budget=60
        )
        sanitizers = install_session_sanitizers(session)
        greedy_enumerate(session, session.candidates, session.constraints)
        assert sanitizers.monotonicity.comparisons > 0
        assert sanitizers.events.checked > 0


def _event(ordinal, kind, calls_used, **payload):
    return SessionEvent(
        ordinal=ordinal, kind=kind, calls_used=calls_used, payload=payload
    )


class TestEventStreamValidator:
    def test_grant_after_stop_rejected(self):
        events = [
            _event(1, "whatif_call", 1, qid="q1"),
            _event(2, "stop", 1, reason="plateau"),
            _event(3, "budget_grant", 2, qid="q2"),
        ]
        with pytest.raises(InvariantViolationError, match="after terminal stop"):
            EventStreamValidator.validate(events, budget=10)

    def test_whatif_call_after_stop_rejected(self):
        events = [
            _event(1, "stop", 0, reason="plateau"),
            _event(2, "whatif_call", 1, qid="q1"),
        ]
        with pytest.raises(InvariantViolationError, match="after terminal stop"):
            EventStreamValidator.validate(events)

    def test_calls_used_beyond_budget_rejected(self):
        events = [_event(1, "whatif_call", 11, qid="q1")]
        with pytest.raises(InvariantViolationError, match="budget"):
            EventStreamValidator.validate(events, budget=10)

    def test_too_many_grants_rejected(self):
        events = [
            _event(i, "budget_grant", min(i, 2), qid="q1") for i in range(1, 4)
        ]
        with pytest.raises(InvariantViolationError, match="budget_grant"):
            EventStreamValidator.validate(events, budget=2)

    def test_nonmonotone_checkpoint_rejected(self):
        events = [
            _event(1, "checkpoint", 5, size=1),
            _event(2, "checkpoint", 3, size=2),
        ]
        with pytest.raises(InvariantViolationError, match="checkpoint"):
            EventStreamValidator.validate(events)

    def test_ordinal_regression_rejected(self):
        events = [
            _event(2, "phase", 0, name="a"),
            _event(2, "phase", 0, name="b"),
        ]
        with pytest.raises(InvariantViolationError, match="ordinal"):
            EventStreamValidator.validate(events)

    def test_checkpoint_after_stop_allowed(self):
        events = [
            _event(1, "stop", 3, reason="plateau"),
            _event(2, "checkpoint", 3, size=1),
        ]
        EventStreamValidator.validate(events, budget=10)

    def test_real_session_stream_passes(self, toy_workload, small_constraints):
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=60, constraints=small_constraints
        )
        validator = EventStreamValidator.validate(result.events, budget=result.budget)
        assert validator.checked == len(result.events)


class TestSessionInstallation:
    def test_env_knob_installs_sanitizers(
        self, monkeypatch, toy_workload, small_constraints
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=60, constraints=small_constraints
        )
        owners = [
            getattr(observer, "__self__", None)
            for observer in result.optimizer.cost_observers
        ]
        assert any(isinstance(owner, MonotonicityChecker) for owner in owners)

    def test_default_is_off(self, monkeypatch, toy_workload, small_constraints):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=60, constraints=small_constraints
        )
        assert result.optimizer.cost_observers == ()

    def test_install_is_idempotent(self, toy_workload, toy_candidates):
        session = TuningSession(toy_workload, toy_candidates, budget=30)
        first = install_session_sanitizers(session)
        second = install_session_sanitizers(session)
        assert first.monotonicity is second.monotonicity
        assert first.events is second.events
        assert len(session.optimizer.cost_observers) == 1
        assert len(session.events.observers) == 1

    def test_sanitizers_do_not_change_outcomes(
        self, monkeypatch, toy_workload, small_constraints
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        baseline = VanillaGreedyTuner().tune(
            toy_workload, budget=60, constraints=small_constraints
        )
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = VanillaGreedyTuner().tune(
            toy_workload, budget=60, constraints=small_constraints
        )
        assert sanitized.configuration == baseline.configuration
        assert sanitized.calls_used == baseline.calls_used
        assert sanitized.estimated_cost == baseline.estimated_cost
        assert [
            (c.ordinal, c.qid, c.configuration) for c in sanitized.optimizer.call_log
        ] == [
            (c.ordinal, c.qid, c.configuration) for c in baseline.optimizer.call_log
        ]
