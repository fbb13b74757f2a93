"""TuningSession engine tests: events, allowances, policies, satellites."""

import pytest

from repro.budget.events import EVENT_KINDS
from repro.config import ReproConfig
from repro.exceptions import TuningError
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners import VanillaGreedyTuner
from repro.tuners.base import TuningResult, TuningSession


class TestSessionConstruction:
    def test_rejects_backend_with_budget(self, toy_workload):
        optimizer = WhatIfOptimizer(toy_workload, budget=10)
        with pytest.raises(TuningError, match="not both"):
            TuningSession(toy_workload, backend=optimizer, budget=5)

    def test_adopts_a_live_backend(self, toy_workload):
        optimizer = WhatIfOptimizer(toy_workload, budget=10)
        session = TuningSession(toy_workload, backend=optimizer)
        assert session.optimizer is optimizer
        assert optimizer.events is session.events

    def test_budget_passthrough(self, toy_workload):
        session = TuningSession(toy_workload, budget=7)
        assert session.budget == 7
        assert session.remaining == 7
        assert not session.exhausted
        assert session.stop_reason is None
        assert session.admits(toy_workload[0])


class TestSessionEvents:
    def test_whatif_calls_are_streamed(self, toy_workload, toy_candidates):
        session = TuningSession(toy_workload, budget=5)
        config = frozenset(toy_candidates[:1])
        session.evaluated_cost(toy_workload[0], config)
        counts = session.events.counts()
        assert counts["whatif_call"] == 1
        assert counts["budget_grant"] == 1

    def test_checkpoint_records_history_and_event(self, toy_workload):
        session = TuningSession(toy_workload, budget=5)
        session.checkpoint(frozenset())
        assert session.history == [(0, frozenset())]
        [event] = [e for e in session.events if e.kind == "checkpoint"]
        assert event.payload["size"] == 0
        # FCFS does not want progress: the improvement is not computed.
        assert event.payload["improvement"] is None

    def test_phase_markers(self, toy_workload):
        session = TuningSession(toy_workload, budget=5)
        session.phase("warmup")
        [event] = session.events.events
        assert (event.kind, event.payload["name"]) == ("phase", "warmup")


class TestAllowance:
    def test_scopes_a_local_cap_and_restores(self, toy_workload, toy_candidates):
        session = TuningSession(toy_workload, budget=10)
        outer_policy = session.policy
        with session.allowance(1) as scoped:
            session.evaluated_cost(
                toy_workload[0], frozenset(toy_candidates[:1])
            )
            # Slice spent: denied locally, yet the session is not exhausted.
            assert not session.admits(toy_workload[0])
            assert not session.exhausted
            assert scoped.used == 1
        assert session.policy is outer_policy
        assert session.admits(toy_workload[0])
        assert session.calls_used == 1

    def test_restores_on_error(self, toy_workload):
        session = TuningSession(toy_workload, budget=10)
        outer_policy = session.policy
        with pytest.raises(RuntimeError):
            with session.allowance(3):
                raise RuntimeError("boom")
        assert session.policy is outer_policy


class TestPolicySelection:
    def test_policy_name_is_resolved(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload, budget=50, candidates=toy_candidates,
            optimizer_config=ReproConfig.from_env(budget_policy="wii"),
        )
        assert result.calls_used <= 50
        grants = [e for e in result.events if e.kind == "budget_grant"]
        assert grants
        assert {e.payload["policy"] for e in grants} == {"wii"}


class TestResultEvents:
    def test_result_carries_the_event_stream(
        self, toy_workload, toy_candidates, small_constraints
    ):
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=60,
            constraints=small_constraints,
            candidates=toy_candidates,
        )
        assert result.events
        kinds = {event.kind for event in result.events}
        assert kinds <= set(EVENT_KINDS)
        calls = [e for e in result.events if e.kind == "whatif_call"]
        assert len(calls) == result.calls_used
        checkpoints = [e for e in result.events if e.kind == "checkpoint"]
        assert len(checkpoints) == len(result.history)
        ordinals = [event.ordinal for event in result.events]
        assert ordinals == sorted(ordinals)


class TestSatelliteFixes:
    def test_duplicate_candidates_do_not_change_the_run(
        self, toy_workload, toy_candidates, small_constraints
    ):
        base = VanillaGreedyTuner().tune(
            toy_workload,
            budget=80,
            constraints=small_constraints,
            candidates=toy_candidates,
        )
        doubled = VanillaGreedyTuner().tune(
            toy_workload,
            budget=80,
            constraints=small_constraints,
            candidates=toy_candidates + toy_candidates,
        )
        assert doubled.configuration == base.configuration
        assert doubled.calls_used == base.calls_used
        assert doubled.estimated_cost == base.estimated_cost

    def test_improvement_history_with_zero_baseline(self, toy_workload):
        result = TuningResult(
            tuner="x",
            configuration=frozenset(),
            estimated_cost=0.0,
            baseline_cost=0.0,
            calls_used=0,
            budget=None,
            history=[(0, frozenset()), (3, frozenset())],
            optimizer=WhatIfOptimizer(toy_workload),
        )
        assert result.improvement_history() == [(0, 0.0), (3, 0.0)]
        assert result.true_improvement() == 0.0
        assert result.estimated_improvement == 0.0


class TestEarlyStopIntegration:
    def test_esc_checkpoints_compute_improvement(
        self, toy_workload, toy_candidates, small_constraints
    ):
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=None,
            candidates=toy_candidates,
            constraints=small_constraints,
            optimizer_config=ReproConfig.from_env(
                budget_policy="esc", esc_patience=1, esc_min_delta=0.0
            ),
        )
        checkpoints = [e for e in result.events if e.kind == "checkpoint"]
        assert checkpoints
        assert all(
            event.payload["improvement"] is not None for event in checkpoints
        )

    def test_esc_stop_emits_a_stop_event(self, toy_workload, toy_candidates):
        # min_delta=100pp is unreachable: the policy must stop as soon as
        # the min-checkpoint guard allows and record why.
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=5000,
            candidates=toy_candidates,
            optimizer_config=ReproConfig.from_env(
                budget_policy="esc", esc_patience=1, esc_min_delta=100.0
            ),
        )
        assert result.stop_reason is not None
        assert "plateau" in result.stop_reason
        stops = [e for e in result.events if e.kind == "stop"]
        assert len(stops) == 1
        assert stops[0].payload["reason"] == result.stop_reason
        assert result.calls_used < 5000  # the stop, not the meter, ended it
