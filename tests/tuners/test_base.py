"""Tuner base-class and TuningResult tests."""

import pytest

from repro.config import TuningConstraints
from repro.exceptions import TuningError
from repro.tuners import VanillaGreedyTuner
from repro.tuners.base import TuningResult, evaluated_cost
from repro.optimizer.whatif import WhatIfOptimizer


class TestEvaluatedCost:
    def test_counts_while_budget_lasts(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=1)
        config = frozenset(toy_candidates[:1])
        evaluated_cost(optimizer, toy_workload[0], config)
        assert optimizer.calls_used == 1

    def test_falls_back_to_derived(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=1)
        config = frozenset(toy_candidates[:1])
        evaluated_cost(optimizer, toy_workload[0], config)
        other = frozenset(toy_candidates[1:2])
        cost = evaluated_cost(optimizer, toy_workload[1], other)
        assert cost == optimizer.empty_cost(toy_workload[1])
        assert optimizer.calls_used == 1


class TestTuneValidation:
    def test_rejects_zero_budget(self, toy_workload):
        with pytest.raises(TuningError):
            VanillaGreedyTuner().tune(toy_workload, budget=0)

    def test_rejects_empty_candidates(self, toy_workload):
        with pytest.raises(TuningError):
            VanillaGreedyTuner().tune(toy_workload, budget=10, candidates=[])

    def test_generates_candidates_when_omitted(self, toy_workload):
        result = VanillaGreedyTuner().tune(toy_workload, budget=50)
        assert result.calls_used <= 50

    def test_unlimited_budget_allowed(self, toy_workload, toy_candidates):
        result = VanillaGreedyTuner().tune(
            toy_workload,
            budget=None,
            candidates=toy_candidates[:8],
            constraints=TuningConstraints(max_indexes=3),
        )
        assert result.budget is None


class TestTuningResult:
    @pytest.fixture
    def result(self, toy_workload, toy_candidates, small_constraints):
        return VanillaGreedyTuner().tune(
            toy_workload,
            budget=200,
            constraints=small_constraints,
            candidates=toy_candidates,
        )

    def test_true_improvement_in_range(self, result):
        assert 0.0 <= result.true_improvement() <= 100.0

    def test_estimated_improvement_from_derived(self, result):
        assert result.estimated_improvement == pytest.approx(
            (1 - result.estimated_cost / result.baseline_cost) * 100
        )

    def test_estimated_never_below_true_for_greedy(self, result):
        # Derived cost upper-bounds true cost, so the estimate is conservative.
        assert result.estimated_improvement <= result.true_improvement() + 1e-6

    def test_improvement_history_evaluates(self, result):
        points = result.improvement_history()
        assert len(points) == len(result.history)
        assert all(0 <= imp <= 100 for _, imp in points)

    def test_result_without_optimizer_raises(self):
        bare = TuningResult(
            tuner="x",
            configuration=frozenset(),
            estimated_cost=1.0,
            baseline_cost=2.0,
            calls_used=0,
            budget=None,
        )
        with pytest.raises(TuningError):
            bare.true_improvement()


class TestCandidateValidation:
    def test_foreign_schema_candidates_rejected(self, toy_workload, figure3_schema):
        from repro.catalog import Index

        foreign = Index.build(figure3_schema.table("R"), ["a"])
        with pytest.raises(TuningError, match="missing from schema"):
            VanillaGreedyTuner().tune(
                toy_workload, budget=10, candidates=[foreign]
            )


def _cli_tuner(algo):
    """A fresh tuner exactly as ``python -m repro tune --algo ALGO`` builds it."""
    from repro.cli import _ALGORITHMS, _build_parser

    args = _build_parser().parse_args(
        ["tune", "--workload", "toy", "--budget", "30", "--algo", algo]
    )
    return _ALGORITHMS[algo](args)


def _cli_algorithms():
    from repro.cli import _ALGORITHMS

    return sorted(_ALGORITHMS)


class TestOneEnvironmentRead:
    """``tune()`` without a config reads the environment once and passes that
    config to the session, the backend factory and the engine; with a config
    it reads nothing. A grid run reads it once, in the parent, and its cells
    run on that config."""

    @pytest.mark.parametrize("algo", _cli_algorithms())
    def test_tune_without_config_reads_once(
        self, env_reads, toy_workload, toy_candidates, algo
    ):
        _cli_tuner(algo).tune(toy_workload, 30, candidates=list(toy_candidates))
        assert len(env_reads) == 1

    @pytest.mark.parametrize("algo", _cli_algorithms())
    def test_tune_with_config_reads_nothing(
        self, env_reads, toy_workload, toy_candidates, algo
    ):
        from repro.config import ReproConfig

        _cli_tuner(algo).tune(
            toy_workload,
            30,
            candidates=list(toy_candidates),
            optimizer_config=ReproConfig(),
        )
        assert env_reads == []

    @pytest.mark.parametrize("algo", _cli_algorithms())
    def test_explicit_config_installs_no_sanitizer(
        self, monkeypatch, toy_workload, toy_candidates, algo
    ):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = _cli_tuner(algo).tune(
            toy_workload,
            30,
            candidates=list(toy_candidates),
            optimizer_config=ReproConfig(),
        )
        assert result.optimizer.cost_observers == ()
        assert result.optimizer.events.observers == ()

    def test_grid_reads_once_per_run(self, env_reads, toy_workload, toy_candidates):
        from repro.eval.runner import ExperimentRunner
        from repro.tuners import DTATuner

        runner = ExperimentRunner(toy_workload, list(toy_candidates), seeds=[0])
        records = runner.run_grid(
            {"dta": (lambda seed: DTATuner(), False)}, budgets=[30, 60], k_values=[3]
        )
        assert len(records) == 2
        assert len(env_reads) == 1  # the run; every cell runs on its config
