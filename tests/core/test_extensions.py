"""Tests for the extension knobs beyond the paper's default configuration:
Boltzmann selection, episode query-selection strategies, and RAVE blending."""

import pytest

from repro.config import MCTSConfig, TuningConstraints
from repro.core.search import MCTSSearch
from repro.exceptions import ConstraintError
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession


def run_search(workload, candidates, config, budget=50, k=4, seed=0):
    optimizer = WhatIfOptimizer(workload, budget=budget)
    search = MCTSSearch(
        TuningSession(
            workload,
            candidates,
            TuningConstraints(max_indexes=k),
            backend=optimizer,
        ),
        config=config,
        seed=seed,
    )
    configuration, _ = search.run()
    return optimizer, configuration


class TestConfigValidation:
    def test_boltzmann_policy_accepted(self):
        config = MCTSConfig(selection_policy="boltzmann")
        assert config.boltzmann_temperature > 0

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConstraintError):
            MCTSConfig(selection_policy="boltzmann", boltzmann_temperature=0.0)

    def test_bad_episode_query_selection_rejected(self):
        with pytest.raises(ConstraintError):
            MCTSConfig(episode_query_selection="psychic")

    def test_bad_rave_weight_rejected(self):
        with pytest.raises(ConstraintError):
            MCTSConfig(rave_weight=1.5)

    def test_unknown_selection_policy_rejected(self):
        with pytest.raises(ConstraintError):
            MCTSConfig(selection_policy="thompson")


class TestBoltzmannSearch:
    def test_runs_within_budget(self, toy_workload, toy_candidates):
        config = MCTSConfig(selection_policy="boltzmann")
        optimizer, configuration = run_search(toy_workload, toy_candidates, config)
        assert optimizer.calls_used <= 50
        assert len(configuration) <= 4

    def test_finds_improvement(self, toy_workload, toy_candidates):
        config = MCTSConfig(selection_policy="boltzmann")
        optimizer, configuration = run_search(
            toy_workload, toy_candidates, config, budget=100
        )
        improvement = 1 - optimizer.true_workload_cost(configuration) / (
            optimizer.empty_workload_cost()
        )
        assert improvement > 0


class TestEpisodeQuerySelection:
    @pytest.mark.parametrize("mode", ["cost_proportional", "uniform", "round_robin"])
    def test_all_modes_run(self, toy_workload, toy_candidates, mode):
        config = MCTSConfig(episode_query_selection=mode)
        optimizer, configuration = run_search(toy_workload, toy_candidates, config)
        assert optimizer.calls_used <= 50

    def test_round_robin_spreads_episode_calls(self, toy_workload, toy_candidates):
        config = MCTSConfig(
            episode_query_selection="round_robin", use_priors=False
        )
        optimizer, _ = run_search(toy_workload, toy_candidates, config, budget=36)
        touched = {entry.qid for entry in optimizer.call_log}
        assert len(touched) >= len(toy_workload) // 2


class TestRAVE:
    def test_rave_runs_within_budget(self, toy_workload, toy_candidates):
        config = MCTSConfig(rave_weight=0.5)
        optimizer, configuration = run_search(toy_workload, toy_candidates, config)
        assert optimizer.calls_used <= 50
        assert len(configuration) <= 4

    def test_rave_accumulates_amaf_stats(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=50)
        search = MCTSSearch(
            TuningSession(
                toy_workload,
                toy_candidates,
                TuningConstraints(max_indexes=4),
                backend=optimizer,
            ),
            config=MCTSConfig(rave_weight=0.5),
            seed=0,
        )
        search.run()
        assert search._amaf_visits.any()  # AMAF statistics were recorded

    def test_zero_weight_disables_amaf(self, toy_workload, toy_candidates):
        optimizer = WhatIfOptimizer(toy_workload, budget=50)
        search = MCTSSearch(
            TuningSession(
                toy_workload,
                toy_candidates,
                TuningConstraints(max_indexes=4),
                backend=optimizer,
            ),
            config=MCTSConfig(rave_weight=0.0),
            seed=0,
        )
        search.run()
        assert not search._amaf_visits.any()

    def test_rave_quality_comparable(self, toy_workload, toy_candidates):
        """RAVE must not catastrophically hurt the default configuration."""
        base_opt, base_config = run_search(
            toy_workload, toy_candidates, MCTSConfig(), budget=100
        )
        rave_opt, rave_config = run_search(
            toy_workload, toy_candidates, MCTSConfig(rave_weight=0.3), budget=100
        )
        base_imp = 1 - base_opt.true_workload_cost(base_config) / base_opt.empty_workload_cost()
        rave_imp = 1 - rave_opt.true_workload_cost(rave_config) / rave_opt.empty_workload_cost()
        assert rave_imp >= base_imp - 0.25
