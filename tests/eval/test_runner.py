"""Experiment runner tests."""

import pytest

from repro.backend import BackendSpec
from repro.config import ReproConfig, TuningConstraints
from repro.eval.runner import ExperimentRunner
from repro.exceptions import TuningError
from repro.tuners import DTATuner, MCTSTuner, VanillaGreedyTuner
from repro.workload.suites import get_workload


class TestRunCell:
    def test_deterministic_cell_runs_once(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(toy_workload, candidates=toy_candidates, seeds=[1, 2, 3])
        record = runner.run_cell(
            lambda seed: VanillaGreedyTuner(),
            budget=40,
            constraints=TuningConstraints(max_indexes=3),
            stochastic=False,
        )
        assert len(record.seeds) == 1
        assert record.improvement_std == 0.0

    def test_stochastic_cell_averages_seeds(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(toy_workload, candidates=toy_candidates, seeds=[1, 2, 3])
        record = runner.run_cell(
            lambda seed: MCTSTuner(seed=seed),
            budget=40,
            constraints=TuningConstraints(max_indexes=3),
        )
        assert len(record.seeds) == 3
        assert 0 <= record.improvement_mean <= 100

    def test_results_retained_when_requested(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(
            toy_workload, candidates=toy_candidates, seeds=[1], keep_results=True
        )
        record = runner.run_cell(
            lambda seed: VanillaGreedyTuner(),
            budget=30,
            constraints=TuningConstraints(max_indexes=3),
            stochastic=False,
        )
        assert len(record.results) == 1

    def test_results_dropped_when_disabled(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(
            toy_workload, candidates=toy_candidates, seeds=[1], keep_results=False
        )
        record = runner.run_cell(
            lambda seed: VanillaGreedyTuner(),
            budget=30,
            constraints=TuningConstraints(max_indexes=3),
            stochastic=False,
        )
        assert record.results == []


class TestRunGrid:
    def test_grid_shape(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(
            toy_workload, candidates=toy_candidates, seeds=[1], keep_results=False
        )
        roster = {
            "vanilla": (lambda seed: VanillaGreedyTuner(), False),
            "mcts": (lambda seed: MCTSTuner(seed=seed), True),
        }
        records = runner.run_grid(roster, budgets=[20, 40], k_values=[2, 3])
        assert len(records) == 2 * 2 * 2
        assert {r.max_indexes for r in records} == {2, 3}
        assert {r.budget for r in records} == {20, 40}

    def test_storage_constraint_threads_through(self, toy_workload, toy_candidates):
        cap = 2 * min(ix.estimated_size_bytes for ix in toy_candidates)
        runner = ExperimentRunner(toy_workload, candidates=toy_candidates, seeds=[1])
        records = runner.run_grid(
            {"vanilla": (lambda seed: VanillaGreedyTuner(), False)},
            budgets=[40],
            k_values=[5],
            max_storage_bytes=cap,
        )
        result = records[0].results[0]
        used = sum(ix.estimated_size_bytes for ix in result.configuration)
        assert used <= cap


class TestBudgetPolicies:
    def test_wii_cell_records_policy_and_events(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(toy_workload, candidates=toy_candidates, seeds=[1])
        record = runner.run_cell(
            lambda seed: VanillaGreedyTuner(),
            budget=40,
            constraints=TuningConstraints(max_indexes=3),
            stochastic=False,
            config=ReproConfig.from_env(budget_policy="wii"),
        )
        assert record.budget_policy == "wii"
        assert record.calls_used <= 40
        assert record.event_counts.get("whatif_call", 0) == record.calls_used
        # Wii slices the budget per query, so some calls are denied even
        # though the global meter would have granted them under FCFS.
        assert record.event_counts.get("budget_deny", 0) >= 1

    def test_esc_cell_collects_stop_reasons(
        self, toy_workload, toy_candidates, monkeypatch
    ):
        # An unreachable min_delta forces the plateau stop as early as the
        # patience guard allows; the knobs flow in via the env config.
        monkeypatch.setenv("REPRO_BUDGET_POLICY", "esc")
        monkeypatch.setenv("REPRO_ESC_PATIENCE", "1")
        monkeypatch.setenv("REPRO_ESC_MIN_DELTA", "100.0")
        runner = ExperimentRunner(toy_workload, candidates=toy_candidates, seeds=[1])
        record = runner.run_cell(
            lambda seed: VanillaGreedyTuner(),
            budget=5000,
            constraints=TuningConstraints(max_indexes=3),
            stochastic=False,
        )
        assert record.budget_policy == "esc"
        assert record.stop_reasons and "plateau" in record.stop_reasons[0]
        assert record.event_counts.get("stop", 0) == 1
        assert record.calls_used < 5000

    def test_grid_threads_the_policy_through(self, toy_workload, toy_candidates):
        runner = ExperimentRunner(
            toy_workload, candidates=toy_candidates, seeds=[1], keep_results=False
        )
        records = runner.run_grid(
            {"vanilla": (lambda seed: VanillaGreedyTuner(), False)},
            budgets=[30],
            k_values=[3],
            config=ReproConfig.from_env(budget_policy="wii"),
        )
        assert [r.budget_policy for r in records] == ["wii"]


class TestBackendResolution:
    """A cell resolves its backend once, in the parent, and records it."""

    @staticmethod
    def _dta_cell(config=None):
        runner = ExperimentRunner(get_workload("toy"), seeds=[1])
        return runner.run_cell(
            lambda seed: DTATuner(),
            40,
            TuningConstraints(max_indexes=5),
            stochastic=False,
            config=config,
        )

    def test_default_backend_is_the_one_recorded(self, monkeypatch):
        for name in ("REPRO_BACKEND", "REPRO_NOISE", "REPRO_NOISE_SEED"):
            monkeypatch.delenv(name, raising=False)
        analytic = self._dta_cell()
        noisy = self._dta_cell(
            ReproConfig.from_env(backend=BackendSpec(name="noisy"))
        )
        monkeypatch.setenv("REPRO_BACKEND", "noisy")
        resolved = self._dta_cell()
        assert (analytic.backend, round(analytic.improvement_mean, 4)) == (
            "analytic",
            49.6986,
        )
        assert (resolved.backend, round(resolved.improvement_mean, 4)) == (
            "noisy",
            48.9427,
        )
        assert resolved.improvement_mean == noisy.improvement_mean

    def test_replay_without_a_trace_fails_before_any_cell_runs(self, monkeypatch):
        def no_cells(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("a cell ran")

        monkeypatch.setattr(ExperimentRunner, "_cell_specs", no_cells)
        with pytest.raises(TuningError, match="requires a trace path"):
            self._dta_cell(ReproConfig(backend=BackendSpec(name="replay")))


class TestPolicyResolution:
    """A cell resolves its budget policy once, in the parent, runs every
    seed under it and records it — serial and pooled alike."""

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_environment_policy_runs_and_is_recorded(
        self, monkeypatch, untimed, parallel
    ):
        outcomes = []
        aggregate = ExperimentRunner._aggregate

        def spy(self, cell_outcomes, *args):
            outcomes.extend(cell_outcomes)
            return aggregate(self, cell_outcomes, *args)

        monkeypatch.setattr(ExperimentRunner, "_aggregate", spy)

        def cell(config=None):
            runner = ExperimentRunner(
                get_workload("toy"), seeds=[1, 2], keep_results=False, parallel=parallel
            )
            return runner.run_cell(
                lambda seed: MCTSTuner(seed=seed),
                30,
                TuningConstraints(max_indexes=3),
                config=config,
            )

        monkeypatch.setenv("REPRO_BUDGET_POLICY", "wii")
        resolved = cell()
        assert resolved.budget_policy == "wii"
        grants = [
            event.payload["policy"]
            for outcome in outcomes
            for event in outcome.events
            if event.kind == "budget_grant"
        ]
        assert len(outcomes) == 2
        assert grants and set(grants) == {"wii"}
        monkeypatch.delenv("REPRO_BUDGET_POLICY")
        explicit = cell(ReproConfig.from_env(budget_policy="wii"))
        assert untimed(resolved) == untimed(explicit)
