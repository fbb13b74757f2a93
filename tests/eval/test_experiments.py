"""Experiment definition tests (tiny scales — the benches run the real grids)."""

import pytest

from repro.backend import BackendSpec
from repro.config import ReproConfig
from repro.eval.experiments import (
    NOISE_GRID,
    ExperimentSettings,
    convergence,
    figure2_whatif_time,
    greedy_comparison,
    parse_k_values,
    rl_comparison,
    robustness,
    table1_workload_statistics,
)
from repro.exceptions import ConstraintError


@pytest.fixture(scope="module")
def tiny():
    return ExperimentSettings(scale=0.02, seeds=1, k_values=(3,))


class TestSettings:
    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        monkeypatch.delenv("REPRO_KS", raising=False)
        settings = ExperimentSettings.from_env()
        assert settings.scale == 0.1
        assert settings.seeds == 3
        assert settings.k_values == (5, 10, 20)

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SEEDS", "2")
        monkeypatch.setenv("REPRO_KS", "4,8")
        settings = ExperimentSettings.from_env()
        assert settings.scale == 0.5
        assert settings.seeds == 2
        assert settings.k_values == (4, 8)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_NOISE", "abc"),
            ("REPRO_NOISE_SEED", "x"),
            ("REPRO_SCALE", "abc"),
            ("REPRO_SEEDS", "x"),
            ("REPRO_JOBS", "x"),
            ("REPRO_KS", "a,b"),
            ("REPRO_KS", " "),
        ],
    )
    def test_malformed_env_raises_constraint_error(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConstraintError, match=f"{name} must be"):
            ExperimentSettings.from_env()

    @pytest.mark.parametrize("value", ["5,x", " "])
    def test_malformed_ks_flag_is_the_same_error(self, capsys, monkeypatch, value):
        """``eval --ks`` parses like ``REPRO_KS``: one error line, exit 2,
        before any cell runs."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["eval", "--figure", "fig17", "--seeds", "1", "--ks", value]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"error: --ks must be comma-separated integers, got {value!r}"

    def test_k_values_skip_blanks_and_keep_order(self):
        assert parse_k_values(" 20, 5,,10, ", "--ks") == (20, 5, 10)

    def test_budget_grids(self):
        settings = ExperimentSettings(scale=1.0)
        assert settings.budgets_for("tpch") == [50, 100, 200, 500, 1000]
        assert settings.budgets_for("tpcds") == [1000, 2000, 3000, 4000, 5000]

    def test_budget_floor(self):
        settings = ExperimentSettings(scale=0.01)
        assert min(settings.budgets_for("tpch")) >= 10


class TestExperiments:
    def test_table1_report(self, tiny):
        text = table1_workload_statistics(tiny)
        for name in ("job", "tpch", "tpcds", "real_d", "real_m"):
            assert name in text

    def test_figure2(self, tiny):
        rows, text = figure2_whatif_time(tiny)
        assert len(rows) == 5
        assert "whatif_share" in text
        # The what-if share grows with budget (at paper-scale budgets it
        # reaches the 75-93% band — verified in test_timemodel).
        fractions = [breakdown.whatif_fraction for _, breakdown in rows]
        assert fractions == sorted(fractions)

    def test_greedy_comparison_tpch(self, tiny):
        records, text = greedy_comparison("tpch", tiny)
        tuners = {r.tuner for r in records}
        assert tuners == {
            "vanilla_greedy",
            "two_phase_greedy",
            "autoadmin_greedy",
            "mcts",
        }
        assert "Figure 17" in text

    def test_rl_comparison_tpch(self, tiny):
        records, text = rl_comparison("tpch", tiny)
        assert {r.tuner for r in records} == {"dba_bandits", "no_dba", "mcts"}
        assert "Figure 19" in text

    def test_convergence_tpch(self, tiny):
        series, text = convergence("tpch", max_indexes=3, settings=tiny)
        assert set(series) == {"dba_bandits", "no_dba", "mcts"}
        assert "Figure 21" in text


class TestMoreExperiments:
    def test_dta_comparison_with_storage(self, tiny):
        from repro.eval.experiments import dta_comparison

        records, text = dta_comparison("tpch", tiny, storage_constraint=True)
        assert {r.tuner for r in records} == {"dta", "mcts"}
        assert "with SC" in text

    def test_dta_comparison_without_storage(self, tiny):
        from repro.eval.experiments import dta_comparison

        records, text = dta_comparison("tpch", tiny, storage_constraint=False)
        assert "without SC" in text
        assert all(r.calls_used <= r.budget for r in records)

    def test_ablation_myopic(self, tiny):
        from repro.eval.experiments import ablation

        records, text = ablation("tpch", "myopic", tiny)
        assert {r.tuner for r in records} == {
            "uct_only", "uct_greedy", "prior_only", "prior_greedy",
        }
        assert "fixed step 0" in text

    def test_ablation_random(self, tiny):
        from repro.eval.experiments import ablation

        records, text = ablation("tpch", "random", tiny)
        assert "randomized step" in text

    def test_greedy_rosters_deterministic_labels(self):
        from repro.eval.experiments import dta_roster, greedy_roster, rl_roster

        assert list(greedy_roster()) == [
            "vanilla_greedy", "two_phase_greedy", "autoadmin_greedy", "mcts",
        ]
        assert list(rl_roster()) == ["dba_bandits", "no_dba", "mcts"]
        assert list(dta_roster()) == ["dta", "mcts"]


class TestJobsSetting:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert ExperimentSettings.from_env().jobs == 1

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert ExperimentSettings.from_env().jobs == 4

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert ExperimentSettings.from_env().jobs == 1

    def test_parallel_grid_matches_serial(self):
        serial = ExperimentSettings(scale=0.02, seeds=2, k_values=(3,), jobs=1)
        pooled = ExperimentSettings(scale=0.02, seeds=2, k_values=(3,), jobs=2)
        records_serial, _ = greedy_comparison("tpch", serial)
        records_pooled, _ = greedy_comparison("tpch", pooled)
        for a, b in zip(records_serial, records_pooled):
            assert (a.tuner, a.max_indexes, a.budget) == (
                b.tuner, b.max_indexes, b.budget
            )
            assert a.improvement_mean == b.improvement_mean
            assert a.calls_used == b.calls_used
            assert a.seeds == b.seeds


class TestRegistry:
    def test_known_ids(self):
        from repro.eval.experiments import EXPERIMENTS

        assert {"table1", "fig02", "fig17", "fig20", "fig21"} <= set(EXPERIMENTS)

    def test_unknown_id_rejected(self):
        from repro.exceptions import TuningError

        from repro.eval.experiments import run_experiment

        with pytest.raises(TuningError, match="unknown experiment"):
            run_experiment("fig99")

    def test_grid_artifact(self, tiny):
        from repro.eval.experiments import run_experiment

        artifact = run_experiment("fig17", tiny)
        assert artifact.figure == "fig17"
        assert artifact.records
        assert artifact.series is None
        assert "Figure 17" in artifact.text
        assert all(r.seed_metrics for r in artifact.records)

    def test_series_artifact(self, tiny):
        from repro.eval.experiments import run_experiment

        artifact = run_experiment("fig02", tiny)
        assert not artifact.records
        assert len(artifact.series["whatif_share"]) == 5

    def test_convergence_artifact_is_json_ready(self, tiny):
        import json

        from repro.eval.experiments import run_experiment

        artifact = run_experiment("fig21", tiny)
        json.dumps(artifact.series)
        assert set(artifact.series) == {"dba_bandits", "no_dba", "mcts"}


class TestBackendSelection:
    def test_settings_hold_one_config_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "noisy")
        monkeypatch.setenv("REPRO_NOISE", "0.3")
        monkeypatch.setenv("REPRO_WHATIF_CACHE", "pcache")
        monkeypatch.setenv("REPRO_BUDGET_POLICY", "wii")
        settings = ExperimentSettings.from_env()
        assert settings.config == ReproConfig.from_env()
        backend = settings.config.backend
        assert (backend.name, backend.noise) == ("noisy", 0.3)
        assert settings.config.whatif_cache == "pcache"
        assert settings.config.budget_policy == "wii"
        explicit = ReproConfig(
            backend=BackendSpec(name="postgres", pg_dsn="postgresql://x/y")
        )
        assert ExperimentSettings.from_env(explicit).config is explicit

    def test_grids_reject_replay(self):
        replay = BackendSpec(name="replay", trace_path="s.jsonl")
        with pytest.raises(ConstraintError, match="replay serves one recorded session"):
            ExperimentSettings(config=ReproConfig(backend=replay))

    def test_robustness_baseline_is_the_analytic_engine(self, monkeypatch, untimed):
        """σ = 0 runs the exact engine even when the grid's backend is noisy."""
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_SEEDS", "1")
        monkeypatch.setenv("REPRO_BACKEND", "analytic")
        analytic, _, _ = robustness("tpch", ExperimentSettings.from_env())
        monkeypatch.setenv("REPRO_BACKEND", "noisy")
        noisy, _, _ = robustness("tpch", ExperimentSettings.from_env())
        baseline = slice(None, None, len(NOISE_GRID))  # the σ = 0 cell per tuner
        assert [r.backend for r in noisy[baseline]] == ["analytic"] * 3
        assert [untimed(r) for r in noisy[baseline]] == [
            untimed(r) for r in analytic[baseline]
        ]
