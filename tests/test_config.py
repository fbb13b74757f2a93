"""Configuration object tests: TuningConstraints, MCTSConfig, presets."""

import pytest

from repro.catalog import Index
from repro.config import ABLATION_PRESETS, MCTSConfig, TuningConstraints
from repro.exceptions import ConstraintError, TuningError


class TestTuningConstraints:
    def test_defaults(self):
        constraints = TuningConstraints()
        assert constraints.max_indexes == 10
        assert constraints.max_storage_bytes is None
        assert constraints.min_improvement_percent is None

    def test_rejects_zero_indexes(self):
        with pytest.raises(ConstraintError):
            TuningConstraints(max_indexes=0)

    def test_rejects_non_positive_storage(self):
        with pytest.raises(ConstraintError):
            TuningConstraints(max_storage_bytes=0)

    def test_admits_cardinality(self, star_schema):
        fact = star_schema.table("fact")
        indexes = [Index.build(fact, [c]) for c in ("fk1", "fk2", "cat")]
        constraints = TuningConstraints(max_indexes=2)
        assert constraints.admits(indexes[:2])
        assert not constraints.admits(indexes)

    def test_admits_storage_with_extra(self, star_schema):
        fact = star_schema.table("fact")
        index = Index.build(fact, ["fk1"])
        cap = index.estimated_size_bytes + 10
        constraints = TuningConstraints(max_indexes=5, max_storage_bytes=cap)
        assert constraints.admits([index])
        assert not constraints.admits([index], extra_bytes=index.estimated_size_bytes)

    def test_admits_empty_configuration(self):
        assert TuningConstraints(max_indexes=1).admits([])


class TestMCTSConfig:
    def test_paper_defaults(self):
        config = MCTSConfig()
        assert config.selection_policy == "epsilon_greedy"
        assert config.rollout_policy == "myopic"
        assert config.myopic_step == 0
        assert config.extraction == "bg"
        assert config.use_priors
        assert config.prior_budget_fraction == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"selection_policy": "nope"},
            {"rollout_policy": "nope"},
            {"extraction": "nope"},
            {"prior_query_selection": "nope"},
            {"prior_index_selection": "nope"},
            {"prior_budget_fraction": 1.5},
            {"prior_budget_fraction": -0.1},
            {"myopic_step": -1},
            {"uct_lambda": -1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConstraintError):
            MCTSConfig(**kwargs)

    def test_frozen(self):
        config = MCTSConfig()
        with pytest.raises(Exception):
            config.extraction = "bce"


class TestAblationPresets:
    def test_four_figure_series(self):
        assert set(ABLATION_PRESETS) == {
            "uct_only",
            "uct_greedy",
            "prior_only",
            "prior_greedy",
        }

    def test_preset_semantics(self):
        assert ABLATION_PRESETS["uct_only"].selection_policy == "uct"
        assert ABLATION_PRESETS["uct_only"].extraction == "bce"
        assert not ABLATION_PRESETS["uct_only"].use_priors
        assert ABLATION_PRESETS["prior_greedy"].selection_policy == "epsilon_greedy"
        assert ABLATION_PRESETS["prior_greedy"].extraction == "bg"
        assert ABLATION_PRESETS["prior_greedy"].use_priors


class TestReproConfigBudgetKnobs:
    def test_defaults(self):
        from repro.config import ReproConfig

        config = ReproConfig()
        assert config.budget_policy == "fcfs"
        assert config.wii_release_rate == 0.5
        assert config.esc_patience == 3
        assert config.esc_min_delta == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_policy": "lifo"},
            {"wii_release_rate": 0.0},
            {"wii_release_rate": 1.5},
            {"esc_patience": 0},
            {"esc_min_delta": -0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        from repro.config import ReproConfig

        with pytest.raises(ConstraintError):
            ReproConfig(**kwargs)

    def test_from_env_reads_policy_knobs(self, monkeypatch):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_BUDGET_POLICY", "esc+wii")
        monkeypatch.setenv("REPRO_WII_RELEASE_RATE", "0.25")
        monkeypatch.setenv("REPRO_ESC_PATIENCE", "5")
        monkeypatch.setenv("REPRO_ESC_MIN_DELTA", "0.75")
        config = ReproConfig.from_env()
        assert config.budget_policy == "esc+wii"
        assert config.wii_release_rate == 0.25
        assert config.esc_patience == 5
        assert config.esc_min_delta == 0.75

    def test_from_env_rejects_garbage_numbers(self, monkeypatch):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_ESC_PATIENCE", "soon")
        with pytest.raises(ConstraintError):
            ReproConfig.from_env()

    def test_from_env_flags_win_and_none_defers(self, monkeypatch):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_BUDGET_POLICY", "esc")
        monkeypatch.setenv("REPRO_ESC_PATIENCE", "5")
        monkeypatch.setenv("REPRO_WHATIF_CACHE", "env-cache")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        config = ReproConfig.from_env(
            budget_policy="wii", whatif_cache=None, sanitize=None, esc_min_delta=0.5
        )
        assert config == ReproConfig(
            whatif_cache="env-cache",
            budget_policy="wii",
            esc_patience=5,
            esc_min_delta=0.5,
            sanitize=True,
        )
        monkeypatch.delenv("REPRO_BUDGET_POLICY")
        assert ReproConfig.from_env().budget_policy == "fcfs"
        assert ReproConfig.from_env(sanitize=False).sanitize is False

    @pytest.mark.parametrize("value", ["", "0", "false", "False", "no", "NO", "off", "Off"])
    def test_sanitize_off_words(self, monkeypatch, value):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert ReproConfig.from_env().sanitize is False

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "yes", "Yes", "on", "ON"])
    def test_sanitize_on_words(self, monkeypatch, value):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert ReproConfig.from_env().sanitize is True

    def test_sanitize_unset_is_off(self, monkeypatch):
        from repro.config import ReproConfig

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert ReproConfig.from_env().sanitize is False

    @pytest.mark.parametrize("value", ["2", "enabled", "y", "n", " 1", "of"])
    def test_sanitize_rejects_other_words(self, monkeypatch, value):
        from repro.config import ReproConfig

        monkeypatch.setenv("REPRO_SANITIZE", value)
        with pytest.raises(ConstraintError, match="REPRO_SANITIZE"):
            ReproConfig.from_env()

    def test_from_env_takes_a_built_backend(self, monkeypatch):
        from repro.config import BackendSpec, ReproConfig

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        spec = BackendSpec(name="noisy", noise=0.4)
        # A built spec wins whole: the backend's variables are not read.
        assert ReproConfig.from_env(backend=spec).backend is spec
        with pytest.raises(ConstraintError, match="unknown backend"):
            ReproConfig.from_env()


#: Each backend setting's variable, with a value that is not its default.
_BACKEND_ENV = {
    "REPRO_BACKEND": "postgres",
    "REPRO_BACKEND_TRACE": "shard.jsonl",
    "REPRO_NOISE": "0.3",
    "REPRO_NOISE_SEED": "7",
    "REPRO_PG_DSN": "postgresql://host/db",
    "REPRO_PG_SCHEMA": "tuning",
}


class TestBackendSpec:
    @pytest.fixture
    def env(self, monkeypatch):
        for name in _BACKEND_ENV:
            monkeypatch.delenv(name, raising=False)
        return monkeypatch

    def test_from_env_defaults(self, env):
        from repro.config import BackendSpec

        assert BackendSpec.from_env() == BackendSpec()

    @pytest.mark.parametrize(
        "variable, field, value",
        [
            ("REPRO_BACKEND", "name", "postgres"),
            ("REPRO_BACKEND_TRACE", "trace_path", "shard.jsonl"),
            ("REPRO_NOISE", "noise", 0.3),
            ("REPRO_NOISE_SEED", "noise_seed", 7),
            ("REPRO_PG_DSN", "pg_dsn", "postgresql://host/db"),
            ("REPRO_PG_SCHEMA", "pg_schema", "tuning"),
        ],
    )
    def test_from_env_reads_each_variable(self, env, variable, field, value):
        from dataclasses import replace

        from repro.config import BackendSpec

        env.setenv(variable, _BACKEND_ENV[variable])
        assert BackendSpec.from_env() == replace(BackendSpec(), **{field: value})

    def test_flags_win_and_none_defers(self, env):
        from repro.config import BackendSpec

        for name, value in _BACKEND_ENV.items():
            env.setenv(name, value)
        spec = BackendSpec.from_env(name="noisy", noise=0.5, pg_schema=None)
        assert spec == BackendSpec(
            name="noisy",
            trace_path="shard.jsonl",
            noise=0.5,
            noise_seed=7,
            pg_dsn="postgresql://host/db",
            pg_schema="tuning",
        )

    @pytest.mark.parametrize(
        "variable, value",
        [("REPRO_NOISE", "abc"), ("REPRO_NOISE_SEED", "1.5")],
    )
    def test_malformed_number_names_its_variable(self, env, variable, value):
        from repro.config import BackendSpec

        env.setenv(variable, value)
        with pytest.raises(ConstraintError, match=f"^{variable} must be"):
            BackendSpec.from_env()

    def test_invalid_settings_rejected(self, env):
        from repro.config import BackendSpec

        with pytest.raises(ConstraintError, match="unknown backend 'bogus'"):
            BackendSpec(name="bogus")
        with pytest.raises(ConstraintError, match="noise must be non-negative"):
            BackendSpec(noise=-0.1)
        env.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ConstraintError, match="unknown backend"):
            BackendSpec.from_env()

    def test_pickles(self):
        import pickle

        from repro.config import BackendSpec

        spec = BackendSpec(name="noisy", noise=0.2, noise_seed=3)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_explicit_config_keeps_the_analytic_backend(self, env):
        from repro.config import BackendSpec, ReproConfig

        env.setenv("REPRO_BACKEND", "noisy")
        assert ReproConfig().backend == BackendSpec()
        assert ReproConfig.from_env().backend.name == "noisy"

    def test_config_from_env_holds_the_env_spec(self, env):
        from repro.config import BackendSpec, ReproConfig

        for name, value in _BACKEND_ENV.items():
            env.setenv(name, value)
        env.setenv("REPRO_WHATIF_CACHE", "pcache")
        config = ReproConfig.from_env()
        assert config.backend == BackendSpec.from_env()
        assert config.whatif_cache == "pcache"

    def test_reexported_by_the_backend_package(self):
        import repro
        import repro.backend
        import repro.backend.factory
        from repro.config import BackendSpec

        assert repro.BackendSpec is BackendSpec
        assert repro.backend.BackendSpec is BackendSpec
        assert repro.backend.factory.BackendSpec is BackendSpec

    def test_resolve_spec(self, env):
        from repro.backend.factory import resolve_spec
        from repro.config import BackendSpec, ReproConfig

        config = ReproConfig(backend=BackendSpec(name="noisy", noise=0.4))
        spec = BackendSpec(name="postgres")
        assert resolve_spec(spec, config) is spec
        assert resolve_spec(None, config) is config.backend
        assert resolve_spec("analytic", config) == BackendSpec(noise=0.4)
        env.setenv("REPRO_BACKEND", "noisy")
        assert resolve_spec(None) == BackendSpec(name="noisy")
        env.setenv("REPRO_BACKEND", "replay")
        with pytest.raises(TuningError, match="trace path"):
            resolve_spec(None)
        env.setenv("REPRO_BACKEND_TRACE", "shard.jsonl")
        assert resolve_spec(None) == BackendSpec(name="replay", trace_path="shard.jsonl")


class TestSuiteIsolation:
    """``tests/conftest.py`` unsets every setting the ``from_env`` readers
    read, except the ones CI and the live Postgres tests rely on."""

    KEPT = frozenset({"REPRO_SANITIZE", "REPRO_PG_DSN", "REPRO_PG_SCHEMA"})

    def test_every_other_setting_is_cleared(self):
        import re
        from pathlib import Path

        import repro.config
        from tests.conftest import _CLEARED_SETTINGS

        source = Path(repro.config.__file__).read_text(encoding="utf-8")
        read = set(re.findall(r'"(REPRO_[A-Z_]+)"', source))
        assert read - self.KEPT == set(_CLEARED_SETTINGS)

    def test_cleared_settings_are_unset(self):
        import os

        from tests.conftest import _CLEARED_SETTINGS

        assert [name for name in _CLEARED_SETTINGS if name in os.environ] == []
