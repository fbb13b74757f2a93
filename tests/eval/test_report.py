"""Report formatting tests."""

from repro.eval.report import format_grid, format_records, format_series
from repro.eval.runner import RunRecord


def record(tuner="mcts", k=5, budget=100, mean=42.0, std=1.5, **extra):
    return RunRecord(
        workload="toy",
        tuner=tuner,
        max_indexes=k,
        budget=budget,
        improvement_mean=mean,
        improvement_std=std,
        calls_used=float(budget),
        seconds=0.1,
        **extra,
    )


class TestFormatRecords:
    def test_contains_all_rows(self):
        text = format_records([record(), record(tuner="dta")])
        assert "mcts" in text
        assert "dta" in text

    def test_numbers_rendered(self):
        assert "42.0" in format_records([record()])


class TestFormatGrid:
    def test_panel_per_k(self):
        records = [record(k=5), record(k=10)]
        text = format_grid(records, "Title")
        assert "K = 5" in text
        assert "K = 10" in text

    def test_std_rendered_for_stochastic(self):
        text = format_grid([record(std=2.0)], "T")
        assert "±" in text

    def test_std_hidden_for_deterministic(self):
        text = format_grid([record(std=0.0)], "T")
        assert "±" not in text

    def test_missing_cells_dashed(self):
        records = [record(budget=100), record(tuner="dta", budget=200)]
        text = format_grid(records, "T")
        assert "--" in text

    def test_minute_labels(self):
        text = format_grid([record(budget=1000)], "T", minute_labels={1000: 20.0})
        assert "1000(20)" in text


class TestFormatSeries:
    def test_rows_per_round(self):
        series = {"a": [(1, 10.0), (2, 20.0)], "b": [(1, 5.0)]}
        text = format_series("Conv", series)
        assert "Conv" in text
        assert "10.0" in text
        assert "20.0" in text

    def test_carried_forward_marker(self):
        series = {"a": [(1, 10.0), (2, 20.0)], "b": [(1, 5.0)]}
        text = format_series("Conv", series)
        assert "*" in text


class TestJSONExport:
    def test_roundtrips_scalars(self):
        import json

        from repro.eval.report import records_to_json

        payload = json.loads(records_to_json([record(), record(tuner="dta")]))
        assert len(payload) == 2
        assert payload[0]["tuner"] == "mcts"
        assert payload[0]["improvement_mean"] == 42.0
        assert set(payload[0]) == {
            "workload",
            "tuner",
            "max_indexes",
            "budget",
            "improvement_mean",
            "improvement_std",
            "calls_used",
            "seconds",
            "cache_hit_rate",
            "normalized_hits",
            "cost_seconds",
            "budget_policy",
            "backend",
            "event_counts",
            "stop_reasons",
            "seeds",
            "seed_metrics",
            "persistent_hits",
        }

    def test_compact_mode(self):
        from repro.eval.report import records_to_json

        assert "\n" not in records_to_json([record()], indent=None)


class TestBenchPayload:
    def _payload(self, **kwargs):
        from repro.eval.report import bench_payload

        defaults = dict(figure="fig17", records=[record(seeds=[1])])
        defaults.update(kwargs)
        return bench_payload(**defaults)

    def test_provenance_fields(self):
        from repro.eval.report import BENCH_SCHEMA_VERSION

        payload = self._payload()
        assert payload["figure"] == "fig17"
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["git_sha"] not in ("", None)
        assert payload["generated_at"] > 0
        assert payload["python"].count(".") == 2

    def test_settings_embedded(self):
        from repro.eval.experiments import ExperimentSettings

        payload = self._payload(
            settings=ExperimentSettings(scale=0.02, seeds=1, k_values=(5,), jobs=2)
        )
        assert payload["settings"] == {
            "scale": 0.02,
            "seeds": 1,
            "k_values": [5],
            "jobs": 2,
        }

    def test_records_carry_seed_metrics(self):
        payload = self._payload(
            records=[record(seeds=[1], seed_metrics=[{"seed": 1, "improvement": 42.0}])]
        )
        assert payload["records"][0]["seed_metrics"] == [
            {"seed": 1, "improvement": 42.0}
        ]

    def test_json_serializable(self):
        import json

        json.dumps(self._payload(series={"conv": [(1, 10.0)]}))

    def test_extra_merged_at_top_level(self):
        assert self._payload(extra={"note": "x"})["note"] == "x"


class TestValidateBenchPayload:
    def _valid(self, **kwargs):
        from repro.eval.report import bench_payload

        defaults = dict(figure="fig17", records=[record(seeds=[1])])
        defaults.update(kwargs)
        return bench_payload(**defaults)

    def test_valid_payload_passes(self):
        from repro.eval.report import validate_bench_payload

        assert validate_bench_payload(self._valid()) == []

    def test_empty_payload_flagged(self):
        from repro.eval.report import validate_bench_payload

        problems = validate_bench_payload(self._valid(records=None))
        assert any("neither records nor series" in p for p in problems)

    def test_missing_figure_flagged(self):
        from repro.eval.report import validate_bench_payload

        payload = self._valid()
        payload["figure"] = ""
        assert any("figure" in p for p in validate_bench_payload(payload))

    def test_unknown_sha_flagged(self):
        from repro.eval.report import validate_bench_payload

        payload = self._valid()
        payload["git_sha"] = "unknown"
        assert any("SHA" in p for p in validate_bench_payload(payload))

    def test_nan_flagged_with_path(self):
        from repro.eval.report import validate_bench_payload

        payload = self._valid(records=[record(seeds=[1], mean=float("nan"))])
        problems = validate_bench_payload(payload)
        assert any("non-finite" in p and "improvement_mean" in p for p in problems)

    def test_inf_in_series_flagged(self):
        from repro.eval.report import validate_bench_payload

        payload = self._valid(series={"conv": [(1, float("inf"))]})
        assert any("non-finite" in p for p in validate_bench_payload(payload))

    def test_seedless_record_flagged(self):
        from repro.eval.report import validate_bench_payload

        problems = validate_bench_payload(self._valid(records=[record()]))
        assert any("no seeds" in p for p in problems)

    def test_empty_series_list_flagged(self):
        from repro.eval.report import validate_bench_payload

        payload = self._valid(records=None, series={"conv": []})
        assert any("is empty" in p for p in validate_bench_payload(payload))


class TestGitSha:
    """Provenance: a payload generated from a changed checkout says so."""

    SHA = "0123456789abcdef0123456789abcdef01234567"

    def _stub_git(self, monkeypatch, status: str) -> list[list[str]]:
        import subprocess

        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.delenv("CI_COMMIT_SHA", raising=False)
        calls: list[list[str]] = []

        def run(args, **kwargs):
            calls.append(list(args))
            out = self.SHA + "\n" if args[1] == "rev-parse" else status
            return subprocess.CompletedProcess(args, 0, stdout=out, stderr="")

        monkeypatch.setattr(subprocess, "run", run)
        return calls

    def test_changed_tracked_file_marks_the_sha_dirty(self, monkeypatch):
        from repro.eval.report import _git_sha

        calls = self._stub_git(monkeypatch, " M src/repro/core/node.py\n")
        assert _git_sha() == f"{self.SHA}-dirty"
        assert ["git", "status", "--porcelain", "--untracked-files=no"] in calls

    def test_clean_checkout_gives_the_bare_sha(self, monkeypatch):
        from repro.eval.report import _git_sha

        self._stub_git(monkeypatch, "")
        assert _git_sha() == self.SHA

    def test_ci_variable_wins_without_git(self, monkeypatch):
        from repro.eval.report import _git_sha

        calls = self._stub_git(monkeypatch, " M x.py\n")
        monkeypatch.setenv("GITHUB_SHA", self.SHA)
        assert _git_sha() == self.SHA
        assert calls == []

    def test_dirty_sha_is_accepted_provenance(self, tmp_path, capsys):
        import importlib.util
        import json
        from pathlib import Path

        from repro.eval.report import bench_payload, validate_bench_payload

        payload = bench_payload("fig17", records=[record(seeds=[1])])
        payload["git_sha"] = f"{self.SHA}-dirty"
        assert validate_bench_payload(payload) == []
        path = tmp_path / "BENCH_fig17.json"
        path.write_text(json.dumps(payload))
        script = Path(__file__).resolve().parents[2] / "benchmarks" / "check_bench.py"
        spec = importlib.util.spec_from_file_location("check_bench", script)
        check_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_bench)
        assert check_bench.main([str(path)]) == 0
        assert "-dirty" in capsys.readouterr().out
