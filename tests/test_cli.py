"""CLI tests (in-process via repro.cli.main)."""

import pytest

from repro.cli import main


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("job", "tpch", "tpcds", "real_d", "real_m"):
            assert name in out


class TestTuneCommand:
    def test_tune_with_call_budget(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "60", "--max-indexes", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert "recommended configuration" in out

    def test_tune_with_time_budget(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--minutes", "5", "--algo", "vanilla"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time budget" in out

    def test_tune_each_algorithm_smoke(self, capsys):
        for algo in ("vanilla", "two_phase", "autoadmin", "dta", "random"):
            assert main(
                ["tune", "--workload", "tpch", "--budget", "25", "--algo", algo,
                 "--max-indexes", "3"]
            ) == 0

    def test_min_improvement_can_suppress_recommendation(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "20",
             "--min-improvement", "99"]
        )
        assert code == 0
        assert "no indexes recommended" in capsys.readouterr().out

    def test_budget_and_minutes_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "tpch", "--budget", "10", "--minutes", "5"])

    def test_requires_some_budget(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "tpch"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "nope", "--budget", "10"])


class TestExplainCommand:
    def test_shows_before_and_after_plans(self, capsys):
        code = main(
            ["explain", "--workload", "tpch", "--query", "q6", "--budget", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan without hypothetical indexes" in out
        assert "plan with the recommended configuration" in out

    def test_unknown_query_is_clean_error(self, capsys):
        code = main(
            ["explain", "--workload", "tpch", "--query", "zz", "--budget", "10"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCompressCommand:
    def test_compress_reports_representatives(self, capsys):
        code = main(["compress", "--workload", "tpch", "--target", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "22 queries -> 5 representatives" in out


class TestTuneFlags:
    def test_mcts_policy_flags(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "30", "--algo", "mcts",
             "--selection", "uct", "--rollout", "random", "--extraction", "bce"]
        )
        assert code == 0

    def test_boltzmann_selection_flag(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "30",
             "--selection", "boltzmann"]
        )
        assert code == 0

    def test_storage_cap_flag(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "40",
             "--max-storage-gb", "2"]
        )
        assert code == 0

    def test_invalid_selection_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "tpch", "--budget", "10",
                  "--selection", "psychic"])


class TestBudgetPolicyFlags:
    def test_wii_policy_flag(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "30", "--algo", "vanilla",
             "--budget-policy", "wii"]
        )
        assert code == 0
        assert "improvement" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "tpch", "--budget", "10",
                  "--budget-policy", "lifo"])

    def test_trace_round_trips_through_jsonl(self, capsys, tmp_path):
        import json

        from repro.budget.events import SessionEvent

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["tune", "--workload", "tpch", "--budget", "30", "--algo", "vanilla",
             "--trace", str(trace)]
        )
        assert code == 0
        assert f"-> {trace}" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines
        events = [SessionEvent.from_json(json.loads(line)) for line in lines]
        kinds = {event.kind for event in events}
        assert "whatif_call" in kinds
        assert "checkpoint" in kinds
        # Round-trip is lossless: serialising again reproduces the file.
        assert [json.dumps(e.to_json()) for e in events] == lines

    def test_whatif_cache_shard_replays_the_session(self, capsys, tmp_path, monkeypatch):
        import re

        from repro.optimizer.cost_model import CostModel

        args = ["tune", "--workload", "tpch", "--budget", "60", "--algo", "vanilla"]
        assert main([*args, "--whatif-cache", str(tmp_path)]) == 0
        recorded = capsys.readouterr().out.splitlines()
        (shard,) = tmp_path.glob("whatif-*.jsonl")
        assert recorded[-1] == f"what-if shard: {shard}"

        def boom(self, prepared, key):
            raise AssertionError("replay must not invoke the cost model")

        monkeypatch.setattr(CostModel, "cost", boom)
        assert main([*args, "--backend", "replay", "--backend-trace", str(shard)]) == 0
        replayed = capsys.readouterr().out.splitlines()
        (note,) = [line for line in replayed if line.startswith("replayed ")]
        assert note.endswith("pricings from the trace (zero cost-model invocations)")

        def normalize(lines):
            return [
                re.sub(r"[0-9.]+s in the cost model", "", line)
                for line in lines
                if not line.startswith("replayed ")
            ]

        assert normalize(replayed) == normalize(recorded)

    def test_trace_to_stdout(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "20", "--algo", "vanilla",
             "--trace", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"kind": "whatif_call"' in out


class TestTuneMultiSeed:
    def test_seeds_reports_mean_and_per_seed(self, capsys):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "40", "--algo", "mcts",
             "--max-indexes", "4", "--seeds", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "over 3 seeds" in out
        assert out.count("seed ") == 3

    def test_jobs_matches_serial(self, capsys):
        args = ["tune", "--workload", "tpch", "--budget", "40", "--algo",
                "mcts", "--max-indexes", "4", "--seeds", "2"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        # Same improvement lines; only the jobs note differs.
        assert [line for line in serial.splitlines() if "seed " in line] == [
            line for line in pooled.splitlines() if "seed " in line
        ]

    def test_seeds_rejects_minutes(self):
        code = main(
            ["tune", "--workload", "tpch", "--minutes", "5", "--seeds", "2"]
        )
        assert code == 2

    def test_seeds_rejects_trace(self):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "20", "--seeds", "2",
             "--trace", "-"]
        )
        assert code == 2

    def test_nonpositive_jobs_rejected(self):
        code = main(
            ["tune", "--workload", "tpch", "--budget", "20", "--jobs", "0"]
        )
        assert code == 2


class TestEvalCommand:
    def test_fig17_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        code = main(["eval", "--figure", "fig17", "--seeds", "1", "--ks", "3"])
        assert code == 0
        assert "Figure 17" in capsys.readouterr().out

    def test_json_archive_written(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        path = tmp_path / "BENCH_fig17.json"
        code = main(
            ["eval", "--figure", "fig17", "--seeds", "1", "--ks", "3",
             "--jobs", "2", "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["figure"] == "fig17"
        assert payload["settings"]["jobs"] == 2
        assert payload["records"]
        assert payload["records"][0]["seed_metrics"]

        from repro.eval.report import validate_bench_payload

        assert validate_bench_payload(payload) == []

    def test_unknown_figure_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["eval", "--figure", "fig99"])

    def test_nonpositive_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["eval", "--figure", "table1", "--jobs", "0"]) == 2

    def test_malformed_env_var_is_a_clean_error(self, capsys, monkeypatch):
        # The flag overrides the value, but the variable is still parsed.
        monkeypatch.setenv("REPRO_NOISE", "abc")
        assert main(["eval", "--figure", "table1", "--noise", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "error: REPRO_NOISE must be a number, got 'abc'" in err
