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

    def test_plan_engine_reads_no_setting(self, capsys, env_reads):
        argv = ["explain", "--workload", "tpch", "--query", "q6", "--budget", "40"]
        assert main(argv) == 0
        assert len(env_reads) == 1  # the tuning run's; the plans read none

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

    @pytest.mark.parametrize(
        "name,value", [("REPRO_BUDGET_POLICY", "bogus"), ("REPRO_SANITIZE", "maybe")]
    )
    def test_reads_no_setting(self, capsys, monkeypatch, env_reads, name, value):
        """Compression signatures come from the analytic engine on the default
        settings: a variable compress has no use for cannot fail it."""
        argv = ["compress", "--workload", "tpch", "--target", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv(name, value)
        assert main(argv) == 0
        assert capsys.readouterr() == plain
        assert env_reads == []


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

    def test_backend_flag_wins_over_the_environment(self, capsys, monkeypatch, tmp_path):
        import json

        for name, value in (
            ("REPRO_SCALE", "0.02"), ("REPRO_SEEDS", "1"), ("REPRO_KS", "3"),
        ):
            monkeypatch.setenv(name, value)

        def records(path, *flags):
            assert main(["eval", "--figure", "fig17", "--json", str(path), *flags]) == 0
            rows = json.loads(path.read_text())["records"]
            for row in [*rows, *(m for row in rows for m in row["seed_metrics"])]:
                row.pop("seconds")
                row.pop("cost_seconds")
            return rows

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        plain = records(tmp_path / "plain.json")
        monkeypatch.setenv("REPRO_BACKEND", "noisy")
        flagged = records(tmp_path / "flagged.json", "--backend", "analytic")
        noisy = records(tmp_path / "noisy.json")
        capsys.readouterr()
        assert flagged == plain
        assert {row["backend"] for row in noisy} == {"noisy"}
        assert noisy != plain

    def test_replay_is_rejected_with_one_error_line(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "replay")
        monkeypatch.setenv("REPRO_BACKEND_TRACE", str(tmp_path / "whatif-x.jsonl"))
        assert main(["eval", "--figure", "table1"]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            "error: replay serves one recorded session; experiment grids "
            "cannot run on it"
        )
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["eval", "--figure", "table1", "--backend", "analytic"]) == 0

    def test_malformed_env_var_is_a_clean_error(self, capsys, monkeypatch):
        # The flag overrides the value, but the variable is still parsed.
        monkeypatch.setenv("REPRO_NOISE", "abc")
        assert main(["eval", "--figure", "table1", "--noise", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "error: REPRO_NOISE must be a number, got 'abc'" in err


# --------------------------------------------------------------------- #
# backend settings: a flag wins over its environment variable
# --------------------------------------------------------------------- #

#: The variables behind the seven backend settings.
_BACKEND_VARS = (
    "REPRO_BACKEND",
    "REPRO_BACKEND_TRACE",
    "REPRO_NOISE",
    "REPRO_NOISE_SEED",
    "REPRO_PG_DSN",
    "REPRO_PG_SCHEMA",
    "REPRO_WHATIF_CACHE",
)

_TUNE = ["tune", "--workload", "toy", "--budget", "5", "--algo", "vanilla"]


class _Built(Exception):
    """Stops ``tune`` as soon as its session's backend is built."""


class _FakePostgres:
    """A fake Postgres connection that logs its DSN and every statement."""

    def __init__(self, dsn, log):
        log.append(f"connect {dsn}")
        self._log = log

    def cursor(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def execute(self, sql, params=None):
        self._log.append(sql)

    def fetchone(self):
        return ("16",)

    def close(self):
        pass


@pytest.fixture
def clean_backend_env(monkeypatch):
    for name in _BACKEND_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.fixture
def recorded_shards(clean_backend_env, tmp_path, capsys):
    """Two copies of one recorded ``toy`` shard, for replay."""
    assert main([*_TUNE, "--whatif-cache", str(tmp_path / "rec")]) == 0
    capsys.readouterr()
    (shard,) = (tmp_path / "rec").glob("whatif-*.jsonl")
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(shard.read_bytes())
    return {"trace_a": str(shard), "trace_b": str(copy)}


@pytest.fixture
def built_backend(clean_backend_env, recorded_shards, tmp_path):
    """Run ``tune`` up to its backend build; return a view of what it built."""
    from repro.backend.postgres import PostgresBackend
    from repro.tuners import base

    log: list[str] = []
    built = []
    real_build = base.build_backend
    real_init = PostgresBackend.__init__

    def init(self, workload, *args, **kwargs):
        kwargs.setdefault("connector", lambda dsn: _FakePostgres(dsn, log))
        real_init(self, workload, *args, **kwargs)

    def spy(*args, **kwargs):
        backend = real_build(*args, **kwargs)
        built.append(backend)
        raise _Built

    clean_backend_env.setattr(PostgresBackend, "__init__", init)
    clean_backend_env.setattr(base, "build_backend", spy)
    paths = {
        **recorded_shards,
        "A": str(tmp_path / "A"),
        "B": str(tmp_path / "B"),
    }

    def fill(value):
        return value.format(**paths) if isinstance(value, str) else value

    def run(env, flags):
        for name, value in env.items():
            clean_backend_env.setenv(name, fill(value))
        with pytest.raises(_Built):
            main([*_TUNE, *(fill(flag) for flag in flags)])
        (backend,) = built
        cache = backend.whatif_cache
        view = {
            "backend": backend.name,
            "cache": None if cache is None else str(cache),
        }
        if backend.name == "noisy":
            identity = backend.cache_identity()
            view.update(noise=identity["noise"], noise_seed=identity["noise_seed"])
        elif backend.name == "replay":
            view["trace"] = str(backend.whatif_shard)
        elif backend.name == "postgres":
            backend.server_info()
            view["connects"] = [line for line in log if line.startswith("connect ")]
            view["search_path"] = [line for line in log if "search_path" in line]
        backend.close()
        return view

    run.fill = fill
    return run


_NOISY = {"backend": "noisy", "cache": None, "noise": 0.1, "noise_seed": 0}
_PG = {"backend": "postgres", "cache": None, "search_path": []}


@pytest.mark.parametrize(
    "env, flags, expected",
    [
        # backend name
        ({}, [], {"backend": "analytic", "cache": None}),
        ({"REPRO_BACKEND": "noisy"}, [], _NOISY),
        ({}, ["--backend", "noisy"], _NOISY),
        ({"REPRO_BACKEND": "noisy"}, ["--backend", "analytic"],
         {"backend": "analytic", "cache": None}),
        # noise
        ({"REPRO_NOISE": "0.3"}, ["--backend", "noisy"], {**_NOISY, "noise": 0.3}),
        ({}, ["--backend", "noisy", "--noise", "0.5"], {**_NOISY, "noise": 0.5}),
        ({"REPRO_NOISE": "0.3"}, ["--backend", "noisy", "--noise", "0.5"],
         {**_NOISY, "noise": 0.5}),
        ({"REPRO_BACKEND": "noisy"}, ["--noise", "0.5"], {**_NOISY, "noise": 0.5}),
        # noise seed
        ({"REPRO_NOISE_SEED": "7"}, ["--backend", "noisy"],
         {**_NOISY, "noise_seed": 7}),
        ({}, ["--backend", "noisy", "--noise-seed", "9"],
         {**_NOISY, "noise_seed": 9}),
        ({"REPRO_NOISE_SEED": "7"}, ["--backend", "noisy", "--noise-seed", "9"],
         {**_NOISY, "noise_seed": 9}),
        # persistent what-if cache
        ({"REPRO_WHATIF_CACHE": "{A}"}, [], {"backend": "analytic", "cache": "{A}"}),
        ({}, ["--whatif-cache", "{B}"], {"backend": "analytic", "cache": "{B}"}),
        ({"REPRO_WHATIF_CACHE": "{A}"}, ["--whatif-cache", "{B}"],
         {"backend": "analytic", "cache": "{B}"}),
        ({"REPRO_BACKEND": "noisy", "REPRO_NOISE": "0.3"}, ["--whatif-cache", "{B}"],
         {**_NOISY, "noise": 0.3, "cache": "{B}"}),
        # replay trace
        ({"REPRO_BACKEND_TRACE": "{trace_a}"}, ["--backend", "replay"],
         {"backend": "replay", "cache": "{trace_a}", "trace": "{trace_a}"}),
        ({}, ["--backend", "replay", "--backend-trace", "{trace_b}"],
         {"backend": "replay", "cache": "{trace_b}", "trace": "{trace_b}"}),
        ({"REPRO_BACKEND_TRACE": "{trace_a}"},
         ["--backend", "replay", "--backend-trace", "{trace_b}"],
         {"backend": "replay", "cache": "{trace_b}", "trace": "{trace_b}"}),
        ({"REPRO_BACKEND": "replay"}, ["--backend-trace", "{trace_b}"],
         {"backend": "replay", "cache": "{trace_b}", "trace": "{trace_b}"}),
        ({"REPRO_BACKEND": "replay", "REPRO_BACKEND_TRACE": "{trace_a}"}, [],
         {"backend": "replay", "cache": "{trace_a}", "trace": "{trace_a}"}),
        # postgres DSN
        ({"REPRO_PG_DSN": "postgresql://env/db"}, ["--backend", "postgres"],
         {**_PG, "connects": ["connect postgresql://env/db"]}),
        ({}, ["--backend", "postgres", "--pg-dsn", "postgresql://flag/db"],
         {**_PG, "connects": ["connect postgresql://flag/db"]}),
        ({"REPRO_PG_DSN": "postgresql://env/db"},
         ["--backend", "postgres", "--pg-dsn", "postgresql://flag/db"],
         {**_PG, "connects": ["connect postgresql://flag/db"]}),
        # postgres schema
        ({}, ["--backend", "postgres", "--pg-dsn", "postgresql://x/y"],
         {**_PG, "connects": ["connect postgresql://x/y"]}),
        ({"REPRO_PG_SCHEMA": "env_schema"},
         ["--backend", "postgres", "--pg-dsn", "postgresql://x/y"],
         {**_PG, "connects": ["connect postgresql://x/y"],
          "search_path": ['SET search_path TO "env_schema", public']}),
        ({}, ["--backend", "postgres", "--pg-dsn", "postgresql://x/y",
              "--pg-schema", "flag_schema"],
         {**_PG, "connects": ["connect postgresql://x/y"],
          "search_path": ['SET search_path TO "flag_schema", public']}),
        ({"REPRO_PG_SCHEMA": "env_schema"},
         ["--backend", "postgres", "--pg-dsn", "postgresql://x/y",
          "--pg-schema", "flag_schema"],
         {**_PG, "connects": ["connect postgresql://x/y"],
          "search_path": ['SET search_path TO "flag_schema", public']}),
    ],
)
def test_tune_backend_flag_wins_over_environment(built_backend, env, flags, expected):
    expected = {key: built_backend.fill(value) for key, value in expected.items()}
    assert built_backend(env, flags) == expected


@pytest.mark.parametrize(
    "budget", [["--budget", "5"], ["--minutes", "30"]], ids=["budget", "minutes"]
)
@pytest.mark.parametrize(
    "env, flags, expected",
    [
        ({}, [], "fcfs"),
        ({"REPRO_BUDGET_POLICY": "wii"}, [], "wii"),
        ({}, ["--budget-policy", "wii"], "wii"),
        ({"REPRO_BUDGET_POLICY": "wii"}, ["--budget-policy", "fcfs"], "fcfs"),
    ],
    ids=["unset", "env", "flag", "both"],
)
def test_tune_policy_flag_wins_over_environment(
    clean_backend_env, capsys, env, flags, expected, budget
):
    import json

    clean_backend_env.delenv("REPRO_BUDGET_POLICY", raising=False)
    for name, value in env.items():
        clean_backend_env.setenv(name, value)
    argv = ["tune", "--workload", "toy", "--algo", "vanilla", *budget, *flags]
    assert main([*argv, "--trace", "-"]) == 0
    events = [
        json.loads(line)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    policies = [event["policy"] for event in events if event["kind"] == "budget_grant"]
    assert policies and set(policies) == {expected}


@pytest.mark.parametrize(
    "budget", [["--budget", "5"], ["--minutes", "30"]], ids=["budget", "minutes"]
)
def test_tune_policy_flag_wins_over_a_bad_variable(clean_backend_env, capsys, budget):
    """The time model reads no variable, so under ``--minutes`` too the
    flag is all that decides the policy."""
    clean_backend_env.setenv("REPRO_BUDGET_POLICY", "bogus")
    argv = ["tune", "--workload", "toy", "--algo", "vanilla", *budget]
    assert main([*argv, "--budget-policy", "wii"]) == 0
    assert "error" not in capsys.readouterr().err
    assert main(argv) == 2
    assert "unknown budget_policy 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "budget", [["--budget", "30"], ["--minutes", "30"]], ids=["budget", "minutes"]
)
def test_tune_reads_the_environment_once(clean_backend_env, env_reads, budget):
    """One backend spec and one config, both in ``_cmd_tune``: the time
    model and the session read nothing more."""
    from repro.config import BackendSpec, ReproConfig

    assert main(["tune", "--workload", "toy", "--algo", "vanilla", *budget]) == 0
    assert env_reads == [BackendSpec, ReproConfig]


@pytest.mark.parametrize(
    "env, flags",
    [
        ({}, ["--backend", "replay"]),
        ({}, ["--backend", "replay", "--seeds", "2", "--jobs", "2"]),
        ({"REPRO_BACKEND": "replay"}, []),
        ({"REPRO_NOISE": "abc"}, []),
        ({"REPRO_NOISE": "abc"}, ["--noise", "0.2"]),
        ({"REPRO_NOISE_SEED": "1.5"}, ["--backend", "noisy"]),
        ({"REPRO_BACKEND": "bogus"}, []),
        ({}, ["--backend", "postgres"]),
    ],
)
def test_tune_bad_backend_settings_are_one_error_line(
    clean_backend_env, capsys, env, flags
):
    for name, value in env.items():
        clean_backend_env.setenv(name, value)
    assert main([*_TUNE, *flags]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ")


def test_tune_backend_flags_reach_worker_processes(clean_backend_env, capsys):
    args = [*_TUNE, "--budget", "20", "--algo", "mcts", "--seeds", "2"]
    noisy = ["--backend", "noisy", "--noise", "0.8", "--noise-seed", "3"]

    def seed_lines(argv):
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines() if "seed " in line]

    analytic = seed_lines(args)
    serial = seed_lines([*args, *noisy])
    pooled = seed_lines([*args, *noisy, "--jobs", "2"])
    assert pooled == serial
    assert serial != analytic
    clean_backend_env.setenv("REPRO_BACKEND", "noisy")
    clean_backend_env.setenv("REPRO_NOISE", "0.8")
    clean_backend_env.setenv("REPRO_NOISE_SEED", "3")
    assert seed_lines([*args, "--jobs", "2"]) == serial
