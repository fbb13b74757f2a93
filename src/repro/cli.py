"""Command-line interface: ``python -m repro <command>``.

Commands:
    workloads               list the built-in workloads with their statistics
    tune                    run a budget-aware tuning session
    eval                    run a registered paper experiment (figures/tables)
    explain                 show a query's hypothetical plan under a config
    compress                compress a workload and show the representatives
    load                    materialise a workload into a live Postgres

Examples:
    python -m repro workloads
    python -m repro tune --workload tpch --budget 300 --max-indexes 10
    python -m repro tune --workload tpch --budget 300 --seeds 5 --jobs 4
    python -m repro tune --workload tpcds --algo two_phase --minutes 30
    python -m repro tune --workload tpch --budget 300 --whatif-cache pcache
    python -m repro tune --workload tpch --budget 300 --backend replay \\
        --backend-trace pcache/whatif-<fingerprint>.jsonl
    python -m repro load --workload toy --pg-dsn postgresql://localhost/repro
    python -m repro tune --workload toy --budget 60 --backend postgres \\
        --pg-dsn postgresql://localhost/repro
    python -m repro eval --figure fig17 --jobs 4 --json reports/BENCH_fig17.json
    python -m repro eval --figure robustness --json -
    python -m repro explain --workload tpch --query q3 --budget 100
    python -m repro compress --workload tpcds --target 20
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.backend.factory import BACKEND_NAMES, BackendSpec, build_backend
from repro.backend.replay import ReplayBackend
from repro.config import POLICY_NAMES, MCTSConfig, ReproConfig, TuningConstraints
from repro.eval.experiments import EXPERIMENTS, ExperimentSettings, parse_k_values, run_experiment
from repro.eval.report import bench_payload
from repro.eval.runner import ExperimentRunner
from repro.eval.timemodel import WhatIfTimeModel
from repro.exceptions import ReproError
from repro.rng import spawn_seeds
from repro.tuners import (
    AutoAdminGreedyTuner,
    DBABanditTuner,
    DTATuner,
    MCTSTuner,
    NoDBATuner,
    RandomSearchTuner,
    TimeBudgetedTuner,
    TwoPhaseGreedyTuner,
    VanillaGreedyTuner,
)
from repro.workload.compression import WorkloadCompressor
from repro.workload.suites import available_workloads, get_workload

_ALGORITHMS = {
    "mcts": lambda args: MCTSTuner(
        config=MCTSConfig(
            selection_policy=args.selection,
            rollout_policy=args.rollout,
            extraction=args.extraction,
        ),
        seed=args.seed,
    ),
    "vanilla": lambda args: VanillaGreedyTuner(),
    "two_phase": lambda args: TwoPhaseGreedyTuner(),
    "autoadmin": lambda args: AutoAdminGreedyTuner(),
    "dba_bandits": lambda args: DBABanditTuner(seed=args.seed),
    "no_dba": lambda args: NoDBATuner(seed=args.seed),
    "dta": lambda args: DTATuner(),
    "random": lambda args: RandomSearchTuner(seed=args.seed),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Budget-aware index tuning (SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in workloads")

    tune = sub.add_parser("tune", help="run a tuning session")
    tune.add_argument("--workload", required=True, choices=available_workloads())
    tune.add_argument("--scale", type=float, default=0.1,
                      help="structural scale for generated workloads (default 0.1)")
    tune.add_argument("--algo", default="mcts", choices=sorted(_ALGORITHMS))
    budget_group = tune.add_mutually_exclusive_group(required=True)
    budget_group.add_argument("--budget", type=int, help="what-if call budget B")
    budget_group.add_argument("--minutes", type=float,
                              help="tuning-time budget (mapped to calls)")
    tune.add_argument("--max-indexes", type=int, default=10, help="K (default 10)")
    tune.add_argument("--max-storage-gb", type=float, default=None,
                      help="storage constraint in GB (default: none)")
    tune.add_argument("--min-improvement", type=float, default=None,
                      help="minimum required improvement %% (default: none)")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--selection", default="epsilon_greedy",
                      choices=("epsilon_greedy", "uct", "boltzmann"))
    tune.add_argument("--rollout", default="myopic", choices=("myopic", "random"))
    tune.add_argument("--extraction", default="bg", choices=("bg", "bce"))
    tune.add_argument("--budget-policy", default=None, choices=POLICY_NAMES,
                      help="budget discipline (default: REPRO_BUDGET_POLICY "
                           "or fcfs; wii/esc change which calls are granted)")
    tune.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                      help="cost backend (default: REPRO_BACKEND or analytic). "
                           "replay serves a session recorded with "
                           "--whatif-cache with zero cost-model calls, noisy "
                           "perturbs costs")
    tune.add_argument("--backend-trace", default=None, metavar="PATH",
                      help="what-if cache shard the replay backend serves, "
                           "e.g. DIR/whatif-<fingerprint>.jsonl of a session "
                           "run with --whatif-cache DIR (default: "
                           "REPRO_BACKEND_TRACE)")
    tune.add_argument("--noise", type=float, default=None,
                      help="noise scale sigma for --backend noisy "
                           "(default: REPRO_NOISE or 0.1)")
    tune.add_argument("--noise-seed", type=int, default=None,
                      help="perturbation seed for --backend noisy "
                           "(default: REPRO_NOISE_SEED or 0)")
    tune.add_argument("--pg-dsn", default=None, metavar="DSN",
                      help="connection string for --backend postgres "
                           "(default: REPRO_PG_DSN)")
    tune.add_argument("--pg-schema", default=None, metavar="SCHEMA",
                      help="schema holding the tables for --backend postgres "
                           "(default: REPRO_PG_SCHEMA or search_path)")
    tune.add_argument("--whatif-cache", default=None, metavar="PATH",
                      help="persistent cross-session what-if cache directory "
                           "('1'/'default' = ~/.cache/repro; default: "
                           "REPRO_WHATIF_CACHE or disabled); never changes "
                           "costs or budget accounting. Its shard records "
                           "the session for --backend replay")
    tune.add_argument("--trace", default=None, metavar="PATH",
                      help="write the session event stream as JSON lines to "
                           "PATH ('-' for stdout)")
    tune.add_argument("--sanitize", action="store_true",
                      help="install the runtime sanitizers (monotonicity + "
                           "event-stream invariants; see repro.lint.sanitizers)")
    tune.add_argument("--seeds", type=int, default=1,
                      help="run this many seeded repetitions (spawned from "
                           "--seed) and report mean ± std (default 1)")
    tune.add_argument("--jobs", type=int, default=1,
                      help="worker processes for --seeds > 1 (default 1; "
                           "results are bit-identical to --jobs 1)")

    ev = sub.add_parser("eval", help="run a registered paper experiment")
    ev.add_argument("--figure", required=True, choices=sorted(EXPERIMENTS),
                    help="experiment id (fig02..fig23, table1, robustness)")
    ev.add_argument("--scale", type=float, default=None,
                    help="budget multiplier (default: REPRO_SCALE or 0.1)")
    ev.add_argument("--seeds", type=int, default=None,
                    help="stochastic seed count (default: REPRO_SEEDS or 3)")
    ev.add_argument("--ks", default=None,
                    help="cardinality grid, e.g. '5,10,20' (default: REPRO_KS)")
    ev.add_argument("--jobs", type=int, default=None,
                    help="worker processes for the grid (default: REPRO_JOBS "
                         "or 1); bit-identical to a serial run")
    ev.add_argument("--backend", default=None,
                    choices=("analytic", "noisy", "postgres"),
                    help="cost backend for the grid cells (default: "
                         "REPRO_BACKEND or analytic; replay is "
                         "single-session and not valid in grids)")
    ev.add_argument("--noise", type=float, default=None,
                    help="noise scale sigma for --backend noisy "
                         "(default: REPRO_NOISE or 0.1)")
    ev.add_argument("--noise-seed", type=int, default=None,
                    help="perturbation seed for --backend noisy "
                         "(default: REPRO_NOISE_SEED or 0)")
    ev.add_argument("--pg-dsn", default=None, metavar="DSN",
                    help="connection string for --backend postgres "
                         "(default: REPRO_PG_DSN)")
    ev.add_argument("--whatif-cache", default=None, metavar="PATH",
                    help="persistent cross-session what-if cache directory "
                         "('1'/'default' = ~/.cache/repro; default: "
                         "REPRO_WHATIF_CACHE or disabled)")
    ev.add_argument("--json", default=None, metavar="PATH",
                    help="write the machine-readable BENCH payload to PATH "
                         "('-' for stdout)")
    ev.set_defaults(backend_trace=None, pg_schema=None)

    explain = sub.add_parser("explain", help="show a hypothetical plan")
    explain.add_argument("--workload", required=True, choices=available_workloads())
    explain.add_argument("--scale", type=float, default=0.1)
    explain.add_argument("--query", required=True, help="query id, e.g. q3")
    explain.add_argument("--budget", type=int, default=200,
                         help="budget for the tuning pass that picks indexes")
    explain.add_argument("--max-indexes", type=int, default=10)
    explain.add_argument("--seed", type=int, default=0)

    compress = sub.add_parser("compress", help="compress a workload")
    compress.add_argument("--workload", required=True, choices=available_workloads())
    compress.add_argument("--scale", type=float, default=0.1)
    compress.add_argument("--target", type=int, required=True,
                          help="number of representative queries to keep")

    load = sub.add_parser(
        "load", help="materialise a workload into a live Postgres (for "
                     "--backend postgres)"
    )
    load.add_argument("--workload", required=True, choices=available_workloads())
    load.add_argument("--scale", type=float, default=0.1,
                      help="row-count scale applied to the catalog "
                           "cardinalities (default 0.1)")
    load.add_argument("--max-rows", type=int, default=100_000,
                      help="per-table row cap (default 100000)")
    load.add_argument("--pg-dsn", default=None, metavar="DSN",
                      help="connection string (default: REPRO_PG_DSN)")
    load.add_argument("--pg-schema", default=None, metavar="SCHEMA",
                      help="schema to create the tables in "
                           "(default: REPRO_PG_SCHEMA or search_path)")
    load.set_defaults(backend=None, backend_trace=None, noise=None,
                      noise_seed=None)
    return parser


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"{'name':8s} {'#queries':>9s} {'#tables':>8s} {'size':>10s}")
    for name in available_workloads():
        workload = get_workload(name, scale=0.1)
        gigabytes = workload.schema.total_size_bytes / 1e9
        print(
            f"{name:8s} {len(workload):9d} {len(workload.schema.tables):8d} "
            f"{gigabytes:8.1f}GB"
        )
    print("\n(table counts at --scale 0.1 for the generated Real workloads)")
    return 0


def _write_trace(result, destination: str) -> None:
    """Dump the session event stream as JSON lines (``-`` = stdout)."""
    lines = [json.dumps(event.to_json()) for event in result.events]
    if destination == "-":
        for line in lines:
            print(line)
        return
    with open(destination, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    print(f"trace: {len(lines)} events -> {destination}")


def _backend_spec(args: argparse.Namespace) -> BackendSpec:
    """The backend the command's flags select over the ``REPRO_*`` defaults."""
    return BackendSpec.from_env(
        name=args.backend,
        trace_path=args.backend_trace,
        noise=args.noise,
        noise_seed=args.noise_seed,
        pg_dsn=args.pg_dsn,
        pg_schema=args.pg_schema,
    )


def _config(args: argparse.Namespace, **flags) -> ReproConfig:
    """The run's settings: the command's flags over the ``REPRO_*`` defaults."""
    return ReproConfig.from_env(
        backend=_backend_spec(args), whatif_cache=args.whatif_cache, **flags
    )


def _cmd_tune_multi_seed(
    args: argparse.Namespace, workload, constraints, config: ReproConfig
) -> int:
    """``tune --seeds N [--jobs M]``: seed-averaged runs, mean ± std."""
    if args.minutes is not None:
        print("error: --seeds > 1 requires --budget (not --minutes)",
              file=sys.stderr)
        return 2
    if args.trace is not None or args.sanitize:
        print("error: --trace/--sanitize apply to single runs; drop --seeds "
              "or set REPRO_SANITIZE=1 for sanitized multi-seed runs",
              file=sys.stderr)
        return 2

    def factory(seed: int):
        return _ALGORITHMS[args.algo](
            argparse.Namespace(**{**vars(args), "seed": seed})
        )

    runner = ExperimentRunner(
        workload,
        seeds=spawn_seeds(args.seed, args.seeds),
        keep_results=False,
        parallel=args.jobs,
    )
    record = runner.run_cell(
        factory,
        args.budget,
        constraints,
        stochastic=True,
        config=config,
    )
    print(
        f"{record.tuner}: {record.improvement_mean:.1f}% ± "
        f"{record.improvement_std:.1f} improvement over {args.seeds} seeds "
        f"({args.jobs} job{'s' if args.jobs != 1 else ''}), "
        f"{record.calls_used:.1f} what-if calls used on average"
    )
    for metrics in record.seed_metrics:
        stop = f", stopped: {metrics['stop_reason']}" if metrics["stop_reason"] else ""
        print(
            f"  seed {metrics['seed']:>10d}: {metrics['improvement']:6.1f}% "
            f"in {metrics['calls_used']} calls{stop}"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload, scale=args.scale)
    constraints = TuningConstraints(
        max_indexes=args.max_indexes,
        max_storage_bytes=(
            int(args.max_storage_gb * 1e9) if args.max_storage_gb else None
        ),
        min_improvement_percent=args.min_improvement,
    )
    if args.seeds < 1:
        print(f"error: --seeds must be positive, got {args.seeds}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be positive, got {args.jobs}", file=sys.stderr)
        return 2
    config = _config(
        args, budget_policy=args.budget_policy, sanitize=args.sanitize or None
    )
    if args.seeds > 1:
        return _cmd_tune_multi_seed(args, workload, constraints, config)
    tuner = _ALGORITHMS[args.algo](args)
    if args.minutes is not None:
        model = WhatIfTimeModel(workload)
        adapter = TimeBudgetedTuner(tuner, model)
        result = adapter.tune_for_minutes(
            workload,
            args.minutes,
            constraints=constraints,
            optimizer_config=config,
        )
        print(
            f"time budget {args.minutes:.0f} min -> "
            f"{result.budget} what-if calls "
            f"(~{model.mean_call_seconds:.2f}s/call)"
        )
    else:
        result = tuner.tune(
            workload,
            budget=args.budget,
            constraints=constraints,
            optimizer_config=config,
        )

    if args.trace is not None:
        _write_trace(result, args.trace)
    print(
        f"{result.tuner}: {result.true_improvement():.1f}% improvement, "
        f"{result.calls_used} what-if calls used"
    )
    if result.stop_reason is not None:
        print(f"stopped early: {result.stop_reason}")
    if result.optimizer is not None:
        stats = result.optimizer.stats
        print(
            f"what-if cache: {100.0 * stats.hit_rate:.1f}% hit rate "
            f"({stats.cache_hits} hits / {stats.cache_misses} misses), "
            f"{stats.normalized_hits} saved by normalization, "
            f"{stats.cost_seconds:.3f}s in the cost model"
        )
        if stats.persistent_hits and isinstance(result.optimizer, ReplayBackend):
            print(f"replayed {stats.persistent_hits} pricings from the trace "
                  "(zero cost-model invocations)")
        elif stats.persistent_hits:
            print(f"persistent what-if cache: {stats.persistent_hits} pairs "
                  "recalled from earlier sessions")
        if stats.speculative_priced:
            print(f"speculative pricing: {stats.speculative_priced} pairs "
                  f"priced concurrently, {stats.speculation_wasted} wasted "
                  "past the budget")
    if result.configuration:
        print(f"recommended configuration ({len(result.configuration)} indexes):")
        for index in sorted(result.configuration, key=lambda ix: ix.display()):
            print(f"  {index.display()}")
    else:
        print("no indexes recommended")
    optimizer = result.optimizer
    if optimizer is not None:
        # Flush the persistent what-if cache (if any) and release pricing
        # threads / pooled connections. Closing after true_improvement()
        # above puts the ground-truth pricings in the shard too, so the
        # shard replays this whole session.
        optimizer.close()
        if optimizer.whatif_shard is not None:
            print(f"what-if shard: {optimizer.whatif_shard}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config(args)
    settings = ExperimentSettings.from_env(config)
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.ks is not None:
        # Parsed as REPRO_KS is, so a bad or empty list fails the same way.
        overrides["k_values"] = parse_k_values(args.ks, "--ks")
    if args.jobs is not None:
        if args.jobs < 1:
            print(f"error: --jobs must be positive, got {args.jobs}",
                  file=sys.stderr)
            return 2
        overrides["jobs"] = args.jobs
    if overrides:
        settings = replace(settings, **overrides)
    artifact = run_experiment(args.figure, settings)
    print(artifact.text)
    if args.json is not None:
        provenance = None
        backend = config.backend
        if backend.name == "postgres" and backend.pg_dsn:
            from repro.backend.postgres import postgres_provenance

            provenance = postgres_provenance(
                backend.pg_dsn, schema=backend.pg_schema
            )
        payload = bench_payload(
            artifact.figure,
            settings=settings,
            records=artifact.records,
            series=artifact.series,
            postgres=provenance,
        )
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"bench archive: {len(artifact.records)} records -> {args.json}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload, scale=args.scale)
    query = workload.query(args.query)
    result = MCTSTuner(seed=args.seed).tune(
        workload,
        budget=args.budget,
        constraints=TuningConstraints(max_indexes=args.max_indexes),
    )
    # Rendering plans needs no run settings, so no REPRO_* variable reaches it.
    optimizer = build_backend("analytic", workload, config=ReproConfig())
    print("--- query ---")
    print(query.sql)
    print("\n--- plan without hypothetical indexes ---")
    print(optimizer.explain(query, frozenset()).render())
    print("\n--- plan with the recommended configuration ---")
    print(optimizer.explain(query, result.configuration).render())
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.backend.dbms.loader import materialize_workload

    backend = _backend_spec(args)
    if not backend.pg_dsn:
        print("error: load needs --pg-dsn or REPRO_PG_DSN", file=sys.stderr)
        return 2
    workload = get_workload(args.workload, scale=args.scale)
    loaded = materialize_workload(
        backend.pg_dsn,
        workload,
        scale=args.scale,
        max_rows=args.max_rows,
        schema=backend.pg_schema,
    )
    total = sum(loaded.values())
    for table, rows in loaded.items():
        print(f"  {table:12s} {rows:>9d} rows")
    print(
        f"loaded {workload.name}: {len(loaded)} tables, {total} rows "
        f"(hypopg ready)"
    )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload, scale=args.scale)
    compressed = WorkloadCompressor(args.target).compress(workload)
    print(
        f"{workload.name}: {len(workload)} queries -> "
        f"{len(compressed)} representatives"
    )
    for query in compressed:
        bound = query.bind(workload.schema)
        print(
            f"  {query.qid:6s} weight={query.weight:6.1f} "
            f"joins={bound.num_joins:2d} tables={len(bound.tables)}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "workloads": _cmd_workloads,
        "tune": _cmd_tune,
        "eval": _cmd_eval,
        "explain": _cmd_explain,
        "compress": _cmd_compress,
        "load": _cmd_load,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
