"""Per-figure experiment definitions (the E-index of DESIGN.md).

Each function reproduces one table/figure of the paper: it assembles the
right workload, algorithm set and (K, B) grid, runs it, and returns the
records plus a formatted report printing the same rows/series the paper
plots.

Scaling: the paper's budget grids (50..1000 for JOB/TPC-H, 1000..5000 for
TPC-DS/Real-D/Real-M) are multiplied by ``REPRO_SCALE`` (default 0.1 — a
single-core-friendly run; set ``REPRO_SCALE=1`` for the full grids). The
number of MCTS seeds defaults to 3 (``REPRO_SEEDS``; the paper uses 5), and
the cardinality grid defaults to the paper's {5, 10, 20} (``REPRO_KS``).
``REPRO_JOBS`` (default 1) fans the independent (tuner, K, B, seed) cells
out to that many worker processes — records are bit-identical to a serial
run (see :mod:`repro.parallel`).

:data:`EXPERIMENTS` maps stable figure ids (``fig02`` … ``fig23``,
``table1``) to runners producing an :class:`ExperimentArtifact`; the
``python -m repro eval`` command and the benchmark archive both dispatch
through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.config import (
    ABLATION_PRESETS,
    MCTSConfig,
    ReproConfig,
    TuningConstraints,
    float_env,
    int_env,
)
from repro.eval.metrics import round_series
from repro.eval.report import format_grid, format_series
from repro.eval.runner import ExperimentRunner, RunRecord, TunerFactory
from repro.eval.timemodel import WhatIfTimeModel
from repro.exceptions import ConstraintError, TuningError
from repro.rng import DEFAULT_SEED, spawn_seeds
from repro.tuners import (
    AutoAdminGreedyTuner,
    DBABanditTuner,
    DTATuner,
    MCTSTuner,
    NoDBATuner,
    TwoPhaseGreedyTuner,
    VanillaGreedyTuner,
)
from repro.workload.suites import get_workload

#: Paper budget grids.
LARGE_BUDGETS = [1000, 2000, 3000, 4000, 5000]
SMALL_BUDGETS = [50, 100, 200, 500, 1000]

#: Workloads using the small budget grid.
_SMALL_GRID = {"tpch", "job"}


def parse_k_values(raw: str, name: str) -> tuple[int, ...]:
    """The cardinality grid ``raw`` spells (``"5,10,20"``); ``name`` is the
    flag or variable it came from. ``eval --ks`` and ``REPRO_KS`` both parse
    through here.

    Raises:
        ConstraintError: When ``raw`` holds a non-integer or no value at all.
    """
    try:
        ks = tuple(int(k) for k in raw.split(",") if k.strip())
    except ValueError:
        ks = ()
    if not ks:
        raise ConstraintError(f"{name} must be comma-separated integers, got {raw!r}")
    return ks


@dataclass(frozen=True)
class ExperimentSettings:
    """Environment-derived experiment scaling.

    Attributes:
        scale: Budget multiplier (``REPRO_SCALE``); 1.0 = paper grids.
        seeds: MCTS/stochastic seed count (``REPRO_SEEDS``); paper uses 5.
        k_values: Cardinality grid (``REPRO_KS``).
        jobs: Worker processes for grid execution (``REPRO_JOBS``); 1 runs
            serially, N > 1 is bit-identical but concurrent.
        config: The settings every grid cell runs under (see
            :class:`~repro.config.ReproConfig`); ``None`` lets each runner
            call read them from the environment. Replay serves one
            recorded session, so a grid cannot run on it.
    """

    scale: float = 0.1
    seeds: int = 3
    k_values: tuple[int, ...] = (5, 10, 20)
    jobs: int = 1
    config: ReproConfig | None = None

    def __post_init__(self) -> None:
        if self.config is not None and self.config.backend.name == "replay":
            raise ConstraintError(
                "replay serves one recorded session; experiment grids "
                "cannot run on it"
            )

    @classmethod
    def from_env(cls, config: ReproConfig | None = None) -> "ExperimentSettings":
        """Settings from ``REPRO_SCALE``, ``REPRO_SEEDS``, ``REPRO_KS`` and
        ``REPRO_JOBS``; the cells' config is ``config``, or else the one
        :meth:`ReproConfig.from_env` reads.

        Raises:
            ConstraintError: When a variable is set to a malformed value.
        """
        return cls(
            scale=float_env("REPRO_SCALE", 0.1),
            seeds=int_env("REPRO_SEEDS", 3),
            k_values=parse_k_values(os.environ.get("REPRO_KS", "5,10,20"), "REPRO_KS"),
            jobs=max(1, int_env("REPRO_JOBS", 1)),
            config=config or ReproConfig.from_env(),
        )

    def budgets_for(self, workload_name: str) -> list[int]:
        grid = SMALL_BUDGETS if workload_name in _SMALL_GRID else LARGE_BUDGETS
        return [max(10, int(b * self.scale)) for b in grid]

    def workload(self, name: str):
        """The (structurally scaled) workload for these settings."""
        return get_workload(name, scale=max(0.05, self.scale))

    def seed_list(self) -> list[int]:
        return spawn_seeds(DEFAULT_SEED, max(1, self.seeds))


# --------------------------------------------------------------------- #
# algorithm rosters
# --------------------------------------------------------------------- #


def greedy_roster() -> dict[str, tuple[TunerFactory, bool]]:
    """Figure 8-10/16-17 roster: three greedy baselines + MCTS."""
    return {
        "vanilla_greedy": (lambda seed: VanillaGreedyTuner(), False),
        "two_phase_greedy": (lambda seed: TwoPhaseGreedyTuner(), False),
        "autoadmin_greedy": (lambda seed: AutoAdminGreedyTuner(), False),
        "mcts": (lambda seed: MCTSTuner(seed=seed), True),
    }


def rl_roster() -> dict[str, tuple[TunerFactory, bool]]:
    """Figure 11-13/18-19 roster: existing RL approaches + MCTS."""
    return {
        "dba_bandits": (lambda seed: DBABanditTuner(seed=seed), True),
        "no_dba": (lambda seed: NoDBATuner(seed=seed), True),
        "mcts": (lambda seed: MCTSTuner(seed=seed), True),
    }


def dta_roster() -> dict[str, tuple[TunerFactory, bool]]:
    """Figure 15/20 roster: DTA simulation + MCTS."""
    return {
        "dta": (lambda seed: DTATuner(), False),
        "mcts": (lambda seed: MCTSTuner(seed=seed), True),
    }


class _NamedMCTS(MCTSTuner):
    """MCTS tuner whose report name reflects its policy combination."""

    def __init__(self, config: MCTSConfig, seed: int):
        super().__init__(config=config, seed=seed)
        selection = "uct" if config.selection_policy == "uct" else "prior"
        extraction = "greedy" if config.extraction == "bg" else "only"
        self.name = f"{selection}_{extraction}"


# --------------------------------------------------------------------- #
# experiments
# --------------------------------------------------------------------- #


def table1_workload_statistics(settings: ExperimentSettings | None = None) -> str:
    """E-T1 — Table 1: database and workload statistics."""
    settings = settings or ExperimentSettings.from_env()
    lines = [
        "Table 1: database and workload statistics (paper values in parens)",
        f"{'name':8s} {'size':>10s} {'#queries':>9s} {'#tables':>8s} "
        f"{'avg#joins':>10s} {'avg#filters':>12s} {'avg#scans':>10s}",
    ]
    paper = {
        "job": ("9.2GB", 33, 21, 7.9, 2.5, 8.9),
        "tpch": ("sf=10", 22, 8, 2.8, 0.3, 3.7),
        "tpcds": ("sf=10", 99, 24, 7.7, 0.5, 8.8),
        "real_d": ("587GB", 32, 7912, 15.6, 0.2, 17.0),
        "real_m": ("26GB", 317, 474, 20.2, 1.5, 21.7),
    }
    for name in ("job", "tpch", "tpcds", "real_d", "real_m"):
        workload = settings.workload(name)
        joins = filters = scans = 0
        for query in workload:
            bound = query.bind(workload.schema)
            joins += bound.num_joins
            filters += bound.num_filters
            scans += bound.num_scans
        count = len(workload)
        size_gb = workload.schema.total_size_bytes / 1e9
        p = paper[name]
        lines.append(
            f"{name:8s} {size_gb:8.1f}GB {count:9d} {len(workload.schema.tables):8d} "
            f"{joins / count:10.1f} {filters / count:12.1f} {scans / count:10.1f}"
            f"   (paper: {p[0]}, {p[1]}q, {p[2]}t, {p[3]}, {p[4]}, {p[5]})"
        )
    return "\n".join(lines)


def figure2_whatif_time(settings: ExperimentSettings | None = None) -> tuple[list, str]:
    """E-F2 — Figure 2: what-if share of TPC-DS tuning time, K=20."""
    settings = settings or ExperimentSettings.from_env()
    workload = settings.workload("tpcds")
    model = WhatIfTimeModel(workload)
    budgets = settings.budgets_for("tpcds")
    runner = ExperimentRunner(
        workload,
        seeds=settings.seed_list(),
        keep_results=False,
        parallel=settings.jobs,
    )
    constraints = TuningConstraints(max_indexes=20)
    records = runner.run_budget_sweep(
        lambda seed: VanillaGreedyTuner(),
        budgets,
        constraints,
        stochastic=False,
        config=settings.config,
    )
    rows = []
    lines = [
        "Figure 2: TPC-DS tuning time decomposition (greedy, K=20)",
        f"  {'budget':>8s} {'whatif_min':>11s} {'other_min':>10s} {'whatif_share':>13s}",
    ]
    for budget, record in zip(budgets, records, strict=True):
        breakdown = model.breakdown(int(record.calls_used))
        rows.append((budget, breakdown))
        lines.append(
            f"  {budget:8d} {breakdown.whatif_seconds / 60:11.1f} "
            f"{breakdown.other_seconds / 60:10.1f} {breakdown.whatif_fraction:12.1%}"
        )
    lines.append("  (paper: what-if calls take ~75-93% of tuning time)")
    return rows, "\n".join(lines)


def _grid_experiment(
    workload_name: str,
    roster: dict[str, tuple[TunerFactory, bool]],
    settings: ExperimentSettings,
    title: str,
    max_storage_bytes: int | None = None,
) -> tuple[list[RunRecord], str]:
    workload = settings.workload(workload_name)
    runner = ExperimentRunner(
        workload,
        seeds=settings.seed_list(),
        keep_results=False,
        parallel=settings.jobs,
    )
    budgets = settings.budgets_for(workload_name)
    records = runner.run_grid(
        roster,
        budgets,
        list(settings.k_values),
        max_storage_bytes,
        config=settings.config,
    )
    model = WhatIfTimeModel(workload)
    minutes = {b: model.minutes_for_budget(b) for b in budgets}
    return records, format_grid(records, title, minute_labels=minutes)


def greedy_comparison(
    workload_name: str, settings: ExperimentSettings | None = None
) -> tuple[list[RunRecord], str]:
    """E-F8/9/10/16/17: budget-aware greedy variants vs MCTS."""
    settings = settings or ExperimentSettings.from_env()
    figure = {
        "tpcds": "Figure 8",
        "real_d": "Figure 9",
        "real_m": "Figure 10",
        "job": "Figure 16",
        "tpch": "Figure 17",
    }.get(workload_name, "greedy comparison")
    return _grid_experiment(
        workload_name,
        greedy_roster(),
        settings,
        f"{figure}: {workload_name} — budget-aware greedy variants vs MCTS",
    )


def rl_comparison(
    workload_name: str, settings: ExperimentSettings | None = None
) -> tuple[list[RunRecord], str]:
    """E-F11/12/13/18/19: existing RL approaches vs MCTS."""
    settings = settings or ExperimentSettings.from_env()
    figure = {
        "tpcds": "Figure 11",
        "real_d": "Figure 12",
        "real_m": "Figure 13",
        "job": "Figure 18",
        "tpch": "Figure 19",
    }.get(workload_name, "RL comparison")
    return _grid_experiment(
        workload_name,
        rl_roster(),
        settings,
        f"{figure}: {workload_name} — existing RL approaches vs MCTS",
    )


def dta_comparison(
    workload_name: str,
    settings: ExperimentSettings | None = None,
    storage_constraint: bool = False,
) -> tuple[list[RunRecord], str]:
    """E-F15/20: DTA vs MCTS, with or without the storage constraint.

    The storage constraint follows DTA's default: 3× the database size.
    """
    settings = settings or ExperimentSettings.from_env()
    workload = settings.workload(workload_name)
    sc_bytes = 3 * workload.schema.total_size_bytes if storage_constraint else None
    figure = {
        "tpcds": "Figure 15(a/d)",
        "real_d": "Figure 15(b/e)",
        "real_m": "Figure 15(c/f)",
        "job": "Figure 20(a)",
        "tpch": "Figure 20(b/c)",
    }.get(workload_name, "DTA comparison")
    sc_label = "with SC (3x db size)" if storage_constraint else "without SC"
    return _grid_experiment(
        workload_name,
        dta_roster(),
        settings,
        f"{figure}: {workload_name} — DTA vs MCTS, {sc_label}",
        max_storage_bytes=sc_bytes,
    )


def convergence(
    workload_name: str,
    max_indexes: int = 10,
    settings: ExperimentSettings | None = None,
) -> tuple[dict[str, list[tuple[int, float]]], str]:
    """E-F14/21: per-round convergence of DBA bandits, No DBA and MCTS."""
    settings = settings or ExperimentSettings.from_env()
    workload = settings.workload(workload_name)
    budget = settings.budgets_for(workload_name)[-1]
    constraints = TuningConstraints(max_indexes=max_indexes)
    runner = ExperimentRunner(workload, seeds=settings.seed_list()[:1])
    calls_per_round = len(workload)

    series: dict[str, list[tuple[int, float]]] = {}
    for label, (factory, stochastic) in rl_roster().items():
        record = runner.run_cell(
            factory,
            budget,
            constraints,
            stochastic=False,
            config=settings.config,
        )
        result = record.results[0]
        if label == "mcts":
            # The paper shows MCTS as a flat reference line (its average
            # final improvement); keep the same presentation.
            rounds = max(1, -(-result.calls_used // calls_per_round))
            final = result.true_improvement()
            series[label] = [(r, final) for r in (1, rounds)]
        else:
            series[label] = round_series(result, calls_per_round)

    figure = "Figure 14" if workload_name in ("tpcds", "real_d", "real_m") else "Figure 21"
    text = format_series(
        f"{figure}: {workload_name} convergence, K={max_indexes}, B={budget} "
        f"(round = {calls_per_round} what-if calls)",
        series,
    )
    return series, text


def ablation(
    workload_name: str,
    rollout_policy: str,
    settings: ExperimentSettings | None = None,
) -> tuple[list[RunRecord], str]:
    """E-F22/23: MCTS policy ablations with fixed / randomized rollout step."""
    settings = settings or ExperimentSettings.from_env()

    roster: dict[str, tuple[TunerFactory, bool]] = {}
    for name, preset in ABLATION_PRESETS.items():
        config = MCTSConfig(
            selection_policy=preset.selection_policy,
            use_priors=preset.use_priors,
            extraction=preset.extraction,
            rollout_policy=rollout_policy,
        )
        roster[name] = (
            (lambda seed, c=config: _NamedMCTS(c, seed)),
            True,
        )

    figure = "Figure 22" if rollout_policy == "myopic" else "Figure 23"
    step = "fixed step 0" if rollout_policy == "myopic" else "randomized step"
    return _grid_experiment(
        workload_name,
        roster,
        settings,
        f"{figure}: {workload_name} — MCTS policy ablation ({step} rollout)",
    )


#: Noise scales σ for the robustness sweep (σ = 0 is the analytic engine).
NOISE_GRID = (0.0, 0.1, 0.2, 0.4)


def robustness(
    workload_name: str = "tpch",
    settings: ExperimentSettings | None = None,
) -> tuple[list[RunRecord], dict[str, list[tuple[float, float]]], str]:
    """E-R1 — robustness: tuner degradation under what-if cost error.

    Re-runs a greedy / DTA / MCTS roster with the noisy backend at
    increasing noise scales σ (multiplicative log-normal error on every
    fresh what-if pricing; see
    :class:`~repro.backend.noisy.NoisyBackend`). The reported improvement
    stays *ground truth* — ``true_cost`` bypasses the perturbation — so the
    series shows how much each search strategy's final configuration decays
    when its guidance signal is wrong, not how wrong the signal is.
    """
    settings = settings or ExperimentSettings.from_env()
    workload = settings.workload(workload_name)
    runner = ExperimentRunner(
        workload,
        seeds=settings.seed_list(),
        keep_results=False,
        parallel=settings.jobs,
    )
    budget = settings.budgets_for(workload_name)[-1]
    constraints = TuningConstraints(max_indexes=10)
    roster: dict[str, tuple[TunerFactory, bool]] = {
        "vanilla_greedy": (lambda seed: VanillaGreedyTuner(), False),
        "dta": (lambda seed: DTATuner(), False),
        "mcts": (lambda seed: MCTSTuner(seed=seed), True),
    }

    records: list[RunRecord] = []
    series: dict[str, list[tuple[float, float]]] = {}
    base = settings.config or ReproConfig.from_env()
    for label, (factory, stochastic) in roster.items():
        points: list[tuple[float, float]] = []
        for noise in NOISE_GRID:
            backend = (
                replace(base.backend, name="analytic")
                if noise <= 0.0
                else replace(base.backend, name="noisy", noise=noise)
            )
            record = runner.run_cell(
                factory,
                budget,
                constraints,
                stochastic=stochastic,
                config=replace(base, backend=backend),
            )
            records.append(record)
            points.append((noise, record.improvement_mean))
        series[label] = points

    lines = [
        f"Robustness: {workload_name} — true improvement under what-if "
        f"cost error (K={constraints.max_indexes}, B={budget})",
        f"  {'noise σ':>8s}" + "".join(f"{label:>16s}" for label in series),
    ]
    lines.append("  " + "-" * (len(lines[-1]) - 2))
    for i, noise in enumerate(NOISE_GRID):
        cells = "".join(f"{series[label][i][1]:16.1f}" for label in series)
        lines.append(f"  {noise:8.2f}" + cells)
    lines.append(
        "  (σ = 0 is the exact analytic engine; improvements are always "
        "evaluated noise-free)"
    )
    return records, series, "\n".join(lines)


# --------------------------------------------------------------------- #
# experiment registry (the ``python -m repro eval`` dispatch table)
# --------------------------------------------------------------------- #


@dataclass
class ExperimentArtifact:
    """One experiment's outputs in archive-ready form.

    Attributes:
        figure: The registry id that produced it.
        text: The paper-style text report.
        records: Flat grid records (empty for series-only experiments).
        series: JSON-ready non-grid data (convergence series, the Figure 2
            time decomposition, …); ``None`` when the experiment is purely
            a record grid.
    """

    figure: str
    text: str
    records: list[RunRecord] = field(default_factory=list)
    series: dict | None = None


def _run_table1(settings: ExperimentSettings) -> ExperimentArtifact:
    return ExperimentArtifact("table1", table1_workload_statistics(settings))


def _run_fig02(settings: ExperimentSettings) -> ExperimentArtifact:
    rows, text = figure2_whatif_time(settings)
    series = {
        "whatif_share": [
            {
                "budget": budget,
                "whatif_seconds": breakdown.whatif_seconds,
                "other_seconds": breakdown.other_seconds,
                "whatif_fraction": breakdown.whatif_fraction,
            }
            for budget, breakdown in rows
        ]
    }
    return ExperimentArtifact("fig02", text, series=series)


def _grid_entry(figure: str, fn, workload_name: str):
    def run(settings: ExperimentSettings) -> ExperimentArtifact:
        records, text = fn(workload_name, settings)
        return ExperimentArtifact(figure, text, records=records)

    return run


def _dta_entry(figure: str, variants: list[tuple[str, bool]]):
    def run(settings: ExperimentSettings) -> ExperimentArtifact:
        records: list[RunRecord] = []
        texts: list[str] = []
        for workload_name, storage_constraint in variants:
            sub, text = dta_comparison(
                workload_name, settings, storage_constraint=storage_constraint
            )
            records.extend(sub)
            texts.append(text)
        return ExperimentArtifact(figure, "\n\n".join(texts), records=records)

    return run


def _convergence_entry(figure: str, workload_name: str, max_indexes: int):
    def run(settings: ExperimentSettings) -> ExperimentArtifact:
        series, text = convergence(workload_name, max_indexes, settings)
        return ExperimentArtifact(
            figure,
            text,
            series={label: [list(point) for point in points] for label, points in series.items()},
        )

    return run


def _run_robustness(settings: ExperimentSettings) -> ExperimentArtifact:
    records, series, text = robustness("tpch", settings)
    return ExperimentArtifact(
        "robustness",
        text,
        records=records,
        series={
            label: [list(point) for point in points]
            for label, points in series.items()
        },
    )


def _ablation_entry(figure: str, workload_name: str, rollout_policy: str):
    def run(settings: ExperimentSettings) -> ExperimentArtifact:
        records, text = ablation(workload_name, rollout_policy, settings)
        return ExperimentArtifact(figure, text, records=records)

    return run


#: Stable experiment ids → artifact runners. Multi-panel figures run their
#: primary panel(s): fig14 is the TPC-DS panel, fig21 the TPC-H panel,
#: fig15 TPC-DS with and without the storage constraint, fig20 the paper's
#: three (workload, SC) combinations, fig22/fig23 the TPC-H panel.
EXPERIMENTS: dict[str, Callable[[ExperimentSettings], ExperimentArtifact]] = {
    "table1": _run_table1,
    "fig02": _run_fig02,
    "fig08": _grid_entry("fig08", greedy_comparison, "tpcds"),
    "fig09": _grid_entry("fig09", greedy_comparison, "real_d"),
    "fig10": _grid_entry("fig10", greedy_comparison, "real_m"),
    "fig11": _grid_entry("fig11", rl_comparison, "tpcds"),
    "fig12": _grid_entry("fig12", rl_comparison, "real_d"),
    "fig13": _grid_entry("fig13", rl_comparison, "real_m"),
    "fig14": _convergence_entry("fig14", "tpcds", 10),
    "fig15": _dta_entry("fig15", [("tpcds", True), ("tpcds", False)]),
    "fig16": _grid_entry("fig16", greedy_comparison, "job"),
    "fig17": _grid_entry("fig17", greedy_comparison, "tpch"),
    "fig18": _grid_entry("fig18", rl_comparison, "job"),
    "fig19": _grid_entry("fig19", rl_comparison, "tpch"),
    "fig20": _dta_entry(
        "fig20", [("job", False), ("tpch", True), ("tpch", False)]
    ),
    "fig21": _convergence_entry("fig21", "tpch", 10),
    "fig22": _ablation_entry("fig22", "tpch", "myopic"),
    "fig23": _ablation_entry("fig23", "tpch", "random"),
    "robustness": _run_robustness,
}


def run_experiment(
    figure: str, settings: ExperimentSettings | None = None
) -> ExperimentArtifact:
    """Run one registered experiment by id (see :data:`EXPERIMENTS`)."""
    if figure not in EXPERIMENTS:
        raise TuningError(
            f"unknown experiment {figure!r}; available: {sorted(EXPERIMENTS)}"
        )
    settings = settings or ExperimentSettings.from_env()
    return EXPERIMENTS[figure](settings)

