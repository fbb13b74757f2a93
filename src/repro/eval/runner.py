"""Grid runner: tuner × cardinality × budget × seed sweeps.

The paper's end-to-end figures are grids of (algorithm, K, B) cells, with
stochastic algorithms averaged over five RNG seeds. :class:`ExperimentRunner`
executes such grids, reusing the workload's candidate set across cells, and
returns flat :class:`RunRecord` rows the report module formats.

Every cell is an independent tuning run, so the runner can fan the
(tuner, K, B, seed) units out to worker processes (``parallel=N``); the
parallel path builds the same :class:`~repro.parallel.spec.CellSpec` units
the serial path runs in-process and merges worker outcomes in grid order,
so records are bit-identical to a serial run (wall-clock fields aside —
they measure time). See :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.backend.factory import BackendSpec, resolve_spec
from repro.catalog import Index
from repro.config import ReproConfig, TuningConstraints
from repro.eval.metrics import mean_and_std
from repro.exceptions import TuningError
from repro.lint.sanitizers import EventStreamValidator
from repro.parallel.executor import execute_specs
from repro.parallel.spec import CellSpec, SeedOutcome
from repro.parallel.worker import run_seed_with_result
from repro.rng import DEFAULT_SEED, spawn_seeds
from repro.tuners.base import Tuner, TuningResult
from repro.workload.candidates import CandidateGenerator
from repro.workload.query import Workload

#: A factory producing a (fresh) tuner for a given RNG seed. Deterministic
#: tuners may ignore the seed; they are then run once per cell. Factories
#: are always called in the parent process (the resulting *tuner* is what a
#: worker receives), so closures work under ``parallel`` too.
TunerFactory = Callable[[int], Tuner]


@dataclass
class RunRecord:
    """One grid cell: a tuner at one (K, B) point.

    Aggregation conventions (reconstructible from :attr:`seed_metrics`):
    ``improvement_mean``/``improvement_std``, ``calls_used``, ``seconds``,
    ``cache_hit_rate``, ``normalized_hits`` and ``cost_seconds`` are
    **means** across seeds, while ``event_counts`` is a **sum** across
    seeds and ``stop_reasons`` a flat list (one entry per halted seed).

    Attributes:
        workload: Workload name.
        tuner: Algorithm name.
        max_indexes: Cardinality constraint ``K``.
        budget: What-if budget ``B``.
        improvement_mean: Mean true improvement (%) across seeds.
        improvement_std: Standard deviation across seeds (0 for
            deterministic algorithms).
        calls_used: Mean counted calls consumed.
        seconds: Mean wall-clock seconds per run (library time, not the
            simulated what-if latency).
        cache_hit_rate: Mean what-if cache hit rate across seeds.
        normalized_hits: Mean free lookups whose key lost an index to
            relevant-index normalization (see ``WhatIfStats``).
        cost_seconds: Mean wall-clock spent inside the cost model.
        persistent_hits: Mean pricings recalled from the persistent
            cross-session what-if cache (0 when no cache is configured).
        budget_policy: The budget discipline the cell ran under.
        backend: The cost backend the cell ran against.
        event_counts: **Summed** session event counts by kind across seeds
            (``whatif_call``, ``budget_deny``, ``checkpoint``, ``stop``, …).
        stop_reasons: Early-stop reasons of the seeds a policy halted
            (empty when every run spent its full budget).
        seeds: Seeds used.
        seed_metrics: Raw per-seed scalars (improvement, calls, seconds,
            cache counters, stop reason, event counts) in seed order — the
            un-aggregated values behind the means/sums above, exported to
            the ``BENCH_*.json`` archive.
        results: The underlying per-seed results (for convergence plots).
    """

    workload: str
    tuner: str
    max_indexes: int
    budget: int
    improvement_mean: float
    improvement_std: float
    calls_used: float
    seconds: float
    cache_hit_rate: float = 0.0
    normalized_hits: float = 0.0
    cost_seconds: float = 0.0
    persistent_hits: float = 0.0
    budget_policy: str = "fcfs"
    backend: str = "analytic"
    event_counts: dict[str, int] = field(default_factory=dict)
    stop_reasons: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    seed_metrics: list[dict] = field(default_factory=list)
    results: list[TuningResult] = field(default_factory=list, repr=False)


class ExperimentRunner:
    """Runs tuning grids over one workload.

    Args:
        workload: The workload under test.
        candidates: Optional pre-built candidate set (generated once
            otherwise and shared across all cells).
        seeds: RNG seeds for stochastic tuners (the paper uses five).
        keep_results: Retain full per-seed results on each record (needed
            for convergence series; disable to save memory in big sweeps —
            and required off for ``parallel > 1``, because live optimizers
            never cross the process boundary).
        parallel: Worker processes for cell execution. ``1`` (default) runs
            serially in-process; ``N > 1`` fans (tuner, K, B, seed) units
            out via :mod:`repro.parallel` with a deterministic merge.

    A run's backend selection — a spec, a name, or ``None`` for the
    environment's — is resolved once, here in the parent, never in a
    worker, so every cell runs and its record names the same backend.
    """

    def __init__(
        self,
        workload: Workload,
        candidates: list[Index] | None = None,
        seeds: list[int] | None = None,
        keep_results: bool = True,
        parallel: int = 1,
    ):
        if parallel < 1:
            raise TuningError(f"parallel must be at least 1, got {parallel}")
        if parallel > 1 and keep_results:
            raise TuningError(
                "parallel execution cannot retain live per-seed results; "
                "pass keep_results=False (convergence series need a serial "
                "runner)"
            )
        self._workload = workload
        self._candidates = (
            candidates
            if candidates is not None
            else CandidateGenerator(workload.schema).for_workload(workload)
        )
        self._seeds = seeds or spawn_seeds(DEFAULT_SEED, 5)
        self._keep_results = keep_results
        self._parallel = parallel

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def candidates(self) -> list[Index]:
        return list(self._candidates)

    @property
    def parallel(self) -> int:
        return self._parallel

    # ------------------------------------------------------------------ #
    # cell spec construction and aggregation (shared serial/parallel)
    # ------------------------------------------------------------------ #

    def _cell_specs(
        self,
        factory: TunerFactory,
        budget: int,
        constraints: TuningConstraints,
        stochastic: bool,
        budget_policy: str | None,
        label: str = "",
        backend: BackendSpec | None = None,
    ) -> list[CellSpec]:
        """One spec per seed for a (tuner, K, B) cell, in seed order."""
        seeds = self._seeds if stochastic else self._seeds[:1]
        specs = []
        for seed in seeds:
            tuner = factory(seed)
            specs.append(
                CellSpec(
                    label=label or tuner.name,
                    workload=self._workload,
                    candidates=tuple(self._candidates),
                    tuner=tuner,
                    budget=budget,
                    constraints=constraints,
                    seed=seed,
                    budget_policy=budget_policy,
                    backend=backend,
                )
            )
        return specs

    def _aggregate(
        self,
        outcomes: list[SeedOutcome],
        constraints: TuningConstraints,
        budget: int,
        budget_policy: str | None,
        results: list[TuningResult],
        backend: BackendSpec,
        sanitize: bool,
    ) -> RunRecord:
        """Fold per-seed outcomes (in seed order) into one record.

        This is the single aggregation path for serial and parallel runs:
        the parallel merge feeds it worker-shipped outcomes, the serial
        loop feeds it in-process ones, and the resulting records are
        bit-identical (timing fields aside). ``sanitize`` replays each
        seed's event stream through the validator.
        """
        improvements: list[float] = []
        calls: list[float] = []
        elapsed: list[float] = []
        hit_rates: list[float] = []
        norm_hits: list[float] = []
        cost_secs: list[float] = []
        persist_hits: list[float] = []
        event_counts: dict[str, int] = {}
        stop_reasons: list[str] = []
        tuner_name = ""
        for outcome in outcomes:
            tuner_name = outcome.tuner_name
            if sanitize:
                # Post-hoc replay of the recorded stream: catches invariant
                # breaks even for tuners driven outside a sanitized session
                # (and for streams shipped back from worker processes).
                EventStreamValidator.validate(outcome.events, budget=outcome.budget)
            improvements.append(outcome.improvement)
            calls.append(float(outcome.calls_used))
            elapsed.append(outcome.seconds)
            for event in outcome.events:
                event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
            if outcome.stop_reason is not None:
                stop_reasons.append(outcome.stop_reason)
            if outcome.stats is not None:
                hit_rates.append(outcome.stats.hit_rate)
                norm_hits.append(float(outcome.stats.normalized_hits))
                cost_secs.append(outcome.stats.cost_seconds)
                persist_hits.append(float(outcome.stats.persistent_hits))
        mean, std = mean_and_std(improvements)

        def _mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return RunRecord(
            workload=self._workload.name,
            tuner=tuner_name,
            max_indexes=constraints.max_indexes,
            budget=budget,
            improvement_mean=mean,
            improvement_std=std,
            calls_used=sum(calls) / len(calls),
            seconds=sum(elapsed) / len(elapsed),
            cache_hit_rate=_mean(hit_rates),
            normalized_hits=_mean(norm_hits),
            cost_seconds=_mean(cost_secs),
            persistent_hits=_mean(persist_hits),
            budget_policy=budget_policy or "fcfs",
            backend=backend.name,
            event_counts=event_counts,
            stop_reasons=stop_reasons,
            seeds=[outcome.seed for outcome in outcomes],
            seed_metrics=[outcome.as_metrics() for outcome in outcomes],
            results=results,
        )

    @staticmethod
    def _run_settings(backend: BackendSpec | str | None) -> tuple[BackendSpec, bool]:
        """The run's backend spec and sanitize flag, from one environment read."""
        config = ReproConfig.from_env()
        return resolve_spec(backend, config), config.sanitize

    def _run_specs_serial(
        self, specs: list[CellSpec]
    ) -> tuple[list[SeedOutcome], list[TuningResult]]:
        """Run specs in-process, retaining live results when configured."""
        outcomes: list[SeedOutcome] = []
        results: list[TuningResult] = []
        for spec in specs:
            outcome, result = run_seed_with_result(spec)
            outcomes.append(outcome)
            if self._keep_results:
                results.append(result)
        return outcomes, results

    # ------------------------------------------------------------------ #

    def run_cell(
        self,
        factory: TunerFactory,
        budget: int,
        constraints: TuningConstraints,
        stochastic: bool = True,
        budget_policy: str | None = None,
        backend: BackendSpec | str | None = None,
    ) -> RunRecord:
        """Run one (tuner, K, B) cell, averaging seeds when stochastic.

        With ``parallel > 1`` the per-seed runs execute concurrently in
        worker processes and merge in seed order.

        Args:
            budget_policy: Optional budget-discipline name forwarded to
                :meth:`~repro.tuners.base.Tuner.tune` (``None`` keeps the
                config default, FCFS).
            backend: Optional cost-backend selection (name or picklable
                spec) applied to every seed (``None`` selects the
                environment's backend, analytic by default).
        """
        backend, sanitize = self._run_settings(backend)
        specs = self._cell_specs(
            factory, budget, constraints, stochastic, budget_policy, backend=backend
        )
        if self._parallel > 1:
            outcomes = execute_specs(specs, self._parallel)
            results: list[TuningResult] = []
        else:
            outcomes, results = self._run_specs_serial(specs)
        return self._aggregate(
            outcomes, constraints, budget, budget_policy, results, backend, sanitize
        )

    def run_budget_sweep(
        self,
        factory: TunerFactory,
        budgets: list[int],
        constraints: TuningConstraints,
        stochastic: bool = True,
        budget_policy: str | None = None,
        backend: BackendSpec | str | None = None,
    ) -> list[RunRecord]:
        """Run one tuner across a budget axis (one record per budget).

        Like :meth:`run_grid` with a single algorithm and a single ``K``;
        under ``parallel > 1`` all (budget, seed) units run concurrently.
        """
        backend, sanitize = self._run_settings(backend)
        cells = [
            self._cell_specs(
                factory, budget, constraints, stochastic, budget_policy,
                backend=backend,
            )
            for budget in budgets
        ]
        return self._execute_cells(
            cells,
            [(budget, constraints) for budget in budgets],
            budget_policy,
            backend,
            sanitize,
        )

    def run_grid(
        self,
        factories: dict[str, tuple[TunerFactory, bool]],
        budgets: list[int],
        k_values: list[int],
        max_storage_bytes: int | None = None,
        budget_policy: str | None = None,
        backend: BackendSpec | str | None = None,
    ) -> list[RunRecord]:
        """Run the full grid.

        With ``parallel > 1`` every (tuner, K, B, seed) unit across the
        whole grid is fanned out to one process pool, and records are
        merged in the same (K, budget, roster) order the serial loop
        produces.

        Args:
            factories: ``{label: (factory, stochastic)}`` per algorithm.
            budgets: Budget axis (the paper's x-axis).
            k_values: Cardinality constraints (one sub-figure per value).
            max_storage_bytes: Optional storage constraint applied to all
                cells.
            budget_policy: Optional budget-discipline name applied to all
                cells (``None`` keeps the config default, FCFS).
            backend: Optional cost-backend selection applied to all cells
                (``None`` selects the environment's backend, analytic by
                default).

        Returns:
            Records ordered by (K, budget, insertion order of factories).
        """
        backend, sanitize = self._run_settings(backend)
        cells: list[list[CellSpec]] = []
        cell_meta: list[tuple[int, TuningConstraints]] = []
        for k in k_values:
            constraints = TuningConstraints(
                max_indexes=k, max_storage_bytes=max_storage_bytes
            )
            for budget in budgets:
                for label, (factory, stochastic) in factories.items():
                    cells.append(
                        self._cell_specs(
                            factory,
                            budget,
                            constraints,
                            stochastic,
                            budget_policy,
                            label=label,
                            backend=backend,
                        )
                    )
                    cell_meta.append((budget, constraints))
        return self._execute_cells(cells, cell_meta, budget_policy, backend, sanitize)

    def _execute_cells(
        self,
        cells: list[list[CellSpec]],
        cell_meta: list[tuple[int, TuningConstraints]],
        budget_policy: str | None,
        backend: BackendSpec,
        sanitize: bool,
    ) -> list[RunRecord]:
        """Run grouped cell specs (serially or pooled) and aggregate each."""
        records: list[RunRecord] = []
        if self._parallel > 1:
            flat = [spec for cell in cells for spec in cell]
            outcomes = execute_specs(flat, self._parallel)
            cursor = 0
            for cell, (budget, constraints) in zip(cells, cell_meta, strict=True):
                chunk = outcomes[cursor : cursor + len(cell)]
                cursor += len(cell)
                records.append(
                    self._aggregate(
                        chunk, constraints, budget, budget_policy, [], backend, sanitize
                    )
                )
        else:
            for cell, (budget, constraints) in zip(cells, cell_meta, strict=True):
                outcomes, results = self._run_specs_serial(cell)
                records.append(
                    self._aggregate(
                        outcomes, constraints, budget, budget_policy, results, backend,
                        sanitize,
                    )
                )
        return records
