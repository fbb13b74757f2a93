"""The benchmark's tuning workloads: inputs, tuner, budget and checks.

Each :class:`WorkloadSpec` names one closed-loop tuning workload. The
benchmark's workload seed is the only varying input: it is turned into the
generated inputs here (the MCTS seed on TPC-DS, the query order on Real-D
and Real-M), and the program under test only ever sees those inputs
through the public ``Tuner.tune`` API. Seed 0 reproduces the repo's
registered suites (``real_d_workload(num_tables=791)`` and
``real_m_workload(num_tables=48)``, the scale-0.1 registry entries).

The smoke specs run the same tuners, policies and cost store over the toy
and TPC-H workloads with tiny budgets, so the harness can check itself in
seconds (``run.py --smoke``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.config import TuningConstraints
from repro.tuners import DTATuner, MCTSTuner, Tuner, VanillaGreedyTuner
from repro.workload.query import Workload
from repro.workload.suites.real import real_d_workload, real_m_workload
from repro.workload.suites.toy import toy_workload
from repro.workload.suites.tpcds import tpcds_workload
from repro.workload.suites.tpch import tpch_workload


def _shuffled(build: Callable[[], Workload]) -> Callable[[int], Workload]:
    """A builder whose seed shuffles the registered queries' order.

    The queries themselves never vary: query-mix seeds stretch DTA's Real-D
    session from 0.87 s to 1.55 s, wider than the regression bound, and
    schema seeds swing greedy's Real-M improvement from 25% to 53%.
    """

    def build_shuffled(seed: int) -> Workload:
        workload = build()
        if seed:
            random.Random(seed).shuffle(workload.queries)
        return workload

    return build_shuffled


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload.

    Attributes:
        name: Workload name on the command line.
        build: Workload seed -> fresh workload (no registry cache).
        tuner: Workload seed -> tuner instance.
        budget: What-if call budget ``B``.
        max_indexes: Cardinality constraint ``K``.
        storage_factor: Storage cap as a multiple of the database size
            (``None``: no storage constraint).
        budget_policy: Budget policy name.
        prefill_budget: When set, an untimed session with this budget
            fills a persistent what-if cache that every timed session
            starts from (a fresh copy each time).
        exercised: Per-layer metrics this workload must drive above zero.
        bypassed: Per-layer metrics this workload must leave at zero.
    """

    name: str
    build: Callable[[int], Workload]
    tuner: Callable[[int], Tuner]
    budget: int
    max_indexes: int = 20
    storage_factor: float | None = None
    budget_policy: str = "fcfs"
    prefill_budget: int | None = None
    exercised: tuple[str, ...] = field(default=())
    bypassed: tuple[str, ...] = field(default=())

    def constraints(self, workload: Workload) -> TuningConstraints:
        cap = None
        if self.storage_factor is not None:
            cap = int(self.storage_factor * workload.schema.total_size_bytes)
        return TuningConstraints(max_indexes=self.max_indexes, max_storage_bytes=cap)


_MCTS_EXERCISED = (
    "core.select_calls",
    "core.nodes",
    "core.actions_calls",
    "core.episodes",
    "core.priors_s",
    "core.extract_s",
    "optimizer.derived_calls",
    "optimizer.whatif_cost_calls",
)
_GREEDY_EXERCISED = (
    "tuners.greedy_calls",
    "optimizer.prefetch_calls",
    "optimizer.trial_cost_calls",
    "optimizer.prepared_queries",
    "backend.evaluations",
    "budget.checkpoints",
)
_DTA_EXERCISED = _GREEDY_EXERCISED + (
    "optimizer.whatif_cost_calls",
    "budget.admits_calls",
    "backend.recalls",
    "backend.cache_bytes_written",
)
_CORE_BYPASSED = ("core.nodes", "core.episodes", "core.select_calls")
_STORE_BYPASSED = ("backend.recalls", "backend.cache_bytes_written")

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mcts_tpcds",
            build=lambda seed: tpcds_workload(),
            tuner=lambda seed: MCTSTuner(seed=seed),
            budget=500,
            exercised=_MCTS_EXERCISED,
            bypassed=_STORE_BYPASSED,
        ),
        WorkloadSpec(
            name="greedy_realm",
            build=_shuffled(lambda: real_m_workload(num_tables=48)),
            tuner=lambda seed: VanillaGreedyTuner(),
            budget=5000,
            exercised=_GREEDY_EXERCISED,
            bypassed=_CORE_BYPASSED + _STORE_BYPASSED,
        ),
        WorkloadSpec(
            name="dta_reald",
            build=_shuffled(lambda: real_d_workload(num_tables=791)),
            tuner=lambda seed: DTATuner(),
            budget=5000,
            storage_factor=3.0,
            budget_policy="wii",
            prefill_budget=2500,
            exercised=_DTA_EXERCISED,
            bypassed=_CORE_BYPASSED,
        ),
    )
}

SMOKE_WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mcts_toy",
            build=lambda seed: toy_workload(),
            tuner=lambda seed: MCTSTuner(seed=seed),
            budget=40,
            max_indexes=4,
            exercised=_MCTS_EXERCISED,
            bypassed=_STORE_BYPASSED,
        ),
        WorkloadSpec(
            name="greedy_tpch",
            build=lambda seed: tpch_workload(),
            tuner=lambda seed: VanillaGreedyTuner(),
            budget=150,
            max_indexes=5,
            exercised=_GREEDY_EXERCISED,
            bypassed=_CORE_BYPASSED + _STORE_BYPASSED,
        ),
        WorkloadSpec(
            name="dta_tpch",
            build=lambda seed: tpch_workload(),
            tuner=lambda seed: DTATuner(),
            budget=150,
            max_indexes=5,
            storage_factor=3.0,
            budget_policy="wii",
            prefill_budget=60,
            exercised=_DTA_EXERCISED,
            bypassed=_CORE_BYPASSED,
        ),
    )
}
