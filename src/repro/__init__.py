"""repro — budget-aware index tuning with reinforcement learning.

A complete, self-contained reproduction of *"Budget-aware Index Tuning with
Reinforcement Learning"* (Wu et al., SIGMOD 2022): an MCTS-based index
configuration enumeration algorithm that searches under a budget on what-if
optimizer calls, together with everything it runs on — a SQL front-end, a
catalog with hypothetical indexes, a cost-based what-if optimizer, candidate
index generation, the budget-aware greedy baselines, the DBA-bandits /
No-DBA / DTA comparison systems, and the full experiment harness.

Quickstart::

    from repro import MCTSTuner, TuningConstraints, get_workload

    workload = get_workload("tpch")
    tuner = MCTSTuner(seed=0)
    result = tuner.tune(workload, budget=500,
                        constraints=TuningConstraints(max_indexes=10))
    print(f"improvement: {result.true_improvement():.1f}%")
    for index in result.configuration:
        print(" ", index.display())
"""

from repro.backend import (
    BACKEND_NAMES,
    AnalyticBackend,
    BackendSpec,
    CostBackend,
    NoisyBackend,
    ReplayBackend,
    build_backend,
)
from repro.catalog import (
    Column,
    ColumnStats,
    ColumnType,
    ForeignKey,
    Index,
    Schema,
    SchemaBuilder,
    Table,
)
from repro.config import ABLATION_PRESETS, MCTSConfig, TuningConstraints
from repro.exceptions import (
    BudgetExhaustedError,
    CatalogError,
    ConstraintError,
    InvalidIndexError,
    OptimizerError,
    ReproError,
    SQLSyntaxError,
    TraceError,
    TraceMissError,
    TuningError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.optimizer import CostDerivation, CostModel, CostModelParams

# Back-compat re-export: new code should go through repro.backend.
from repro.optimizer import WhatIfOptimizer  # repro-lint: off[REP007]
from repro.sqlparser import parse_select
from repro.tuners import (
    AutoAdminGreedyTuner,
    DBABanditTuner,
    DTATuner,
    MCTSTuner,
    NoDBATuner,
    RandomSearchTuner,
    TimeBudgetedTuner,
    Tuner,
    TuningResult,
    TwoPhaseGreedyTuner,
    VanillaGreedyTuner,
)
from repro.workload import (
    CandidateGenerator,
    WorkloadCompressor,
    Query,
    SynthesisProfile,
    Workload,
    WorkloadSynthesizer,
    bind_query,
)
from repro.workload.suites import available_workloads, get_workload

__version__ = "1.0.0"

__all__ = [
    "ABLATION_PRESETS",
    "AnalyticBackend",
    "AutoAdminGreedyTuner",
    "BACKEND_NAMES",
    "BackendSpec",
    "BudgetExhaustedError",
    "CandidateGenerator",
    "CatalogError",
    "Column",
    "ColumnStats",
    "ColumnType",
    "ConstraintError",
    "CostBackend",
    "CostDerivation",
    "CostModel",
    "CostModelParams",
    "DBABanditTuner",
    "DTATuner",
    "ForeignKey",
    "Index",
    "InvalidIndexError",
    "MCTSConfig",
    "MCTSTuner",
    "NoDBATuner",
    "NoisyBackend",
    "OptimizerError",
    "Query",
    "RandomSearchTuner",
    "ReplayBackend",
    "ReproError",
    "SQLSyntaxError",
    "Schema",
    "SchemaBuilder",
    "SynthesisProfile",
    "Table",
    "TimeBudgetedTuner",
    "TraceError",
    "TraceMissError",
    "Tuner",
    "TuningConstraints",
    "TuningError",
    "TuningResult",
    "TwoPhaseGreedyTuner",
    "UnknownColumnError",
    "UnknownTableError",
    "VanillaGreedyTuner",
    "WhatIfOptimizer",
    "Workload",
    "WorkloadCompressor",
    "WorkloadSynthesizer",
    "available_workloads",
    "bind_query",
    "build_backend",
    "get_workload",
    "parse_select",
    "__version__",
]
