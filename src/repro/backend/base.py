"""The :class:`CostBackend` protocol — the contract every cost engine honours.

A *cost backend* is what every enumeration algorithm, the MCTS core, the
eval grid, the parallel workers, and the CLI talk to when they need a
(query, configuration) cost. The protocol captures the full what-if API
surface the stack consumes:

* budget-metered costing (:meth:`~CostBackend.whatif_cost`, the greedy hot
  path — one probe with :meth:`~CostBackend.trial_cost`, a whole step with
  :meth:`~CostBackend.greedy_step_costs` — and the batched
  :meth:`~CostBackend.whatif_prefetch` /
  :meth:`~CostBackend.whatif_workload_costs`);
* free derived costing (:meth:`~CostBackend.derived_cost` and friends,
  Section 3.1) and free empty-configuration costs;
* evaluation-only ground truth (:meth:`~CostBackend.true_cost`,
  :meth:`~CostBackend.true_workload_cost`, :meth:`~CostBackend.explain`);
* session wiring (budget :attr:`~CostBackend.policy`, event stream,
  cost-observer hooks) and the :class:`~repro.optimizer.whatif.WhatIfStats`
  hot-path counters.

Concrete backends live beside this module: the analytic cost model
(:class:`~repro.backend.analytic.AnalyticBackend`, the default), a seeded
noisy variant (:class:`~repro.backend.noisy.NoisyBackend`), a live
Postgres planner (:class:`~repro.backend.postgres.PostgresBackend`), and
replay (:class:`~repro.backend.replay.ReplayBackend`), which serves a
session recorded in a persistent what-if cache shard
(:mod:`repro.backend.cache`). They are constructed through
:func:`~repro.backend.factory.build_backend`; constructing the raw
:class:`~repro.optimizer.whatif.WhatIfOptimizer` outside this package is a
boundary violation flagged by lint rule REP007.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.budget.events import EventLog
    from repro.budget.meter import BudgetMeter
    from repro.budget.policy import BudgetPolicy
    from repro.catalog import Index
    from repro.optimizer.derivation import CostDerivation
    from repro.optimizer.prepared import PreparedQuery
    from repro.optimizer.whatif import WhatIfCall, WhatIfStats
    from repro.workload.query import Query, Workload


@runtime_checkable
class CostBackend(Protocol):
    """What every cost engine exposes to the tuning stack.

    The contract (see DESIGN.md §5e for the full statement):

    * a configuration is an iterable of indexes or an ``int`` bitmask over
      the backend's index positions (:meth:`position` interns an index;
      bit ``1 << position`` stands for it), interchangeably, in every
      method that takes one; :meth:`trial_cost` and
      :meth:`greedy_step_costs` take masks only;
    * a call is *counted* iff the normalized (query, configuration) pair is
      uncached and the budget :attr:`policy` grants it; cached pairs are
      free and bit-stable;
    * committed counted calls appear in :attr:`call_log` in issue order and
      are reported to the attached event stream;
    * :meth:`whatif_prefetch` / :meth:`whatif_workload_costs` commit cache,
      budget, and log updates strictly in issue order, so batched costing
      is bit-identical to the sequential loop for every pool size;
    * :meth:`greedy_step_costs` returns every trial's workload cost with
      the floats, counted calls, stats, log and events of prefetching the
      step's pairs and then probing each with :meth:`trial_cost`;
    * cost evaluations are deterministic per backend instance configuration
      (a seeded noisy backend included): rebuilding the same backend and
      replaying the same call sequence yields identical floats;
    * :meth:`true_cost` / :meth:`true_workload_cost` are evaluation-only
      and never touch the budget.
    """

    # ------------------------------------------------------------------ #
    # identity and wiring
    # ------------------------------------------------------------------ #

    @property
    def workload(self) -> "Workload": ...

    @property
    def meter(self) -> "BudgetMeter": ...

    @property
    def policy(self) -> "BudgetPolicy": ...

    @policy.setter
    def policy(self, policy: "BudgetPolicy") -> None: ...

    @property
    def events(self) -> "EventLog | None": ...

    def attach_events(self, events: "EventLog | None") -> None: ...

    @property
    def calls_used(self) -> int: ...

    @property
    def call_log(self) -> "list[WhatIfCall]": ...

    @property
    def derivation(self) -> "CostDerivation": ...

    @property
    def stats(self) -> "WhatIfStats": ...

    def add_cost_observer(self, observer) -> None: ...

    @property
    def cost_observers(self) -> tuple: ...

    def prepared(self, query: "Query") -> "PreparedQuery": ...

    def position(self, index: "Index") -> int: ...

    @property
    def whatif_shard(self) -> "Path | None": ...

    def close(self) -> None: ...

    # ------------------------------------------------------------------ #
    # budget-metered costing
    # ------------------------------------------------------------------ #

    def empty_cost(self, query: "Query") -> float: ...

    def empty_workload_cost(self) -> float: ...

    def is_cached(self, query: "Query", configuration) -> bool: ...

    def whatif_cost(self, query: "Query", configuration) -> float: ...

    def trial_cost(
        self, query: "Query", base_cost: float, trial: int, extra: int
    ) -> float: ...

    def greedy_step_costs(
        self, trials, current: dict[str, float], best_cost: float
    ) -> list[float]: ...

    def whatif_prefetch(self, pairs) -> int: ...

    def whatif_workload_costs(
        self, configurations, *, on_exhausted: str = "raise"
    ) -> list[float]: ...

    def whatif_workload_cost(self, configuration) -> float: ...

    # ------------------------------------------------------------------ #
    # derived (free) costing
    # ------------------------------------------------------------------ #

    def derived_cost(self, query: "Query", configuration) -> float: ...

    def derived_query_costs(self, configuration) -> list[float]: ...

    def derived_workload_cost(self, configuration) -> float: ...

    # ------------------------------------------------------------------ #
    # evaluation-only access
    # ------------------------------------------------------------------ #

    def true_cost(self, query: "Query", configuration) -> float: ...

    def true_workload_cost(self, configuration) -> float: ...

    def explain(self, query: "Query", configuration): ...
