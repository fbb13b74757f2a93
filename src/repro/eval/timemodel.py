"""A calibrated what-if latency model (the paper's Figure 2 substrate).

The paper reports that a what-if call incurs a full optimization cycle —
about one second on most TPC-DS queries — and that what-if calls take 75-93%
of total tuning time across budgets. Since our substrate costs queries in
microseconds, wall-clock figures (Figure 2 and the minute annotations on
every budget axis) are reproduced through this latency model instead:

* per-call latency grows with the query's plan-search size, proxied by its
  number of table accesses;
* non-what-if tuning time is modelled as a per-workload startup (parsing,
  candidate generation) plus a small per-call bookkeeping overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.cost_model import CostModel
from repro.workload.query import Query, Workload


@dataclass(frozen=True)
class TuningTimeBreakdown:
    """Figure 2's two bars for one budget.

    Attributes:
        whatif_seconds: Time spent inside what-if optimizer calls.
        other_seconds: All other index tuning time.
    """

    whatif_seconds: float
    other_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.whatif_seconds + self.other_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0

    @property
    def whatif_fraction(self) -> float:
        total = self.total_seconds
        return self.whatif_seconds / total if total > 0 else 0.0


class WhatIfTimeModel:
    """Maps what-if call counts to wall-clock tuning time for a workload.

    Args:
        workload: The workload being tuned.
        base_call_seconds: Fixed per-call optimizer overhead (parse/analyze).
        per_scan_seconds: Additional per-call cost per table access (plan
            enumeration grows with the join graph).
        startup_seconds_per_query: One-off per-query analysis cost.
        bookkeeping_fraction: Non-what-if time proportional to what-if time
            (cache maintenance, enumeration logic).
    """

    def __init__(
        self,
        workload: Workload,
        base_call_seconds: float = 0.12,
        per_scan_seconds: float = 0.105,
        startup_seconds_per_query: float = 3.0,
        bookkeeping_fraction: float = 0.08,
    ):
        self._workload = workload
        self._base = base_call_seconds
        self._per_scan = per_scan_seconds
        self._startup = startup_seconds_per_query
        self._bookkeeping = bookkeeping_fraction
        # Plan shapes (table accesses) come from the analytic cost model
        # whatever backend a run prices with. It needs no backend, so the
        # model reads no run settings and no environment variable.
        self._model = CostModel(workload.schema)
        self._accesses: dict[str, int] = {}

    def call_seconds(self, query: Query) -> float:
        """Latency of one what-if call on ``query``."""
        accesses = self._accesses.get(query.qid)
        if accesses is None:
            prepared = self._model.prepare(query.bind(self._workload.schema))
            accesses = self._accesses[query.qid] = len(prepared.accesses)
        return self._base + self._per_scan * accesses

    @property
    def mean_call_seconds(self) -> float:
        """Average what-if latency over the workload."""
        total = sum(self.call_seconds(query) for query in self._workload)
        return total / len(self._workload)

    def breakdown(self, num_calls: int) -> TuningTimeBreakdown:
        """Figure 2's decomposition for a run of ``num_calls`` what-if calls."""
        if num_calls < 0:
            raise ValueError(f"num_calls must be non-negative, got {num_calls}")
        whatif = num_calls * self.mean_call_seconds
        other = (
            self._startup * len(self._workload) + self._bookkeeping * whatif
        )
        return TuningTimeBreakdown(whatif_seconds=whatif, other_seconds=other)

    def minutes_for_budget(self, budget: int) -> float:
        """Total tuning minutes for a budget — the paper's x-axis annotation."""
        return self.breakdown(budget).total_minutes

    def budget_for_minutes(self, minutes: float) -> int:
        """Inverse mapping: the call budget a time budget affords.

        This is the paper's proposed way to keep exposing a *time* knob to
        users (as DTA does) while budgeting *calls* internally.
        """
        if minutes <= 0:
            return 0
        startup = self._startup * len(self._workload)
        seconds_left = minutes * 60.0 - startup
        per_call = self.mean_call_seconds * (1.0 + self._bookkeeping)
        if seconds_left <= 0 or per_call <= 0:
            return 0
        return int(seconds_left / per_call)
