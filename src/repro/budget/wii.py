"""Wii-style dynamic budget reallocation (after *Wii: Dynamic Budget
Reallocation In Index Tuning*, see PAPERS.md).

The FCFS discipline lets whichever query is costed first monopolise the
budget — the failure mode the paper observes for DTA's priority queue. Wii's
remedy is to *slice* the budget per query and dynamically *reallocate* slack
that its owner is not using.

This implementation keeps the two mechanisms and adapts the signals to the
offline session model of this repository:

* **Slicing** — on :meth:`bind` the budget ``B`` is split evenly over the
  workload's queries (workload order breaks the remainder tie). A counted
  call for a query is granted from its own slice first.
* **Reallocation** — at every session checkpoint, queries that drew *no*
  counted call since the previous checkpoint release a ``release_rate``
  fraction of their unused slice into a shared pool; queries whose slice is
  spent may then borrow from the pool. Demand is thus observed per
  checkpoint interval rather than requiring per-query completion signals.

Invariants: every grant charges the global meter, so total consumption never
exceeds ``B``; slice transfers conserve ``sum(slices) + pool ≤ B``; with an
unlimited budget the policy degenerates to always-grant (like FCFS).
"""

from __future__ import annotations

import math

from repro.budget.meter import BudgetMeter
from repro.budget.policy import BudgetPolicy
from repro.exceptions import TuningError


class WiiReallocationPolicy(BudgetPolicy):
    """Per-query budget slices with checkpoint-driven slack reallocation.

    Args:
        meter: The global budget meter.
        release_rate: Fraction of an idle query's unused slice released to
            the shared pool at each checkpoint (``(0, 1]``; 1 releases all
            slack immediately, small values reallocate conservatively).
    """

    name = "wii"

    def __init__(self, meter: BudgetMeter, release_rate: float = 0.5):
        if not 0.0 < release_rate <= 1.0:
            raise TuningError(
                f"release_rate must lie in (0, 1], got {release_rate}"
            )
        super().__init__(meter)
        self._release_rate = release_rate
        self._slices: dict[str, int] = {}
        self._spent_by: dict[str, int] = {}
        self._pool = 0
        self._active: set[str] = set()
        self._sliced = False

    # ------------------------------------------------------------------ #
    # introspection (reports and tests)
    # ------------------------------------------------------------------ #

    @property
    def slices(self) -> dict[str, int]:
        """Current per-query slice sizes (a copy)."""
        return dict(self._slices)

    @property
    def spent_by_query(self) -> dict[str, int]:
        """Counted calls consumed per query (a copy)."""
        return dict(self._spent_by)

    @property
    def pool(self) -> int:
        """Reallocatable slack released by idle queries."""
        return self._pool

    # ------------------------------------------------------------------ #
    # policy protocol
    # ------------------------------------------------------------------ #

    def bind(self, workload) -> None:
        """Split the budget evenly over the workload's queries (once)."""
        if self._sliced:
            return
        qids = [query.qid for query in workload]
        budget = self.meter.budget
        if budget is None or not qids:
            return
        base, remainder = divmod(budget, len(qids))
        self._slices = {
            qid: base + (1 if position < remainder else 0)
            for position, qid in enumerate(qids)
        }
        self._sliced = True

    def admits(self, qid: str) -> bool:
        if self._meter.exhausted:
            return False
        if not self._sliced:
            # Unlimited budget or unbound session: no slicing to enforce.
            return True
        if self._spent_by.get(qid, 0) < self._slices.get(qid, 0):
            return True
        return self._pool > 0

    def _consume(self, qid: str) -> None:
        self._meter.charge()
        if not self._sliced:
            return
        self._active.add(qid)
        spent = self._spent_by.get(qid, 0)
        if spent >= self._slices.get(qid, 0):
            # Borrow: move one unit of pooled slack into this query's slice.
            self._pool -= 1
            self._slices[qid] = self._slices.get(qid, 0) + 1
        self._spent_by[qid] = spent + 1

    def on_checkpoint(self, calls_used: int, improvement: float | None) -> None:
        """Reallocate: idle queries release part of their unused slice."""
        if self._sliced:
            for qid, slice_size in self._slices.items():
                if qid in self._active:
                    continue
                unused = slice_size - self._spent_by.get(qid, 0)
                if unused <= 0:
                    continue
                released = math.ceil(unused * self._release_rate)
                self._slices[qid] = slice_size - released
                self._pool += released
            self._active.clear()
        super().on_checkpoint(calls_used, improvement)
