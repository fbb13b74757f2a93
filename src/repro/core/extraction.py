"""Extraction of the best configuration (Section 6.3).

Two strategies:

* **BCE** (Best Configuration Explored) — return the best configuration
  seen during search: all tree states plus all rollout samples, compared by
  derived workload cost. The search tracks this incrementally.
* **BG** (Best Greedy) — rerun Algorithm 1 over the candidate set using the
  information accumulated during search. Following the paper's
  implementation choice, BG literally reuses the greedy procedure, in the
  running session; at extraction time the budget is spent, so every
  ``cost(q, C)`` resolves to the derived cost — no further what-if calls
  are issued.

The optional hybrid (Appendix C.2) returns the better of the two.
"""

from __future__ import annotations

from repro.backend.base import CostBackend
from repro.catalog import Index
from repro.config import TuningConstraints
from repro.tuners.base import TuningSession
from repro.tuners.greedy import greedy_enumerate


class BestExploredTracker:
    """Incrementally tracks the best configuration explored (for BCE)."""

    def __init__(self, optimizer: CostBackend, constraints: TuningConstraints):
        self._optimizer = optimizer
        self._constraints = constraints
        self._best: frozenset[Index] = frozenset()
        self._best_cost = optimizer.empty_workload_cost()

    @property
    def best(self) -> frozenset[Index]:
        return self._best

    @property
    def best_cost(self) -> float:
        return self._best_cost

    def observe(self, configuration: frozenset[Index], cost: float) -> bool:
        """Record an explored configuration and its evaluated workload cost.

        Returns:
            ``True`` when the observation became the new best.
        """
        if not self._constraints.admits(configuration):
            return False
        if cost < self._best_cost:
            self._best = configuration
            self._best_cost = cost
            return True
        return False

    def refresh(self) -> None:
        """Re-derive the best cost (new what-if knowledge may tighten it)."""
        self._best_cost = self._optimizer.derived_workload_cost(self._best)


def extract_bce(tracker: BestExploredTracker) -> frozenset[Index]:
    """BCE: the best configuration explored during the search."""
    return tracker.best


def extract_bg(session: TuningSession) -> frozenset[Index]:
    """BG: greedy extraction over the session's accumulated derived costs."""
    return greedy_enumerate(session, session.candidates, session.constraints)


def extract_best(
    strategy: str,
    session: TuningSession,
    tracker: BestExploredTracker,
    hybrid: bool = False,
) -> frozenset[Index]:
    """Dispatch on the configured extraction strategy.

    Args:
        strategy: ``"bg"`` or ``"bce"``.
        session: The running tuning session (BG's greedy pass draws
            through it).
        tracker: The search's best-explored tracker (BCE).
        hybrid: When true, return the better (by derived cost) of BG and BCE
            regardless of ``strategy``.
    """
    if hybrid:
        optimizer = session.optimizer
        bce = extract_bce(tracker)
        bg = extract_bg(session)
        bce_cost = optimizer.derived_workload_cost(bce)
        bg_cost = optimizer.derived_workload_cost(bg)
        return bg if bg_cost <= bce_cost else bce
    if strategy == "bce":
        return extract_bce(tracker)
    return extract_bg(session)
