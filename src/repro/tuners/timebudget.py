"""Time-budgeted tuning: the user-facing knob the paper proposes to keep.

Section 8: "it is not our intention to expose the number of what-if calls
as a tunable knob to the end user — we propose to retain the same control
that DTA provides today, which is tuning time as a budget. Internally, we
can map this time budget to the number of what-if calls allowed."

:class:`TimeBudgetedTuner` wraps any call-budgeted tuner with exactly that
mapping, using the :class:`~repro.eval.timemodel.WhatIfTimeModel` calibrated
for the workload.
"""

from __future__ import annotations

from repro.catalog import Index
from repro.config import ReproConfig, TuningConstraints
from repro.eval.timemodel import WhatIfTimeModel
from repro.exceptions import TuningError
from repro.tuners.base import Tuner, TuningResult
from repro.workload.query import Workload


class TimeBudgetedTuner:
    """Adapter exposing a tuning-time budget over a call-budgeted tuner.

    Args:
        inner: Any :class:`~repro.tuners.base.Tuner` (MCTS by default
            downstream; the adapter is algorithm-agnostic).
        time_model: Optional pre-calibrated latency model; built per
            workload otherwise.
    """

    def __init__(self, inner: Tuner, time_model: WhatIfTimeModel | None = None):
        self._inner = inner
        self._time_model = time_model

    @property
    def name(self) -> str:
        return f"{self._inner.name}@time"

    def tune_for_minutes(
        self,
        workload: Workload,
        minutes: float,
        constraints: TuningConstraints | None = None,
        candidates: list[Index] | None = None,
        optimizer_config: ReproConfig | None = None,
    ) -> TuningResult:
        """Tune under a wall-clock budget, mapped to a what-if call budget.

        Args:
            workload: Workload to tune.
            minutes: Tuning-time budget in minutes (the DTA-style knob).
            constraints: Outcome constraints ``Γ``.
            candidates: Optional pre-built candidate set.
            optimizer_config: The run's settings (budget policy, backend,
                cache), forwarded to the inner tuner.

        Raises:
            TuningError: If the time budget affords no what-if calls at all
                (shorter than the workload's fixed analysis time).
        """
        if minutes <= 0:
            raise TuningError(f"time budget must be positive, got {minutes}")
        model = self._time_model or WhatIfTimeModel(workload)
        budget = model.budget_for_minutes(minutes)
        if budget < 1:
            raise TuningError(
                f"a {minutes:.1f}-minute budget affords no what-if calls on "
                f"this workload (fixed analysis time exceeds it)"
            )
        return self._inner.tune(
            workload,
            budget=budget,
            constraints=constraints,
            candidates=candidates,
            optimizer_config=optimizer_config,
        )
