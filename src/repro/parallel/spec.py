"""Picklable cell specs and per-seed outcomes for the parallel executor.

The paper's grids are embarrassingly parallel: every (tuner, K, B, seed)
cell is an independent tuning run. :class:`CellSpec` is the unit of work a
worker process receives — everything it needs to rebuild prepared optimizer
state locally (the workload, the candidate set, a fresh un-run tuner
instance, the constraints and the run's settings) in one picklable
bundle. :class:`SeedOutcome` is the scalar payload shipped back: the
ground-truth improvement, the counted calls, the full
:class:`~repro.budget.events.SessionEvent` stream and the
:class:`~repro.optimizer.whatif.WhatIfStats` counters, so the merge side
aggregates exactly what the serial path would have seen.

Live optimizers never cross the process boundary — workers evaluate
``true_improvement()`` locally and ship the float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.budget.events import SessionEvent
from repro.catalog import Index
from repro.config import ReproConfig, TuningConstraints
from repro.optimizer.whatif import WhatIfStats
from repro.tuners.base import Tuner
from repro.workload.query import Workload


@dataclass(frozen=True)
class CellSpec:
    """One (tuner, K, B, seed) unit of work for a worker process.

    Attributes:
        label: Roster label (diagnostic; names the cell in errors).
        workload: The workload under test (pickled inline — workloads are
            small: a schema plus a query list).
        candidates: The shared candidate set (pickled; regenerating in the
            worker would also be deterministic, but shipping the exact list
            keeps custom candidate sets bit-identical).
        tuner: A fresh, un-run tuner instance. The factory is applied in
            the parent so arbitrary (unpicklable) factories keep working —
            only the resulting tuner must pickle.
        budget: What-if call budget ``B``.
        constraints: Outcome constraints ``Γ``.
        seed: The RNG seed this cell runs under (already baked into
            ``tuner``; recorded for merge order and error messages).
        config: The run's settings, resolved in the parent and forwarded
            whole to :meth:`~repro.tuners.base.Tuner.tune`, so a worker
            never reads its environment. A config is plain primitives, so
            it pickles across the pool; the worker rebuilds the live
            backend locally.
    """

    label: str
    workload: Workload
    candidates: tuple[Index, ...]
    tuner: Tuner
    budget: int | None
    constraints: TuningConstraints
    seed: int
    config: ReproConfig


@dataclass
class SeedOutcome:
    """Scalar results of one seeded run, shipped back from a worker.

    Attributes:
        label: Roster label of the producing cell.
        seed: RNG seed of the run.
        tuner_name: ``Tuner.name`` of the algorithm that ran.
        improvement: Ground-truth percentage improvement
            (:meth:`~repro.tuners.base.TuningResult.true_improvement`,
            evaluated worker-side — uncounted, per the paper's protocol).
        calls_used: Counted what-if calls consumed.
        budget: The budget the run was given.
        seconds: Wall-clock of the ``tune()`` call in the worker.
        stop_reason: Why the budget policy halted early (``None`` = ran to
            completion).
        events: The full session event stream (validated again merge-side
            when the runtime sanitizers are enabled).
        stats: The optimizer's hot-path counters.
    """

    label: str
    seed: int
    tuner_name: str
    improvement: float
    calls_used: int
    budget: int | None
    seconds: float
    stop_reason: str | None = None
    events: list[SessionEvent] = field(default_factory=list, repr=False)
    stats: WhatIfStats | None = None

    def event_counts(self) -> dict[str, int]:
        """Events per kind for this seed (only kinds that occurred)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def as_metrics(self) -> dict:
        """The raw per-seed scalars exported to the JSON bench archive.

        :class:`~repro.eval.runner.RunRecord` aggregates across seeds
        (means for ``calls_used``/``seconds``, *sums* for event counts);
        these raw values make that aggregation reconstructible downstream.
        """
        metrics: dict = {
            "seed": self.seed,
            "improvement": self.improvement,
            "calls_used": self.calls_used,
            "seconds": self.seconds,
            "stop_reason": self.stop_reason,
            "event_counts": self.event_counts(),
        }
        if self.stats is not None:
            metrics["cache_hit_rate"] = self.stats.hit_rate
            metrics["normalized_hits"] = self.stats.normalized_hits
            metrics["cost_seconds"] = self.stats.cost_seconds
            metrics["persistent_hits"] = self.stats.persistent_hits
            metrics["speculative_priced"] = self.stats.speculative_priced
            metrics["speculation_wasted"] = self.stats.speculation_wasted
        return metrics
