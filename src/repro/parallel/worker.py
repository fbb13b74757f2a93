"""The worker side of the parallel executor.

:func:`run_seed` is the module-level entry point a process pool imports and
executes. It rebuilds all prepared optimizer state locally (the tuner's
``tune()`` builds a fresh :class:`~repro.backend.base.CostBackend` from
the spec's picklable config over the shipped workload, exactly as the
serial path does per seed), evaluates the ground-truth improvement
worker-side, and returns a compact
:class:`~repro.parallel.spec.SeedOutcome`.

The same function body backs the serial path
(:func:`run_seed_with_result`), so serial and parallel runs execute
literally the same per-seed code — the determinism contract is structural,
not re-implemented.
"""

from __future__ import annotations

import copy
import time

from repro.parallel.spec import CellSpec, SeedOutcome
from repro.tuners.base import TuningResult


def run_seed_with_result(spec: CellSpec) -> tuple[SeedOutcome, TuningResult]:
    """Run one cell and return both the outcome and the live result.

    Used in-process by the serial path, which may need to retain the full
    :class:`~repro.tuners.base.TuningResult` (convergence series need the
    live optimizer). The parallel path only ships the outcome.
    """
    tuner = spec.tuner
    start = time.perf_counter()
    result = tuner.tune(
        spec.workload,
        budget=spec.budget,
        constraints=spec.constraints,
        candidates=list(spec.candidates),
        optimizer_config=spec.config,
    )
    elapsed = time.perf_counter() - start
    improvement = result.true_improvement()
    stats = None
    if result.optimizer is not None:
        # Snapshot after the ground-truth evaluation: the serial runner has
        # always read the counters at aggregation time, i.e. including the
        # uncounted evaluation lookups — keep those totals identical.
        stats = copy.copy(result.optimizer.stats)
        # Flush the persistent what-if cache (if configured) and release
        # pricing threads. close() keeps the optimizer usable, so callers
        # retaining the live result (convergence series) are unaffected.
        result.optimizer.close()
    outcome = SeedOutcome(
        label=spec.label,
        seed=spec.seed,
        tuner_name=result.tuner,
        improvement=improvement,
        calls_used=result.calls_used,
        budget=result.budget,
        seconds=elapsed,
        stop_reason=result.stop_reason,
        events=result.events,
        stats=stats,
    )
    return outcome, result


def run_seed(spec: CellSpec) -> SeedOutcome:
    """Process-pool entry point: run one cell, return the picklable outcome."""
    outcome, _ = run_seed_with_result(spec)
    return outcome
